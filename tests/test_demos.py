"""Both demos run end to end, at a small training-set size, and print the
lines they document."""

import importlib.util
import re
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
N_TRAIN = 40  # a few seconds each; the demos' default is 300

NUMBER = r"-?\d+\.\d\d"


def _run(name, capsys):
    """The printed lines of ``demos/<name>.py``'s ``main(N_TRAIN)``."""
    spec = importlib.util.spec_from_file_location(name, DEMOS / f"{name}.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    demo.main(N_TRAIN)
    return capsys.readouterr().out.splitlines()


def _steps(lines, pattern):
    """The trace lines between the header and the blank line, each matching
    ``pattern``, numbered from 0."""
    steps = lines[1:lines.index("")]
    assert steps
    for i, step in enumerate(steps):
        assert re.fullmatch(rf"  {i}: {pattern}", step), step
    return steps


def test_classical_search_demo(capsys):
    lines = _run("classical_search_demo", capsys)
    assert lines[0] == "search trace (iteration, BIC, kernel):"
    steps = _steps(lines, rf"BIC= *{NUMBER}  \S.*")
    assert len(lines) == len(steps) + 5
    assert re.fullmatch(r"composite winner: \S.*", lines[-3])
    assert re.fullmatch(rf"composite test-set RMSE: {NUMBER} cm\^-1",
                        lines[-2])
    assert re.fullmatch(rf"single-RBF test-set RMSE: {NUMBER} cm\^-1",
                        lines[-1])


def test_circuit_search_demo(capsys):
    lines = _run("circuit_search_demo", capsys)
    assert lines[0] == "search trace (iteration, beta, layers):"
    steps = _steps(lines, rf"beta= *{NUMBER}  \[[^\]]+\]")
    assert len(lines) == len(steps) + 5
    for line, label in zip(lines[-3:], ("converged circuit RMSE:",
                                        "zero-layer baseline RMSE:",
                                        "fixed all-pairs RMSE:")):
        assert re.fullmatch(rf"{label} +{NUMBER}", line), line
