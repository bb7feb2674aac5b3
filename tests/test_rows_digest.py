import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "rows_digest.py"

TINY = {"dataset": {"kind": "synthetic", "dims": 3, "n_points": 80, "seed": 0,
                    "pes": "coupled-morse"},
        "families": ["rbf", "quantum-fixed", "quantum-variable"], "seeds": [0],
        "n_train": [30],
        "classical_budget": 8, "refine_budget": 6, "final_budget": 8,
        "beam_width": 2, "max_depth": 2, "sigma_n": 0.1, "threads": 1}


def _digest(path):
    return subprocess.run([sys.executable, str(TOOL), str(path)], check=True,
                          capture_output=True, text=True).stdout


def test_rows_digest_is_identical_across_runs(tmp_path):
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(TINY))
    first = _digest(config)
    assert first == _digest(config)
    lines = first.splitlines()
    assert sum(line.startswith("row ") for line in lines) == 3
    assert any(line.startswith("trace_quantum-variable_30_0 ") for line in lines)
    assert [line.split()[1] for line in lines if line.startswith("winner ")] \
        == ["quantum-fixed_30_0", "quantum-variable_30_0", "rbf_30_0"]
    assert "wall_time" not in first and "0x1." in first


DIFF = TOOL.parent / "rows_diff.py"

BEFORE = """\
row {"family": "rbf", "size": 30, "seed": 0, "rmse": "0x1.0000000000000p+7", "score": "0x1.8000000000000p+3", "criterion": "0x1.0000000000000p+3", "M": 1, "n_test": 50}
trace_rbf_30_0 {"iteration": 0, "n_candidates": 1, "winner": "RBF", "score": "0x1.8000000000000p+3", "criterion": "0x1.0000000000000p+3", "M": 1}
row {"family": "quantum-variable", "size": 30, "seed": 0, "rmse": "0x1.4000000000000p+7", "score": "0x1.0000000000000p+3", "criterion": "0x1.0000000000000p+2", "M": 4}
trace_quantum-variable_30_0 {"iteration": 0, "n_candidates": 7, "winner": "RY", "score": "0x1.0000000000000p+3", "criterion": "0x1.0000000000000p+2", "M": 4}
winner quantum-variable_30_0 {"m": 3, "layers": []}
winner rbf_30_0 RBF[th=1.0]
"""


def _diff(tmp_path, before, after):
    paths = [tmp_path / "before.txt", tmp_path / "after.txt"]
    for path, text in zip(paths, (before, after)):
        path.write_text(text)
    return subprocess.run([sys.executable, str(DIFF), *map(str, paths)],
                          check=True, capture_output=True, text=True
                          ).stdout.splitlines()


def test_rows_diff_reports_moved_floats_and_changed_winners(tmp_path):
    assert _diff(tmp_path, BEFORE, BEFORE) == [
        "largest relative move",
        "  quantum-variable rmse 0.0e+00  score 0.0e+00  criterion 0.0e+00",
        "  rbf              rmse 0.0e+00  score 0.0e+00  criterion 0.0e+00",
        "changed fields: 0", "only before: 0", "only after: 0"]
    # rbf's rmse moves by 2^-44 relative; the circuit search's trace winner
    # and winner file change
    after = (BEFORE.replace("0x1.0000000000000p+7", "0x1.0000000000100p+7")
             .replace('"winner": "RY"', '"winner": "RY;H"')
             .replace('"layers": []', '"layers": [1]'))
    lines = _diff(tmp_path, BEFORE, after)
    assert lines[1] == ("  quantum-variable rmse 0.0e+00  score 0.0e+00  "
                        "criterion 0.0e+00")
    assert lines[2] == ("  rbf              rmse 5.7e-14  score 0.0e+00  "
                        "criterion 0.0e+00")
    assert lines[3:6] == [
        "changed fields: 2",
        "  trace_quantum-variable_30_0 0 winner: RY -> RY;H",
        '  winner quantum-variable_30_0 winner: {"m": 3, "layers": []} -> '
        '{"m": 3, "layers": [1]}']
    # a record on one side only is listed, not paired
    rbf_row = '"family": "rbf", "size": 30, "seed": '
    lines = _diff(tmp_path, BEFORE,
                  BEFORE.replace(rbf_row + "0", rbf_row + "1"))
    assert lines[-4:] == ["only before: 1", "  row rbf 30 0",
                          "only after: 1", "  row rbf 30 1"]
