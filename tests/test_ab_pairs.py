import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs", Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)


def _copy(tmp_path, side, body):
    """A checkout copy named ``side`` whose perfbench/run.py is ``body``."""
    (tmp_path / side / "perfbench").mkdir(parents=True)
    (tmp_path / side / "perfbench" / "run.py").write_text(body)
    return tmp_path / side


def _result(correct, failed=0, wall_s=2.5):
    return json.dumps({"correct": correct, "attempted": 6, "failed": failed,
                       "metrics": {"wall_s": {"value": wall_s},
                                   "setup_s": {"value": 0.4}}})


def test_a_crashed_run_names_its_side_exit_code_and_traceback(tmp_path):
    copy = _copy(tmp_path, "change", "print('ready')\n"
                 "raise RuntimeError('boom in the cell loop')\n")
    with pytest.raises(RuntimeError) as err:
        ab_pairs._run(copy, "desk", 0, 0)
    message = str(err.value)
    assert message.startswith("change: run.py exited with code 1")
    assert "RuntimeError: boom in the cell loop" in message


def test_an_incorrect_run_names_its_failed_checks(tmp_path):
    copy = _copy(tmp_path, "parent", "import sys\n"
                 "print('check failed: rmse: 2 cells above the spread',"
                 " file=sys.stderr)\n"
                 f"print({_result(False, failed=2)!r})\n")
    with pytest.raises(RuntimeError, match="(?s)parent: .*code 0, correct="
                       "False.*check failed: rmse: 2 cells above"):
        ab_pairs._run(copy, "desk", 0, 0)


def test_failed_cells_reach_the_summary(tmp_path):
    parent = _copy(tmp_path, "parent", f"print({_result(True)!r})\n")
    change = _copy(tmp_path, "change",
                   f"print({_result(True, failed=1, wall_s=2.75)!r})\n")
    run = ab_pairs._run(change, "desk", 0, 0)
    assert run == {"wall_s": 2.75, "setup_s": 0.4, "failed": 1,
                   "attempted": 6}
    pairs = [(ab_pairs._run(parent, "desk", 0, 0), run)] * 2
    lines = ab_pairs.summarize(pairs, {"wall_s": 0.25, "setup_s": 0.5})
    assert lines[0].startswith("wall_s: parent median 2.500")
    assert lines[0].endswith("relative median change +0.100 vs bound 0.25")
    assert lines[1].endswith("relative median change +0.000 vs bound 0.5")
    assert lines[-1] == "failed cells: parent 0/12  change 2/12"
