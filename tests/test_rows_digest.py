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
        == ["quantum-fixed", "quantum-variable", "rbf"]
    assert "wall_time" not in first and "0x1." in first
