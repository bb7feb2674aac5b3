"""The bitwise contract in tier-1: rows, traces and winners of the configs
in ``tests/golden/`` against the digests committed next to them.

The configs are tiny and reach every family and fit path: whole-Gram
(``n_train`` 60) and row-block (140) assembly, the weight-space fit
(quantum kernels at 140 and sigma_n > 0), the jitter ladder (sigma_n = 0),
and circuit and composite searches of two and three iterations. At
sigma_n = 1e-6 the weight-space noise variance sigma_n^2 + jitter lies in
the jitter's binade, so a change of the jitter's last bit moves a row;
every larger diagonal absorbs it.

On the machine the digests were made on (``machine.json``), the check
compares bytes. Elsewhere round-off may differ, so it compares floats at
relative ``TOLERANCE`` and every other field exactly, and warns that it
did. A change that moves rows on purpose regenerates the golden files with
``python3 tools/rows_digest.py --golden``.
"""

import json
import subprocess
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tools"))

import rows_diff  # noqa: E402

# a second BLAS thread alone moves the sigma_n = 0 rows by up to 6.2e-6
TOLERANCE = 1e-4


def _mismatches(want, got):
    """Records of two digests that differ beyond ``TOLERANCE``."""
    old, new = rows_diff.parse(want), rows_diff.parse(got)
    found = [f"only in {side}: {key}" for side, keys in
             (("golden", old.keys() - new.keys()),
              ("run", new.keys() - old.keys())) for key in sorted(keys)]
    for key in sorted(old.keys() & new.keys()):
        a, b = old[key][1], new[key][1]
        for field in sorted(a.keys() | b.keys()):
            if field in rows_diff.FLOATS and field in a and field in b:
                x, y = float.fromhex(a[field]), float.fromhex(b[field])
                moved = x != y and abs(x - y) > TOLERANCE * max(abs(x), abs(y))
            else:
                moved = a.get(field) != b.get(field)
            if moved:
                found.append(f"{key} {field}: {a.get(field)} -> "
                             f"{b.get(field)}")
    return found


def test_rows_match_the_golden_digests(tmp_path):
    subprocess.run([sys.executable, str(ROOT / "tools" / "rows_digest.py"),
                    "--golden", str(tmp_path)], check=True,
                   capture_output=True)
    golden = sorted(path.name for path in GOLDEN.glob("*.digest.txt"))
    assert golden == sorted(path.name
                            for path in tmp_path.glob("*.digest.txt"))
    assert golden
    machine = json.loads((GOLDEN / "machine.json").read_text())
    here = json.loads((tmp_path / "machine.json").read_text())
    for name in golden:
        want = (GOLDEN / name).read_text()
        got = (tmp_path / name).read_text()
        if here == machine:
            assert got == want, (
                f"{name} differs in bytes from the golden digest (byte "
                f"check, same machine):\n"
                + "\n".join(rows_diff.diff(want, got)))
        else:
            assert _mismatches(want, got) == [], (
                f"{name} differs from the golden digest beyond relative "
                f"{TOLERANCE:g} (tolerance check, other machine)")
    if here != machine:
        warnings.warn(f"golden digests compared at relative {TOLERANCE:g}, "
                      f"not in bytes: made on {machine}, run on {here}")
