import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

SRC = Path(__file__).resolve().parents[1] / "src"

# runs in a fresh interpreter, whose OpenBLAS reads its thread count from the
# environment at load; prints the loaded count, the rows and the winners
_CHILD = """
import ctypes, json, sys
from dataclasses import asdict
from pathlib import Path
import numpy as np
from peskit.bench import ExperimentConfig, run_interpolation

libs = Path(np.__file__).parent.parent / "numpy.libs"
lib = ctypes.CDLL(str(next(libs.glob("*openblas*"))))
get = lib.scipy_openblas_get_num_threads64_
get.argtypes, get.restype = [], ctypes.c_int
cfg = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
table, artifacts = run_interpolation(cfg)
print(json.dumps({"threads": get(),
                  "rows": [asdict(r) for r in table.rows],
                  "winners": artifacts["winners"]}))
"""

_CONFIG = {
    "dataset": {"kind": "synthetic", "dims": 3, "n_points": 400, "seed": 0,
                "pes": "coupled-morse"},
    "families": ["rbf", "nngp", "quantum-fixed"],
    "seeds": [0],
    "n_train": [200],
    "classical_budget": 16,
    "final_budget": 16,
    "nngp_budget": 16,
    "nngp_max_depth": 2,
    "sigma_n": 0.1,
}


# the thread-count getters a bundled OpenBLAS may export: the scipy-openblas
# wheels' ILP64 (numpy 2) and LP64 (scipy) names, then plain OpenBLAS's
_GETTERS = ("scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


def _bundled_openblas(package):
    """The OpenBLAS bundled in the ``<package>.libs`` folder, or None."""
    libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
    found = sorted(libs.glob("*openblas*"))
    return ctypes.CDLL(str(found[0])) if found else None


def _openblas():
    lib = _bundled_openblas(np)
    if lib is None:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    return lib


def test_loaded_openblas_uses_the_pinned_thread_count():
    # conftest.py pins the count before numpy loads; a plugin that imported
    # numpy first would leave OpenBLAS at its default, one thread per core.
    # numpy's copy runs the Grams' products, scipy's the factor and solves.
    want = int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
    checked = []
    for package in (np, scipy):
        lib = _bundled_openblas(package)
        name = next((g for g in _GETTERS if hasattr(lib, g)), None)
        if name is None:
            continue
        get = getattr(lib, name)
        get.argtypes, get.restype = [], ctypes.c_int
        assert get() == want, f"{package.__name__}'s OpenBLAS"
        checked.append(package.__name__)
    if len(checked) < 2:
        missing = [p for p in ("numpy", "scipy") if p not in checked]
        pytest.skip(f"no thread-count getter in {' or '.join(missing)}'s "
                    "bundled OpenBLAS")


def _run_child(threads):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="ignore")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    out = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(_CONFIG)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_results_agree_across_blas_thread_counts():
    # threaded BLAS sums in another order, so the rows agree to rounding,
    # not bitwise; at n_train=200 OpenBLAS's threaded paths run
    _openblas()
    one, two = _run_child(1), _run_child(2)
    assert one["threads"] == 1
    if two["threads"] < 2:
        pytest.skip("this host caps OpenBLAS at one thread")
    assert one["winners"] == two["winners"]
    assert len(one["rows"]) == len(two["rows"]) == 3
    for a, b in zip(one["rows"], two["rows"]):
        for key in ("family", "size", "seed", "M", "n_test"):
            assert a[key] == b[key]
        for key in ("rmse", "score", "criterion"):
            assert a[key] == pytest.approx(b[key], rel=1e-9, abs=0.0)
