import ctypes
import os
from pathlib import Path

import numpy as np
import pytest


def test_loaded_openblas_uses_the_pinned_thread_count():
    # conftest.py pins the count before numpy loads; a plugin that imported
    # numpy first would leave OpenBLAS at its default, one thread per core
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    found = sorted(libs.glob("*openblas*"))
    if not found:
        pytest.skip("numpy is not linked against a bundled OpenBLAS")
    get = ctypes.CDLL(str(found[0])).scipy_openblas_get_num_threads64_
    get.restype = ctypes.c_int
    assert get() == int(os.environ.get("OPENBLAS_NUM_THREADS", "1"))
