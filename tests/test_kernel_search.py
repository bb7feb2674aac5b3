import math
from dataclasses import astuple, replace

import numpy as np
import pytest

from peskit.circuit_search import search_circuit
from peskit.data import standardize, synth_pes, write_rows
from peskit.gp import SearchTrace, TraceRow
from peskit.kernel_search import DEFAULT_BASES, expand, search_classical
from peskit.kernels import Leaf, Prod, Sum, new_leaf, serialize
from peskit.nngp import search_depth
from search_config import search_config


FAST = search_config(classical_budget=8, final_budget=10, max_depth=3)


def _fast_search(data):
    return search_classical(data, FAST, 0, bases=("RBF", "DOT", "MAT52"))


def _search_data(n_points, seed, n):
    # a search fits the targets it is given; callers standardize them
    data = synth_pes(2, n_points, seed=seed).subset(range(n))
    return replace(data, y=standardize(data.y)[0])


def test_expand_shapes_and_count():
    inc = new_leaf("RBF", coef=1.0)
    out = expand(inc, bases=("RBF", "DOT"))
    assert len(out) == 5  # sum + product per base, plus the incumbent
    assert out[-1] is inc
    sums = [e for e in out if isinstance(e, Sum)]
    prods = [e for e in out if isinstance(e, Prod)]
    assert len(sums) == len(prods) == 2
    for s in sums:
        assert s.left.coef is not None and s.right.coef is not None
    for p in prods:
        assert p.left.coef is not None and p.right.coef is None
    with pytest.raises(ValueError):
        expand(inc, bases=())


def test_expand_attaches_coef_to_bare_incumbent():
    inc = new_leaf("DOT", coef=None)
    out = expand(inc, bases=("RBF",))
    assert out[0].left.coef == 1.0
    assert out[-1] is inc  # original object, coefficient untouched


def test_search_returns_fitted_winner_and_trace():
    data = _search_data(80, 0, 60)
    kernel, params, trace = _fast_search(data)
    assert isinstance(trace, SearchTrace)
    assert len(trace.rows) >= 1
    assert all(isinstance(r, TraceRow) for r in trace.rows)
    assert params.size >= 1
    # the kernel holds the fitted expression: its winner text is its form
    assert kernel.describe(params) == serialize(kernel.expr)
    # trace iterations are consecutive from zero
    assert [r.iteration for r in trace.rows] == list(range(len(trace.rows)))


def test_search_best_bic_trace_is_monotone():
    data = _search_data(80, 1, 60)
    _, _, trace = _fast_search(data)
    bics = [r.criterion for r in trace]
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bics, bics[1:]))


def test_search_is_deterministic():
    data = _search_data(70, 2, 50)
    k1, p1, t1 = _fast_search(data)
    k2, p2, t2 = _fast_search(data)
    assert serialize(k1.expr) == serialize(k2.expr)
    assert np.array_equal(p1.values, p2.values)
    assert [r.criterion for r in t1] == [r.criterion for r in t2]


SEARCHES = {
    "classical": _fast_search,
    "nngp": lambda data: search_depth(
        data, search_config(nngp_budget=8, nngp_max_depth=3), 0),
    "circuit": lambda data: search_circuit(
        data, search_config(beam_width=2, refine_budget=6, final_budget=6,
                            max_depth=3, sigma_n=0.1), 0),
}


@pytest.mark.parametrize("search", SEARCHES)
def test_trace_csv(tmp_path, search):
    _, _, trace = SEARCHES[search](_search_data(70, 3, 50))
    path = tmp_path / "trace.csv"
    write_rows(trace, TraceRow, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("iteration,n_candidates,winner,score,criterion,M,"
                        "wall_time")
    assert len(lines) == len(trace) + 1
    # no column is a placeholder: every number a search records is finite
    for row in trace:
        numbers = [v for v in astuple(row) if not isinstance(v, str)]
        assert all(math.isfinite(v) for v in numbers), row


def test_search_refuses_an_empty_base_set():
    # refused as expand refuses it, not by min() of an empty first pool
    with pytest.raises(ValueError, match="base set must be nonempty"):
        search_classical(_search_data(20, 0, 10), FAST, 0, bases=())


def test_default_bases_cover_the_five_families():
    assert set(DEFAULT_BASES) == {"RBF", "DOT", "RQ", "PER",
                                  "MAT12", "MAT32", "MAT52"}
