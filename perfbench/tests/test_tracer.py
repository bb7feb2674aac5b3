"""Self-test of the benchmark's tracer on a tiny config.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))

import peskit  # noqa: E402
from peskit import bench, gp, optimizer  # noqa: E402
from peskit.bench import ExperimentConfig, run_interpolation  # noqa: E402
from peskit.optimizer import SearchSpace  # noqa: E402

import tracer  # noqa: E402


def _tiny_config():
    return ExperimentConfig.from_dict({
        "dataset": {"kind": "synthetic", "dims": 3, "n_points": 60, "seed": 0,
                    "pes": "coupled-morse"},
        "families": list(bench.FAMILIES),
        "seeds": [0],
        "n_train": [30],
        "classical_budget": 4,
        "final_budget": 4,
        "refine_budget": 3,
        "beam_width": 2,
        "nngp_budget": 4,
        "nngp_max_depth": 2,
        "max_depth": 2,
        "sigma_n": 0.1,
        "threads": 1,
    })


def _rows(table):
    return [(r.family, r.size, r.seed, r.rmse, r.score, r.criterion, r.M, r.n_test)
            for r in table.rows]


@pytest.fixture(scope="module")
def traced_run():
    cfg = _tiny_config()
    untraced, _ = run_interpolation(cfg)
    tr = tracer.Tracer()
    with tr:
        leftovers = tracer.unwrapped_references()
        traced, _ = run_interpolation(cfg)
    return tr, leftovers, untraced, traced, len(untraced.rows)


def test_no_namespace_keeps_an_unwrapped_original(traced_run):
    _, leftovers, *_ = traced_run
    assert leftovers == []


def test_uninstall_restores_originals(traced_run):
    assert not hasattr(bench.maximize, "__wrapped_by_tracer__")
    assert bench.maximize is optimizer.maximize
    assert peskit.log_marginal_likelihood is gp.log_marginal_likelihood
    assert not hasattr(peskit.ClassicalKernel.gram, "__wrapped_by_tracer__")
    assert tracer.unwrapped_references() != []


def test_evals_equal_objective_calls_logged(traced_run):
    tr, *_ = traced_run
    m = tr.metrics(1)
    assert m["optimizer.evals"] > 0
    assert m["optimizer.evals"] == tr.counts["optimizer.logged_evals"]


def test_fits_cover_loglik_calls(traced_run):
    tr, *_, n_cells = traced_run
    m = tr.metrics(n_cells)
    assert m["gp.log_marginal_likelihood.calls"] > 0
    assert m["gp.fit.calls"] >= m["gp.log_marginal_likelihood.calls"]
    assert m["gp.fit.outside_objective"] >= 1


def test_every_layer_ran(traced_run):
    tr, *_, n_cells = traced_run
    m = tr.metrics(n_cells)
    for name in ("optimizer.maximize.s", "gp.build_kernel_matrix.s",
                 "kernels.ClassicalKernel.gram.s", "nngp.NNGPKernel.gram.s",
                 "quantum.QuantumKernel.gram.s", "kernel_search.search_classical.s",
                 "nngp.search_depth.s", "circuit_search.screen.s",
                 "circuit_search.refine.s", "data.load_dataset.s"):
        assert m[name] > 0, name
    assert 0 < m["circuit_search.screen.distinct_ratio"] <= 1
    assert 0 <= m["optimizer.self_share"] < 1
    assert m["bench.cell.self_s"] >= 0


def test_tracing_leaves_rows_unchanged(traced_run):
    _, _, untraced, traced, _ = traced_run
    assert repr(_rows(traced)) == repr(_rows(untraced))


def test_failures_classified_and_reraised():
    errors = [gp.NotPositiveDefiniteError("not pd"),
              gp.KernelEvaluationError("nan"), FloatingPointError("arcsin"),
              ValueError("other")]
    first = tracer.Tracer()
    with first:
        wrapped = first._wrap_objective(lambda x: (_ for _ in ()).throw(errors[0]))
        with pytest.raises(gp.NotPositiveDefiniteError) as info:
            wrapped(np.zeros(1))
    assert info.value is errors[0]
    assert first.failed_evals["not_pd"] == 1

    calls = iter(errors + [math.inf, optimizer.SENTINEL])

    def objective(x):
        item = next(calls, 0.0)
        if isinstance(item, Exception):
            raise item
        return item

    tr = tracer.Tracer()
    with tr:
        space = SearchSpace(lower=[0.0], upper=[1.0], scales=("linear",))
        res = optimizer.maximize(objective, space, budget=8, seed=0)
    assert len(res.values) == 8
    assert tr.failed_evals == {"not_pd": 1, "nonfinite": 2, "arcsin": 1, "other": 2}
    assert tr.metrics(1)["optimizer.evals"] == 8
    assert tr.metrics(1)["optimizer.fail_ratio"] == 6 / 8


def test_pair_counts_ignore_layer_order():
    a = (((0, 1), (2, 3)), ((0, 2),))
    b = (((0, 2),), ((0, 1), (2, 3)))
    assert tracer.pair_counts(a, 4) == tracer.pair_counts(b, 4) == (1, 1, 0, 0, 0, 1)
