import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import bo_oracle
import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

from peskit import optimizer
from peskit.data import standardize, synth_pes
from peskit.gp import log_marginal_likelihood, surrogate_objective
from peskit.kernels import ClassicalKernel, Leaf, param_vector
from peskit.optimizer import (_LENGTHSCALES, SENTINEL, OptResult, SearchSpace,
                              _cholesky_each, _expected_improvement, _matern52,
                              _start_design, _surrogate_fit, maximize,
                              maximize_logl, stable_seed)
from peskit.quantum import build_variable_ansatz

SRC = Path(__file__).resolve().parents[1] / "src"


def _space(dim=2, lo=0.0, hi=1.0):
    return SearchSpace(lower=np.full(dim, lo), upper=np.full(dim, hi),
                       scales=("linear",) * dim)


def test_stable_seed_deterministic_and_distinct():
    a = stable_seed(3, "classical", "RBF[th=1.0]")
    assert a == stable_seed(3, "classical", "RBF[th=1.0]")
    assert a != stable_seed(4, "classical", "RBF[th=1.0]")
    assert a != stable_seed(3, "classical", "RBF[th=2.0]")
    assert 0 <= a < 2 ** 63


def test_search_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(lower=[1.0], upper=[1.0], scales=("linear",))
    with pytest.raises(ValueError):
        SearchSpace(lower=[0.0], upper=[1.0], scales=("log",))
    with pytest.raises(ValueError):
        SearchSpace(lower=[0.1], upper=[1.0], scales=("cubic",))


def test_unit_cube_round_trip():
    space = SearchSpace(lower=[1e-2, -5.0], upper=[1e2, 5.0],
                        scales=("log", "linear"))
    x = np.array([0.5, 2.0])
    assert np.allclose(space.from_unit(space.to_unit(x)), x)
    assert np.allclose(space.from_unit(np.full(2, 0.5)), [1.0, 0.0])
    # out-of-box points clip instead of extrapolating
    assert np.all(space.to_unit(np.array([1e3, 10.0])) <= 1.0)


def test_maximize_is_deterministic():
    def f(x):
        return -np.sum((x - 0.3) ** 2)

    a = maximize(f, _space(), budget=25, seed=11)
    b = maximize(f, _space(), budget=25, seed=11)
    assert a.best_value == b.best_value
    assert np.array_equal(a.best_point, b.best_point)
    assert a.values == b.values


def test_maximize_finds_smooth_optimum():
    def f(x):
        return float(-((x[0] - 0.62) ** 2) - (x[1] - 0.25) ** 2)

    res = maximize(f, _space(), budget=60, seed=0)
    assert res.best_value > -1e-3
    assert np.max(np.abs(res.best_point - [0.62, 0.25])) < 0.05


def test_warm_start_counts_and_never_regresses():
    calls = []

    def f(x):
        calls.append(np.array(x))
        return float(-np.sum(x ** 2))

    warm = np.array([0.05, 0.05])
    res = maximize(f, _space(), budget=10, seed=3, warm_start=warm)
    assert np.array_equal(calls[0], warm)
    assert len(calls) == 10
    assert res.best_value >= f(warm)


def test_budget_one_with_warm_start_only_evaluates_once():
    res = maximize(lambda x: float(x[0]), _space(1), budget=1, seed=0,
                   warm_start=np.array([0.7]))
    assert len(res.values) == 1
    assert res.best_point[0] == 0.7


def test_failures_map_to_sentinel_and_search_continues():
    def f(x):
        if x[0] < 0.5:
            raise RuntimeError("left half is poisoned")
        return float(x[0])

    res = maximize(f, _space(1), budget=30, seed=5)
    assert res.best_value > 0.5
    assert any(v == SENTINEL for v in res.values)


def test_all_failures_returns_sentinel():
    def f(x):
        raise RuntimeError("nothing works")

    res = maximize(f, _space(1), budget=8, seed=1)
    assert res.best_value == SENTINEL


def test_budget_validation():
    with pytest.raises(ValueError):
        maximize(lambda x: 0.0, _space(), budget=0)


def test_budget_helps_in_distribution():
    # median best over seeds should not get worse with 4x the budget
    def f(x):
        return float(np.sin(5 * x[0]) * np.sin(3 * x[1]) - (x[2] - 0.5) ** 2)

    lo = [maximize(f, _space(3), budget=15, seed=s).best_value
          for s in range(20)]
    hi = [maximize(f, _space(3), budget=60, seed=s).best_value
          for s in range(20)]
    assert np.median(hi) >= np.median(lo)


def test_log_scale_dimension_search():
    # optimum at 1.0 on a space spanning four decades
    space = SearchSpace(lower=[1e-2], upper=[1e2], scales=("log",))

    def f(x):
        return float(-np.log(x[0]) ** 2)

    res = maximize(f, space, budget=40, seed=2)
    assert abs(np.log(res.best_point[0])) < 0.3


def test_opt_result_carries_log():
    res = maximize(lambda x: float(x[0]), _space(1), budget=6, seed=9)
    assert isinstance(res, OptResult)
    assert len(res.points) == len(res.values) == 6
    i = int(np.argmax(res.values))
    assert res.best_value == res.values[i]


def test_start_design_deterministic_per_seed_and_extensible():
    a = _start_design(6, 12, 4)
    assert np.array_equal(a, _start_design(6, 12, 4))
    assert not np.any(a == _start_design(6, 12, 5))
    # the first points of a design do not depend on its size
    assert np.array_equal(a[:5], _start_design(6, 5, 4))


@pytest.mark.parametrize("n", [10, 12, 14])
def test_start_design_distinct_rows_in_half_open_cube(n):
    for P in range(1, 17):
        Z = _start_design(P, n, seed=P)
        assert Z.shape == (n, P)
        assert np.all((Z >= 0.0) & (Z < 1.0))
        assert len(np.unique(Z, axis=0)) == n


def test_start_design_projections_have_no_wide_gap():
    # iid uniform draws leave circular gaps of up to 8.3/n at these sizes
    for P in range(1, 13):
        n = max(8, 2 * P)
        for seed in range(20):
            Z = np.sort(_start_design(P, n, seed), axis=0)
            gaps = np.diff(np.vstack([Z, Z[:1] + 1.0]), axis=0)
            assert gaps.max() < 6.0 / n


def test_start_design_bitwise_equals_digit_by_digit_oracle():
    for P in range(1, 17):
        for n in (1, 8, 2 * P + 1):
            for seed in (0, 7, stable_seed("design", P)):
                assert np.array_equal(_start_design(P, n, seed),
                                      bo_oracle.start_design(P, n, seed))


def test_maximize_warns_nothing_at_five_parameters():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maximize(_bumpy, _scaled_space(5, "mixed"), budget=14, seed=0)


def test_import_leaves_scipy_stats_out():
    # a fresh process, since this session imports scipy.stats for norm
    code = ("import peskit.cli, peskit.bench, sys; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC)),
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def _ei_reference(Zcand, Z, L, alpha, ell, f_best, xi=1e-3):
    # expected improvement through scipy.stats.norm
    d = np.sqrt(np.maximum(
        np.sum(Zcand ** 2, axis=1)[:, None] + np.sum(Z ** 2, axis=1)[None, :]
        - 2.0 * Zcand @ Z.T, 0.0))
    Ks = _matern52(d / ell)
    mu = Ks @ alpha
    v = solve_triangular(L, Ks.T, lower=True)
    sd = np.sqrt(np.maximum(1.0 - np.sum(v ** 2, axis=0), 1e-12))
    gamma = (mu - f_best - xi) / sd
    return (mu - f_best - xi) * norm.cdf(gamma) + sd * norm.pdf(gamma)


def test_expected_improvement_bitwise_equals_scipy_norm():
    rng = np.random.default_rng(7)
    Z = rng.random((30, 3))
    ys = np.sin(6.0 * Z).sum(axis=1)
    ys = (ys - ys.mean()) / ys.std()
    ell, L = _surrogate_fit(Z, ys)
    alpha = solve_triangular(L.T, solve_triangular(L, ys, lower=True),
                             lower=False)
    Zc = np.vstack([rng.random((200, 3)), Z[:5]])
    # incumbents from inside the data to far above it reach both tails
    for f_best in (ys.min(), ys.max(), ys.max() + 5.0, ys.max() + 50.0):
        got = _expected_improvement(Zc, Z, L, alpha, ell, f_best)
        want = _ei_reference(Zc, Z, L, alpha, ell, f_best)
        assert np.array_equal(got, want)


def _scaled_space(P, scale):
    lower = np.linspace(0.01, 0.5, P)
    upper = lower + np.linspace(1.0, 40.0, P)
    if scale == "mixed":
        scales = tuple("log" if i % 2 else "linear" for i in range(P))
    else:
        scales = (scale,) * P
    return SearchSpace(lower=lower, upper=upper, scales=scales)


def _bumpy(x):
    return float(np.sin(3.0 * x).sum() - np.log1p(np.abs(x - 0.3)).sum())


def _poisoned(x):
    if 0.6 < x[0] < 3.0:
        raise RuntimeError("poisoned band")
    return _bumpy(x)


def _always_fails(x):
    raise RuntimeError("nothing works")


def _assert_same_run(objective, space, budget, seed, warm_start):
    got = maximize(objective, space, budget, seed=seed, warm_start=warm_start)
    points, values = bo_oracle.maximize(objective, space, budget, seed=seed,
                                        warm_start=warm_start)
    assert len(got.points) == len(points) == budget
    for a, b in zip(got.points, points):
        assert np.array_equal(a, b)
    for a, b in zip(got.values, values):
        assert a == b


@pytest.mark.parametrize("budget", [12, 30, 60])
@pytest.mark.parametrize("P", [1, 2, 3, 5, 7, 9])
def test_maximize_bitwise_equals_per_lengthscale_oracle(P, budget):
    # the stacked surrogate, direct LAPACK solves and incremental unit-cube
    # history reproduce the per-lengthscale loop point for point
    for seed, scale in enumerate(("linear", "log", "mixed", "mixed")):
        space = _scaled_space(P, scale)
        center = space.from_unit(np.full(space.dim, 0.5))
        warm = 1.1 * center if (seed + P) % 2 else None
        _assert_same_run(_bumpy, space, budget, seed, warm)


@pytest.mark.parametrize("objective", [_poisoned, _always_fails])
@pytest.mark.parametrize("P,budget", [(1, 30), (3, 12), (5, 60), (9, 30)])
def test_maximize_bitwise_equals_oracle_when_objective_raises(objective, P,
                                                              budget):
    for seed, scale in enumerate(("linear", "log", "mixed")):
        space = _scaled_space(P, scale)
        center = space.from_unit(np.full(space.dim, 0.5))
        _assert_same_run(objective, space, budget, seed, 1.1 * center)


def test_cholesky_each_marks_only_the_failed_slice():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 12, 12))
    K = A @ A.transpose(0, 2, 1) + 12.0 * np.eye(12)
    K[2] *= -1.0
    L, ok = _cholesky_each(K)
    assert ok.tolist() == [True, True, False, True]
    assert np.isnan(L[2]).all()
    for k in (0, 1, 3):
        assert np.array_equal(L[k], np.linalg.cholesky(K[k]))
    assert not _cholesky_each(-K[[0, 1, 3]])[1].any()


def _fit_problem():
    rng = np.random.default_rng(7)
    Z = rng.random((30, 3))
    ys = np.sin(6.0 * Z).sum(axis=1)
    return Z, (ys - ys.mean()) / ys.std()


def _fail_slices(monkeypatch, failed):
    # make the chosen lengthscales' matrices negative definite
    real = optimizer._cholesky_each

    def patched(K):
        K[list(failed)] *= -1.0
        return real(K)

    monkeypatch.setattr(optimizer, "_cholesky_each", patched)


def test_surrogate_fit_ties_keep_the_first_lengthscale():
    # coincident points give every lengthscale the same matrix and evidence
    Z, ys = np.zeros((6, 2)), np.random.default_rng(2).standard_normal(6)
    ell, L = _surrogate_fit(Z, ys)
    want_ell, want_L = bo_oracle.surrogate_fit(Z, ys)
    assert ell == want_ell == _LENGTHSCALES[0]
    assert np.array_equal(L, want_L)


def test_surrogate_fit_skips_a_failed_lengthscale_like_the_loop(monkeypatch):
    Z, ys = _fit_problem()
    ell, _ = _surrogate_fit(Z, ys)
    winner = int(np.flatnonzero(_LENGTHSCALES == ell)[0])
    _fail_slices(monkeypatch, {winner})
    got_ell, got_L = _surrogate_fit(Z, ys)
    want_ell, want_L = bo_oracle.surrogate_fit(Z, ys, failed={winner})
    assert got_ell != ell
    assert got_ell == want_ell
    assert np.array_equal(got_L, want_L)


def test_surrogate_fit_falls_back_when_every_lengthscale_fails(monkeypatch):
    Z, ys = _fit_problem()
    _fail_slices(monkeypatch, range(_LENGTHSCALES.size))
    got_ell, got_L = _surrogate_fit(Z, ys)
    want_ell, want_L = bo_oracle.surrogate_fit(
        Z, ys, failed=set(range(_LENGTHSCALES.size)))
    assert got_ell == want_ell == 1.0
    assert np.array_equal(got_L, want_L)


@pytest.mark.parametrize("scale", ["linear", "log", "mixed"])
def test_unit_maps_bitwise_equal_per_dimension_formula(scale):
    rng = np.random.default_rng(11)
    space = _scaled_space(5, scale)
    z = rng.uniform(-0.5, 1.5, (200, 5))  # a quarter of each side clips
    assert np.array_equal(space.from_unit(z), bo_oracle.from_unit(space, z))
    x = bo_oracle.from_unit(space, rng.random((200, 5)))
    x[::3] *= rng.uniform(0.01, 100.0, (67, 5))  # many outside the box
    assert np.array_equal(space.to_unit(x), bo_oracle.to_unit(space, x))
    for xi, zi in zip(x[:20], z[:20]):
        assert np.array_equal(space.to_unit(xi), bo_oracle.to_unit(space, xi))
        assert np.array_equal(space.from_unit(zi),
                              bo_oracle.from_unit(space, zi))


def test_failed_evaluations_log_one_warning_per_call(caplog):
    caplog.set_level(logging.WARNING, logger="peskit.optimizer")
    res = maximize(_poisoned, _scaled_space(2, "linear"), budget=30, seed=4)
    n_failed = sum(v == SENTINEL for v in res.values)
    assert 0 < n_failed < 30
    records = [r for r in caplog.records if r.name == "peskit.optimizer"]
    assert len(records) == 1
    assert f"{n_failed} of 30" in records[0].getMessage()
    assert "poisoned band" in records[0].getMessage()
    caplog.clear()
    maximize(_bumpy, _scaled_space(2, "linear"), budget=12, seed=4)
    assert not caplog.records


def _assert_same_result(a, b):
    assert len(a.points) == len(b.points)
    assert all(np.array_equal(p, q) for p, q in zip(a.points, b.points))
    assert a.values == b.values
    assert np.array_equal(a.best_point, b.best_point)
    assert a.best_value == b.best_value


def _fit_data():
    data = synth_pes(3, 40, seed=2)
    return data.X, standardize(data.y)[0]


def test_maximize_logl_equals_hand_written_rbf_objective():
    X, y = _fit_data()
    expr = Leaf(kind="RBF", params=(1.0,), coef=None)
    kernel, pv = ClassicalKernel(expr=expr), param_vector(expr)

    def objective(v):
        return log_marginal_likelihood(kernel, pv.with_values(v), X, y,
                                       sigma_n=0.1)

    want = maximize(objective, SearchSpace.from_params(pv), 14, seed=5,
                    warm_start=pv.values)
    got = maximize_logl(kernel, pv, X, y, 14, 5, 0.1)
    _assert_same_result(got, want)


def test_maximize_logl_equals_hand_written_quantum_objective():
    X, y = _fit_data()
    kernel = build_variable_ansatz(3, (((0, 1),), ((1, 2),)))
    pv = kernel.default_params()
    start = pv.values * np.linspace(0.5, 2.0, pv.size)

    def objective(v):
        logL = log_marginal_likelihood(kernel, pv.with_values(v), X, y,
                                       sigma_n=0.1)
        return surrogate_objective(logL)

    want = maximize(objective, SearchSpace.from_params(pv), 12, seed=8,
                    warm_start=start)
    got = maximize_logl(kernel, pv.with_values(start), X, y, 12, 8, 0.1)
    _assert_same_result(got, want)
    assert np.array_equal(got.points[0], start)
