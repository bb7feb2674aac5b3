import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.stats import norm

from peskit.optimizer import (SENTINEL, OptResult, SearchSpace,
                              _expected_improvement, _matern52,
                              _surrogate_fit, maximize, stable_seed)


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
    assert np.allclose(space.center(), [1.0, 0.0])
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
    assert res.seed == 9
    i = int(np.argmax(res.values))
    assert res.best_value == res.values[i]


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
