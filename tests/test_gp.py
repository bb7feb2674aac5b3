import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.spatial.distance import cdist

from peskit.gp import (DEFAULT_JITTER, JITTER_CAP, KernelEvaluationError,
                       KernelFn, ModelScore, NotPositiveDefiniteError,
                       ParamVector, _solve_lower, _solve_lower_t, beta, bic,
                       build_kernel_matrix, fit, log_marginal_likelihood,
                       predict, rmse, surrogate_objective)
from peskit.kernels import (_MATERN_NU, ClassicalKernel, Leaf, Prod, Sum,
                            _matern_r, new_leaf, with_params)
from peskit.nngp import NNGPKernel
from peskit.quantum import QuantumKernel, build_fixed_ansatz, statevectors


def _rbf(theta=1.0):
    kernel = ClassicalKernel(expr=new_leaf("RBF", coef=None))
    pv = kernel.default_params().with_values([theta])
    return kernel, pv


def test_param_vector_with_values_replaces():
    pv = ParamVector(names=("a", "b"), values=[1.0, 2.0], lower=[0.1, 0.1],
                     upper=[10.0, 10.0], scales=("log", "linear"))
    pv2 = pv.with_values([3.0, 4.0])
    assert pv2.values.tolist() == [3.0, 4.0]
    assert pv.values.tolist() == [1.0, 2.0]
    assert pv2.names == pv.names


def test_param_vector_rejects_wrong_length():
    pv = ParamVector(names=("a",), values=[1.0], lower=[0.1], upper=[10.0],
                     scales=("log",))
    with pytest.raises(ValueError):
        pv.with_values([1.0, 2.0])
    with pytest.raises(ValueError):
        ParamVector(names=("a", "b"), values=[1.0], lower=[0.1], upper=[1.0],
                    scales=("log",))


def test_kernel_matrix_symmetry_is_bitwise():
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (30, 3))
    kernel, pv = _rbf(0.7)
    K = build_kernel_matrix(kernel, pv, X)
    assert np.array_equal(K, K.T)

    class Asymmetric(KernelFn):
        def gram(self, X, X2, params):
            n = len(X)
            return np.random.default_rng(n).standard_normal((n, n))

    # the upper triangle, diagonal included, is the one kept
    for n in (1, 2, 7, 40):
        X = np.zeros((n, 1))
        G = Asymmetric().gram(X, X, None)
        want = np.triu(G) + np.triu(G, 1).T
        assert np.array_equal(build_kernel_matrix(Asymmetric(), None, X), want)


def test_kernel_matrix_reports_offending_pair():
    class Bad(KernelFn):
        def eval(self, x, xp, params):
            return float("nan") if (x[0] > 0.9 and xp[0] > 0.9) else 1.0

    X = np.array([[0.1], [0.95]])
    with pytest.raises(KernelEvaluationError, match=r"\(1, 1\)"):
        build_kernel_matrix(Bad(), None, X)


def test_fit_predict_reproduces_training_targets():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 1, (40, 2))
    y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
    kernel, pv = _rbf(2.0)
    gp = fit(kernel, pv, X, y, sigma_n=0.0, jitter=1e-10)
    pred = predict(gp, X)
    assert np.max(np.abs(pred - y)) < 1e-6


def test_predict_checks_query_dimension():
    kernel, pv = _rbf()
    gp = fit(kernel, pv, np.random.default_rng(2).uniform(0, 1, (5, 3)),
             np.arange(5.0))
    with pytest.raises(ValueError):
        predict(gp, np.zeros((2, 2)))


def test_logL_matches_dense_oracle():
    # direct multivariate-normal density evaluation, N small enough for slogdet
    rng = np.random.default_rng(3)
    for n in (5, 12, 20):
        X = rng.uniform(0, 1, (n, 2))
        y = rng.standard_normal(n)
        kernel, pv = _rbf(1.3)
        sigma_n = 0.1
        got = log_marginal_likelihood(kernel, pv, X, y, sigma_n=sigma_n,
                                      jitter=0.0)
        A = build_kernel_matrix(kernel, pv, X) + sigma_n ** 2 * np.eye(n)
        _, logdet = np.linalg.slogdet(A)
        want = -0.5 * y @ np.linalg.solve(A, y) - 0.5 * logdet \
            - 0.5 * n * math.log(2 * math.pi)
        assert abs(got - want) < 1e-8


def test_jitter_escalates_then_fails_with_min_eigenvalue():
    class NearlyIndefinite(KernelFn):
        # smallest eigenvalue is -2e-6: fails below jitter 1e-5, passes at it
        def gram(self, X, X2, params):
            n = np.atleast_2d(X).shape[0]
            return np.ones((n, n)) - 2e-6 * np.eye(n)

    X = np.zeros((4, 1))
    y = np.array([1.0, -1.0, 1.0, -1.0])
    gp = fit(NearlyIndefinite(), None, X, y, sigma_n=0.0,
             jitter=DEFAULT_JITTER)
    assert gp.jitter == pytest.approx(1e-5)
    # jitters do not accumulate: the factor is the oracle's at 1e-5
    _, L, alpha, logL, jitter = _oracle_fit(NearlyIndefinite(), None, X, y,
                                            sigma_n=0.0)
    assert gp.jitter == jitter
    assert np.array_equal(gp.L, L)
    assert np.array_equal(gp.alpha, alpha)
    assert gp.logL == logL

    class Indefinite(KernelFn):
        def gram(self, X, X2, params):
            n = np.atleast_2d(X).shape[0]
            return -np.eye(n)

    with pytest.raises(NotPositiveDefiniteError) as err:
        fit(Indefinite(), None, X, y)
    assert err.value.min_eigenvalue is not None
    assert err.value.min_eigenvalue < 0
    # the eigenvalue is taken with the diagonal restored, jitter removed
    *_, min_eig = _oracle_fit(Indefinite(), None, X, y, sigma_n=0.0)
    assert err.value.min_eigenvalue == min_eig


def test_fit_validates_inputs():
    kernel, pv = _rbf()
    X = np.zeros((3, 1))
    with pytest.raises(ValueError):
        fit(kernel, pv, X, np.zeros(4))
    with pytest.raises(ValueError):
        fit(kernel, pv, X, np.zeros(3), sigma_n=-1.0)
    with pytest.raises(ValueError, match="non-finite targets"):
        fit(kernel, pv, X, np.array([0.0, np.nan, 1.0]))


def test_surrogate_objective_limits():
    # large positive logL passes through; very negative floors at log d
    assert abs(surrogate_objective(500.0) - 500.0) < 1e-12
    assert surrogate_objective(-1e6, d=1.0) == 0.0
    assert abs(surrogate_objective(-1e6, d=2.0) - math.log(2.0)) < 1e-12
    # moderate values keep sub-float resolution through logaddexp
    assert surrogate_objective(-500.0) > surrogate_objective(-600.0) > 0.0
    with pytest.raises(ValueError):
        surrogate_objective(0.0, d=0.0)


def test_bic_and_beta_penalties():
    assert bic(10.0, 0, 100) == 10.0
    assert abs(bic(10.0, 4, 100) - (10.0 - 2.0 * math.log(100))) < 1e-12
    assert abs(beta(3.0, 2, 50) - (3.0 - math.log(50))) < 1e-12
    # strictly decreasing in M for N >= 3
    assert bic(0.0, 1, 3) > bic(0.0, 2, 3)
    with pytest.raises(ValueError):
        bic(0.0, -1, 10)
    with pytest.raises(ValueError):
        beta(0.0, 0, 0)


def test_model_score_from_logL():
    s = ModelScore.from_logL(-5.0, 3, 40)
    assert s.logL == -5.0
    assert abs(s.bic - bic(-5.0, 3, 40)) < 1e-12
    assert abs(s.logO - surrogate_objective(-5.0)) < 1e-12
    assert abs(s.beta - beta(s.logO, 3, 40)) < 1e-12


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - math.sqrt(12.5)) < 1e-12
    with pytest.raises(ValueError):
        rmse([], [])


# ---------------------------------------------------------------------------
# bitwise oracle: the GP core with a fresh array at every step (triu mirror,
# + sigma^2 I, + jI, checked solves); the in-place path must match it exactly

def _oracle_gram_expr(expr, X):
    d2 = cdist(X, X, "sqeuclidean")
    cache = {"d2": d2, "d": np.sqrt(np.maximum(d2, 0.0)), "dot": X @ X.T}

    def rec(e):
        c = 1.0 if e.coef is None else e.coef
        if isinstance(e, Sum):
            return c * (rec(e.left) + rec(e.right))
        if isinstance(e, Prod):
            return c * rec(e.left) * rec(e.right)
        k, p = e.kind, e.params
        if k == "RBF":
            out = np.exp(-p[0] * cache["d2"])
        elif k == "DOT":
            out = cache["dot"].copy()
        elif k == "RQ":
            out = (1.0 + cache["d2"] / (2.0 * p[0] * p[1] ** 2)) ** (-p[0])
        elif k == "PER":
            out = np.exp(-2.0 * np.sin(np.pi * cache["d"] / p[0]) ** 2 / p[1] ** 2)
        else:
            out = _matern_r(cache["d"] / p[0], _MATERN_NU[k])
        return c * out

    return rec(expr)


def _oracle_gram_nngp(depth, v, X):
    D = X.shape[1]
    sw2, sb2 = v[0] ** 2, v[1] ** 2
    K = sb2 + sw2 * (X @ X.T) / D
    kx = sb2 + sw2 * np.sum(X ** 2, axis=1) / D
    for l in range(1, depth + 1):
        sw2, sb2 = v[2 * l] ** 2, v[2 * l + 1] ** 2
        denom = np.sqrt(np.outer(1.0 + 2.0 * kx, 1.0 + 2.0 * kx))
        arg = np.clip(2.0 * K / denom, -1.0, 1.0)
        K = sb2 + sw2 * (2.0 / math.pi) * np.arcsin(arg)
        kx = sb2 + sw2 * (2.0 / math.pi) * np.arcsin(2.0 * kx / (1.0 + 2.0 * kx))
    return K


def _oracle_gram(kernel, params, X):
    if isinstance(kernel, ClassicalKernel):
        return _oracle_gram_expr(with_params(kernel.expr, params.values), X)
    if isinstance(kernel, NNGPKernel):
        return _oracle_gram_nngp(kernel.depth, params.values, X)
    if isinstance(kernel, QuantumKernel):
        V = statevectors(kernel.spec, params, X)
        return np.abs(V @ V.conj().T) ** 2
    return kernel.gram(X, X, params)


def _oracle_fit(kernel, params, X, y, sigma_n, jitter=DEFAULT_JITTER):
    """(K, L, alpha, logL, jitter); L is None and the last entry the
    smallest eigenvalue when the jitter ladder fails."""
    K = _oracle_gram(kernel, params, X)
    K = np.triu(K) + np.triu(K, 1).T
    n = K.shape[0]
    A = K + sigma_n ** 2 * np.eye(n)
    j = jitter
    while True:
        try:
            L = np.linalg.cholesky(A + j * np.eye(n) if j > 0 else A)
            break
        except np.linalg.LinAlgError:
            j = DEFAULT_JITTER if j == 0 else j * 10.0
            if j > JITTER_CAP:
                return K, None, None, None, float(np.linalg.eigvalsh(A)[0])
    z = solve_triangular(L, y, lower=True)
    alpha = solve_triangular(L.T, z, lower=False)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    logL = float(-0.5 * y @ alpha - 0.5 * logdet
                 - 0.5 * y.size * math.log(2.0 * math.pi))
    return K, L, alpha, logL, j


def _every_base_kind():
    def leaf(kind, params, c):
        return Leaf(kind=kind, params=params, coef=c)

    expr = Sum(
        Prod(leaf("RBF", (1.7,), 0.7), leaf("DOT", (), 1.3), coef=0.9),
        Sum(leaf("RQ", (0.6, 1.4), 2.0),
            Prod(leaf("PER", (2.5, 1.9), 0.5),
                 Sum(leaf("MAT12", (0.8,), 1.1),
                     Prod(leaf("MAT32", (1.2,), 0.8),
                          leaf("MAT52", (0.9,), 1.7)))),
            coef=0.6),
        coef=1.4)
    kernel = ClassicalKernel(expr=expr)
    return kernel, kernel.default_params()


def _nngp_depth2():
    kernel = NNGPKernel(depth=2)
    pv = kernel.default_params().with_values([1.3, 0.2, 0.8, 0.5, 1.7, 0.05])
    return kernel, pv


def _quantum_fixed():
    kernel = QuantumKernel(build_fixed_ansatz(3))
    return kernel, kernel.default_params()


_FAMILIES = {
    "rbf": lambda: _rbf(2.0),
    "composite": _every_base_kind,
    "nngp2": _nngp_depth2,
    "quantum-fixed": _quantum_fixed,
}


@pytest.mark.parametrize("n", [40, 300])
@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("sigma_n", [0.0, 0.05])
def test_gp_core_bitwise_equals_oracle(family, n, sigma_n):
    rng = np.random.default_rng(n)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    y = rng.standard_normal(n)
    kernel, pv = _FAMILIES[family]()
    K, L, alpha, logL, jitter = _oracle_fit(kernel, pv, X, y, sigma_n)
    assert np.array_equal(build_kernel_matrix(kernel, pv, X), K)
    assert L is not None, "oracle failed to factorize; pick another case"
    gp = fit(kernel, pv, X, y, sigma_n=sigma_n)
    assert np.array_equal(gp.L, L)
    assert np.array_equal(gp.alpha, alpha)
    assert gp.logL == logL
    assert gp.jitter == jitter


# N x N float64 arrays alive at a fit's peak: the Gram and the Cholesky
# factor, or the complex overlap matrix (two) and the Gram built from it
@pytest.mark.parametrize("family,grams", [("rbf", 2), ("nngp2", 2),
                                          ("quantum-fixed", 3)])
def test_fit_peak_memory_in_grams(family, grams):
    n = 500
    X = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 3))
    y = np.random.default_rng(6).standard_normal(n)
    kernel, pv = _FAMILIES[family]()
    fit(kernel, pv, X, y, sigma_n=0.05)  # warm caches outside the trace
    tracemalloc.start()
    try:
        fit(kernel, pv, X, y, sigma_n=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the margin covers length-N vectors and statevectors
    assert peak / (n * n * 8) < grams + 0.25


def test_triangular_solves_bitwise_equal_scipy_and_reject_singular():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((25, 25))
    L = np.linalg.cholesky(A @ A.T + 25.0 * np.eye(25))
    for b in (rng.standard_normal(25), rng.standard_normal((25, 4)),
              rng.standard_normal((80, 25)).T):
        assert np.array_equal(_solve_lower(L, b),
                              solve_triangular(L, b, lower=True))
        assert np.array_equal(_solve_lower_t(L, b),
                              solve_triangular(L.T, b, lower=False))
    L[7, 7] = 0.0
    for solve in (_solve_lower, _solve_lower_t):
        with pytest.raises(np.linalg.LinAlgError, match="diagonal 7"):
            solve(L, np.ones(25))
