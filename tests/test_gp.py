import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.spatial.distance import cdist

from peskit.circuit_search import (Candidate, _ChildKernel, screen,
                                   search_moves)
from peskit.data import Dataset
from peskit.gp import (_GRAM_BLOCK, DEFAULT_JITTER, JITTER_CAP,
                       KernelEvaluationError, KernelFn,
                       NotPositiveDefiniteError, ParamVector,
                       _cholesky_with_jitter, _solve_lower,
                       _solve_lower_t, beta, bic,
                       build_kernel_matrix, fit, log_marginal_likelihood,
                       predict, rmse, surrogate_objective)
from peskit.kernels import (_MATERN_NU, ClassicalKernel, Leaf, Prod, Sum,
                            _matern_r, new_leaf, param_vector, with_params)
from peskit import gp as gp_module, nngp
from peskit.nngp import NNGPKernel
from peskit.quantum import (QuantumKernel, QubitLayer, apply_layers,
                            build_fixed_ansatz, build_variable_ansatz,
                            statevectors)
from search_config import search_config


def _rbf(theta=1.0):
    expr = new_leaf("RBF", coef=None)
    return ClassicalKernel(expr=expr), param_vector(expr).with_values([theta])


def test_param_vector_with_values_replaces():
    pv = ParamVector(values=[1.0, 2.0], lower=[0.1, 0.1],
                     upper=[10.0, 10.0], scales=("log", "linear"))
    pv2 = pv.with_values([3.0, 4.0])
    assert pv2.values.tolist() == [3.0, 4.0]
    assert pv.values.tolist() == [1.0, 2.0]
    assert pv2.scales == pv.scales
    assert np.array_equal(pv2.lower, pv.lower)
    assert np.array_equal(pv2.upper, pv.upper)


def test_param_vector_rejects_wrong_length():
    pv = ParamVector(values=[1.0], lower=[0.1], upper=[10.0],
                     scales=("log",))
    with pytest.raises(ValueError):
        pv.with_values([1.0, 2.0])
    with pytest.raises(ValueError):
        ParamVector(values=[1.0], lower=[0.1], upper=[1.0],
                    scales=("log", "log"))
    with pytest.raises(ValueError):
        ParamVector(values=[1.0, 2.0], lower=[0.1], upper=[1.0, 2.0],
                    scales=("log", "log"))


def test_kernel_matrix_symmetry_is_bitwise():
    # a whole Gram is the kernel's own, both triangles; the RBF's one is
    # symmetric bit for bit
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, (30, 3))
    kernel, pv = _rbf(0.7)
    K = build_kernel_matrix(kernel, pv, X)
    assert np.array_equal(K, K.T)

    class Asymmetric(KernelFn):
        def gram(self, X, X2, params):
            n = len(X)
            return np.random.default_rng(n).standard_normal((n, n))

    # the upper triangle, diagonal included, is the one a fit reads: the
    # factor is the oracle's of the upper triangle's mirror
    for n in (1, 2, 7, 40):
        X = np.zeros((n, 1))
        G = Asymmetric().gram(X, X, None)
        assert np.array_equal(build_kernel_matrix(Asymmetric(), None, X), G)
        want = np.triu(G) + np.triu(G, 1).T + 2 * n * np.eye(n)
        got, _ = _cholesky_with_jitter(G + 2 * n * np.eye(n), 0.0)
        assert np.array_equal(np.tril(got.T), cholesky(want, lower=True))


def test_kernel_matrix_reports_offending_pair():
    class Bad(KernelFn):
        def gram(self, X, X2, params):
            # NaN wherever both rows' first coordinate exceeds 0.9
            hot = np.outer(X[:, 0] > 0.9, X2[:, 0] > 0.9)
            return np.where(hot, np.nan, 1.0)

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
        got = log_marginal_likelihood(kernel, pv, X, y, sigma_n=sigma_n)
        A = build_kernel_matrix(kernel, pv, X) \
            + (sigma_n ** 2 + DEFAULT_JITTER) * np.eye(n)
        _, logdet = np.linalg.slogdet(A)
        want = -0.5 * y @ np.linalg.solve(A, y) - 0.5 * logdet \
            - 0.5 * n * math.log(2 * math.pi)
        assert abs(got - want) < 1e-8


def test_jitter_escalates_then_fails_at_the_cap():
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
    # jitters do not accumulate: the fit is the oracle's at 1e-5
    _, _, alpha, logL, jitter = _oracle_fit(NearlyIndefinite(), None, X, y,
                                            sigma_n=0.0)
    assert gp.jitter == jitter
    assert np.array_equal(gp.alpha, alpha)
    assert gp.logL == logL

    class Indefinite(KernelFn):
        def gram(self, X, X2, params):
            n = np.atleast_2d(X).shape[0]
            return -np.eye(n)

    with pytest.raises(NotPositiveDefiniteError):
        fit(Indefinite(), None, X, y)
    assert _oracle_fit(Indefinite(), None, X, y, sigma_n=0.0) is None


def test_failed_factor_names_the_cap_and_minor_without_eigenvalues(
        monkeypatch):
    def eigvalsh(*args, **kwargs):
        raise AssertionError("a failed factorization needs no spectrum")

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)

    class ThirdMinorIndefinite(KernelFn):
        def gram(self, X, X2, params):
            return np.diag([1.0, 1.0, -1.0, 1.0])

    X = np.zeros((4, 1))
    with pytest.raises(NotPositiveDefiniteError) as err:
        fit(ThirdMinorIndefinite(), None, X, np.ones(4))
    assert str(err.value) == (
        f"factorization failed at jitter cap {JITTER_CAP:g}: "
        "leading minor 3 of 4 is not positive definite")


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
    # large positive logL passes through; very negative floors at log 1 = 0
    assert abs(surrogate_objective(500.0) - 500.0) < 1e-12
    assert surrogate_objective(-1e6) == 0.0
    assert abs(surrogate_objective(0.0) - math.log(2.0)) < 1e-15  # log(1 + 1)
    # moderate values keep sub-float resolution through logaddexp
    assert surrogate_objective(-500.0) > surrogate_objective(-600.0) > 0.0


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


def test_rmse():
    assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert abs(rmse([0.0, 0.0], [3.0, 4.0]) - math.sqrt(12.5)) < 1e-12
    with pytest.raises(ValueError):
        rmse([], [])


# ---------------------------------------------------------------------------
# bitwise oracle: the GP core with a fresh array at every step (triu mirror,
# + sigma^2 I, + jI, checked solves); the in-place path must match it exactly,
# in the upper triangle of the Gram, which is all a fit reads

def _oracle_products(X):
    """X @ X.T, its upper triangle formed as ``build_kernel_matrix`` forms
    it: above _GRAM_BLOCK rows, each row block's own X[i0:i1] @ X[i0:].T."""
    P = X @ X.T
    n = X.shape[0]
    if n > _GRAM_BLOCK:
        for i0 in range(0, n, _GRAM_BLOCK):
            i1 = min(i0 + _GRAM_BLOCK, n)
            P[i0:i1, i0:] = X[i0:i1] @ X[i0:].T
    return P


def _oracle_gram_expr(expr, X):
    d2 = cdist(X, X, "sqeuclidean")
    cache = {"d2": d2, "d": np.sqrt(np.maximum(d2, 0.0)),
             "dot": _oracle_products(X)}

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
    K = sb2 + sw2 * _oracle_products(X) / D
    kx = sb2 + sw2 * np.sum(X ** 2, axis=1) / D
    for l in range(1, depth + 1):
        sw2, sb2 = v[2 * l] ** 2, v[2 * l + 1] ** 2
        # 2 K / sqrt((1 + 2 kx)(1 + 2 kx')), scaling rows, then columns
        rows = 2.0 / np.sqrt(1.0 + 2.0 * kx)
        cols = 1.0 / np.sqrt(1.0 + 2.0 * kx)
        arg = np.clip(K * rows[:, None] * cols[None, :], -1.0, 1.0)
        K = sb2 + sw2 * (2.0 / math.pi) * np.arcsin(arg)
        kx = sb2 + sw2 * (2.0 / math.pi) * np.arcsin(2.0 * kx / (1.0 + 2.0 * kx))
    return K


def _oracle_gram(kernel, params, X):
    if isinstance(kernel, ClassicalKernel):
        return _oracle_gram_expr(with_params(kernel.expr, params.values), X)
    if isinstance(kernel, NNGPKernel):
        return _oracle_gram_nngp(kernel.depth, params.values, X)
    if isinstance(kernel, QuantumKernel):
        # a copy, one row per input: the kernel's Gram reads a view
        V = np.ascontiguousarray(
            statevectors(kernel.m, kernel.layers, params, X).T)
        return np.abs(V @ V.conj().T) ** 2
    return kernel.gram(X, X, params)


def _oracle_fit(kernel, params, X, y, sigma_n, jitter=DEFAULT_JITTER):
    """(K, L, alpha, logL, jitter), or None when the jitter ladder fails."""
    K = _oracle_gram(kernel, params, X)
    K = np.triu(K) + np.triu(K, 1).T
    n = K.shape[0]
    A = K + sigma_n ** 2 * np.eye(n)
    j = jitter
    while True:
        try:
            # Fortran order, as gp's factor (the lower triangle of the
            # F-ordered view A.T): solve_triangular then calls trtrs on L
            # itself, as gp does; a C-ordered L takes another LAPACK variant
            L = cholesky(A + j * np.eye(n) if j > 0 else A, lower=True)
            assert L.flags.f_contiguous
            break
        except np.linalg.LinAlgError:
            j = DEFAULT_JITTER if j == 0 else j * 10.0
            if j > JITTER_CAP:
                return None
    z = solve_triangular(L, y, lower=True)
    alpha = solve_triangular(L, z, lower=True, trans="T")
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
    return ClassicalKernel(expr=expr), param_vector(expr)


def _nngp_depth2():
    kernel = NNGPKernel(depth=2)
    pv = kernel.default_params().with_values([1.3, 0.2, 0.8, 0.5, 1.7, 0.05])
    return kernel, pv


def _quantum_fixed():
    kernel = build_fixed_ansatz(3)
    return kernel, kernel.default_params()


_FAMILIES = {
    "rbf": lambda: _rbf(2.0),
    "composite": _every_base_kind,
    "nngp2": _nngp_depth2,
    "quantum-fixed": _quantum_fixed,
}


def _takes_nxn_path(sigma_n, family, n):
    kernel, _ = _FAMILIES[family]()
    return sigma_n == 0 or kernel.n_features is None or kernel.n_features >= n


B = _GRAM_BLOCK


# the weight-space case (0.05, quantum-fixed, 300) is checked to round-off
# against the same oracle in test_weight_space_fit_matches_nxn_oracle; above
# B rows the classical and NNGP Grams are built from row blocks
@pytest.mark.parametrize("sigma_n,family,n", [
    (sigma_n, family, n) for sigma_n in (0.0, 0.05)
    for family in sorted(_FAMILIES)
    for n in (40, B - 1, B, B + 1, 2 * B + 3, 300)
    if _takes_nxn_path(sigma_n, family, n)])
def test_gp_core_bitwise_equals_oracle(family, n, sigma_n):
    rng = np.random.default_rng(n)
    X = rng.uniform(-1.0, 1.0, (n, 3))
    y = rng.standard_normal(n)
    kernel, pv = _FAMILIES[family]()
    K, L, alpha, logL, jitter = _oracle_fit(kernel, pv, X, y, sigma_n)
    assert np.array_equal(np.triu(build_kernel_matrix(kernel, pv, X)),
                          np.triu(K))
    assert L is not None, "oracle failed to factorize; pick another case"
    gp = fit(kernel, pv, X, y, sigma_n=sigma_n)
    assert np.array_equal(gp.alpha, alpha)
    assert gp.logL == logL
    assert gp.jitter == jitter


# ---------------------------------------------------------------------------
# row-block assembly above _GRAM_BLOCK rows

@pytest.mark.parametrize("family", ["rbf", "composite", "nngp2"])
def test_row_blocks_match_the_whole_gram_to_round_off(family):
    # each block forms its own inner products, whose last bits may depend
    # on the shape of the BLAS call, so a block-built Gram need only match
    # one whole gram(X, X) to round-off
    n = 300
    assert n > B
    X = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
    kernel, pv = _FAMILIES[family]()
    K = np.triu(build_kernel_matrix(kernel, pv, X))
    assert np.array_equal(K, np.triu(_oracle_gram(kernel, pv, X)))
    G = kernel.gram(X, X, pv)
    assert _rel(K, np.triu(G)) <= 1e-15


class _Outer(KernelFn):
    """k(x, x') = x[0] x'[0]^2, asymmetric by construction; records the
    shape of every ``gram`` call."""

    def __init__(self):
        self.calls = []

    def gram(self, X, X2, params):
        self.calls.append((len(X), len(X2)))
        return np.outer(X[:, 0], X2[:, 0] ** 2)


def test_row_blocks_keep_the_upper_triangle():
    n = 2 * B + 3
    X = np.random.default_rng(3).uniform(-1.0, 1.0, (n, 2))
    kernel = _Outer()
    K = build_kernel_matrix(kernel, None, X)
    G = np.outer(X[:, 0], X[:, 0] ** 2)
    assert np.array_equal(np.triu(K), np.triu(G))
    assert kernel.calls == [(B, n), (B, n - B), (3, 3)]


def test_row_blocks_report_the_global_pair():
    class Bad(KernelFn):
        def gram(self, X, X2, params):
            # NaN where the row's first and the column's second coordinate
            # exceed 0.9: only at pair (B + 5, 2B + 1) below
            return np.where(np.outer(X[:, 0] > 0.9, X2[:, 1] > 0.9),
                            np.nan, 1.0)

    X = np.zeros((2 * B + 3, 2))
    X[B + 5, 0] = X[2 * B + 1, 1] = 0.95
    with pytest.raises(KernelEvaluationError,
                       match=rf"\({B + 5}, {2 * B + 1}\)"):
        build_kernel_matrix(Bad(), None, X)


def test_nngp_arcsin_check_sees_later_blocks(monkeypatch):
    # with the tolerance at -1e-3, the check trips on an arcsin argument
    # above 0.999, as on the diagonal of one far-out row in the last block
    monkeypatch.setattr(nngp, "_ARCSIN_TOL", -1e-3)
    kernel, pv = _nngp_depth2()
    X = np.random.default_rng(4).uniform(-1.0, 1.0, (2 * B + 3, 3))
    build_kernel_matrix(kernel, pv, X)
    X[2 * B + 1] = 100.0
    with pytest.raises(FloatingPointError, match="arcsin argument"):
        build_kernel_matrix(kernel, pv, X)


def _child_kernel(kernel, pv, X):
    """The kernel ``screen`` scores for ``kernel`` as a child on ``X``."""
    prefix = statevectors(kernel.m, kernel.layers[:-2], pv, X)
    states = apply_layers(prefix, kernel.layers[-2:], pv, X)
    return _ChildKernel(kernel.m, kernel.layers, states)


def test_quantum_nxn_fit_above_block_size_is_whole():
    # m = 5, N = 300: 4^5 > N keeps the N x N path, with N > _GRAM_BLOCK.
    # A child kernel's states ignore X, so it must never get a row block.
    assert 300 > B
    m, n = 5, 300
    kernel = build_variable_ansatz(m, (((0, 1), (2, 3)), QubitLayer("RZ")))
    pv = kernel.default_params().with_values(
        np.random.default_rng(2).uniform(0.5, 3.0, m + 1))
    rng = np.random.default_rng(12)
    X = rng.uniform(-1.0, 1.0, (n, m))
    y = rng.standard_normal(n)
    child = _child_kernel(kernel, pv, X)
    got = fit(child, pv, X, y, sigma_n=0.1)
    want = fit(kernel, pv, X, y, sigma_n=0.1)
    assert np.array_equal(got.alpha, want.alpha)
    assert got.logL == want.logL
    init = build_variable_ansatz(m, ()).default_params().values
    cands = [Candidate(layers=(move,), params=init.copy())
             for move in search_moves(m)[:3]]
    beam = screen(cands, Dataset(X=X, y=y),
                  search_config(beam_width=2, sigma_n=0.1))
    assert all(np.isfinite(c.log_o) for c in beam.candidates)


# ---------------------------------------------------------------------------
# the in-place factor: scipy's LAPACK dpotrf in the Gram's memory

def _spd(n):
    G = np.random.default_rng(n).standard_normal((n, n))
    A = G @ G.T / n + 0.1 * np.eye(n)
    return np.triu(A) + np.triu(A, 1).T


def _weight_space_matrix():
    kernel, pv = _quantum_fixed()
    X = np.random.default_rng(1).uniform(-1.0, 1.0, (300, 3))
    Phi = kernel.features(X, pv)
    C = Phi.T @ Phi
    C.flat[::C.shape[0] + 1] += 0.05 ** 2
    return C


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B + 3, 1000, None])
def test_in_place_factor_is_scipys_cholesky(n):
    # None: the weight-space matrix C of a 3-qubit fit, r = 64
    A = _weight_space_matrix() if n is None else _spd(n)
    want = cholesky(A, lower=True)
    got, jitter = _cholesky_with_jitter(A.copy(), 0.0)
    assert jitter == 0.0
    # the factor is the lower triangle of the F-ordered view got.T
    assert np.array_equal(np.tril(got.T), want)


class _Spectrum(KernelFn):
    """Q diag(lam) Q^T for a random orthogonal Q, with one eigenvalue
    ``least`` and the rest in [0.5, 1.5]; a row's first coordinate is its
    index. Its leading minors are positive definite, so a factorization
    that fails, fails in one of the last columns, having overwritten the
    upper triangle in every row block."""

    def __init__(self, n, least):
        rng = np.random.default_rng(n)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = rng.uniform(0.5, 1.5, n)
        lam[0] = least
        self.G = (Q * lam) @ Q.T

    def gram(self, X, X2, params):
        return self.G[np.ix_(X[:, 0].astype(int), X2[:, 0].astype(int))]


def test_failed_factor_restores_the_matrix_across_blocks():
    n = 300
    assert n > 2 * B
    X = np.arange(n, dtype=float)[:, None]
    y = np.random.default_rng(0).standard_normal(n)
    # smallest eigenvalue -2e-6: five attempts fail, jitter 1e-5 passes
    kernel = _Spectrum(n, -2e-6)
    model = fit(kernel, None, X, y, sigma_n=0.0)
    _, _, alpha, logL, jitter = _oracle_fit(kernel, None, X, y, sigma_n=0.0)
    assert model.jitter == jitter == pytest.approx(1e-5)
    assert np.array_equal(model.alpha, alpha)
    assert model.logL == logL
    # -1e-2: every attempt fails
    kernel = _Spectrum(n, -1e-2)
    with pytest.raises(NotPositiveDefiniteError):
        fit(kernel, None, X, y, sigma_n=0.05)
    assert _oracle_fit(kernel, None, X, y, sigma_n=0.05) is None


class _CountedSpectrum(_Spectrum):
    """A ``_Spectrum`` that counts its ``gram`` calls."""

    calls = 0

    def gram(self, X, X2, params):
        self.calls += 1
        return super().gram(X, X2, params)


@pytest.mark.parametrize("least,builds", [(0.1, 1), (-2e-6, 2)])
def test_gram_is_built_again_only_after_a_failed_first_attempt(
        monkeypatch, least, builds):
    # a successful blocked fit assembles the Gram once; a fit whose first
    # attempt fails, twice, whatever the number of rungs after it
    n = 300
    X = np.arange(n, dtype=float)[:, None]
    y = np.random.default_rng(0).standard_normal(n)
    kernel = _CountedSpectrum(n, least)
    built = []
    real = gp_module.build_kernel_matrix

    def counted(*args):
        built.append(1)
        return real(*args)

    monkeypatch.setattr(gp_module, "build_kernel_matrix", counted)
    model = fit(kernel, None, X, y, sigma_n=0.0)
    assert len(built) == builds
    assert kernel.calls == 3 * builds  # row blocks of B, B and 44 rows
    _, _, alpha, logL, jitter = _oracle_fit(kernel, None, X, y, sigma_n=0.0)
    assert model.jitter == jitter
    assert (jitter == DEFAULT_JITTER) == (builds == 1)
    assert np.array_equal(model.alpha, alpha)
    assert model.logL == logL


def test_escalating_fit_peak_memory_in_grams():
    # the failed first attempt is dropped before the Gram is built again
    n = 300
    X = np.arange(n, dtype=float)[:, None]
    y = np.random.default_rng(6).standard_normal(n)
    kernel = _Spectrum(n, -2e-6)
    assert fit(kernel, None, X, y).jitter > DEFAULT_JITTER
    tracemalloc.start()
    try:
        fit(kernel, None, X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the bound of test_fit_peak_memory_in_grams
    assert peak / (n * n * 8) < 1.5 + 0.25


X_DIMS = {"rbf": 3, "nngp2": 3, "quantum-weight-space": 2}


@pytest.mark.parametrize("n", [40, 129, 300])
@pytest.mark.parametrize("family", ["rbf", "nngp2", "quantum-weight-space"])
def test_fit_matches_dense_solve_and_slogdet(family, n):
    # quantum-weight-space: 2 qubits, r = 16 < N, fitted in weight space
    sigma_n = 0.05
    if family == "quantum-weight-space":
        kernel, pv = next(_quantum_kernels(2))
        assert kernel.n_features < n
    else:
        kernel, pv = _FAMILIES[family]()
        assert _takes_nxn_path(sigma_n, family, n)
    rng = np.random.default_rng(n)
    X = rng.uniform(-1.0, 1.0, (n, X_DIMS[family]))
    y = np.cos(2.0 * X[:, 0]) * X[:, -1] + 0.05 * rng.standard_normal(n)
    model = fit(kernel, pv, X, y, sigma_n=sigma_n)
    G = kernel.gram(X, X, pv)
    A = np.triu(G) + np.triu(G, 1).T + (sigma_n ** 2 + model.jitter) * np.eye(n)
    alpha = np.linalg.solve(A, y)
    _, logdet = np.linalg.slogdet(A)
    logL = -0.5 * y @ alpha - 0.5 * logdet - 0.5 * n * math.log(2 * math.pi)
    assert _rel(model.alpha, alpha) <= 1e-10
    assert abs(model.logL - logL) <= 1e-10 * abs(logL)


@pytest.mark.parametrize("layout", [
    np.asfortranarray, lambda G: G.T.copy().T,
    lambda G: np.repeat(G, 2, axis=1)[:, ::2]],
    ids=["fortran", "transposed", "strided"])
def test_gram_in_any_layout_is_factored(layout):
    class Laid(KernelFn):
        def gram(self, X, X2, params):
            return layout(rbf.gram(X, X2, pv))

    rbf, pv = _rbf(2.0)
    rng = np.random.default_rng(13)
    X = rng.uniform(-1.0, 1.0, (B - 1, 3))
    y = rng.standard_normal(B - 1)
    assert not Laid().gram(X, X, None).flags.c_contiguous
    want = fit(rbf, pv, X, y, sigma_n=0.05)
    got = fit(Laid(), None, X, y, sigma_n=0.05)
    assert np.array_equal(got.alpha, want.alpha)
    assert got.logL == want.logL


def _quantum_kernels(m):
    """The fixed ansatz and a variable one with R_ZZ and R_Z layers."""
    pairs = tuple((i, i + 1) for i in range(0, m - 1, 2))
    variable = build_variable_ansatz(
        m, (pairs, QubitLayer("RZ"), ((0, m - 1),)))
    for kernel in (build_fixed_ansatz(m), variable):
        yield kernel, kernel.default_params().with_values(
            np.random.default_rng(m).uniform(0.5, 3.0, m + 1))


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("sigma_n", [0.0, 0.05])
def test_weight_space_fit_matches_nxn_oracle(m, sigma_n):
    r = 4 ** m
    for kernel, pv in _quantum_kernels(m):
        for n in (r - 4, r + 10, 300):
            rng = np.random.default_rng(n)
            X = rng.uniform(-1.0, 1.0, (n, m))
            # a smooth surface plus noise at sigma_n, as the fits see it
            y = np.cos(2.0 * X[:, 0]) * X[:, -1] + 0.05 * rng.standard_normal(n)
            Xstar = rng.uniform(-1.0, 1.0, (25, m))
            K, L, alpha, logL, jitter = _oracle_fit(kernel, pv, X, y, sigma_n)
            assert L is not None
            gp = fit(kernel, pv, X, y, sigma_n=sigma_n)
            if sigma_n == 0 or n <= r:  # the N x N path: bitwise
                assert np.array_equal(gp.alpha, alpha)
                assert gp.logL == logL
                assert np.array_equal(predict(gp, Xstar),
                                      kernel.gram(Xstar, X, pv) @ alpha)
            else:
                K_star = _oracle_gram(kernel, pv, np.vstack([Xstar, X]))[:25, 25:]
                assert abs(gp.logL - logL) <= 1e-10 * abs(logL)
                assert _rel(gp.alpha, alpha) <= 1e-10
                assert _rel(predict(gp, Xstar), K_star @ alpha) <= 1e-10
            assert gp.jitter == jitter


def test_quantum_features_reproduce_the_gram():
    for m in (2, 3):
        for kernel, pv in _quantum_kernels(m):
            X = np.random.default_rng(7).uniform(-1.0, 1.0, (30, m))
            X2 = np.random.default_rng(8).uniform(-1.0, 1.0, (20, m))
            Phi = kernel.features(X, pv)
            assert Phi.shape == (30, kernel.n_features)
            assert np.max(np.abs(Phi @ kernel.features(X2, pv).T
                                 - kernel.gram(X, X2, pv))) < 1e-14


def test_screen_child_kernel_fits_as_plain_kernel(monkeypatch):
    calls = _count_feature_calls(monkeypatch)
    m, n = 3, 120
    kernel = build_variable_ansatz(m, (((0, 1),), QubitLayer("RZ")))
    pv = kernel.default_params().with_values([0.7, 1.9, 3.1, 0.4])
    rng = np.random.default_rng(9)
    X = rng.uniform(-1.0, 1.0, (n, m))
    y = rng.standard_normal(n)
    got = log_marginal_likelihood(_child_kernel(kernel, pv, X), pv, X, y,
                                  sigma_n=0.05)
    assert calls == [n]  # weight space, through the child's own states
    assert got == log_marginal_likelihood(kernel, pv, X, y, sigma_n=0.05)


@pytest.mark.parametrize("n", [40, 100])  # N x N at 40 < 64, weight space at 100
def test_non_finite_inputs_raise_on_both_paths(n):
    kernel, pv = _quantum_fixed()
    X = np.random.default_rng(n).uniform(-1.0, 1.0, (n, 3))
    X[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite input rows"):
        fit(kernel, pv, X, np.zeros(n), sigma_n=0.05)


def test_non_finite_features_raise_kernel_evaluation_error(monkeypatch):
    kernel, pv = _quantum_fixed()

    def features(self, X, params):
        Phi = np.ones((len(X), 64))
        Phi[5, 2] = np.inf
        return Phi

    monkeypatch.setattr(QuantumKernel, "features", features)
    with pytest.raises(KernelEvaluationError, match="feature 2 at row 5"):
        fit(kernel, pv, np.zeros((100, 3)), np.zeros(100), sigma_n=0.05)


def _count_feature_calls(monkeypatch):
    """Record the row count of every ``QuantumKernel.features`` call."""
    calls = []
    real = QuantumKernel.features

    def features(self, X, params):
        calls.append(len(X))
        return real(self, X, params)

    monkeypatch.setattr(QuantumKernel, "features", features)
    return calls


def test_nxn_path_never_builds_features(monkeypatch):
    calls = _count_feature_calls(monkeypatch)
    rng = np.random.default_rng(11)
    # circuit-beam's shape: 4^5 = 1024 features against N = 150
    kernel = build_fixed_ansatz(5)
    X5 = rng.uniform(-1.0, 1.0, (150, 5))
    y5 = rng.standard_normal(150)
    fit(kernel, kernel.default_params(), X5, y5, sigma_n=0.05)
    kernel, pv = _quantum_fixed()
    fit(kernel, pv, rng.uniform(-1.0, 1.0, (300, 3)),
        rng.standard_normal(300), sigma_n=0.0)
    init = build_variable_ansatz(5, ()).default_params().values
    cands = [Candidate(layers=(move,), params=init.copy())
             for move in search_moves(5)[:4]]
    screen(cands, Dataset(X=X5, y=y5),
           search_config(beam_width=2, sigma_n=0.05))
    assert calls == []


# N x N float64 arrays alive at the peak of an N x N fit: the Gram, which
# the Cholesky factor overwrites, plus a row block's temporaries (1.51 for
# rbf, 1.29 for nngp2 measured); or the complex overlap matrix (two) and
# the Gram built from it. The quantum case fits at sigma_n = 0, which keeps
# the N x N path.
@pytest.mark.parametrize("family,grams", [("rbf", 1.5), ("nngp2", 1.5),
                                          ("quantum-fixed", 3)])
def test_fit_peak_memory_in_grams(family, grams):
    n = 500
    sigma_n = 0.0 if family == "quantum-fixed" else 0.05
    assert _takes_nxn_path(sigma_n, family, n)
    # the margin covers length-N vectors and statevectors
    assert _fit_peak_bytes(family, n, sigma_n) / (n * n * 8) < grams + 0.25


def test_weight_space_fit_peak_memory_below_one_gram():
    n = 500
    assert not _takes_nxn_path(0.05, "quantum-fixed", n)
    assert _fit_peak_bytes("quantum-fixed", n, 0.05) < n * n * 8


def _fit_peak_bytes(family, n, sigma_n):
    X = np.random.default_rng(5).uniform(-1.0, 1.0, (n, 3))
    y = np.random.default_rng(6).standard_normal(n)
    kernel, pv = _FAMILIES[family]()
    fit(kernel, pv, X, y, sigma_n=sigma_n)  # warm caches outside the trace
    tracemalloc.start()
    try:
        fit(kernel, pv, X, y, sigma_n=sigma_n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


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


_FIT_FAULTS = """
import resource
from peskit.data import standardize, synth_pes
from peskit.gp import log_marginal_likelihood
from peskit.kernels import ClassicalKernel, Leaf, param_vector
data = synth_pes(3, 200, seed=0)
y = standardize(data.y)[0]
expr = Leaf(kind="RBF", params=(1.0,), coef=None)
kernel, pv = ClassicalKernel(expr=expr), param_vector(expr)
def fits(k):
    for i in range(k):
        log_marginal_likelihood(kernel, pv.with_values([0.5 + 0.01 * i]),
                                data.X, y, sigma_n=0.1)
fits(5)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fits(50)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


@pytest.mark.skipif(not _glibc(), reason="glibc's allocator only")
def test_repeated_fits_reuse_their_gram_pages():
    # a fresh process: this session has already lifted glibc's threshold by
    # freeing large blocks; a 200-point Gram faulted in 78 pages per fit
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _FIT_FAULTS], check=True,
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True)
    assert int(out.stdout) < 100
