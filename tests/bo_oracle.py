"""Reference Bayesian-optimization loop for bitwise tests of ``maximize``.

A frozen copy of the optimizer as it was before its surrogate factored all
lengthscales in one stacked call: one Matern build and one Cholesky
factorization per lengthscale, ``scipy.linalg.solve_triangular`` for every
solve, and the whole history mapped to the unit cube again at every step.
Its start design is the scrambled Halton sequence written out one point and
one digit at a time. Tests only; the library never imports it.
"""

import math

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr

from peskit.optimizer import _LENGTHSCALES, SENTINEL

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def start_design(P, n, seed):
    """Point i, dimension j: digits of i in the j-th prime base b, each
    relabeled by its digit position's permutation, read as a base-b
    fraction from the last of its ceil(53 / log2 b) digits to the first."""
    rng = np.random.default_rng([seed, 1])
    bases, k = [], 2
    while len(bases) < P:
        if all(k % p for p in bases):
            bases.append(k)
        k += 1
    perms = [[np.argsort(row).tolist()
              for row in rng.random((math.ceil(53 / math.log2(b)), b))]
             for b in bases]
    Z = np.empty((n, P))
    for i in range(n):
        for j, b in enumerate(bases):
            digits, r = [], i
            for _ in perms[j]:
                digits.append(r % b)
                r //= b
            z = 0.0
            for perm, d in reversed(list(zip(perms[j], digits))):
                z = (perm[d] + z) / b
            Z[i, j] = z
    return Z


def from_unit(space, z):
    z = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
    x = np.empty_like(z)
    for i, s in enumerate(space.scales):
        lo, hi = space.lower[i], space.upper[i]
        if s == "log":
            x[..., i] = np.exp(np.log(lo) + z[..., i] * (np.log(hi) - np.log(lo)))
        else:
            x[..., i] = lo + z[..., i] * (hi - lo)
    return x


def to_unit(space, x):
    x = np.asarray(x, dtype=float)
    z = np.empty_like(x)
    for i, s in enumerate(space.scales):
        lo, hi = space.lower[i], space.upper[i]
        if s == "log":
            z[..., i] = (np.log(x[..., i]) - np.log(lo)) / (np.log(hi) - np.log(lo))
        else:
            z[..., i] = (x[..., i] - lo) / (hi - lo)
    return np.clip(z, 0.0, 1.0)


def matern52(d):
    a = math.sqrt(5.0) * d
    return (1.0 + a + a * a / 3.0) * np.exp(-a)


def surrogate_fit(Z, y, failed=()):
    """Per-lengthscale grid fit; lengthscale indices in ``failed`` are
    treated as if their factorization had raised."""
    n = Z.shape[0]
    D = np.sqrt(np.maximum(
        np.sum(Z ** 2, axis=1)[:, None] + np.sum(Z ** 2, axis=1)[None, :]
        - 2.0 * Z @ Z.T, 0.0))
    best = None
    nugget = 1e-8 * np.eye(n)
    for k, ell in enumerate(_LENGTHSCALES):
        K = matern52(D / ell) + nugget
        if k in failed:
            continue
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            continue
        z = solve_triangular(L, y, lower=True, check_finite=False)
        lml = -0.5 * z @ z - np.sum(np.log(np.diag(L)))
        if best is None or lml > best[0]:
            best = (lml, ell, L)
    if best is None:
        ell = 1.0
        L = np.linalg.cholesky(matern52(D / ell) + 1e-4 * np.eye(n))
        best = (0.0, ell, L)
    return best[1], best[2]


def expected_improvement(Zcand, Z, L, alpha, ell, f_best, xi=1e-3):
    d = np.sqrt(np.maximum(
        np.sum(Zcand ** 2, axis=1)[:, None] + np.sum(Z ** 2, axis=1)[None, :]
        - 2.0 * Zcand @ Z.T, 0.0))
    Ks = matern52(d / ell)
    mu = Ks @ alpha
    v = solve_triangular(L, Ks.T, lower=True, check_finite=False)
    var = np.maximum(1.0 - np.sum(v ** 2, axis=0), 1e-12)
    sd = np.sqrt(var)
    gamma = (mu - f_best - xi) / sd
    pdf = np.exp(-gamma ** 2 / 2.0) / _SQRT_2PI
    return (mu - f_best - xi) * ndtr(gamma) + sd * pdf


def _safe_eval(objective, x):
    try:
        v = float(objective(x))
    except Exception:
        return SENTINEL
    if not np.isfinite(v):
        return SENTINEL
    return v


def maximize(objective, space, budget, seed=0, warm_start=None):
    """Return the (points, values) log ``peskit.optimizer.maximize`` made."""
    P = space.dim
    rng = np.random.default_rng(seed)
    points, values = [], []

    def record(x):
        v = _safe_eval(objective, x)
        points.append(np.asarray(x, dtype=float))
        values.append(v)

    if warm_start is not None:
        record(np.asarray(warm_start, dtype=float))

    remaining = budget - len(points)
    n0 = min(remaining, max(8, 2 * P))
    for z in start_design(P, n0, seed):
        record(from_unit(space, z))

    while len(points) < budget:
        Z = to_unit(space, np.asarray(points))
        y = np.asarray(values, dtype=float)
        finite = y > SENTINEL / 2
        if not np.any(finite):
            record(from_unit(space, rng.random(P)))
            continue
        floor = y[finite].min() - 1.0
        yc = np.where(finite, y, floor)
        mu, sd = yc.mean(), yc.std()
        ys = (yc - mu) / (sd if sd > 0 else 1.0)
        ell, L = surrogate_fit(Z, ys)
        alpha = solve_triangular(
            L.T, solve_triangular(L, ys, lower=True, check_finite=False),
            lower=False, check_finite=False)
        best_idx = int(np.argmax(y))
        cand = rng.random((64, P))
        local = np.clip(Z[best_idx] + 0.1 * rng.standard_normal((16, P)), 0.0, 1.0)
        Zc = np.vstack([cand, local])
        ei = expected_improvement(Zc, Z, L, alpha, ell, ys.max())
        record(from_unit(space, Zc[int(np.argmax(ei))]))

    return points, [float(v) for v in values]
