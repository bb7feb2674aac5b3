"""Derivative-free maximization via Bayesian optimization.

Space-filling Sobol initialization, a Matern-5/2 GP surrogate on the unit
cube, and expected-improvement acquisition maximized by random multi-start.
Deterministic given (seed, space, budget, objective); never returns a value
below a supplied warm start.

Each step builds the surrogate's Matern matrices for every lengthscale of
its grid as one stacked array and factors them in one Cholesky call. The
stack goes through the same elementwise operations as one matrix per
lengthscale, and each slice of the stacked factor is the factor of that
matrix alone, so the step is bitwise equal to a loop over lengthscales.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr
from scipy.stats import qmc

from .gp import _solve_lower, _solve_lower_t

__all__ = ["SearchSpace", "OptResult", "maximize", "stable_seed"]

log = logging.getLogger(__name__)

SENTINEL = -1e15
_LENGTHSCALES = np.geomspace(0.05, 3.0, 8)  # surrogate grid
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed derived from arbitrary string-able parts."""
    h = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(h[:8], "big") >> 1


@dataclass(frozen=True)
class SearchSpace:
    """Box constraints with per-dimension linear or logarithmic scaling."""

    lower: np.ndarray
    upper: np.ndarray
    scales: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        for lo, s in zip(self.lower, self.scales):
            if s == "log" and lo <= 0:
                raise ValueError("log-scale dimensions need positive bounds")
            if s not in ("linear", "log"):
                raise ValueError(f"unknown scale {s!r}")
        # unit-cube map: x = offset + z * width, and exp of that on log
        # dimensions, whose offset and width come from the log bounds; log
        # and exp act elementwise, so one call over all log dimensions
        # equals one call per dimension
        is_log = np.array([s == "log" for s in self.scales], dtype=bool)
        lo, hi = self.lower.copy(), self.upper.copy()
        lo[is_log], hi[is_log] = np.log(lo[is_log]), np.log(hi[is_log])
        object.__setattr__(self, "_log", is_log if is_log.any() else None)
        object.__setattr__(self, "_offset", lo)
        object.__setattr__(self, "_width", hi - lo)

    @classmethod
    def from_params(cls, pv):
        return cls(lower=pv.lower, upper=pv.upper, scales=tuple(pv.scales))

    @property
    def dim(self):
        return self.lower.size

    def from_unit(self, z):
        x = self._offset + np.clip(np.asarray(z, dtype=float), 0.0, 1.0) * self._width
        if self._log is not None:
            x[..., self._log] = np.exp(x[..., self._log])
        return x

    def to_unit(self, x):
        x = np.asarray(x, dtype=float)
        if self._log is not None:
            x = x.copy()
            x[..., self._log] = np.log(x[..., self._log])
        return np.clip((x - self._offset) / self._width, 0.0, 1.0)

    def center(self):
        return self.from_unit(np.full(self.dim, 0.5))


@dataclass
class OptResult:
    """Outcome of a maximize call: best point plus the full evaluation log."""

    best_point: np.ndarray
    best_value: float
    points: list = field(default_factory=list)
    values: list = field(default_factory=list)
    seed: int = 0


def _matern52(d):
    """(1 + a + a^2/3) exp(-a) with a = sqrt(5) d, computed in place of d.

    Each entry goes through the operations of that expression in its order;
    working in place keeps the temporaries of a stacked surrogate to two.
    """
    d *= math.sqrt(5.0)
    e = np.negative(d)
    np.exp(e, out=e)
    t = d * d
    t /= 3.0
    d += 1.0
    d += t
    d *= e
    return d


def _cholesky_each(K):
    """Cholesky factors of the stack K, and a mask of the slices that factor.

    One stacked call when every slice factors; slice by slice otherwise,
    leaving the failed slices NaN.
    """
    try:
        return np.linalg.cholesky(K), np.ones(len(K), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    L, ok = np.full_like(K, np.nan), np.zeros(len(K), dtype=bool)
    for k, Kk in enumerate(K):
        try:
            L[k] = np.linalg.cholesky(Kk)
        except np.linalg.LinAlgError:
            continue
        ok[k] = True
    return L, ok


def _surrogate_fit(Z, y):
    """Fit a scalar lengthscale by marginal likelihood over a small grid."""
    n = Z.shape[0]
    sq = np.sum(Z ** 2, axis=1)
    D = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * Z @ Z.T, 0.0))
    K = _matern52(D / _LENGTHSCALES[:, None, None])
    K.reshape(_LENGTHSCALES.size, n * n)[:, ::n + 1] += 1e-8  # nugget
    L, ok = _cholesky_each(K)
    half_logdet = np.log(np.diagonal(L, axis1=1, axis2=2)).sum(axis=1)
    best = None
    for k in np.flatnonzero(ok):  # grid order; ties keep the first
        z = _solve_lower(L[k], y)
        lml = -0.5 * z @ z - half_logdet[k]
        if best is None or lml > best[0]:
            best = (lml, _LENGTHSCALES[k], L[k])
    if best is None:  # fall back to a wide, heavily jittered kernel
        ell = 1.0
        L = np.linalg.cholesky(_matern52(D / ell) + 1e-4 * np.eye(n))
        best = (0.0, ell, L)
    return best[1], best[2]


def _expected_improvement(Zcand, Z, L, alpha, ell, f_best, xi=1e-3):
    d = np.sqrt(np.maximum(
        np.sum(Zcand ** 2, axis=1)[:, None] + np.sum(Z ** 2, axis=1)[None, :]
        - 2.0 * Zcand @ Z.T, 0.0))
    Ks = _matern52(d / ell)
    mu = Ks @ alpha
    v = _solve_lower(L, Ks.T)
    var = np.maximum(1.0 - np.sum(v ** 2, axis=0), 1e-12)
    sd = np.sqrt(var)
    gamma = (mu - f_best - xi) / sd
    # standard normal cdf and pdf, as scipy.stats.norm computes them
    pdf = np.exp(-gamma ** 2 / 2.0) / _SQRT_2PI
    return (mu - f_best - xi) * ndtr(gamma) + sd * pdf


def maximize(objective, space: SearchSpace, budget: int, seed: int = 0,
             warm_start=None) -> OptResult:
    """Maximize ``objective`` over ``space`` with at most ``budget`` evaluations.

    ``warm_start`` is an optional point in original coordinates; it is
    evaluated first and the returned best never falls below it. An
    objective that raises or returns a non-finite value scores
    ``SENTINEL``; a call with raised failures logs one warning that counts
    them and quotes the first.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    P = space.dim
    rng = np.random.default_rng(seed)
    points, values = [], []
    Zs = np.empty((budget, P))  # unit-cube image of each recorded point
    failures = []  # (point, message) of each objective that raised

    def record(x):
        x = np.asarray(x, dtype=float)
        try:
            v = float(objective(x))
        except Exception as exc:  # objective exceptions map to the sentinel
            failures.append((x, str(exc)))
            v = SENTINEL
        if not np.isfinite(v):
            v = SENTINEL
        Zs[len(points)] = space.to_unit(x)
        points.append(x)
        values.append(v)

    if warm_start is not None:
        record(warm_start)

    remaining = budget - len(points)
    n0 = min(remaining, max(8, 2 * P))
    if n0 > 0:
        sobol = qmc.Sobol(d=P, scramble=True, seed=seed)
        for z in sobol.random(n0):
            record(space.from_unit(z))

    while len(points) < budget:
        Z = Zs[:len(points)]
        y = np.asarray(values, dtype=float)
        finite = y > SENTINEL / 2
        if not np.any(finite):
            record(space.from_unit(rng.random(P)))
            continue
        # standardize, clipping sentinel failures to the finite floor
        floor = y[finite].min() - 1.0
        yc = np.where(finite, y, floor)
        mu, sd = yc.mean(), yc.std()
        ys = (yc - mu) / (sd if sd > 0 else 1.0)
        ell, L = _surrogate_fit(Z, ys)
        alpha = _solve_lower_t(L, _solve_lower(L, ys))
        best_idx = int(np.argmax(y))
        # 64 uniform candidates plus local restarts around the incumbent
        cand = rng.random((64, P))
        local = np.clip(Z[best_idx] + 0.1 * rng.standard_normal((16, P)), 0.0, 1.0)
        Zc = np.vstack([cand, local])
        ei = _expected_improvement(Zc, Z, L, alpha, ell, ys.max())
        record(space.from_unit(Zc[int(np.argmax(ei))]))

    if failures:
        x, msg = failures[0]
        log.warning("objective failed at %d of %d points; first at %s: %s",
                    len(failures), len(points), np.round(x, 4), msg)
    values = [float(v) for v in values]
    i = int(np.argmax(values))
    return OptResult(best_point=points[i], best_value=values[i],
                     points=points, values=values, seed=seed)
