"""Derivative-free maximization via Bayesian optimization.

Space-filling Sobol initialization, a Matern-5/2 GP surrogate on the unit
cube, and expected-improvement acquisition maximized by random multi-start.
Deterministic given (seed, space, budget, objective); never returns a value
below a supplied warm start.
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr
from scipy.stats import qmc

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

    @classmethod
    def from_params(cls, pv):
        return cls(lower=pv.lower, upper=pv.upper, scales=tuple(pv.scales))

    @property
    def dim(self):
        return self.lower.size

    def from_unit(self, z):
        z = np.clip(np.asarray(z, dtype=float), 0.0, 1.0)
        x = np.empty_like(z)
        for i, s in enumerate(self.scales):
            if s == "log":
                x[..., i] = np.exp(np.log(self.lower[i])
                                   + z[..., i] * (np.log(self.upper[i]) - np.log(self.lower[i])))
            else:
                x[..., i] = self.lower[i] + z[..., i] * (self.upper[i] - self.lower[i])
        return x

    def to_unit(self, x):
        x = np.asarray(x, dtype=float)
        z = np.empty_like(x)
        for i, s in enumerate(self.scales):
            if s == "log":
                z[..., i] = ((np.log(x[..., i]) - np.log(self.lower[i]))
                             / (np.log(self.upper[i]) - np.log(self.lower[i])))
            else:
                z[..., i] = (x[..., i] - self.lower[i]) / (self.upper[i] - self.lower[i])
        return np.clip(z, 0.0, 1.0)

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
    a = math.sqrt(5.0) * d
    return (1.0 + a + a * a / 3.0) * np.exp(-a)


def _surrogate_fit(Z, y):
    """Fit a scalar lengthscale by marginal likelihood over a small grid."""
    n = Z.shape[0]
    D = np.sqrt(np.maximum(
        np.sum(Z ** 2, axis=1)[:, None] + np.sum(Z ** 2, axis=1)[None, :]
        - 2.0 * Z @ Z.T, 0.0))
    best = None
    nugget = 1e-8 * np.eye(n)
    for ell in _LENGTHSCALES:
        K = _matern52(D / ell) + nugget
        try:
            L = np.linalg.cholesky(K)
        except np.linalg.LinAlgError:
            continue
        z = solve_triangular(L, y, lower=True, check_finite=False)
        lml = -0.5 * z @ z - np.sum(np.log(np.diag(L)))
        if best is None or lml > best[0]:
            best = (lml, ell, L)
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
    v = solve_triangular(L, Ks.T, lower=True, check_finite=False)
    var = np.maximum(1.0 - np.sum(v ** 2, axis=0), 1e-12)
    sd = np.sqrt(var)
    gamma = (mu - f_best - xi) / sd
    # standard normal cdf and pdf, as scipy.stats.norm computes them
    pdf = np.exp(-gamma ** 2 / 2.0) / _SQRT_2PI
    return (mu - f_best - xi) * ndtr(gamma) + sd * pdf


def _safe_eval(objective, x):
    try:
        v = float(objective(x))
    except Exception as exc:  # objective exceptions map to the sentinel
        log.warning("objective failed at %s: %s", np.round(x, 4), exc)
        return SENTINEL
    if not np.isfinite(v):
        return SENTINEL
    return v


def maximize(objective, space: SearchSpace, budget: int, seed: int = 0,
             warm_start=None) -> OptResult:
    """Maximize ``objective`` over ``space`` with at most ``budget`` evaluations.

    ``warm_start`` is an optional point in original coordinates; it is
    evaluated first and the returned best never falls below it.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    P = space.dim
    rng = np.random.default_rng(seed)
    points, values = [], []

    def record(x):
        v = _safe_eval(objective, x)
        points.append(np.asarray(x, dtype=float))
        values.append(v)
        return v

    if warm_start is not None:
        record(np.asarray(warm_start, dtype=float))

    remaining = budget - len(points)
    n0 = min(remaining, max(8, 2 * P))
    if n0 > 0:
        sobol = qmc.Sobol(d=P, scramble=True, seed=seed)
        for z in sobol.random(n0):
            record(space.from_unit(z))

    while len(points) < budget:
        Z = space.to_unit(np.asarray(points))
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
        alpha = solve_triangular(
            L.T, solve_triangular(L, ys, lower=True, check_finite=False),
            lower=False, check_finite=False)
        best_idx = int(np.argmax(y))
        # 64 uniform candidates plus local restarts around the incumbent
        cand = rng.random((64, P))
        local = np.clip(Z[best_idx] + 0.1 * rng.standard_normal((16, P)), 0.0, 1.0)
        Zc = np.vstack([cand, local])
        ei = _expected_improvement(Zc, Z, L, alpha, ell, ys.max())
        record(space.from_unit(Zc[int(np.argmax(ei))]))

    values = [float(v) for v in values]
    i = int(np.argmax(values))
    return OptResult(best_point=points[i], best_value=values[i],
                     points=points, values=values, seed=seed)
