"""Neural-network Gaussian process kernel with erf activation.

The infinite-width layer recursion has a closed arcsine form for erf,
used here instead of numerical integration. Per-layer weight and bias
scales are independent trainable parameters; depth is grown until the
training log-likelihood plateaus or reaches the config's ``nngp_max_depth``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .gp import KernelFn, ParamVector, SearchTrace, TraceRow
from .optimizer import maximize_logl, stable_seed

__all__ = ["NNGPKernel", "search_depth"]

SIGMA_W_BOUNDS = (1e-2, 1e1)
SIGMA_B_BOUNDS = (0.0, 1e1)
_ARCSIN_TOL = 1e-12
DEPTH_TOL = 0.5  # nats of logL improvement required to keep growing


@dataclass(frozen=True)
class NNGPKernel(KernelFn):
    """Kernel of an infinite-width erf network with ``depth`` hidden layers.

    Parameters are (sigma_w, sigma_b) per layer l = 0..depth, flattened in
    layer order; M = 2 (depth + 1). Layer 0 produces the affine base case
    k0 = sigma_b^2 + sigma_w^2 <x, x'> / D.
    """

    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")

    def default_params(self) -> ParamVector:
        n = self.depth + 1
        values = np.tile([1.0, 0.1], n)
        lower = np.tile([SIGMA_W_BOUNDS[0], SIGMA_B_BOUNDS[0]], n)
        upper = np.tile([SIGMA_W_BOUNDS[1], SIGMA_B_BOUNDS[1]], n)
        scales = ("log", "linear") * n
        return ParamVector(values=values, lower=lower, upper=upper,
                           scales=scales)

    def gram(self, X, X2, params: ParamVector) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        X2 = np.atleast_2d(np.asarray(X2, dtype=float))
        v = params.values
        if v.size != 2 * (self.depth + 1):
            raise ValueError(
                f"depth {self.depth} NNGP needs {2 * (self.depth + 1)} parameters")
        D = X.shape[1]
        # each layer updates K in place: K = sb2 + sw2 (2/pi) arcsin(clip(
        # K a b^T)), a = 2 / sqrt(1 + 2 kx) on rows, b = 1 / sqrt(1 + 2 kx2)
        sw2, sb2 = v[0] ** 2, v[1] ** 2
        K = X @ X2.T
        K *= sw2
        K /= D
        K += sb2
        kx = sb2 + sw2 * np.sum(X ** 2, axis=1) / D
        kx2 = sb2 + sw2 * np.sum(X2 ** 2, axis=1) / D
        for l in range(1, self.depth + 1):
            sw2, sb2 = v[2 * l] ** 2, v[2 * l + 1] ** 2
            K *= (2.0 / np.sqrt(1.0 + 2.0 * kx))[:, None]
            K *= (1.0 / np.sqrt(1.0 + 2.0 * kx2))[None, :]
            worst = max(K.max(), -K.min()) - 1.0
            if worst > _ARCSIN_TOL:
                raise FloatingPointError(
                    f"arcsin argument out of range by {worst:.3e}")
            if worst > 0:
                np.clip(K, -1.0, 1.0, out=K)
            np.arcsin(K, out=K)
            K *= sw2 * (2.0 / math.pi)
            K += sb2
            kx = sb2 + sw2 * (2.0 / math.pi) * np.arcsin(2.0 * kx / (1.0 + 2.0 * kx))
            kx2 = sb2 + sw2 * (2.0 / math.pi) * np.arcsin(2.0 * kx2 / (1.0 + 2.0 * kx2))
        return K

    def describe(self, params: ParamVector) -> str:
        """The winner-file form: the depth and the fitted scales."""
        return json.dumps({"depth": self.depth,
                           "params": params.values.tolist()})


def search_depth(data, cfg, seed):
    """Grow NNGP depth until the optimized logL stops improving.

    It reads ``nngp_budget``, ``nngp_max_depth`` and ``sigma_n`` of the
    run's ``ExperimentConfig`` ``cfg`` and seeds every fit from the cell
    ``seed``. The search fits ``data.y`` as given; a caller passes z-scored
    targets, as ``bench._run_cell`` does. Returns (kernel, fitted
    ParamVector, SearchTrace) for the best depth seen. Row L-1 holds depth
    L, with its logL as score and criterion.
    """
    X, y = data.X, data.y
    trace = SearchTrace()
    best = None  # (logL, kernel, params)
    prev_logL = None
    warm = None
    for L in range(1, cfg.nngp_max_depth + 1):
        t0 = time.perf_counter()
        kernel = NNGPKernel(depth=L)
        pv = kernel.default_params()
        if warm is not None:
            # reuse fitted lower layers, initialize the new top layer fresh
            values = pv.values.copy()
            values[:warm.size] = warm
            pv = pv.with_values(values)
        res = maximize_logl(kernel, pv, X, y, cfg.nngp_budget,
                            stable_seed(seed, "nngp", L), cfg.sigma_n)
        fitted = pv.with_values(res.best_point)
        trace.append(TraceRow(L - 1, 1, str(L), res.best_value, res.best_value,
                              fitted.size, time.perf_counter() - t0))
        if best is None or res.best_value > best[0]:
            best = (res.best_value, kernel, fitted)
        warm = res.best_point
        if prev_logL is not None and res.best_value - prev_logL < DEPTH_TOL:
            break
        prev_logL = res.best_value
    _, kernel, fitted = best
    return kernel, fitted, trace
