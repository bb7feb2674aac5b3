"""Greedy compositional construction of classical kernels.

Iteration 0 scores the base kernels alone; each later one combines the
incumbent with every base kernel as a coefficient-weighted sum and
product. Every candidate's parameters are fitted by Bayesian optimization
of the log marginal likelihood, and the largest BIC wins. The incumbent
keeps its frozen score in every later pool, so the best-BIC trace never
decreases. Budgets, depth and noise come from ``bench.ExperimentConfig``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .gp import SearchTrace, TraceRow, bic
from .kernels import (BASE_KINDS, ClassicalKernel, Prod, Sum, ensure_coef,
                      new_leaf, param_vector, serialize, with_params)
from .optimizer import maximize_logl, stable_seed

__all__ = ["DEFAULT_BASES", "expand", "search_classical"]

# the five base families; Matern contributes its smoothness variants
DEFAULT_BASES = BASE_KINDS
# converged when a step improves the BIC by less than max(EPS_REL*|BIC|, EPS_ABS)
EPS_REL = 0.01
EPS_ABS = 0.5


def expand(incumbent, bases=DEFAULT_BASES):
    """Sum and product of the incumbent with each base, plus the incumbent."""
    if not bases:
        raise ValueError("base set must be nonempty")
    inc = ensure_coef(incumbent)
    out = []
    for b in bases:
        out.append(Sum(left=inc, right=new_leaf(b, coef=1.0)))
        out.append(Prod(left=inc, right=new_leaf(b, coef=None)))
    out.append(incumbent)
    return out


@dataclass(frozen=True)
class _Scored:
    expr: object  # fitted expression (values embedded)
    logL: float
    bic: float
    M: int

    @property
    def key(self):
        # argmax by BIC; ties by fewer parameters, then serialization order
        return (-self.bic, self.M, serialize(self.expr))


def _optimize_candidate(expr, X, y, cfg, seed, budget, p_scale):
    pv = param_vector(expr, p_scale=p_scale)
    seed = stable_seed(seed, "classical", serialize(expr))
    res = maximize_logl(ClassicalKernel(expr=expr), pv, X, y, budget, seed,
                        cfg.sigma_n)
    fitted = with_params(expr, res.best_point)
    return _Scored(expr=fitted, logL=res.best_value,
                   bic=bic(res.best_value, pv.size, y.size), M=pv.size)


def search_classical(data, cfg, seed, bases=DEFAULT_BASES):
    """Run the greedy composite-kernel search on a training set.

    It reads ``classical_budget``, ``final_budget``, ``max_depth`` and
    ``sigma_n`` of ``cfg`` and seeds every fit from the cell ``seed``. The
    search fits ``data.y`` as given; a caller passes z-scored
    targets, as ``bench._run_cell`` does. Returns (ClassicalKernel of the
    best expression, fitted ParamVector, SearchTrace); each trace row's
    criterion is the step's best BIC and its score that candidate's logL.
    """
    if not bases:
        raise ValueError("base set must be nonempty")
    X, y = data.X, data.y
    dists = pdist(X)
    p_scale = float(np.median(dists)) if dists.size else 1.0

    trace, best = SearchTrace(), None
    for iteration in range(cfg.max_depth):
        t0 = time.perf_counter()
        pool = ([new_leaf(b, coef=1.0) for b in bases] if best is None
                else expand(best.expr, bases))
        scored = [best if best is not None and expr is best.expr
                  else _optimize_candidate(expr, X, y, cfg, seed,
                                           cfg.classical_budget, p_scale)
                  for expr in pool]
        new_best = min(scored, key=lambda s: s.key)
        trace.append(TraceRow(iteration, len(pool), serialize(new_best.expr),
                              new_best.logL, new_best.bic, new_best.M,
                              time.perf_counter() - t0))
        converged = best is not None and new_best.bic - best.bic < max(
            EPS_REL * abs(best.bic), EPS_ABS)
        best = new_best
        if converged:
            break

    # final re-fit: never below best, as maximize starts from best's point
    best = _optimize_candidate(best.expr, X, y, cfg, seed, cfg.final_budget,
                               p_scale)
    return ClassicalKernel(best.expr), param_vector(best.expr, p_scale), trace
