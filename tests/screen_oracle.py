"""References for the circuit search, for exactness tests.

``screen_scores`` is a frozen copy of how ``circuit_search.screen`` scored
candidates before it built children from their parents' prefix states: each
unrefined candidate gets its own ``QuantumKernel``, whose states are
simulated from |0...0>. ``involution_count`` counts the permutations that
are their own inverse, one more than the size of the R_ZZ layer pool.
Tests only; the library never imports it.
"""

from peskit.circuit_search import canonical_layers
from peskit.gp import (KernelEvaluationError, NotPositiveDefiniteError, beta,
                       log_marginal_likelihood)
from peskit.optimizer import SENTINEL
from peskit.quantum import build_variable_ansatz


def involution_count(n):
    """T(n) = T(n-1) + (n-1) T(n-2): permutations that are their own inverse."""
    a, b = 1, 1
    for k in range(2, n + 1):
        a, b = b, b + (k - 1) * a
    return b


def screen_scores(candidates, data, cfg):
    """Canonical layer string -> (log_o, beta_score) of each candidate that
    ``screen`` would score, computed one candidate at a time."""
    X, y = data.X, data.y
    scores = {}
    for c in candidates:
        if c.refined:
            continue
        kernel = build_variable_ansatz(X.shape[1], c.layers)
        try:
            log_o = kernel.objective(log_marginal_likelihood(
                kernel, kernel.default_params().with_values(c.params), X, y,
                sigma_n=cfg.sigma_n))
        except (NotPositiveDefiniteError, KernelEvaluationError):
            log_o = SENTINEL
        scores[canonical_layers(c.layers)] = (
            log_o, beta(log_o, X.shape[1] + 1, y.size))
    return scores
