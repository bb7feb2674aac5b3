"""Scalar classical kernels, one input pair at a time, for exactness tests.

Each base kernel is written out from its closed form, and ``eval_expr``
evaluates a sum/product expression tree recursively, so the vectorized
``kernels.gram_expr`` can be checked entry by entry. Tests only; the
library never imports it.
"""

import math

import numpy as np

from peskit.kernels import _MATERN_NU, Leaf, Sum, _matern_r


def eval_rbf(x, xp, theta):
    """exp(-theta * ||x - x'||^2)."""
    d2 = float(np.sum((np.asarray(x, float) - np.asarray(xp, float)) ** 2))
    return math.exp(-theta * d2)


def eval_dot(x, xp):
    """Inner product x^T x'."""
    return float(np.dot(np.asarray(x, float), np.asarray(xp, float)))


def eval_rq(x, xp, alpha, l):
    """Rational quadratic (1 + d^2 / (2 alpha l^2))^(-alpha)."""
    d2 = float(np.sum((np.asarray(x, float) - np.asarray(xp, float)) ** 2))
    return (1.0 + d2 / (2.0 * alpha * l * l)) ** (-alpha)


def eval_periodic(x, xp, p, l):
    """exp(-2 sin^2(pi d / p) / l^2)."""
    d = float(np.linalg.norm(np.asarray(x, float) - np.asarray(xp, float)))
    return math.exp(-2.0 * math.sin(math.pi * d / p) ** 2 / (l * l))


def eval_matern(x, xp, nu, l):
    """Matern closed forms for nu in {1/2, 3/2, 5/2}; r = d(x, x') / l."""
    d = float(np.linalg.norm(np.asarray(x, float) - np.asarray(xp, float)))
    return _matern_r(np.asarray(d / l), nu).item()


def eval_expr(expr, x, xp):
    """Recursive scalar evaluation of a kernel expression."""
    c = 1.0 if expr.coef is None else expr.coef
    if isinstance(expr, Leaf):
        return c * _leaf_scalar(expr, x, xp)
    if isinstance(expr, Sum):
        return c * (eval_expr(expr.left, x, xp) + eval_expr(expr.right, x, xp))
    return c * eval_expr(expr.left, x, xp) * eval_expr(expr.right, x, xp)


def _leaf_scalar(leaf, x, xp):
    k, p = leaf.kind, leaf.params
    if k == "RBF":
        return eval_rbf(x, xp, p[0])
    if k == "DOT":
        return eval_dot(x, xp)
    if k == "RQ":
        return eval_rq(x, xp, p[0], p[1])
    if k == "PER":
        return eval_periodic(x, xp, p[0], p[1])
    return eval_matern(x, xp, _MATERN_NU[k], p[0])
