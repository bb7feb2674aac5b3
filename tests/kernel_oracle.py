"""Scalar classical kernels, one input pair at a time, for exactness tests.

Each base kernel is written out from its closed form, and ``eval_expr``
evaluates a sum/product expression tree recursively, so the vectorized
``kernels.gram_expr`` can be checked entry by entry. ``read_expr`` reads
the ``kernels.serialize`` text of a classical winner file back into its
tree. Tests only; the library never imports it.
"""

import math
import re

import numpy as np

from peskit.kernels import _KIND_PARAMS, _MATERN_NU, Leaf, Prod, Sum, \
    _matern_r


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


# a node's optional coefficient, ``<repr float>*`` with no space, and a leaf,
# ``KIND`` or ``KIND[name=value,...]``; a product's operator is `` * ``
_COEF = re.compile(r"([0-9][0-9.e+-]*)\*")
_LEAF = re.compile(r"([A-Z][A-Z0-9]*)(?:\[([^\]]*)\])?")


def read_expr(text):
    """The expression tree ``kernels.serialize`` wrote as ``text``. A node
    printed with ``1.0*`` gets coefficient 1.0, one printed bare gets none,
    so the tree flattens to the winner's own parameter vector."""
    expr, end = _read_node(text, 0)
    if end != len(text):
        raise ValueError(f"trailing text at {end}: {text[end:]!r}")
    return expr


def _read_node(text, pos):
    coef = None
    m = _COEF.match(text, pos)
    if m:
        coef, pos = float(m.group(1)), m.end()
    if text.startswith("(", pos):
        left, pos = _read_node(text, pos + 1)
        op = {" + ": Sum, " * ": Prod}[text[pos:pos + 3]]
        right, pos = _read_node(text, pos + 3)
        if not text.startswith(")", pos):
            raise ValueError(f"expected ')' at {pos} in {text!r}")
        return op(left=left, right=right, coef=coef), pos + 1
    m = _LEAF.match(text, pos)
    if not m:
        raise ValueError(f"expected a base kernel at {pos} in {text!r}")
    kind, body = m.groups()
    pairs = [item.split("=") for item in body.split(",")] if body else []
    if [name for name, _ in pairs] != list(_KIND_PARAMS[kind]):
        raise ValueError(f"{kind} parameters {body!r} in {text!r}")
    params = tuple(float(value) for _, value in pairs)
    return Leaf(kind=kind, params=params, coef=coef), m.end()
