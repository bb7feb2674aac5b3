"""Base kernel functions and the algebra of composite kernel expressions.

Five base families (RBF, dot product, rational quadratic, periodic, Matern
with half-integer smoothness) plus sum/product trees with positive
combination coefficients, and a canonical text serialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

from .gp import KernelFn, ParamVector

__all__ = [
    "BASE_KINDS",
    "Leaf",
    "Sum",
    "Prod",
    "new_leaf",
    "gram_expr",
    "param_vector",
    "with_params",
    "serialize",
    "ClassicalKernel",
]

# kind -> (display token, shape-parameter names)
_KIND_PARAMS = {
    "RBF": ("th",),
    "DOT": (),
    "RQ": ("al", "l"),
    "PER": ("p", "l"),
    "MAT12": ("l",),
    "MAT32": ("l",),
    "MAT52": ("l",),
}
BASE_KINDS = tuple(_KIND_PARAMS)

_MATERN_NU = {"MAT12": 0.5, "MAT32": 1.5, "MAT52": 2.5}

COEF_BOUNDS = (1e-3, 1e3)
SHAPE_BOUNDS = (1e-2, 1e2)
PERIOD_BOUNDS = (1e-1, 1e1)  # multiplied by the data's median pairwise distance


# ---------------------------------------------------------------------------
# expression trees

@dataclass(frozen=True)
class Leaf:
    """A base kernel with current shape-parameter values and optional coefficient."""

    kind: str
    params: tuple
    coef: float | None = None

    def __post_init__(self):
        if self.kind not in _KIND_PARAMS:
            raise ValueError(f"unknown base kernel kind {self.kind!r}")
        if len(self.params) != len(_KIND_PARAMS[self.kind]):
            raise ValueError(
                f"{self.kind} takes {len(_KIND_PARAMS[self.kind])} parameters")


@dataclass(frozen=True)
class Sum:
    left: object
    right: object
    coef: float | None = None


@dataclass(frozen=True)
class Prod:
    left: object
    right: object
    coef: float | None = None


def new_leaf(kind, coef=1.0):
    """A fresh leaf with unit shape parameters."""
    return Leaf(kind=kind, params=tuple(1.0 for _ in _KIND_PARAMS[kind]), coef=coef)


def ensure_coef(expr):
    """Attach a unit coefficient slot if the node has none."""
    return expr if expr.coef is not None else replace(expr, coef=1.0)


# ---------------------------------------------------------------------------
# evaluation

def _matern_r(r, nu):
    """Matern closed forms for nu in {1/2, 3/2, 5/2} at scaled distances r."""
    if nu == 0.5:
        return np.exp(-r)
    if nu == 1.5:
        a = math.sqrt(3.0) * r
        return (1.0 + a) * np.exp(-a)
    if nu == 2.5:
        a = math.sqrt(5.0) * r
        return (1.0 + a + 5.0 * r * r / 3.0) * np.exp(-a)
    raise ValueError(f"unsupported Matern nu={nu}; use 1/2, 3/2 or 5/2")


class _Pairwise:
    """Pairwise quantities of two input sets, each computed on first use
    from the two sets alone."""

    def __init__(self, X, X2):
        self.X, self.X2 = X, X2

    @cached_property
    def d2(self):
        return cdist(self.X, self.X2, "sqeuclidean")

    @cached_property
    def d(self):
        return np.sqrt(np.maximum(self.d2, 0.0))

    @cached_property
    def dot(self):
        return self.X @ self.X2.T


def gram_expr(expr, X, X2):
    """Vectorized Gram matrix of a kernel expression, as a fresh array.
    A DOT leaf's entries are this call's own ``X @ X2.T``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    return _gram_rec(expr, _Pairwise(X, X2))


def _gram_rec(expr, pw):
    # every call returns a fresh array, so parents combine children in place
    c = 1.0 if expr.coef is None else expr.coef
    if isinstance(expr, Sum):
        out = _gram_rec(expr.left, pw)
        out += _gram_rec(expr.right, pw)
        if c != 1.0:
            out *= c
        return out
    if isinstance(expr, Prod):
        out = _gram_rec(expr.left, pw)
        if c != 1.0:
            out *= c
        out *= _gram_rec(expr.right, pw)
        return out
    k, p = expr.kind, expr.params
    if k == "RBF":
        out = -p[0] * pw.d2
        np.exp(out, out=out)
    elif k == "DOT":
        out = pw.dot.copy()
    elif k == "RQ":
        out = (1.0 + pw.d2 / (2.0 * p[0] * p[1] ** 2)) ** (-p[0])
    elif k == "PER":
        out = np.exp(-2.0 * np.sin(np.pi * pw.d / p[0]) ** 2 / p[1] ** 2)
    else:
        out = _matern_r(pw.d / p[0], _MATERN_NU[k])
    if c != 1.0:
        out *= c
    return out


# ---------------------------------------------------------------------------
# parameter flattening

def param_vector(expr, p_scale=1.0) -> ParamVector:
    """Flatten all coefficients and shape parameters in deterministic pre-order."""
    values, lower, upper, scales = [], [], [], []

    def visit(node):
        if node.coef is not None:
            values.append(node.coef)
            lower.append(COEF_BOUNDS[0])
            upper.append(COEF_BOUNDS[1])
            scales.append("log")
        if isinstance(node, Leaf):
            for nm, v in zip(_KIND_PARAMS[node.kind], node.params):
                values.append(v)
                if node.kind == "PER" and nm == "p":
                    lower.append(PERIOD_BOUNDS[0] * p_scale)
                    upper.append(PERIOD_BOUNDS[1] * p_scale)
                else:
                    lower.append(SHAPE_BOUNDS[0])
                    upper.append(SHAPE_BOUNDS[1])
                scales.append("log")
        else:
            visit(node.left)
            visit(node.right)

    visit(expr)
    return ParamVector(values=np.array(values),
                       lower=np.array(lower), upper=np.array(upper),
                       scales=tuple(scales))


def with_params(expr, values):
    """Rebuild the expression with flattened parameter values re-inserted."""
    values = np.asarray(values, dtype=float).ravel()
    pos = 0

    def take():
        nonlocal pos
        if pos >= values.size:
            raise ValueError("too few parameter values for expression")
        v = float(values[pos])
        pos += 1
        return v

    def rebuild(node):
        coef = take() if node.coef is not None else None
        if isinstance(node, Leaf):
            params = tuple(take() for _ in _KIND_PARAMS[node.kind])
            return Leaf(kind=node.kind, params=params, coef=coef)
        left = rebuild(node.left)
        right = rebuild(node.right)
        return type(node)(left=left, right=right, coef=coef)

    out = rebuild(expr)
    if pos != values.size:
        raise ValueError(
            f"expected {pos} parameter values, got {values.size}")
    return out


# ---------------------------------------------------------------------------
# canonical text form

def _fmt(v):
    return repr(float(v))


def serialize(expr) -> str:
    """Canonical text form, every number printed by ``repr``.

    The text is exact: two expressions serialize alike only if their trees
    and parameters are bitwise equal. It keys the search's candidates, seeds
    their fits and is the composite winner's file content.
    """
    if isinstance(expr, Leaf):
        body = expr.kind
        names = _KIND_PARAMS[expr.kind]
        if names:
            body += "[" + ",".join(f"{n}={_fmt(v)}" for n, v in
                                   zip(names, expr.params)) + "]"
    else:
        op = " + " if isinstance(expr, Sum) else " * "
        body = "(" + serialize(expr.left) + op + serialize(expr.right) + ")"
    if expr.coef is not None:
        return f"{_fmt(expr.coef)}*{body}"
    return body


# ---------------------------------------------------------------------------
# KernelFn adapter

@dataclass(frozen=True)
class ClassicalKernel(KernelFn):
    """KernelFn view of a composite expression; parameters supplied externally."""

    expr: object

    def gram(self, X, X2, params: ParamVector) -> np.ndarray:
        return gram_expr(with_params(self.expr, params.values), X, X2)

    def describe(self, params: ParamVector) -> str:
        """The winner-file form: the fitted expression, serialized."""
        return serialize(with_params(self.expr, params.values))
