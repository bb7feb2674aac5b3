import math
import re

import numpy as np
import pytest

from kernel_oracle import (eval_dot, eval_expr, eval_matern, eval_periodic,
                           eval_rbf, eval_rq, read_expr)
from peskit.kernels import (BASE_KINDS, COEF_BOUNDS, SHAPE_BOUNDS,
                            ClassicalKernel, Leaf, Prod, Sum, ensure_coef,
                            gram_expr, new_leaf, param_vector, serialize,
                            with_params)

rng = np.random.default_rng(7)


def test_scalar_formulas():
    x = np.array([0.3, 0.8])
    xp = np.array([0.1, 0.5])
    d2 = np.sum((x - xp) ** 2)
    d = math.sqrt(d2)
    assert abs(eval_rbf(x, xp, 1.7) - math.exp(-1.7 * d2)) < 1e-15
    assert abs(eval_dot(x, xp) - (0.3 * 0.1 + 0.8 * 0.5)) < 1e-15
    assert abs(eval_rq(x, xp, 2.0, 0.5)
               - (1.0 + d2 / (2 * 2.0 * 0.25)) ** -2.0) < 1e-15
    assert abs(eval_periodic(x, xp, 1.3, 0.7)
               - math.exp(-2 * math.sin(math.pi * d / 1.3) ** 2 / 0.49)) < 1e-15
    r = d / 0.6
    assert abs(eval_matern(x, xp, 0.5, 0.6) - math.exp(-r)) < 1e-15
    a = math.sqrt(3) * r
    assert abs(eval_matern(x, xp, 1.5, 0.6) - (1 + a) * math.exp(-a)) < 1e-15
    a = math.sqrt(5) * r
    assert abs(eval_matern(x, xp, 2.5, 0.6)
               - (1 + a + 5 * r * r / 3) * math.exp(-a)) < 1e-15
    with pytest.raises(ValueError):
        eval_matern(x, xp, 2.0, 0.6)


def test_base_kernels_unit_diagonal_except_dot():
    x = rng.uniform(0, 1, 4)
    assert eval_rbf(x, x, 3.0) == 1.0
    assert eval_rq(x, x, 1.0, 1.0) == 1.0
    assert eval_periodic(x, x, 1.0, 1.0) == 1.0
    assert eval_matern(x, x, 2.5, 1.0) == 1.0


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_gram_matches_scalar_eval(kind):
    X = rng.uniform(0.1, 1, (8, 3))
    X2 = rng.uniform(0.1, 1, (5, 3))
    leaf = new_leaf(kind, coef=None)
    G = gram_expr(leaf, X, X2)
    for i in range(8):
        for j in range(5):
            assert abs(G[i, j] - eval_expr(leaf, X[i], X2[j])) < 1e-12


# PER is excluded: on the radial distance in more than one dimension the
# periodic form is not PSD; such candidates are rejected at fit time.
@pytest.mark.parametrize("kind", [k for k in BASE_KINDS if k != "PER"])
def test_base_kernels_are_psd(kind):
    X = rng.uniform(0.1, 1, (20, 2))
    G = gram_expr(new_leaf(kind, coef=None), X, X)
    G = 0.5 * (G + G.T)
    assert np.linalg.eigvalsh(G)[0] >= -1e-8


def test_periodic_kernel_psd_in_one_dimension():
    X = rng.uniform(0, 3, (25, 1))
    G = gram_expr(new_leaf("PER", coef=None), X, X)
    G = 0.5 * (G + G.T)
    assert np.linalg.eigvalsh(G)[0] >= -1e-8


def test_composite_eval_and_gram_agree():
    expr = Sum(left=Leaf("RBF", (1.3,), coef=2.0),
               right=Prod(left=Leaf("MAT52", (0.7,), coef=1.1),
                          right=Leaf("PER", (2.0, 1.1), coef=None),
                          coef=0.5))
    X = rng.uniform(0.1, 1, (6, 2))
    G = gram_expr(expr, X, X)
    for i in range(6):
        for j in range(6):
            assert abs(G[i, j] - eval_expr(expr, X[i], X[j])) < 1e-12


def test_ensure_coef():
    expr = Sum(left=new_leaf("RBF"), right=new_leaf("DOT"))
    assert expr.coef is None
    assert ensure_coef(expr).coef == 1.0
    withc = Sum(left=new_leaf("RBF"), right=new_leaf("DOT"), coef=3.0)
    assert ensure_coef(withc).coef == 3.0


def test_leaf_validation():
    with pytest.raises(ValueError):
        Leaf("NOPE", ())
    with pytest.raises(ValueError):
        Leaf("RQ", (1.0,))


def test_serialize_is_exact():
    expr = Sum(left=Leaf("RBF", (1.3,), coef=2.0),
               right=Prod(left=Leaf("MAT52", (0.7,), coef=1.1),
                          right=Leaf("PER", (2.0, 1.1), coef=None),
                          coef=0.5))
    text = serialize(expr)
    assert text == ("(2.0*RBF[th=1.3] + 0.5*(1.1*MAT52[l=0.7]"
                    " * PER[p=2.0,l=1.1]))")
    # every printed number reads back as the stored float, bit for bit
    third = 1.0 / 3.0
    numbers = re.findall(r"[0-9.]+(?:e[+-]?[0-9]+)?",
                         serialize(Leaf("RBF", (third,), coef=math.pi)))
    assert [float(t).hex() for t in numbers] == [math.pi.hex(), third.hex()]
    # values one ulp apart give different candidate keys and seeds
    up = math.nextafter(third, math.inf)
    assert serialize(Leaf("RBF", (third,))) != serialize(Leaf("RBF", (up,)))
    assert (serialize(Leaf("RBF", (1.3,), coef=third))
            != serialize(Leaf("RBF", (1.3,), coef=up)))


def test_read_expr_inverts_serialize():
    # the tests' reader of winner text rebuilds the exact tree: a printed
    # 1.0* coefficient stays a coefficient slot, a bare node has none
    third = 1.0 / 3.0
    for expr in (Leaf("DOT", ()), Leaf("RBF", (1.0,)),
                 Leaf("RBF", (1.0,), coef=1.0),
                 Sum(left=Leaf("RBF", (1.3,), coef=1.0),
                     right=Prod(left=Leaf("MAT52", (third,), coef=1e-3),
                                right=Leaf("PER", (2.0, 1.1)), coef=1.0)),
                 Prod(left=Leaf("RQ", (1e-05, 1e+20)),
                      right=Leaf("MAT12", (0.5,)), coef=2.5)):
        assert read_expr(serialize(expr)) == expr
    assert param_vector(read_expr("1.0*RBF[th=1.0]")).size == 2
    assert param_vector(read_expr("RBF[th=1.0]")).size == 1
    for bad in ("RBF", "RBF[th=1.0] ", "(DOT + DOT", "DOT + DOT",
                "RQ[l=1.0,al=2.0]", "(DOT - DOT)"):
        with pytest.raises((ValueError, KeyError)):
            read_expr(bad)


def test_param_vector_preorder_flattening():
    expr = Sum(left=Leaf("RBF", (1.3,), coef=2.0),
               right=Leaf("RQ", (1.5, 0.5), coef=0.7),
               coef=None)
    pv = param_vector(expr)
    # left coefficient, RBF th, right coefficient, RQ al and l
    assert pv.values.tolist() == [2.0, 1.3, 0.7, 1.5, 0.5]
    coef, shape = COEF_BOUNDS[0], SHAPE_BOUNDS[0]
    assert pv.lower.tolist() == [coef, shape, coef, shape, shape]
    assert all(s == "log" for s in pv.scales)


def test_with_params_round_trip():
    expr = Prod(left=Leaf("MAT32", (0.4,), coef=1.5),
                right=Leaf("PER", (2.0, 1.0), coef=None))
    pv = param_vector(expr)
    rebuilt = with_params(expr, pv.values)
    assert rebuilt == expr
    moved = with_params(expr, [9.0, 8.0, 7.0, 6.0])
    assert moved.left.coef == 9.0
    assert moved.left.params == (8.0,)
    assert moved.right.params == (7.0, 6.0)
    with pytest.raises(ValueError):
        with_params(expr, [1.0, 2.0])
    with pytest.raises(ValueError):
        with_params(expr, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_periodic_bounds_scale_with_data():
    pv = param_vector(new_leaf("PER", coef=None), p_scale=4.0)
    # the period p comes before the lengthscale l
    assert pv.lower[0] == pytest.approx(0.4)
    assert pv.upper[0] == pytest.approx(40.0)
    assert (pv.lower[1], pv.upper[1]) == SHAPE_BOUNDS


def test_classical_kernel_adapter():
    expr = Sum(left=new_leaf("RBF"), right=new_leaf("DOT"), coef=None)
    kernel = ClassicalKernel(expr=expr)
    pv = param_vector(expr)
    X = rng.uniform(0.1, 1, (5, 2))
    G = kernel.gram(X, X, pv)
    want = eval_expr(with_params(expr, pv.values), X[1], X[2])
    assert abs(G[1, 2] - want) < 1e-12
