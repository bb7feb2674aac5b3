from dataclasses import replace

import numpy as np
import pytest
from scipy.special import erf

from peskit.data import standardize, synth_pes
from peskit.gp import SearchTrace, TraceRow
from peskit.nngp import (SIGMA_B_BOUNDS, SIGMA_W_BOUNDS, NNGPKernel,
                         search_depth)
from search_config import search_config

rng = np.random.default_rng(5)


def _pair_gram(depth, values, x, xp):
    kernel = NNGPKernel(depth=depth)
    pv = kernel.default_params().with_values(values)
    return kernel.gram(np.vstack([x, xp]), np.vstack([x, xp]), pv)


def test_depth_validation_and_param_layout():
    with pytest.raises(ValueError):
        NNGPKernel(depth=0)
    pv = NNGPKernel(depth=2).default_params()
    assert pv.size == 6
    # (sigma_w, sigma_b) per layer, in layer order
    assert pv.scales == ("log", "linear") * 3
    assert pv.lower.tolist() == [SIGMA_W_BOUNDS[0], SIGMA_B_BOUNDS[0]] * 3


def test_gram_rejects_wrong_param_count():
    kernel = NNGPKernel(depth=2)
    pv = NNGPKernel(depth=1).default_params()
    with pytest.raises(ValueError):
        kernel.gram(np.zeros((2, 2)), np.zeros((2, 2)), pv)


def test_single_layer_matches_network_monte_carlo():
    # sample wide single-hidden-layer erf networks and compare the averaged
    # output covariance against the closed-form arcsine recursion
    D = 3
    n_samples = 200_000
    for trial in range(3):
        x = rng.uniform(-1, 1, D)
        xp = rng.uniform(-1, 1, D)
        sw0, sb0, sw1, sb1 = 1.2, 0.3, 0.9, 0.2
        w = rng.standard_normal((n_samples, D)) * (sw0 / np.sqrt(D))
        b = rng.standard_normal(n_samples) * sb0
        f = erf(w @ x + b) * erf(w @ xp + b)
        mc = sb1 ** 2 + sw1 ** 2 * f.mean()
        se = sw1 ** 2 * f.std() / np.sqrt(n_samples)
        closed = _pair_gram(1, [sw0, sb0, sw1, sb1], x, xp)[0, 1]
        assert abs(closed - mc) < 3 * se + 1e-12


def test_two_layer_matches_bivariate_monte_carlo():
    # layer-2 recursion vs direct sampling of the layer-1 Gaussian field
    D = 2
    n_samples = 400_000
    x = rng.uniform(-1, 1, D)
    xp = rng.uniform(-1, 1, D)
    values = [1.1, 0.25, 0.8, 0.15, 1.3, 0.2]
    K1 = _pair_gram(1, values[:4], x, xp)
    L = np.linalg.cholesky(K1 + 1e-12 * np.eye(2))
    z = rng.standard_normal((n_samples, 2)) @ L.T
    f = erf(z[:, 0]) * erf(z[:, 1])
    sw2, sb2 = values[4], values[5]
    mc = sb2 ** 2 + sw2 ** 2 * f.mean()
    se = sw2 ** 2 * f.std() / np.sqrt(n_samples)
    closed = _pair_gram(2, values, x, xp)[0, 1]
    assert abs(closed - mc) < 3 * se + 1e-12


@pytest.mark.parametrize("depth", [1, 2, 4])
def test_gram_psd_and_symmetric(depth):
    kernel = NNGPKernel(depth=depth)
    pv = kernel.default_params()
    X = rng.uniform(-2, 2, (10, 3))
    K = kernel.gram(X, X, pv)
    assert np.allclose(K, K.T)
    assert np.linalg.eigvalsh(0.5 * (K + K.T))[0] >= -1e-8


def test_eval_matches_gram_entry():
    kernel = NNGPKernel(depth=2)
    pv = kernel.default_params()
    x = rng.uniform(-1, 1, 3)
    xp = rng.uniform(-1, 1, 3)
    K = kernel.gram(np.vstack([x, xp]), np.vstack([x, xp]), pv)
    assert kernel.gram([x], [xp], pv)[0, 0] == pytest.approx(K[0, 1], abs=1e-14)


def test_rectangular_gram_consistent_with_square():
    kernel = NNGPKernel(depth=3)
    pv = kernel.default_params()
    X = rng.uniform(-1, 1, (6, 2))
    K = kernel.gram(X, X, pv)
    R = kernel.gram(X[:4], X[4:], pv)
    assert np.allclose(R, K[:4, 4:], atol=1e-14)


def test_search_depth_returns_trace_and_is_deterministic():
    data = synth_pes(2, 60, seed=3).subset(range(40))
    data = replace(data, y=standardize(data.y)[0])
    cfg = search_config(nngp_budget=10, nngp_max_depth=3)
    k1, p1, t1 = search_depth(data, cfg, 1)
    k2, p2, t2 = search_depth(data, cfg, 1)
    assert k1.depth == k2.depth
    assert np.array_equal(p1.values, p2.values)
    assert [r.criterion for r in t1] == [r.criterion for r in t2]
    assert isinstance(t1, SearchTrace)
    assert all(isinstance(r, TraceRow) for r in t1)
    assert [int(r.winner) for r in t1] == list(range(1, len(t1) + 1))
    assert all(r.M == 2 * (int(r.winner) + 1) for r in t1)
    # the returned kernel is the best depth seen in the trace
    best = max(t1, key=lambda r: r.criterion)
    assert k1.depth == int(best.winner)
