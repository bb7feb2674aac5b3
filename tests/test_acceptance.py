"""End-to-end acceptance checks for the whole package.

Each test pins one deliverable property: simulator exactness against dense
linear-algebra oracles, GP interpolation exactness, search/oracle agreement,
trace monotonicity, Monte-Carlo validation of the NNGP recursion, and the
qualitative desk-scale benchmark orderings. The full-scale H3O+ protocol is
config-validated here and skipped unless the ab initio dataset is present.
"""

import json
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from peskit.bench import ExperimentConfig
from peskit.circuit_search import (canonical_layers, layer_pool,
                                   search_circuit, search_moves)
from peskit.data import split_random, standardize, synth_pes
from peskit.gp import (beta, fit, log_marginal_likelihood, predict, rmse,
                       surrogate_objective)
from peskit.kernel_search import search_classical
from peskit.kernels import ClassicalKernel, Sum, new_leaf, param_vector
from peskit.nngp import NNGPKernel
from peskit.optimizer import SearchSpace, maximize, stable_seed
from peskit.quantum import (QubitLayer, apply_layers, build_fixed_ansatz,
                            build_variable_ansatz, zero_state)
from quantum_oracle import dense_layer, fidelity_kernel, fidelity_via_adjoint
from screen_oracle import involution_count
from search_config import search_config

rng = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# 1. gate-level simulator exactness

def test_gate_updates_match_dense_oracles_and_preserve_norm():
    t0 = time.perf_counter()
    m, B = 3, 4
    moves = search_moves(m)
    for layer in moves:
        for _ in range(20):
            pv = build_variable_ansatz(m, ()).default_params().with_values(
                rng.uniform(0.5, 2.0, m + 1))
            X = rng.uniform(-2 * math.pi, 2 * math.pi, (B, m))
            psi = (rng.standard_normal((2 ** m, B))
                   + 1j * rng.standard_normal((2 ** m, B)))
            psi /= np.linalg.norm(psi, axis=0)
            got = apply_layers(psi.copy(), (layer,), pv, X)
            for b in range(B):
                want = dense_layer(layer, m, pv, X[b]) @ psi[:, b]
                assert np.max(np.abs(got[:, b] - want)) <= 1e-12
    psi = zero_state(m, B)
    for _ in range(10_000):
        X = rng.uniform(-math.pi, math.pi, (B, m))
        apply_layers(psi, (moves[rng.integers(len(moves))],), pv, X)
    assert np.max(np.abs(np.linalg.norm(psi, axis=0) - 1.0)) <= 1e-12
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 2. fidelity-kernel identities

def test_fidelity_kernel_identities():
    t0 = time.perf_counter()
    kernel = build_variable_ansatz(3, (((0, 1),), ((1, 2),)))
    pv = kernel.default_params()
    X = rng.uniform(0, 1, (8, 3))
    for x in X:
        assert abs(fidelity_kernel(kernel, pv, x, x) - 1.0) <= 1e-12
    for i in range(4):
        for j in range(4, 8):
            kij = fidelity_kernel(kernel, pv, X[i], X[j])
            assert kij == fidelity_kernel(kernel, pv, X[j], X[i])

    # cached-statevector path vs literal apply-U(x)-then-adjoint-U(x') path
    for _ in range(10):
        m = int(rng.integers(2, 5))
        pool = layer_pool(m)
        layers = tuple(pool[rng.integers(len(pool))]
                       for _ in range(rng.integers(0, 3)))
        kernel = build_variable_ansatz(m, layers)
        pv = kernel.default_params().with_values(rng.uniform(0.1, 5.0, m + 1))
        x, xp = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
        a = fidelity_kernel(kernel, pv, x, xp)
        b = fidelity_via_adjoint(kernel, pv, x, xp)
        assert abs(a - b) <= 1e-12

    # single qubit, no entangling block: k(x, x') = cos^2((x - x') / 2 theta)
    kernel1 = build_variable_ansatz(1, ())
    theta = 0.7
    pv1 = kernel1.default_params().with_values([theta, 1.0])
    for _ in range(100):
        x, xp = rng.uniform(0, 2, 2)
        want = math.cos((x - xp) / (2 * theta)) ** 2
        assert abs(fidelity_kernel(kernel1, pv1, [x], [xp]) - want) <= 1e-10
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# 3. GP exactness for all three kernel families

def _families():
    comp = Sum(left=new_leaf("RBF", coef=1.0), right=new_leaf("MAT52", coef=0.5))
    cpv = param_vector(comp).with_values([1.0, 2.0, 0.5, 0.5])
    nngp = NNGPKernel(depth=2)
    npv = nngp.default_params().with_values([3.0, 0.5, 2.0, 0.3, 2.0, 0.3])
    quantum = build_fixed_ansatz(3)
    qpv = quantum.default_params()
    return [("composite", ClassicalKernel(expr=comp), cpv),
            ("nngp", nngp, npv),
            ("quantum", quantum, qpv)]


def test_training_points_reproduced_by_all_families():
    X = rng.uniform(0.1, 0.9, (50, 3))
    y = 2.0 + np.sin(3.0 * X[:, 0]) + X[:, 1]
    for name, kernel, pv in _families():
        gp = fit(kernel, pv, X, y, sigma_n=0.0, jitter=1e-10)
        assert gp.jitter <= 1e-8, name
        pred = predict(gp, X)
        rel = np.max(np.abs(pred - y) / np.abs(y))
        assert rel <= 1e-6, (name, rel)


def test_cholesky_loglik_matches_dense_oracle():
    X = rng.uniform(0.1, 0.9, (15, 3))
    y = 2.0 + np.sin(3.0 * X[:, 0]) + X[:, 1]
    for name, kernel, pv in _families():
        got = log_marginal_likelihood(kernel, pv, X, y, sigma_n=0.1)
        K = kernel.gram(X, X, pv) + (0.01 + 1e-10) * np.eye(15)
        sign, logdet = np.linalg.slogdet(K)
        assert sign > 0
        want = (-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet
                - 7.5 * math.log(2 * math.pi))
        assert abs(got - want) <= 1e-8, name


# ---------------------------------------------------------------------------
# 4. layer-pool combinatorics

def test_layer_pool_sizes_match_involution_recurrence():
    t0 = time.perf_counter()
    assert [len(layer_pool(m)) for m in range(2, 7)] == [1, 3, 9, 25, 75]
    assert [involution_count(m) - 1 for m in range(2, 7)] == [1, 3, 9, 25, 75]
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 5. beam search equals the exhaustive oracle at full beam width

def test_beam_search_equals_exhaustive_oracle():
    # m=3, depth cap 2, beam width = number of moves (the three R_ZZ
    # matchings plus full H, R_Z and R_Y layers), fixed seeds and budgets:
    # the beam retains and refines the sequence that wins the brute-force
    # enumeration of all 43 sequences, so the winning beta must match
    # bitwise.
    t0 = time.perf_counter()
    SN, REFINE, FINAL, SEED = 0.1, 40, 40, 0
    data = synth_pes(3, 120, 0, kind="coupled-morse").subset(range(100))
    ys, _, _ = standardize(data.y)
    X, N, MP = data.X, 100, 4

    def log_o(layers, v):
        kernel = build_variable_ansatz(3, layers)
        L = log_marginal_likelihood(kernel,
                                    kernel.default_params().with_values(v),
                                    X, ys, sigma_n=SN)
        return surrogate_objective(L)

    def optimize(layers, warm, budget, tag):
        pv = build_variable_ansatz(3, layers).default_params()
        res = maximize(lambda v: log_o(layers, v), SearchSpace.from_params(pv),
                       budget,
                       seed=stable_seed(SEED, tag, canonical_layers(layers)),
                       warm_start=warm)
        return np.asarray(res.best_point, float), res.best_value

    moves = layer_pool(3) + tuple(QubitLayer(k)
                                  for k in ("H", "RZ", "RY"))
    init = build_variable_ansatz(3, ()).default_params().values
    results = {(): optimize((), init, REFINE, "circuit")}
    for a in moves:
        results[(a,)] = optimize((a,), init, REFINE, "circuit")
    for a in moves:
        pa = results[(a,)][0]
        for b in moves:
            # children inherit the refined parameters of their parent
            results[(a, b)] = optimize((a, b), pa.copy(), REFINE, "circuit")

    def key(item):
        layers, (p, o) = item
        return (-beta(o, MP, N), len(layers), canonical_layers(layers))

    best_layers, (bp, _) = min(results.items(), key=key)
    fp, fo = optimize(best_layers, bp.copy(), FINAL, "circuit-final")
    oracle_beta = beta(fo, MP, N)

    cfg = search_config(beam_width=len(moves), refine_budget=REFINE,
                        final_budget=FINAL, max_depth=2, sigma_n=SN)
    kernel, params, _ = search_circuit(replace(data, y=ys), cfg, SEED)
    # the appended layers between the leading H and final R_Y layers
    search_layers = kernel.layers[1:-1]
    search_beta = beta(log_o(search_layers, params.values), MP, N)
    assert kernel == build_variable_ansatz(3, best_layers)
    assert np.array_equal(params.values, fp)
    assert search_beta == oracle_beta
    assert time.perf_counter() - t0 < 600.0


# ---------------------------------------------------------------------------
# 6. monotone best-score traces under incumbent retention

@pytest.mark.parametrize("seed", range(5))
def test_classical_trace_monotone(seed):
    data = synth_pes(2, 80, seed)
    data = replace(data, y=standardize(data.y)[0])
    cfg = search_config(classical_budget=6, final_budget=6, max_depth=3)
    _, _, trace = search_classical(data, cfg, seed)
    bics = [r.criterion for r in trace]
    assert all(b >= a for a, b in zip(bics, bics[1:]))


@pytest.mark.parametrize("seed", range(5))
def test_circuit_trace_monotone(seed):
    data = synth_pes(3, 60, seed).subset(range(50))
    data = replace(data, y=standardize(data.y)[0])
    cfg = search_config(beam_width=2, refine_budget=8, final_budget=8,
                        max_depth=3, sigma_n=0.1)
    _, _, trace = search_circuit(data, cfg, seed)
    betas = [r.criterion for r in trace]
    assert all(b >= a for a, b in zip(betas, betas[1:]))


# ---------------------------------------------------------------------------
# 7. NNGP recursion vs Monte-Carlo; Gram positive semidefinite

def _mc_layer(a, b, c, sw2, sb2, n, mc_rng):
    """Monte-Carlo E[erf(z) erf(z')] under the bivariate normal [[a,c],[c,b]]."""
    z = mc_rng.standard_normal((n, 2))
    zx = math.sqrt(a) * z[:, 0]
    rho = c / math.sqrt(a * b)
    zxp = math.sqrt(b) * (rho * z[:, 0] + math.sqrt(1 - rho ** 2) * z[:, 1])
    prods = erf(zx) * erf(zxp)
    est = sb2 + sw2 * prods.mean()
    se = sw2 * prods.std(ddof=1) / math.sqrt(n)
    return est, se


def test_nngp_recursion_matches_monte_carlo():
    n = 1_000_000
    vals = np.array([1.2, 0.3, 0.9, 0.2, 1.1, 0.25])
    k2 = NNGPKernel(depth=2)
    pv2 = k2.default_params().with_values(vals)
    k1 = NNGPKernel(depth=1)
    pv1 = k1.default_params().with_values(vals[:4])
    mc_rng = np.random.default_rng(7)
    for trial in range(5):
        x = mc_rng.uniform(-1, 1, 3)
        xp = mc_rng.uniform(-1, 1, 3)
        # layer-0 covariance, then one erf layer
        sw2, sb2 = vals[0] ** 2, vals[1] ** 2
        a0 = sb2 + sw2 * (x @ x) / 3
        b0 = sb2 + sw2 * (xp @ xp) / 3
        c0 = sb2 + sw2 * (x @ xp) / 3
        est1, se1 = _mc_layer(a0, b0, c0, vals[2] ** 2, vals[3] ** 2, n, mc_rng)
        want1 = k1.gram([x], [xp], pv1)[0, 0]
        assert abs(est1 - want1) <= 3 * se1
        # second erf layer on top of the closed-form depth-1 covariance
        a1 = k1.gram([x], [x], pv1)[0, 0]
        b1 = k1.gram([xp], [xp], pv1)[0, 0]
        est2, se2 = _mc_layer(a1, b1, want1, vals[4] ** 2, vals[5] ** 2,
                              n, mc_rng)
        want2 = k2.gram([x], [xp], pv2)[0, 0]
        assert abs(est2 - want2) <= 3 * se2


def test_nngp_gram_positive_semidefinite():
    for depth in (1, 2, 4):
        kernel = NNGPKernel(depth=depth)
        pv = kernel.default_params()
        for seed in range(3):
            X = np.random.default_rng(seed).uniform(-2, 2, (10, 3))
            G = kernel.gram(X, X, pv)
            assert np.min(np.linalg.eigvalsh(G)) >= -1e-8


# ---------------------------------------------------------------------------
# 8. desk-scale benchmark: variable-circuit search on a coupled-Morse PES

SIGMA_N = 0.1  # small regularization noise keeps the surrogate informative
               # at N=300, where the rank-limited fidelity Gram would
               # otherwise floor every candidate's objective


@pytest.fixture(scope="module")
def circuit_benchmark_medians():
    d0, conv, fx = [], [], []
    for seed in range(5):
        data = synth_pes(3, 600, seed, kind="coupled-morse")
        split = split_random(data, 300, seed=stable_seed("c8", seed))
        train, test = data.subset(split.train), data.subset(split.test)
        ys, mean, scale = standardize(train.y)

        def log_o(kernel, v):
            L = log_marginal_likelihood(kernel,
                                        kernel.default_params().with_values(v),
                                        train.X, ys, sigma_n=SIGMA_N)
            return surrogate_objective(L)

        def holdout(kernel, values):
            gp = fit(kernel, kernel.default_params().with_values(values),
                     train.X, ys, sigma_n=SIGMA_N, jitter=1e-10)
            return rmse(mean + scale * predict(gp, test.X), test.y)

        def optimize_kernel(kernel, tag):
            pv = kernel.default_params()
            res = maximize(lambda v: log_o(kernel, v),
                           SearchSpace.from_params(pv), 200,
                           seed=stable_seed(seed, tag), warm_start=pv.values)
            return np.asarray(res.best_point, float)

        zero = build_variable_ansatz(3, ())
        d0.append(holdout(zero, optimize_kernel(zero, "d0")))

        cfg = search_config(beam_width=9, refine_budget=40, final_budget=200,
                            max_depth=8, sigma_n=SIGMA_N)
        kernel, params, _ = search_circuit(replace(train, y=ys), cfg, seed)
        conv.append(holdout(kernel, params.values))

        fixed = build_fixed_ansatz(3)
        fx.append(holdout(fixed, optimize_kernel(fixed, "fx")))
    return (float(np.median(d0)), float(np.median(conv)),
            float(np.median(fx)))


def test_circuit_search_beats_zero_layer_baseline(circuit_benchmark_medians):
    depth0, converged, _ = circuit_benchmark_medians
    assert converged < depth0


def test_converged_variable_circuit_beats_fixed_ansatz(
        circuit_benchmark_medians):
    _, converged, fixed = circuit_benchmark_medians
    assert converged <= fixed


# ---------------------------------------------------------------------------
# 9. composite classical search beats single-base kernels

def test_composite_search_improves_on_single_bases():
    gains, comp_rmse, rbf_rmse = [], [], []
    for seed in range(5):
        data = synth_pes(3, 600, seed, kind="coupled-morse")
        split = split_random(data, 300, seed=stable_seed("c9", seed))
        train, test = data.subset(split.train), data.subset(split.test)
        ys, mean, scale = standardize(train.y)

        def holdout(kernel, pv):
            gp = fit(kernel, pv, train.X, ys, sigma_n=0.0, jitter=1e-10)
            return rmse(mean + scale * predict(gp, test.X), test.y)

        cfg = search_config(classical_budget=30, final_budget=100)
        kernel, pv, trace = search_classical(replace(train, y=ys), cfg,
                                             stable_seed(seed, "cls"))
        # iteration 0 scores exactly the single-base pool
        gains.append(trace.rows[-1].criterion - trace.rows[0].criterion)
        comp_rmse.append(holdout(kernel, pv))

        rbf_cfg = replace(cfg, max_depth=1)
        rkernel, rpv, _ = search_classical(replace(train, y=ys), rbf_cfg,
                                           stable_seed(seed, "cls"),
                                           bases=("RBF",))
        rbf_rmse.append(holdout(rkernel, rpv))
    assert min(gains) >= 1.0
    assert np.median(comp_rmse) <= np.median(rbf_rmse)


# ---------------------------------------------------------------------------
# 10. full-scale H3O+ protocol: recipe shipped, run gated on the dataset

def test_h3o_recipe_config_is_valid():
    path = Path(__file__).resolve().parents[1] / "configs" / "h3o_full.json"
    doc = json.loads(path.read_text())
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.dataset["kind"] == "csv"
    assert cfg.dataset["a"] == 2.5
    assert cfg.beam_width == 75
    assert 2000 in cfg.n_train
    assert len(cfg.seeds) == 5


def test_h3o_full_run_requires_dataset():
    root = Path(__file__).resolve().parents[1]
    cfg = ExperimentConfig.from_json(root / "configs" / "h3o_full.json")
    data_path = root / cfg.dataset["path"]
    if not data_path.exists():
        pytest.skip("ab initio H3O+ dataset not shipped; see README for the "
                    "full-scale protocol")
    from peskit.bench import run_interpolation
    table, _ = run_interpolation(cfg)
    assert table.rows
