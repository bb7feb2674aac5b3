import math

import numpy as np
import pytest

from peskit.circuit_search import canonical_layers, layer_pool, search_moves
from peskit.quantum import (QuantumKernel, QubitLayer, apply_layers,
                            build_fixed_ansatz, build_variable_ansatz,
                            statevectors, zero_state)
from quantum_oracle import (angle, dense_gate, dense_layer, fidelity_kernel,
                            fidelity_via_adjoint, gates, read_winner,
                            replay_states, statevector_for)

rng = np.random.default_rng(42)


def _random_batch(m, B):
    """B random unit states, one per column: shape (2^m, B)."""
    v = (rng.standard_normal((2 ** m, B))
         + 1j * rng.standard_normal((2 ** m, B)))
    return v / np.linalg.norm(v, axis=0)


def _random_params(m):
    return build_variable_ansatz(m, ()).default_params().with_values(
        rng.uniform(0.5, 2.0, m + 1))


@pytest.mark.parametrize("kind", ["H", "RZ", "RY", "RZZ"])
def test_apply_gate_matches_dense_oracle(kind):
    # every layer of this kind, every R_ZZ matching for RZZ, on a batch
    # with one input row per column
    for m in (2, 3, 4):
        layers = layer_pool(m) if kind == "RZZ" else (QubitLayer(kind),)
        for layer in layers:
            B = 5
            pv = _random_params(m)
            X = rng.uniform(-2 * math.pi, 2 * math.pi, (B, m))
            psi = _random_batch(m, B)
            got = apply_layers(psi.copy(), (layer,), pv, X)
            for b in range(B):
                want = dense_layer(layer, m, pv, X[b]) @ psi[:, b]
                assert np.max(np.abs(got[:, b] - want)) < 1e-12


@pytest.mark.parametrize("gate", [(3, QubitLayer("RZ")),
                                  (4, ((0, 2), (1, 3)))])
def test_diagonal_gate_equals_elementwise_phase_exactly(gate):
    # the phase exp(-i phi s / 2), s = +-1, taken per basis state and gate:
    # the layer's one-exponential-per-angle form must reproduce it bit for
    # bit, on a batch of 50 states held one per column, each with its input
    m, layer = gate
    z = np.array([1.0 - 2.0 * ((np.arange(2 ** m) >> q) & 1)
                  for q in range(m)])
    pv = _random_params(m)
    X = rng.uniform(-20, 20, (50, m))
    psi = _random_batch(m, 50)
    got = apply_layers(psi.copy(), (layer,), pv, X)
    want = psi
    for kind, qubits in gates(QuantumKernel(m, (layer,))):
        s = np.prod(z[list(qubits)], axis=0)
        phi = angle(kind, qubits, pv, X)
        want = want * np.exp(-0.5j * phi[None, :] * s[:, None])
    assert np.array_equal(got, want)


def test_apply_gate_batched_angles():
    # a batch holds one state per column, and input row b turns column b
    m, B = 2, 4
    layers = (QubitLayer("RY"), ((0, 1),), QubitLayer("RZ"))
    pv = _random_params(m)
    X = rng.uniform(-3, 3, (B, m))
    psi = _random_batch(m, B)
    got = apply_layers(psi.copy(), layers, pv, X)
    for b in range(B):
        want = psi[:, b]
        for layer in layers:
            want = dense_layer(layer, m, pv, X[b]) @ want
        assert np.max(np.abs(got[:, b] - want)) < 1e-12


def test_batched_gates_equal_single_state_gates_exactly():
    # every layer on a (2^m, B) batch equals the same layer on each column
    # alone, bit for bit
    m, B = 4, 9
    pv = _random_params(m)
    X = rng.uniform(-4, 4, (B, m))
    psi = _random_batch(m, B)
    for layer in search_moves(m):
        got = apply_layers(psi.copy(), (layer,), pv, X)
        for b in range(B):
            one = apply_layers(psi[:, b:b + 1].copy(), (layer,), pv,
                               X[b:b + 1])
            assert np.array_equal(got[:, b], one[:, 0])


def test_norm_preserved_over_many_gates():
    m = 3
    moves = search_moves(m)
    pv = _random_params(m)
    psi = zero_state(m, 4)
    for _ in range(2000):
        X = rng.uniform(-math.pi, math.pi, (4, m))
        apply_layers(psi, (moves[rng.integers(len(moves))],), pv, X)
    assert np.max(np.abs(np.linalg.norm(psi, axis=0) - 1.0)) < 1e-12


def test_gate_op_validation():
    # a single-qubit layer is H, RZ or RY
    for kind in ("RZZ", "ID", "CNOT"):
        with pytest.raises(ValueError, match="no single-qubit layer"):
            QubitLayer(kind)
    # a rotation layer takes an encoding scale for every qubit
    psi = zero_state(3, 2)
    pv = build_variable_ansatz(2, ()).default_params()
    for kind in ("RZ", "RY"):
        with pytest.raises(ValueError, match="no encoding scale"):
            apply_layers(psi, (QubitLayer(kind),), pv, np.zeros((2, 3)))
    assert np.array_equal(psi, zero_state(3, 2))  # no refused layer touched it


def test_circuit_layer_constraint():
    # a matching holds ordered in-range pairs, no qubit twice
    for layer, match in ((((1, 0),), "ordered"), (((1, 1),), "ordered"),
                         (((0, 3),), "out of range"),
                         (((-1, 2),), "out of range"),
                         (((0, 1), (1, 2)), "two pairs"),
                         (((0, 2), (1, 2)), "two pairs")):
        with pytest.raises(ValueError, match=match):
            build_variable_ansatz(3, (layer,))
    QuantumKernel(3, (QubitLayer("H"), ((0, 1),), ((0, 2),)))


_H3 = ('[{"gate": "H", "qubits": [0]}, {"gate": "H", "qubits": [1]}, '
       '{"gate": "H", "qubits": [2]}]')
_RZ3 = ('[{"gate": "RZ", "qubits": [0]}, {"gate": "RZ", "qubits": [1]}, '
        '{"gate": "RZ", "qubits": [2]}]')
_RY3 = ('[{"gate": "RY", "qubits": [0]}, {"gate": "RY", "qubits": [1]}, '
        '{"gate": "RY", "qubits": [2]}]')
_ZZ3 = ('[{"gate": "RZZ", "qubits": [0, 1]}], '
        '[{"gate": "RZZ", "qubits": [0, 2]}], '
        '[{"gate": "RZZ", "qubits": [1, 2]}]')


# build_fixed_ansatz(6), the m of the H3O+ recipe: a U block is R_Z^6 and
# seven matchings, the greedy split of the 15 pairs
_H6 = ('[{"gate": "H", "qubits": [0]}, {"gate": "H", "qubits": [1]}, '
       '{"gate": "H", "qubits": [2]}, {"gate": "H", "qubits": [3]}, '
       '{"gate": "H", "qubits": [4]}, {"gate": "H", "qubits": [5]}]')
_U6 = ('[{"gate": "RZ", "qubits": [0]}, {"gate": "RZ", "qubits": [1]}, '
       '{"gate": "RZ", "qubits": [2]}, {"gate": "RZ", "qubits": [3]}, '
       '{"gate": "RZ", "qubits": [4]}, {"gate": "RZ", "qubits": [5]}], '
       '[{"gate": "RZZ", "qubits": [0, 1]}, {"gate": "RZZ", "qubits": [2, 3]}, '
       '{"gate": "RZZ", "qubits": [4, 5]}], '
       '[{"gate": "RZZ", "qubits": [0, 2]}, {"gate": "RZZ", "qubits": [1, 3]}], '
       '[{"gate": "RZZ", "qubits": [0, 3]}, {"gate": "RZZ", "qubits": [1, 2]}], '
       '[{"gate": "RZZ", "qubits": [0, 4]}, {"gate": "RZZ", "qubits": [1, 5]}], '
       '[{"gate": "RZZ", "qubits": [0, 5]}, {"gate": "RZZ", "qubits": [1, 4]}], '
       '[{"gate": "RZZ", "qubits": [2, 4]}, {"gate": "RZZ", "qubits": [3, 5]}], '
       '[{"gate": "RZZ", "qubits": [2, 5]}, {"gate": "RZZ", "qubits": [3, 4]}]')


def _fitted(kernel):
    """``kernel`` with scales 0.25, 0.5, ..., exact in decimal."""
    return kernel, kernel.default_params().with_values(
        np.arange(1, kernel.m + 2) / 4)


def test_circuit_json_round_trip():
    # the winner-file format, byte for byte
    kernel, pv = _fitted(build_variable_ansatz(3, (((0, 1),), ((1, 2),))))
    assert kernel.describe(pv) == (
        '{"m": 3, "layers": [' + _H3 + ', [{"gate": "RZZ", "qubits": [0, 1]}]'
        ', [{"gate": "RZZ", "qubits": [1, 2]}], ' + _RY3 + '], '
        '"params": [0.25, 0.5, 0.75, 1.0]}')
    moves, mpv = _fitted(build_variable_ansatz(
        3, (QubitLayer("H"), ((0, 2),), QubitLayer("RZ"), QubitLayer("RY"))))
    assert moves.describe(mpv) == (
        '{"m": 3, "layers": [' + _H3 + ', ' + _H3 + ', '
        '[{"gate": "RZZ", "qubits": [0, 2]}], ' + _RZ3 + ', ' + _RY3 + ', '
        + _RY3 + '], "params": [0.25, 0.5, 0.75, 1.0]}')
    fixed, fpv = _fitted(build_fixed_ansatz(3))
    block = ", ".join((_H3, _RZ3, _ZZ3))
    assert fixed.describe(fpv) == (
        '{"m": 3, "layers": [' + block + ", " + block + '], '
        '"params": [0.25, 0.5, 0.75, 1.0]}')
    fixed6, f6pv = _fitted(build_fixed_ansatz(6))
    block6 = _H6 + ", " + _U6
    assert fixed6.describe(f6pv) == (
        '{"m": 6, "layers": [' + block6 + ", " + block6 + '], '
        '"params": [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75]}')
    # the file holds all a reader needs to rebuild the kernel and its scales
    for k, pv in ((kernel, pv), (moves, mpv), (fixed, fpv), (fixed6, f6pv)):
        back, back_pv = read_winner(k.describe(pv))
        assert back == k
        assert back_pv.values.tolist() == pv.values.tolist()
        assert back.describe(back_pv) == k.describe(pv)


def test_encoding_values():
    # R_Y / R_Z on qubit i turn by x_i / theta_i, R_ZZ on (i, j) by
    # exp(-(x_i - x_j)^2 / Theta), read off the states of one layer
    pv = build_variable_ansatz(3, ()).default_params().with_values(
        [2.0, 4.0, 0.5, 3.0])
    X = np.array([[0.6, 0.2, 0.9]])
    bits = (np.arange(8)[:, None] >> np.arange(3)) & 1  # bit q of index k
    phi = np.array([0.3, 0.05, 1.8])
    psi = apply_layers(zero_state(3, 1), (QubitLayer("RY"),), pv, X)[:, 0]
    want = np.prod(np.where(bits, np.sin(phi / 2), np.cos(phi / 2)), axis=1)
    assert np.max(np.abs(psi - want)) < 1e-12
    z = 1.0 - 2.0 * bits
    uniform = np.full(8, 1 / math.sqrt(8))
    psi = apply_layers(zero_state(3, 1), (QubitLayer("H"), QubitLayer("RZ")),
                       pv, X)[:, 0]
    assert np.max(np.abs(psi - uniform * np.exp(-0.5j * z @ phi))) < 1e-12
    zz = math.exp(-((0.6 - 0.9) ** 2) / 3.0)
    psi = apply_layers(zero_state(3, 1), (QubitLayer("H"), ((0, 2),)),
                       pv, X)[:, 0]
    want = uniform * np.exp(-0.5j * zz * z[:, 0] * z[:, 2])
    assert np.max(np.abs(psi - want)) < 1e-12


def test_fidelity_identities():
    kernel = build_variable_ansatz(3, (((0, 1),), ((0, 2),)))
    pv = kernel.default_params()
    X = rng.uniform(0, 1, (6, 3))
    for x in X:
        assert fidelity_kernel(kernel, pv, x, x) == pytest.approx(1.0, abs=1e-12)
    for i in range(3):
        for j in range(3, 6):
            kij = fidelity_kernel(kernel, pv, X[i], X[j])
            kji = fidelity_kernel(kernel, pv, X[j], X[i])
            assert kij == pytest.approx(kji, abs=1e-14)
            assert 0.0 <= kij <= 1.0


def test_cached_path_equals_adjoint_path():
    inputs = []
    for trial in range(5):
        m = int(rng.integers(2, 4))
        pool = [(i, j) for i in range(m) for j in range(i + 1, m)]
        inputs.append((m, tuple((pool[rng.integers(len(pool))],)
                                for _ in range(rng.integers(0, 3)))))
    # single-qubit layers make the circuit non-diagonal between H and R_Y
    inputs.append((3, (QubitLayer("RZ"), ((0, 1),), QubitLayer("H"),
                       ((1, 2),), QubitLayer("RY"))))
    for m, layers in inputs:
        kernel = build_variable_ansatz(m, layers)
        pv = kernel.default_params().with_values(
            rng.uniform(0.1, 5.0, m + 1))
        x, xp = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
        a = fidelity_kernel(kernel, pv, x, xp)
        b = fidelity_via_adjoint(kernel, pv, x, xp)
        assert abs(a - b) < 1e-12


def test_single_qubit_analytic_kernel():
    # empty entangling block: k(x, x') = cos^2((x - x') / (2 theta))
    kernel = build_variable_ansatz(1, ())
    theta = 0.8
    pv = kernel.default_params().with_values([theta, 1.0])
    for _ in range(20):
        x, xp = rng.uniform(0, 2, 2)
        want = math.cos((x - xp) / (2 * theta)) ** 2
        assert fidelity_kernel(kernel, pv, [x], [xp]) == pytest.approx(
            want, abs=1e-10)


def test_single_qubit_state_amplitudes():
    # RY(x/theta) H |0> = ((cos - sin), (cos + sin)) / sqrt(2) at half angle
    kernel = build_variable_ansatz(1, ())
    pv = kernel.default_params().with_values([2.0, 1.0])
    x = 1.2
    half = x / (2 * 2.0)
    psi = statevector_for(kernel, pv, [x])
    want = np.array([math.cos(half) - math.sin(half),
                     math.cos(half) + math.sin(half)]) / math.sqrt(2)
    assert np.max(np.abs(psi - want)) < 1e-12


def test_gram_matches_pairwise_eval():
    kernel = build_fixed_ansatz(3)
    pv = kernel.default_params()
    X = rng.uniform(0, 1, (5, 3))
    X2 = rng.uniform(0, 1, (4, 3))
    G = kernel.gram(X, X2, pv)
    for i in range(5):
        for j in range(4):
            assert G[i, j] == pytest.approx(
                fidelity_kernel(kernel, pv, X[i], X2[j]), abs=1e-12)


def test_fixed_ansatz_structure():
    kernel = build_fixed_ansatz(6)
    rzz = [pair for layer in kernel.layers for pair in layer]
    assert len(rzz) == 30  # 15 pairs per U block, two blocks
    assert len(set(rzz)) == 15
    assert kernel.layers.count(QubitLayer("H")) == 2  # H^6 twice
    assert kernel.layers.count(QubitLayer("RZ")) == 2
    assert kernel.default_params().size == 7
    with pytest.raises(ValueError):
        build_fixed_ansatz(1)


def test_variable_ansatz_structure():
    kernel = build_variable_ansatz(3, (((0, 1),), ((1, 2),)))
    assert kernel.layers == (QubitLayer("H"), ((0, 1),), ((1, 2),),
                             QubitLayer("RY"))
    assert kernel.default_params().size == 4


def test_variable_ansatz_single_qubit_layers():
    layers = (QubitLayer("H"), ((0, 2),), QubitLayer("RZ"), QubitLayer("RY"))
    kernel = build_variable_ansatz(3, layers)
    assert gates(kernel) == [
        ("H", (0,)), ("H", (1,)), ("H", (2,)),
        ("H", (0,)), ("H", (1,)), ("H", (2,)),
        ("RZZ", (0, 2)),
        ("RZ", (0,)), ("RZ", (1,)), ("RZ", (2,)),
        ("RY", (0,)), ("RY", (1,)), ("RY", (2,)),
        ("RY", (0,)), ("RY", (1,)), ("RY", (2,)),
    ]
    # no parameter per layer: theta_1..theta_3 and Theta at any depth
    assert kernel.default_params().size == 4
    theta = np.array([2.0, 4.0, 0.5])
    pv = kernel.default_params().with_values(list(theta) + [3.0])
    x = np.array([0.6, 0.2, 0.9])
    # the state equals the dense product with angles x_i / theta_i
    want = np.zeros(8, dtype=complex)
    want[0] = 1.0
    zz = math.exp(-((x[0] - x[2]) ** 2) / 3.0)
    for kind, qubits in gates(kernel):
        if kind == "H":
            phi = None
        elif kind == "RZZ":
            phi = zz
        else:
            phi = x[qubits[0]] / theta[qubits[0]]
        want = dense_gate(kind, qubits, 3, phi) @ want
    assert np.max(np.abs(statevector_for(kernel, pv, x) - want)) < 1e-12
    assert np.max(np.abs(statevectors(3, kernel.layers, pv, x)[:, 0]
                         - want)) < 1e-12


def test_canonical_layers_names_single_qubit_layers():
    layers = (QubitLayer("H"), ((0, 1), (2, 3)), QubitLayer("RZ"),
              QubitLayer("RY"))
    assert canonical_layers(layers) == "H;0-1,2-3;RZ;RY"
    assert canonical_layers((QubitLayer("RY"),)) == "RY"
    assert len({canonical_layers((QubitLayer(k),))
                for k in ("H", "RZ", "RY")}) == 3


def test_statevectors_shape_and_dim_check():
    kernel = build_fixed_ansatz(2)
    pv = kernel.default_params()
    V = statevectors(2, kernel.layers, pv, rng.uniform(0, 1, (7, 2)))
    assert V.shape == (4, 7)
    assert V.flags.c_contiguous  # one column per input, batch contiguous
    assert np.allclose(np.linalg.norm(V, axis=0), 1.0)
    with pytest.raises(ValueError):
        statevectors(2, kernel.layers, pv, rng.uniform(0, 1, (7, 3)))


def _head_kernels(m):
    """Circuits whose data-free head is the leading run of H layers: one
    layer in both ansaetze, three when U_e starts with two H layers, and
    random sequences of search moves."""
    pair = ((0, m - 1),)
    kernels = [build_fixed_ansatz(m), build_variable_ansatz(m, ()),
               build_variable_ansatz(m, (QubitLayer("H"), pair,
                                         QubitLayer("RZ"), QubitLayer("RY"))),
               build_variable_ansatz(m, (QubitLayer("H"), QubitLayer("H"),
                                         layer_pool(m)[-1], QubitLayer("RZ")))]
    moves = search_moves(m)
    for _ in range(4):
        pick = rng.integers(len(moves), size=int(rng.integers(1, 6)))
        kernels.append(build_variable_ansatz(m, tuple(moves[i] for i in pick)))
    return kernels


@pytest.mark.parametrize("B", [1, 7, 150])
def test_head_broadcast_states_equal_full_replay(B):
    for m in (2, 3, 4, 5, 6):
        X = rng.uniform(0, 1, (B, m))
        for kernel in _head_kernels(m):
            pv = kernel.default_params().with_values(
                rng.uniform(0.2, 4.0, m + 1))
            V = statevectors(m, kernel.layers, pv, X)
            assert V.shape == (2 ** m, B) and V.flags.c_contiguous
            assert np.array_equal(V, replay_states(kernel, pv, X))
