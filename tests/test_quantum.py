import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from peskit.circuit_search import canonical_layers
from peskit.quantum import (Circuit, GateOp, QuantumKernel, QuantumKernelSpec,
                            QubitLayer, apply_gate, build_fixed_ansatz,
                            build_variable_ansatz, encode, statevectors,
                            zero_state)
from quantum_oracle import (fidelity_kernel, fidelity_via_adjoint,
                            replay_states, statevector_for)

rng = np.random.default_rng(42)

_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def _embed(op, m, q):
    """Single-qubit operator on qubit q, little-endian basis order."""
    return np.kron(np.kron(np.eye(2 ** (m - 1 - q)), op), np.eye(2 ** q))


def _dense_gate(gate, m, angle=None):
    if gate.kind == "H":
        return _embed(_H, m, gate.qubits[0])
    if gate.kind == "RY":
        return expm(-0.5j * angle * _embed(_Y, m, gate.qubits[0]))
    if gate.kind == "RZ":
        return expm(-0.5j * angle * _embed(_Z, m, gate.qubits[0]))
    i, j = gate.qubits
    zz = _embed(_Z, m, i) @ _embed(_Z, m, j)
    return expm(-0.5j * angle * zz)


def _random_state(m):
    v = rng.standard_normal(2 ** m) + 1j * rng.standard_normal(2 ** m)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("kind", ["H", "RZ", "RY", "RZZ"])
def test_apply_gate_matches_dense_oracle(kind):
    m = 3
    for _ in range(10):
        if kind == "RZZ":
            i, j = sorted(rng.choice(m, size=2, replace=False))
            gate = GateOp(kind, (int(i), int(j)))
        else:
            gate = GateOp(kind, (int(rng.integers(m)),))
        angle = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        psi = _random_state(m)
        got = apply_gate(psi.copy(), gate, angle)
        want = _dense_gate(gate, m, angle) @ psi
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("gate", [GateOp("RZ", (1,)), GateOp("RZZ", (0, 2))])
def test_diagonal_gate_equals_elementwise_phase_exactly(gate):
    # the phase exp(-i phi s / 2), s = +-1, taken per basis state: the
    # gate's one-exponential-per-angle form must reproduce it bit for bit
    z = np.array([1.0 - 2.0 * ((np.arange(8) >> q) & 1) for q in range(3)])
    s = np.prod(z[list(gate.qubits)], axis=0)
    angles = rng.uniform(-20, 20, 50)
    psi = np.stack([_random_state(3) for _ in range(50)])
    got = apply_gate(psi.copy(), gate, angles)
    assert np.array_equal(got, psi * np.exp(-0.5j * angles[:, None] * s))


def test_apply_gate_batched_angles():
    gate = GateOp("RY", (1,))
    angles = rng.uniform(-3, 3, 4)
    psi = np.stack([_random_state(2) for _ in range(4)])
    got = apply_gate(psi.copy(), gate, angles)
    for b in range(4):
        want = _dense_gate(gate, 2, angles[b]) @ psi[b]
        assert np.max(np.abs(got[b] - want)) < 1e-12


def test_norm_preserved_over_many_gates():
    m = 3
    psi = zero_state(m)
    for _ in range(2000):
        kind = ("H", "RZ", "RY", "RZZ")[rng.integers(4)]
        if kind == "RZZ":
            i, j = sorted(rng.choice(m, size=2, replace=False))
            gate = GateOp(kind, (int(i), int(j)))
        else:
            gate = GateOp(kind, (int(rng.integers(m)),))
        apply_gate(psi, gate, float(rng.uniform(-math.pi, math.pi)))
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12


def test_gate_op_validation():
    with pytest.raises(ValueError):
        GateOp("CNOT", (0, 1))
    with pytest.raises(ValueError):
        GateOp("ID", (0,))
    with pytest.raises(ValueError):
        GateOp("H", (0, 1))
    with pytest.raises(ValueError):
        GateOp("RZZ", (1,))
    with pytest.raises(ValueError):
        GateOp("RZZ", (1, 1))
    with pytest.raises(ValueError):
        GateOp("RZZ", (2, 1))


def test_circuit_layer_constraint():
    with pytest.raises(ValueError):
        Circuit(m=2, layers=((GateOp("H", (0,)), GateOp("RY", (0,))),))
    with pytest.raises(ValueError):
        Circuit(m=2, layers=((GateOp("H", (5,)),),))
    Circuit(m=2, layers=((GateOp("H", (0,)), GateOp("H", (1,))),))


_H3 = ('[{"gate": "H", "qubits": [0]}, {"gate": "H", "qubits": [1]}, '
       '{"gate": "H", "qubits": [2]}]')
_RZ3 = ('[{"gate": "RZ", "qubits": [0]}, {"gate": "RZ", "qubits": [1]}, '
        '{"gate": "RZ", "qubits": [2]}]')
_RY3 = ('[{"gate": "RY", "qubits": [0]}, {"gate": "RY", "qubits": [1]}, '
        '{"gate": "RY", "qubits": [2]}]')
_ZZ3 = ('[{"gate": "RZZ", "qubits": [0, 1]}], '
        '[{"gate": "RZZ", "qubits": [0, 2]}], '
        '[{"gate": "RZZ", "qubits": [1, 2]}]')


def test_circuit_json_round_trip():
    # the winner-file format, byte for byte
    spec = build_variable_ansatz(3, (((0, 1),), ((1, 2),)))
    assert spec.to_json() == (
        '{"m": 3, "layers": [' + _H3 + ', [{"gate": "RZZ", "qubits": [0, 1]}]'
        ', [{"gate": "RZZ", "qubits": [1, 2]}], ' + _RY3 + '], '
        '"encoding": "variable"}')
    fixed = build_fixed_ansatz(3)
    block = ", ".join((_H3, _RZ3, _ZZ3))
    assert fixed.to_json() == (
        '{"m": 3, "layers": [' + block + ", " + block + '], '
        '"encoding": "fixed"}')
    # the file holds all a reader needs to rebuild the spec
    for s in (spec, fixed):
        doc = json.loads(s.to_json())
        layers = [[GateOp(g["gate"], tuple(g["qubits"])) for g in layer]
                  for layer in doc["layers"]]
        assert QuantumKernelSpec(Circuit(doc["m"], layers),
                                 doc["encoding"]) == s


def test_encoding_values():
    spec = build_variable_ansatz(3, (((0, 2),),))
    pv = spec.default_params().with_values([2.0, 4.0, 0.5, 3.0])
    x = np.array([0.6, 0.2, 0.9])
    assert encode(x, pv, GateOp("RY", (0,))) == pytest.approx(0.3)
    assert encode(x, pv, GateOp("RY", (2,))) == pytest.approx(1.8)
    want = math.exp(-((0.6 - 0.9) ** 2) / 3.0)
    assert encode(x, pv, GateOp("RZZ", (0, 2))) == pytest.approx(want)
    with pytest.raises(ValueError):
        encode(x, pv, GateOp("H", (0,)))


def test_fidelity_identities():
    spec = build_variable_ansatz(3, (((0, 1),), ((0, 2),)))
    pv = spec.default_params()
    X = rng.uniform(0, 1, (6, 3))
    for x in X:
        assert fidelity_kernel(spec, pv, x, x) == pytest.approx(1.0, abs=1e-12)
    for i in range(3):
        for j in range(3, 6):
            kij = fidelity_kernel(spec, pv, X[i], X[j])
            kji = fidelity_kernel(spec, pv, X[j], X[i])
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
        spec = build_variable_ansatz(m, layers)
        pv = spec.default_params().with_values(
            rng.uniform(0.1, 5.0, m + 1))
        x, xp = rng.uniform(0, 1, m), rng.uniform(0, 1, m)
        a = fidelity_kernel(spec, pv, x, xp)
        b = fidelity_via_adjoint(spec, pv, x, xp)
        assert abs(a - b) < 1e-12


def test_single_qubit_analytic_kernel():
    # empty entangling block: k(x, x') = cos^2((x - x') / (2 theta))
    spec = build_variable_ansatz(1, ())
    theta = 0.8
    pv = spec.default_params().with_values([theta, 1.0])
    for _ in range(20):
        x, xp = rng.uniform(0, 2, 2)
        want = math.cos((x - xp) / (2 * theta)) ** 2
        assert fidelity_kernel(spec, pv, [x], [xp]) == pytest.approx(
            want, abs=1e-10)


def test_single_qubit_state_amplitudes():
    # RY(x/theta) H |0> = ((cos - sin), (cos + sin)) / sqrt(2) at half angle
    spec = build_variable_ansatz(1, ())
    pv = spec.default_params().with_values([2.0, 1.0])
    x = 1.2
    half = x / (2 * 2.0)
    psi = statevector_for(spec, pv, [x])
    want = np.array([math.cos(half) - math.sin(half),
                     math.cos(half) + math.sin(half)]) / math.sqrt(2)
    assert np.max(np.abs(psi - want)) < 1e-12


def test_gram_matches_pairwise_eval():
    spec = build_fixed_ansatz(3)
    kernel = QuantumKernel(spec)
    pv = spec.default_params()
    X = rng.uniform(0, 1, (5, 3))
    X2 = rng.uniform(0, 1, (4, 3))
    G = kernel.gram(X, X2, pv)
    for i in range(5):
        for j in range(4):
            assert G[i, j] == pytest.approx(
                fidelity_kernel(spec, pv, X[i], X2[j]), abs=1e-12)


def test_fixed_ansatz_structure():
    spec = build_fixed_ansatz(6)
    rzz = [g for layer in spec.circuit.layers for g in layer
           if g.kind == "RZZ"]
    assert len(rzz) == 30  # 15 pairs per U block, two blocks
    assert len({g.qubits for g in rzz}) == 15
    h = [g for layer in spec.circuit.layers for g in layer if g.kind == "H"]
    assert len(h) == 12
    assert spec.default_params().size == 7
    with pytest.raises(ValueError):
        build_fixed_ansatz(1)


def test_variable_ansatz_structure():
    spec = build_variable_ansatz(3, (((0, 1),), ((1, 2),)))
    kinds = [tuple(g.kind for g in layer) for layer in spec.circuit.layers]
    assert kinds[0] == ("H", "H", "H")
    assert kinds[1] == ("RZZ",)
    assert kinds[2] == ("RZZ",)
    assert kinds[-1] == ("RY", "RY", "RY")
    assert spec.default_params().size == 4


def test_variable_ansatz_single_qubit_layers():
    layers = (QubitLayer("H"), ((0, 2),), QubitLayer("RZ"), QubitLayer("RY"))
    spec = build_variable_ansatz(3, layers)
    gates = spec.circuit.layers
    assert [tuple((g.kind, g.qubits) for g in layer)
            for layer in gates] == [
        (("H", (0,)), ("H", (1,)), ("H", (2,))),
        (("H", (0,)), ("H", (1,)), ("H", (2,))),
        (("RZZ", (0, 2)),),
        (("RZ", (0,)), ("RZ", (1,)), ("RZ", (2,))),
        (("RY", (0,)), ("RY", (1,)), ("RY", (2,))),
        (("RY", (0,)), ("RY", (1,)), ("RY", (2,))),
    ]
    # no parameter per layer: theta_1..theta_3 and Theta at any depth
    assert spec.default_params().size == 4
    theta = np.array([2.0, 4.0, 0.5])
    pv = spec.default_params().with_values(list(theta) + [3.0])
    x = np.array([0.6, 0.2, 0.9])
    for layer in (gates[3], gates[4]):
        for g in layer:
            q = g.qubits[0]
            assert encode(x, pv, g) == pytest.approx(x[q] / theta[q])
    # the state equals the dense product with angles x_i / theta_i
    want = np.zeros(8, dtype=complex)
    want[0] = 1.0
    zz = math.exp(-((x[0] - x[2]) ** 2) / 3.0)
    for layer in gates:
        for g in layer:
            if g.kind == "H":
                angle = None
            elif g.kind == "RZZ":
                angle = zz
            else:
                angle = x[g.qubits[0]] / theta[g.qubits[0]]
            want = _dense_gate(g, 3, angle) @ want
    assert np.max(np.abs(statevector_for(spec, pv, x) - want)) < 1e-12
    with pytest.raises(ValueError):
        QubitLayer("RZZ")
    with pytest.raises(ValueError):
        QubitLayer("ID")


def test_canonical_layers_names_single_qubit_layers():
    layers = (QubitLayer("H"), ((0, 1), (2, 3)), QubitLayer("RZ"),
              QubitLayer("RY"))
    assert canonical_layers(layers) == "H;0-1,2-3;RZ;RY"
    assert canonical_layers((QubitLayer("RY"),)) == "RY"
    assert len({canonical_layers((QubitLayer(k),))
                for k in ("H", "RZ", "RY")}) == 3


def test_statevectors_shape_and_dim_check():
    spec = build_fixed_ansatz(2)
    pv = spec.default_params()
    V = statevectors(spec, pv, rng.uniform(0, 1, (7, 2)))
    assert V.shape == (7, 4)
    assert np.allclose(np.linalg.norm(V, axis=1), 1.0)
    with pytest.raises(ValueError):
        statevectors(spec, pv, rng.uniform(0, 1, (7, 3)))


@pytest.mark.parametrize("B", [1, 7, 150])
def test_head_broadcast_states_equal_full_replay(B):
    # the data-free head (the leading H gates) may end inside a layer
    head = Circuit(m=4, layers=(
        tuple(GateOp("H", (q,)) for q in range(4)),
        (GateOp("H", (1,)), GateOp("RY", (0,)), GateOp("H", (2,))),
        (GateOp("RZZ", (0, 3)), GateOp("RZ", (1,)))))
    specs = [build_fixed_ansatz(4), build_variable_ansatz(4, ()),
             build_variable_ansatz(4, (QubitLayer("H"), ((0, 3),),
                                       QubitLayer("RZ"), QubitLayer("RY"))),
             QuantumKernelSpec(circuit=head, encoding="variable")]
    X = rng.uniform(0, 1, (B, 4))
    for spec in specs:
        pv = spec.default_params().with_values(rng.uniform(0.2, 4.0, 5))
        assert np.array_equal(statevectors(spec, pv, X),
                              replay_states(spec, pv, X))
