"""Reference quantum simulation for exactness tests of ``peskit.quantum``.

Every state is a plain replay of the whole circuit from |0...0>, one gate
after another on every row: no data-free head simulated once, no parent
prefix reused, no angle computed for a whole layer at once. Each gate
takes its own encoded angle and goes through the simulator's private gate
kernels. ``dense_gate`` and ``dense_layer`` give the same gates as dense
matrices, and ``read_winner`` rebuilds a kernel and its scales from a
winner file. Tests only; the library never imports it.
"""

import json
import math

import numpy as np
from scipy.linalg import expm

from peskit.quantum import (QuantumKernel, QubitLayer, _hadamard, _parity,
                            _phase, _rotate, zero_state)

_Y = np.array([[0, -1j], [1j, 0]])
_Z = np.diag([1.0, -1.0]).astype(complex)
_H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)


def gates(kernel):
    """Every gate of ``kernel`` as (kind, qubits), in application order."""
    out = []
    for layer in kernel.layers:
        if isinstance(layer, QubitLayer):
            out += [(layer.kind, (q,)) for q in range(kernel.m)]
        else:
            out += [("RZZ", tuple(pair)) for pair in layer]
    return out


def angle(kind, qubits, params, X):
    """One gate's angle per row of ``X``: x_i / theta_i for R_Y or R_Z on
    qubit i, exp(-(x_i - x_j)^2 / Theta) for R_ZZ on (i, j)."""
    v = params.values
    if kind == "RZZ":
        i, j = qubits
        return np.exp(-((X[:, i] - X[:, j]) ** 2) / v[-1])
    return X[:, qubits[0]] / v[qubits[0]]


def _embed(op, m, q):
    """Single-qubit operator on qubit q, little-endian basis order."""
    return np.kron(np.kron(np.eye(2 ** (m - 1 - q)), op), np.eye(2 ** q))


def dense_gate(kind, qubits, m, phi=None):
    """One gate as a dense 2^m x 2^m matrix, at angle ``phi``."""
    if kind == "H":
        return _embed(_H, m, qubits[0])
    if kind == "RY":
        return expm(-0.5j * phi * _embed(_Y, m, qubits[0]))
    if kind == "RZ":
        return expm(-0.5j * phi * _embed(_Z, m, qubits[0]))
    i, j = qubits
    return expm(-0.5j * phi * (_embed(_Z, m, i) @ _embed(_Z, m, j)))


def dense_layer(layer, m, params, x):
    """The dense product of ``layer``'s gates at the angles input ``x``
    encodes."""
    U = np.eye(2 ** m, dtype=complex)
    for kind, qubits in gates(QuantumKernel(m, (layer,))):
        phi = None if kind == "H" else angle(kind, qubits, params, x[None])[0]
        U = dense_gate(kind, qubits, m, phi) @ U
    return U


def _apply(psi, kind, qubits, params, X, adjoint=False):
    """One gate, at its angle for each row of ``X``, to the matching column
    of ``psi``; its adjoint negates the angle."""
    if kind == "H":
        _hadamard(psi, qubits[0])
        return
    phi = angle(kind, qubits, params, X)
    if adjoint:
        phi = -phi
    m = psi.shape[0].bit_length() - 1
    if kind == "RY":
        _rotate(psi, qubits[0], np.cos(0.5 * phi), np.sin(0.5 * phi))
    else:
        _phase(psi, _parity(m, qubits), np.exp(-0.5j * phi))


def replay_states(kernel, params, X):
    """Encoded states U(x)|0...0> for each row of ``X``, one column per
    row as ``statevectors`` gives them: shape (2^m, B)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    psi = zero_state(kernel.m, X.shape[0])
    for kind, qubits in gates(kernel):
        _apply(psi, kind, qubits, params, X)
    return psi


def statevector_for(kernel, params, x):
    """Encoded state for a single input vector."""
    return replay_states(kernel, params, np.atleast_2d(x))[:, 0]


def fidelity_kernel(kernel, params, x, xp):
    """|<psi(x')|psi(x)>|^2 from the two statevectors."""
    a = statevector_for(kernel, params, x)
    b = statevector_for(kernel, params, xp)
    return float(np.abs(np.vdot(b, a)) ** 2)


def fidelity_via_adjoint(kernel, params, x, xp):
    """Literal path: apply U(x), then the adjoint circuit of U(x'), read |<0|.>|^2.

    The state is one column, shape (2^m, 1); its amplitude 0 is ``psi[0, 0]``.
    H is its own inverse; every rotation is undone at its negated angle.
    """
    psi = zero_state(kernel.m, 1)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Xp = np.atleast_2d(np.asarray(xp, dtype=float))
    for kind, qubits in gates(kernel):
        _apply(psi, kind, qubits, params, X)
    for kind, qubits in reversed(gates(kernel)):
        _apply(psi, kind, qubits, params, Xp, adjoint=True)
    return float(np.abs(psi[0, 0]) ** 2)


def read_winner(text):
    """(kernel, fitted ParamVector) rebuilt from a quantum winner file: a
    layer of RZZ gates is a matching, any other a full layer of one
    single-qubit kind."""
    doc = json.loads(text)
    layers = []
    for layer in doc["layers"]:
        kinds = {g["gate"] for g in layer}
        if kinds == {"RZZ"}:
            layers.append(tuple(tuple(g["qubits"]) for g in layer))
        else:
            (kind,) = kinds
            assert [g["qubits"] for g in layer] == [[q] for q in range(doc["m"])]
            layers.append(QubitLayer(kind))
    kernel = QuantumKernel(doc["m"], tuple(layers))
    return kernel, kernel.default_params().with_values(doc["params"])
