"""Reference quantum simulation for exactness tests of ``peskit.quantum``.

Every state is a plain replay of the whole circuit from |0...0>, one gate
after another on every row: no data-free head simulated once, no parent
prefix reused. Tests only; the library never imports it.
"""

import numpy as np

from peskit.quantum import QubitLayer, apply_gate, encode, zero_state


def gates(kernel):
    """Every gate of ``kernel`` as (kind, qubits), in application order."""
    out = []
    for layer in kernel.layers:
        if isinstance(layer, QubitLayer):
            out += [(layer.kind, (q,)) for q in range(kernel.m)]
        else:
            out += [("RZZ", tuple(pair)) for pair in layer]
    return out


def _angle(kind, qubits, params, X):
    if kind == "H":
        return None
    return np.asarray(encode(X, params, kind, qubits), dtype=float)


def replay_states(kernel, params, X):
    """Encoded states U(x)|0...0> for each row of ``X``; shape (B, 2^m).

    The replay runs on one column per row, the simulator's layout, and
    returns the states one row per input, as ``statevectors`` does.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    psi = zero_state(kernel.m, batch=X.shape[0])
    for kind, qubits in gates(kernel):
        apply_gate(psi, kind, qubits, _angle(kind, qubits, params, X))
    return np.ascontiguousarray(psi.T)


def statevector_for(kernel, params, x):
    """Encoded state for a single input vector."""
    return replay_states(kernel, params, np.atleast_2d(x))[0]


def fidelity_kernel(kernel, params, x, xp):
    """|<psi(x')|psi(x)>|^2 from the two statevectors."""
    a = statevector_for(kernel, params, x)
    b = statevector_for(kernel, params, xp)
    return float(np.abs(np.vdot(b, a)) ** 2)


def fidelity_via_adjoint(kernel, params, x, xp):
    """Literal path: apply U(x), then the adjoint circuit of U(x'), read |<0|.>|^2.

    The state is one column, shape (2^m, 1); its amplitude 0 is ``psi[0, 0]``.
    """
    psi = zero_state(kernel.m, batch=1)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Xp = np.atleast_2d(np.asarray(xp, dtype=float))
    for kind, qubits in gates(kernel):
        apply_gate(psi, kind, qubits, _angle(kind, qubits, params, X))
    for kind, qubits in reversed(gates(kernel)):
        ang = _angle(kind, qubits, params, Xp)
        apply_gate(psi, kind, qubits, None if ang is None else -ang)
    return float(np.abs(psi[0, 0]) ** 2)
