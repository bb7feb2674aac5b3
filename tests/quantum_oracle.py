"""Reference quantum simulation for exactness tests of ``peskit.quantum``.

Every state is a plain replay of the whole circuit from |0...0>, one gate
after another on every row: no data-free head simulated once, no parent
prefix reused. Tests only; the library never imports it.
"""

import numpy as np

from peskit.quantum import apply_gate, encode, zero_state


def _angle(gate, params, X):
    if gate.kind == "H":
        return None
    return np.asarray(encode(X, params, gate), dtype=float)


def replay_states(spec, params, X):
    """Encoded states U(x)|0...0> for each row of ``X``; shape (B, 2^m)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    psi = zero_state(spec.m, batch=X.shape[0])
    for layer in spec.circuit.layers:
        for gate in layer:
            apply_gate(psi, gate, _angle(gate, params, X))
    return psi


def statevector_for(spec, params, x):
    """Encoded state for a single input vector."""
    return replay_states(spec, params, np.atleast_2d(x))[0]


def fidelity_kernel(spec, params, x, xp):
    """|<psi(x')|psi(x)>|^2 from the two statevectors."""
    a = statevector_for(spec, params, x)
    b = statevector_for(spec, params, xp)
    return float(np.abs(np.vdot(b, a)) ** 2)


def fidelity_via_adjoint(spec, params, x, xp):
    """Literal path: apply U(x), then the adjoint circuit of U(x'), read |<0|.>|^2."""
    psi = zero_state(spec.m, batch=1)
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Xp = np.atleast_2d(np.asarray(xp, dtype=float))
    for layer in spec.circuit.layers:
        for gate in layer:
            apply_gate(psi, gate, _angle(gate, params, X))
    for layer in reversed(spec.circuit.layers):
        for gate in reversed(layer):
            ang = _angle(gate, params, Xp)
            apply_gate(psi, gate, None if ang is None else -ang)
    return float(np.abs(psi[0, 0]) ** 2)
