"""m-qubit statevector simulation and quantum fidelity kernels.

Gate set {H, R_Z, R_Y, R_ZZ} with little-endian qubit ordering (qubit 0
is the least significant bit of the basis index). Data vectors are encoded
into gate angles; the kernel is the squared overlap of the two encoded
states, computed from cached statevectors.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .gp import KernelFn, ParamVector, surrogate_objective

__all__ = [
    "GateOp",
    "Circuit",
    "QuantumKernelSpec",
    "QuantumKernel",
    "zero_state",
    "apply_gate",
    "encode",
    "apply_layers",
    "statevectors",
    "build_fixed_ansatz",
    "QubitLayer",
    "build_variable_ansatz",
]

GATE_KINDS = ("H", "RZ", "RY", "RZZ")

# default bounds for the encoding scales theta_1..theta_m and Theta
THETA_BOUNDS = (1e-2, 1e1)


@dataclass(frozen=True)
class GateOp:
    """One gate: kind and target qubit(s); a rotation's angle is data-encoded."""

    kind: str
    qubits: tuple

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n = 2 if self.kind == "RZZ" else 1
        if len(self.qubits) != n:
            raise ValueError(f"{self.kind} takes {n} qubit index(es)")
        if self.kind == "RZZ":
            i, j = self.qubits
            if i == j:
                raise ValueError("RZZ qubits must be distinct")
            if i > j:
                raise ValueError("RZZ qubit pair must be ordered (i < j)")


@dataclass(frozen=True)
class Circuit:
    """Layered gate program; each qubit is touched at most once per layer."""

    m: int
    layers: tuple

    def __post_init__(self):
        object.__setattr__(self, "layers",
                           tuple(tuple(layer) for layer in self.layers))
        for layer in self.layers:
            seen = set()
            for g in layer:
                for q in g.qubits:
                    if not 0 <= q < self.m:
                        raise ValueError(f"qubit index {q} out of range for m={self.m}")
                    if q in seen:
                        raise ValueError(
                            f"qubit {q} operated by more than one gate in a layer")
                    seen.add(q)


def zero_state(m, batch=None):
    """|0...0> as amplitudes, optionally batched."""
    shape = (2 ** m,) if batch is None else (batch, 2 ** m)
    psi = np.zeros(shape, dtype=complex)
    psi[..., 0] = 1.0
    return psi


@functools.lru_cache(maxsize=64)
def _bit(m, q):
    """Read-only 0/1 mask of qubit ``q`` over the 2^m basis indices."""
    bit = (np.arange(2 ** m) >> q) & 1
    bit.flags.writeable = False
    return bit


def apply_gate(state, gate: GateOp, angle=None):
    """Apply one gate in place to amplitudes of shape (..., 2^m).

    ``angle`` may be a scalar or an array broadcasting over leading axes;
    it is ignored for H.
    """
    dim = state.shape[-1]
    m = dim.bit_length() - 1
    for q in gate.qubits:
        if not 0 <= q < m:
            raise IndexError(f"qubit index {q} out of range for m={m}")
    if gate.kind in ("RZ", "RZZ"):
        if gate.kind == "RZ":
            s = _bit(m, gate.qubits[0])
        else:
            i, j = gate.qubits
            s = _bit(m, i) ^ _bit(m, j)
        # the phase is exp(-i phi/2) where the Z eigenvalue product is +1 and
        # its conjugate where it is -1: one exponential per angle
        e = np.exp(-0.5j * np.asarray(angle, dtype=float))[..., None]
        state *= np.where(s == 0, e, e.conj())
        return state
    # H and RY mix amplitude pairs along the target-qubit axis
    q = gate.qubits[0]
    lead = state.shape[:-1]
    view = state.reshape(lead + (2 ** (m - 1 - q), 2, 2 ** q))
    a = view[..., 0, :].copy()
    b = view[..., 1, :]
    if gate.kind == "H":
        r = 1.0 / math.sqrt(2.0)
        view[..., 0, :] = r * (a + b)
        view[..., 1, :] = r * (a - b)
    else:  # RY
        phi = np.asarray(angle, dtype=float)
        c = np.cos(0.5 * phi)[..., None, None]
        s = np.sin(0.5 * phi)[..., None, None]
        view[..., 0, :] = c * a - s * b
        view[..., 1, :] = s * a + c * b
    return state


@dataclass(frozen=True)
class QuantumKernelSpec:
    """A circuit plus the encoding rule defining a fidelity kernel.

    Trainable parameters are [theta_1 .. theta_m, Theta]: per-qubit scales
    for the single-qubit rotation angles x_i / theta_i and one shared scale
    for all R_ZZ angles exp(-(x_i - x_j)^2 / Theta). M = m + 1.
    """

    circuit: Circuit
    encoding: str  # "fixed" or "variable"

    def __post_init__(self):
        if self.encoding not in ("fixed", "variable"):
            raise ValueError(f"unknown encoding {self.encoding!r}")

    @property
    def m(self):
        return self.circuit.m

    def default_params(self) -> ParamVector:
        m = self.m
        lo, hi = THETA_BOUNDS
        center = math.sqrt(lo * hi)
        return ParamVector(values=np.full(m + 1, center),
                           lower=np.full(m + 1, lo),
                           upper=np.full(m + 1, hi),
                           scales=("log",) * (m + 1))

    def to_json(self) -> str:
        c = self.circuit
        return json.dumps({"m": c.m,
                           "layers": [[{"gate": g.kind, "qubits": list(g.qubits)}
                                       for g in layer] for layer in c.layers],
                           "encoding": self.encoding})


def encode(x, params: ParamVector, gate: GateOp):
    """Angle(s) for one encoded gate; ``x`` is a D-vector or (B, D) batch.

    R_Y / R_Z on qubit i -> x_i / theta_i; R_ZZ on (i, j) ->
    exp(-(x_i - x_j)^2 / Theta).
    """
    x = np.asarray(x, dtype=float)
    v = params.values
    if gate.kind in ("RY", "RZ"):
        i = gate.qubits[0]
        if i >= v.size - 1:
            raise ValueError(f"no encoding scale for qubit {i}")
        return x[..., i] / v[i]
    if gate.kind == "RZZ":
        i, j = gate.qubits
        return np.exp(-((x[..., i] - x[..., j]) ** 2) / v[-1])
    raise ValueError(f"gate kind {gate.kind} carries no encoded angle")


def _gate_angle(gate, params, x):
    if gate.kind == "H":
        return None
    return np.asarray(encode(x, params, gate), dtype=float)


def apply_layers(psi, layers, params: ParamVector, X) -> np.ndarray:
    """Apply gate layers in place to states ``psi`` of shape (B, 2^m), the
    encoded angles taken from the B rows of ``X``."""
    for layer in layers:
        for gate in layer:
            apply_gate(psi, gate, _gate_angle(gate, params, X))
    return psi


def statevectors(spec: QuantumKernelSpec, params: ParamVector, X) -> np.ndarray:
    """Encoded states U(x)|0...0> for each input row; shape (B, 2^m).

    The leading H gates (H^m in both ansaetze) are simulated once on one
    row, which is then repeated B times.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != spec.m:
        raise ValueError(
            f"input dimension {X.shape[1]} != qubit count m={spec.m}")
    gates = [g for layer in spec.circuit.layers for g in layer]
    k = next((i for i, g in enumerate(gates) if g.kind != "H"), len(gates))
    head = apply_layers(zero_state(spec.m, batch=1), [gates[:k]], params, X)
    return apply_layers(np.repeat(head, X.shape[0], axis=0), [gates[k:]],
                        params, X)


@dataclass(frozen=True)
class QuantumKernel(KernelFn):
    """KernelFn view of a fidelity kernel; Gram via cached statevectors.

    k(x, x') = |<psi(x)|psi(x')>|^2 = Tr rho(x) rho(x') is an inner product
    of density matrices, so the kernel has the 4^m real features of rho.
    """

    spec: QuantumKernelSpec

    def default_params(self) -> ParamVector:
        return self.spec.default_params()

    def states(self, X, params: ParamVector) -> np.ndarray:
        """The encoded states of the rows of ``X``, from which ``gram`` works."""
        return statevectors(self.spec, params, X)

    @property
    def n_features(self) -> int:
        return 4 ** self.spec.m

    def features(self, X, params: ParamVector) -> np.ndarray:
        """Real coordinates of rho = |psi><psi| per row of ``X``, so that
        ``features(X) @ features(X2).T`` is the Gram; shape (B, 4^m).

        The columns are |psi_k|^2, then sqrt(2) Re(psi_k conj(psi_l)) and
        sqrt(2) Im(psi_k conj(psi_l)) for k < l.
        """
        V = self.states(X, params)
        d = V.shape[1]
        k, l = np.triu_indices(d, 1)
        rho = V[:, k] * V[:, l].conj()
        rho *= math.sqrt(2.0)
        return np.concatenate([V.real ** 2 + V.imag ** 2, rho.real, rho.imag],
                              axis=1)

    def gram(self, X, X2, params: ParamVector) -> np.ndarray:
        V1 = self.states(X, params)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        X2a = np.atleast_2d(np.asarray(X2, dtype=float))
        if X2a.shape == X.shape and np.array_equal(X2a, X):
            V2 = V1
        else:
            V2 = self.states(X2a, params)
        K = np.abs(V1 @ V2.conj().T)
        K **= 2
        return K

    def objective(self, logL: float) -> float:
        """Fits maximize the stabilized ``surrogate_objective`` of logL."""
        return surrogate_objective(logL)


def _pair_layers(pairs):
    """Greedy split of a pair list into layers with one gate per qubit."""
    layers = []
    for pair in pairs:
        for layer in layers:
            used = {q for g in layer for q in g.qubits}
            if pair[0] not in used and pair[1] not in used:
                layer.append(GateOp("RZZ", pair))
                break
        else:
            layers.append([GateOp("RZZ", pair)])
    return [tuple(layer) for layer in layers]


def build_fixed_ansatz(m) -> QuantumKernelSpec:
    """Fixed all-pairs ansatz U H^m U H^m with U = R_Z per qubit + R_ZZ per pair.

    The all-pairs R_ZZ block is split into commuting matching layers to
    respect the one-gate-per-qubit layer constraint.
    """
    if m < 2:
        raise ValueError("fixed ansatz needs m >= 2")
    h_layer = tuple(GateOp("H", (q,)) for q in range(m))
    rz_layer = tuple(GateOp("RZ", (q,)) for q in range(m))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    u_block = [rz_layer] + _pair_layers(pairs)
    layers = [h_layer] + u_block + [h_layer] + u_block
    return QuantumKernelSpec(circuit=Circuit(m=m, layers=tuple(layers)),
                             encoding="fixed")


@dataclass(frozen=True)
class QubitLayer:
    """One full layer of a single-qubit gate kind (H, R_Z or R_Y) on every qubit.

    A variable-ansatz layer is either an R_ZZ matching, a tuple of (i, j)
    pairs, or a QubitLayer. Iterating a layer yields its R_ZZ pairs, so a
    QubitLayer yields none.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("H", "RZ", "RY"):
            raise ValueError(f"no single-qubit layer of kind {self.kind!r}")

    def __iter__(self):
        return iter(())


def build_variable_ansatz(m, layers) -> QuantumKernelSpec:
    """Variable ansatz R_Y^m U_e H^m, with U_e given as a sequence of layers.

    Each layer is an R_ZZ matching or a QubitLayer. R_Z and R_Y layers are
    data-encoded with the same angles x_i / theta_i as the final R_Y layer,
    so the parameters stay [theta_1 .. theta_m, Theta] at any depth.
    """
    h_layer = tuple(GateOp("H", (q,)) for q in range(m))
    ry_layer = tuple(GateOp("RY", (q,)) for q in range(m))
    gates = [h_layer]
    for layer in layers:
        if isinstance(layer, QubitLayer):
            gates.append(tuple(GateOp(layer.kind, (q,)) for q in range(m)))
        else:
            gates.append(tuple(GateOp("RZZ", tuple(sorted(p))) for p in layer))
    gates.append(ry_layer)
    return QuantumKernelSpec(circuit=Circuit(m=m, layers=tuple(gates)),
                             encoding="variable")
