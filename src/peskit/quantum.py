"""m-qubit statevector simulation and quantum fidelity kernels.

Gate set {H, R_Z, R_Y, R_ZZ} with little-endian qubit ordering (qubit 0
is the least significant bit of the basis index). Data vectors are encoded
into gate angles; the kernel is the squared overlap of the two encoded
states, computed from cached statevectors.

A batch of B states has one form from simulator to Gram, amplitude axis
first, (2^m, B): a gate on any qubit runs its inner loops along the
contiguous batch, and each column's angle broadcasts along it. Every gate
runs through ``apply_layers``, one whole circuit layer at a time. Only
``QuantumKernel.gram`` and ``features`` choose how the linear algebra
reads the states.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .gp import KernelFn, ParamVector, surrogate_objective

__all__ = [
    "QubitLayer",
    "QuantumKernel",
    "zero_state",
    "apply_layers",
    "statevectors",
    "build_fixed_ansatz",
    "build_variable_ansatz",
]

# default bounds for the encoding scales theta_1..theta_m and Theta
THETA_BOUNDS = (1e-2, 1e1)

@dataclass(frozen=True)
class QubitLayer:
    """One full layer of a single-qubit gate kind (H, R_Z or R_Y) on every qubit.

    A circuit layer is either an R_ZZ matching, a tuple of (i, j) pairs, or
    a QubitLayer. Iterating a layer yields its R_ZZ pairs, so a QubitLayer
    yields none.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("H", "RZ", "RY"):
            raise ValueError(f"no single-qubit layer of kind {self.kind!r}")

    def __iter__(self):
        return iter(())


_H = QubitLayer("H")


def _gates(layer, m):
    """The (kind, qubits) of each gate of ``layer``, in application order:
    qubits 0..m-1 of a QubitLayer, or the pairs of a matching as given."""
    if isinstance(layer, QubitLayer):
        return [(layer.kind, (q,)) for q in range(m)]
    return [("RZZ", pair) for pair in layer]


def zero_state(m, batch):
    """|0...0> as amplitudes of shape (2^m, batch), one state per column."""
    psi = np.zeros((2 ** m, batch), dtype=complex)
    psi[0] = 1.0
    return psi


@functools.lru_cache(maxsize=64)
def _parity(m, qubits):
    """Read-only parity of the ``qubits``' bits over the 2^m basis indices:
    0 where their Z eigenvalue product is +1, 1 where it is -1."""
    index = np.arange(2 ** m)
    parity = np.zeros(2 ** m, dtype=np.intp)
    for q in qubits:
        parity ^= (index >> q) & 1
    parity.flags.writeable = False
    return parity


def _halves(state, q):
    """Views of the amplitudes whose qubit ``q`` is 0 and 1, paired."""
    view = state.reshape((state.shape[0] >> (q + 1), 2, 1 << q)
                         + state.shape[1:])
    return view[:, 0], view[:, 1]


def _hadamard(state, q):
    """H on qubit ``q``."""
    a, b = _halves(state, q)
    a0 = a.copy()
    r = 1.0 / math.sqrt(2.0)
    a[...] = r * (a0 + b)
    b[...] = r * (a0 - b)


def _rotate(state, q, c, s):
    """R_Y on qubit ``q`` from the half-angle cosine ``c`` and sine ``s``:
    all four products read the halves before either is written."""
    a, b = _halves(state, q)
    ca, sb, sa, cb = c * a, s * b, s * a, c * b
    np.subtract(ca, sb, out=a)
    np.add(sa, cb, out=b)


def _phase(state, parity, e):
    """A diagonal gate: exp(-i phi/2) = ``e`` where the Z eigenvalue product
    is +1 and its conjugate where it is -1, one exponential per column."""
    table = np.empty((2,) + e.shape, dtype=complex)
    table[0] = e
    table[1] = e.conj()
    state *= table[parity]


def apply_layers(psi, layers, params: ParamVector, X) -> np.ndarray:
    """Apply circuit layers in place to states ``psi`` of shape (2^m, B),
    one column per row of ``X``, from which the encoded angles are taken.

    An R_Z or R_Y layer takes its m angles x_i / theta_i, and their
    half-angle cosines and sines or their phases, from one call each. An
    R_ZZ gate on (i, j) turns by exp(-(x_i - x_j)^2 / Theta).
    """
    m = psi.shape[0].bit_length() - 1
    X, v = np.asarray(X, dtype=float), params.values
    for layer in layers:
        if not isinstance(layer, QubitLayer):
            for i, j in layer:
                phi = np.exp(-((X[..., i] - X[..., j]) ** 2) / v[-1])
                _phase(psi, _parity(m, (i, j)), np.exp(-0.5j * phi))
        elif layer.kind == "H":
            for q in range(m):
                _hadamard(psi, q)
        else:
            if m > v.size - 1:
                raise ValueError(f"no encoding scale for qubit {v.size - 1}")
            phi = (X[..., :m] / v[:m]).T
            if layer.kind == "RY":
                c, s = np.cos(0.5 * phi), np.sin(0.5 * phi)
                for q in range(m):
                    _rotate(psi, q, c[q], s[q])
            else:
                e = np.exp(-0.5j * phi)
                for q in range(m):
                    _phase(psi, _parity(m, (q,)), e[q])
    return psi


def statevectors(m, layers, params: ParamVector, X) -> np.ndarray:
    """Encoded states U(x)|0...0> of the m-qubit circuit ``layers`` for
    each input row, amplitude axis first: a C-contiguous (2^m, B) array.

    The leading H layers (H^m in both ansaetze) are simulated once on one
    column, which is then repeated B times.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != m:
        raise ValueError(f"input dimension {X.shape[1]} != qubit count m={m}")
    k = next((i for i, layer in enumerate(layers) if layer != _H), len(layers))
    head = apply_layers(zero_state(m, batch=1), layers[:k], params, X)
    return apply_layers(np.repeat(head, X.shape[0], axis=1), layers[k:],
                        params, X)


@dataclass(frozen=True)
class QuantumKernel(KernelFn):
    """The fidelity kernel of an m-qubit circuit given as its layers.

    Each layer is a QubitLayer or an R_ZZ matching: pairs (i, j) with
    i < j, no qubit in two pairs. Trainable parameters are
    [theta_1 .. theta_m, Theta]: per-qubit scales for the single-qubit
    rotation angles x_i / theta_i and one shared scale for all R_ZZ angles
    exp(-(x_i - x_j)^2 / Theta). M = m + 1.

    k(x, x') = |<psi(x)|psi(x')>|^2 = Tr rho(x) rho(x') is an inner product
    of density matrices, so the kernel has the 4^m real features of rho.
    Its Gram works from cached statevectors.
    """

    m: int
    layers: tuple

    def __post_init__(self):
        for layer in self.layers:
            seen = set()
            for i, j in layer:
                if i >= j:
                    raise ValueError(
                        f"RZZ qubit pair {(i, j)} must be ordered (i < j)")
                if i < 0 or j >= self.m:
                    raise ValueError(
                        f"RZZ qubit pair {(i, j)} out of range for m={self.m}")
                if i in seen or j in seen:
                    raise ValueError(
                        f"a qubit of {(i, j)} is in two pairs of one layer")
                seen.update((i, j))

    def default_params(self) -> ParamVector:
        m = self.m
        lo, hi = THETA_BOUNDS
        center = math.sqrt(lo * hi)
        return ParamVector(values=np.full(m + 1, center),
                           lower=np.full(m + 1, lo),
                           upper=np.full(m + 1, hi),
                           scales=("log",) * (m + 1))

    def describe(self, params: ParamVector) -> str:
        """The winner-file form: every layer written out gate by gate,
        then the fitted scales."""
        return json.dumps({"m": self.m,
                           "layers": [[{"gate": kind, "qubits": list(qubits)}
                                       for kind, qubits in _gates(layer, self.m)]
                                      for layer in self.layers],
                           "params": params.values.tolist()})

    def states(self, X, params: ParamVector) -> np.ndarray:
        """The encoded states of the rows of ``X``, one column each, from
        which ``gram`` and ``features`` work."""
        return statevectors(self.m, self.layers, params, X)

    @property
    def n_features(self) -> int:
        return 4 ** self.m

    def features(self, X, params: ParamVector) -> np.ndarray:
        """Real coordinates of rho = |psi><psi| per row of ``X``, so that
        ``features(X) @ features(X2).T`` is the Gram; shape (B, 4^m).

        The columns are |psi_k|^2, then sqrt(2) Re(psi_k conj(psi_l)) and
        sqrt(2) Im(psi_k conj(psi_l)) for k < l.
        """
        # one row per input: numpy's complex multiply takes another SIMD
        # loop on strided operands, which moves the features' last bits
        V = np.ascontiguousarray(self.states(X, params).T)
        d = V.shape[1]
        k, l = np.triu_indices(d, 1)
        rho = V[:, k] * V[:, l].conj()
        rho *= math.sqrt(2.0)
        return np.concatenate([V.real ** 2 + V.imag ** 2, rho.real, rho.imag],
                              axis=1)

    def gram(self, X, X2, params: ParamVector) -> np.ndarray:
        V1 = self.states(X, params).T
        V2 = V1 if X2 is X else self.states(X2, params).T
        K = np.abs(V1 @ V2.conj().T)
        K **= 2
        return K

    def objective(self, logL: float) -> float:
        """Fits maximize the stabilized ``surrogate_objective`` of logL."""
        return surrogate_objective(logL)


def _pair_layers(pairs):
    """Greedy split of a pair list into matchings, one gate per qubit."""
    layers = []
    for pair in pairs:
        for layer in layers:
            if not set(pair) & {q for p in layer for q in p}:
                layer.append(pair)
                break
        else:
            layers.append([pair])
    return [tuple(layer) for layer in layers]


def build_fixed_ansatz(m) -> QuantumKernel:
    """Fixed all-pairs ansatz U H^m U H^m with U = R_Z per qubit + R_ZZ per pair.

    The all-pairs R_ZZ block is split into commuting matching layers to
    respect the one-gate-per-qubit layer constraint.
    """
    if m < 2:
        raise ValueError("fixed ansatz needs m >= 2")
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    u_block = [QubitLayer("RZ")] + _pair_layers(pairs)
    return QuantumKernel(m, tuple([_H] + u_block + [_H] + u_block))


def build_variable_ansatz(m, layers) -> QuantumKernel:
    """Variable ansatz R_Y^m U_e H^m, with U_e given as a sequence of layers.

    Each layer is an R_ZZ matching or a QubitLayer. R_Z and R_Y layers are
    data-encoded with the same angles x_i / theta_i as the final R_Y layer,
    so the parameters stay [theta_1 .. theta_m, Theta] at any depth.
    """
    return QuantumKernel(m, (_H, *layers, QubitLayer("RY")))
