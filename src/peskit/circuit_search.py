"""Compositional beam search over gate-layer sequences.

The moves are every nonempty matching of R_ZZ gates on m qubits (the
layer pool) plus one full layer of each single-qubit kind: H, and R_Z and
R_Y data-encoded as x_i / theta_i. The beam starts as the empty circuit.
Each iteration appends one move to each retained circuit, screens the
children by the beta metric at inherited parameters, keeps the best
``beam_width`` of the run's ``bench.ExperimentConfig`` beside the empty
circuit (the depth-0 baseline), and optimizes the parameters of newly
retained circuits by Bayesian optimization of the surrogate objective.
Screening builds each parent's prefix, H^m followed by its U_e, once on
the training inputs at the parameters its children inherit, with
``statevectors``; a child's states are a copy of that prefix with its new
layer and the final R_Y layer applied by ``apply_layers``.
The single-qubit layers reuse the scales theta_i and all R_ZZ gates share
one scale Theta, so no move adds a parameter and the beta penalty is
depth-independent.

A circuit's children are made once for each parameter set it holds: the
seeds are the empty circuit's children at its start parameters, and any
other circuit is extended once its refinement has frozen its parameters.
Every circuit is optimized exactly once, when first retained, with a seed
derived from its canonical form; retained incumbents keep their frozen
scores, which makes the best-beta trace monotone and the whole search
deterministic and order-independent.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .gp import (KernelEvaluationError, NotPositiveDefiniteError, SearchTrace,
                 TraceRow, beta, log_marginal_likelihood)
from .optimizer import SENTINEL, maximize_logl, stable_seed
from .quantum import (QuantumKernel, QubitLayer, apply_layers,
                      build_variable_ansatz, statevectors)

__all__ = ["BeamState", "Candidate", "layer_pool", "search_moves", "extend",
           "screen", "refine", "search_circuit", "canonical_layers"]

log = logging.getLogger(__name__)

_GP_FAILURES = (NotPositiveDefiniteError, KernelEvaluationError)
EPS_BETA = 0.5  # beta improvement required to keep growing


def _matchings(qubits):
    if not qubits:
        yield ()
        return
    first, rest = qubits[0], qubits[1:]
    # first qubit idle
    for m in _matchings(rest):
        yield m
    # first qubit paired with any later one
    for i, q in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for m in _matchings(remaining):
            yield ((first, q),) + m


def layer_pool(m) -> tuple:
    """All nonempty R_ZZ matchings on m qubits, canonically ordered."""
    if m < 2:
        raise ValueError("layer pool needs m >= 2")
    return tuple(sorted(tuple(sorted(match))
                        for match in _matchings(tuple(range(m))) if match))


def search_moves(m):
    """Every layer the search may append: the R_ZZ pool, then H, R_Z, R_Y."""
    return layer_pool(m) + tuple(QubitLayer(kind)
                                 for kind in ("H", "RZ", "RY"))


def canonical_layers(layers):
    """Canonical string id of a layer sequence, e.g. ``"H;0-1,2-3;RY"``."""
    return ";".join(layer.kind if isinstance(layer, QubitLayer)
                    else ",".join(f"{i}-{j}" for i, j in layer)
                    for layer in layers)


@dataclass
class Candidate:
    layers: tuple  # sequence of R_ZZ matchings and QubitLayers
    params: np.ndarray
    log_o: float = -np.inf
    beta_score: float = -np.inf
    refined: bool = False
    extended_at: bytes | None = None  # params bytes its children were made at

    @property
    def key(self):
        return (-self.beta_score, len(self.layers), canonical_layers(self.layers))


@dataclass
class BeamState:
    candidates: list


def extend(beam: BeamState, moves):
    """Children of every retained circuit not yet extended at its current
    parameters: parent layers + one move.

    Each layer sequence appears once, and none that the beam already holds.
    """
    children = []
    seen = {canonical_layers(c.layers) for c in beam.candidates}
    for parent in beam.candidates:
        at = parent.params.tobytes()
        if parent.extended_at == at:
            continue
        parent.extended_at = at
        for layer in moves:
            layers = parent.layers + (layer,)
            key = canonical_layers(layers)
            if key in seen:
                continue
            seen.add(key)
            children.append(Candidate(layers=layers,
                                      params=parent.params.copy()))
    return children


@dataclass(frozen=True)
class _ChildKernel(QuantumKernel):
    """A screened child's kernel, valid on the training inputs only: its
    states there, a (2^m, B) array, were built from its parent's prefix."""

    training_states: np.ndarray = field(compare=False, repr=False)

    def states(self, X, params):
        return self.training_states


def screen(candidates, data, cfg) -> BeamState:
    """Score unrefined candidates at inherited parameters; keep the empty
    circuit (the depth-0 baseline) and the top ``cfg.beam_width`` of the rest.

    The candidates are distinct layer sequences, as ``extend`` makes them.
    Consecutive children of one parent share its prefix state, which
    ``statevectors`` builds once. A typed GP failure scores SENTINEL; one
    warning counts a call's failures.
    """
    X, y = data.X, data.y
    failures = []
    prefix_key = prefix = None
    for c in candidates:
        if not c.refined:
            circuit = build_variable_ansatz(X.shape[1], c.layers)
            pv = circuit.default_params().with_values(c.params)
            parent = (circuit.layers[:-2], c.params.tobytes())
            if parent != prefix_key:
                prefix_key = parent
                prefix = statevectors(circuit.m, parent[0], pv, X)
            kernel = _ChildKernel(circuit.m, circuit.layers, apply_layers(
                prefix.copy(), circuit.layers[-2:], pv, X))
            try:
                c.log_o = kernel.objective(log_marginal_likelihood(
                    kernel, pv, X, y, sigma_n=cfg.sigma_n))
            except _GP_FAILURES as exc:
                failures.append(f"[{canonical_layers(c.layers)}]: {exc}")
                c.log_o = SENTINEL
            del kernel  # free this child's states before the next is built
            c.beta_score = beta(c.log_o, pv.size, y.size)
    if failures:
        log.warning("scoring failed for %d candidates; first %s",
                    len(failures), failures[0])
    pool = sorted(candidates, key=lambda c: c.key)
    return BeamState(candidates=[c for c in pool if not c.layers]
                     + [c for c in pool if c.layers][:cfg.beam_width])


def _optimize(c: Candidate, data, budget, tag, cfg, seed):
    """Maximize the surrogate objective over ``c``'s scales from its params."""
    kernel = build_variable_ansatz(data.X.shape[1], c.layers)
    return maximize_logl(kernel, kernel.default_params().with_values(c.params),
                         data.X, data.y, budget,
                         stable_seed(seed, tag, canonical_layers(c.layers)),
                         cfg.sigma_n)


def refine(beam: BeamState, data, cfg, seed) -> BeamState:
    """Optimize parameters of circuits not yet refined; frozen afterwards."""
    for c in beam.candidates:
        if c.refined:
            continue
        res = _optimize(c, data, cfg.refine_budget, "circuit", cfg, seed)
        c.params, c.log_o = res.best_point, res.best_value
        c.beta_score = beta(c.log_o, c.params.size, data.y.size)
        c.refined = True
    beam.candidates.sort(key=lambda c: c.key)
    return beam


def search_circuit(data, cfg, seed):
    """Beam search over gate-layer sequences; returns (kernel, params,
    SearchTrace).

    It reads ``beam_width``, ``refine_budget``, ``final_budget``,
    ``max_depth`` and ``sigma_n`` of ``cfg`` and seeds every fit from the
    cell ``seed``. The search fits ``data.y`` as given; a caller passes
    z-scored targets, as ``bench._run_cell`` does. The beam starts as the
    empty circuit (no appended layers), which ``screen`` keeps as the
    baseline outside the beam width. Each trace row holds the best
    circuit's layer string, logO as score, beta as criterion and the
    number of candidates the step screened.
    """
    m = data.X.shape[1]
    moves = search_moves(m)
    init = build_variable_ansatz(m, ()).default_params().values

    beam = BeamState([Candidate(layers=(), params=init)])
    trace, best = SearchTrace(), None
    for iteration in range(cfg.max_depth):
        t0 = time.perf_counter()
        pool = beam.candidates + extend(beam, moves)
        n_screened = sum(not c.refined for c in pool)
        beam = refine(screen(pool, data, cfg), data, cfg, seed)
        new_best = beam.candidates[0]  # refine sorts by the unique key
        trace.append(TraceRow(iteration, n_screened,
                              canonical_layers(new_best.layers),
                              new_best.log_o, new_best.beta_score,
                              new_best.params.size, time.perf_counter() - t0))
        converged = (best is not None
                     and new_best.beta_score - best.beta_score < EPS_BETA)
        best = new_best
        if converged:
            break

    # final re-optimization of the winner at the larger budget
    values = _optimize(best, data, cfg.final_budget, "circuit-final", cfg,
                       seed).best_point
    kernel = build_variable_ansatz(m, best.layers)
    return kernel, kernel.default_params().with_values(values), trace

