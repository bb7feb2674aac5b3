import logging
from dataclasses import replace

import numpy as np
import pytest

from peskit import circuit_search
from peskit.circuit_search import (BeamState, Candidate, canonical_layers,
                                   extend, layer_pool, refine, screen,
                                   search_circuit, search_moves)
from peskit.data import standardize, synth_pes
from peskit.gp import NotPositiveDefiniteError
from peskit.optimizer import SENTINEL
from peskit.quantum import (QubitLayer, apply_layers, build_variable_ansatz,
                            statevectors)
from screen_oracle import involution_count, screen_scores
from search_config import search_config


def test_involution_count_recurrence():
    assert [involution_count(n) for n in range(8)] == \
        [1, 1, 2, 4, 10, 26, 76, 232]


@pytest.mark.parametrize("m,J", [(2, 1), (3, 3), (4, 9), (5, 25), (6, 75)])
def test_pool_size_matches_involutions(m, J):
    pool = layer_pool(m)
    assert len(pool) == J == involution_count(m) - 1
    assert len(set(pool)) == J


def test_pool_layers_are_valid_matchings():
    for layer in layer_pool(4):
        qubits = [q for pair in layer for q in pair]
        assert len(qubits) == len(set(qubits))
        assert all(i < j for i, j in layer)
        assert list(layer) == sorted(layer)


def test_pool_small_cases_exhaustive():
    assert layer_pool(2) == (((0, 1),),)
    assert layer_pool(3) == (((0, 1),), ((0, 2),), ((1, 2),))
    with pytest.raises(ValueError):
        layer_pool(1)


def test_canonical_layers_format():
    layers = (((0, 1),), ((0, 1), (2, 3)))
    assert canonical_layers(layers) == "0-1;0-1,2-3"
    assert canonical_layers(()) == ""


def _cand(layers, m=3):
    init = build_variable_ansatz(m, ()).default_params().values
    return Candidate(layers=layers, params=init.copy())


def test_extend_counts_and_dedup():
    pool = layer_pool(3)
    beam = BeamState(candidates=[_cand(())])
    children = extend(beam, pool)
    assert len(children) == 3
    assert all(len(c.layers) == 1 for c in children)
    # two parents producing an identical child keep only one copy
    beam = BeamState(candidates=[_cand((((0, 1),),)), _cand((((0, 1),),))])
    children = extend(beam, pool)
    assert len(children) == 3
    # a child the beam already holds is not a child again
    beam = BeamState(candidates=[_cand((((0, 1),),)),
                                 _cand((((0, 1),), ((0, 2),)))])
    keys = [canonical_layers(c.layers) for c in extend(beam, pool)]
    assert "0-1;0-2" not in keys
    assert len(keys) == len(set(keys)) == 5


def test_moves_are_pool_plus_single_qubit_layers():
    moves = search_moves(3)
    assert moves == layer_pool(3) + (QubitLayer("H"), QubitLayer("RZ"),
                                     QubitLayer("RY"))
    children = extend(BeamState(candidates=[_cand((((0, 1),),))]), moves)
    assert [canonical_layers(c.layers) for c in children] == \
        ["0-1;0-1", "0-1;0-2", "0-1;1-2", "0-1;H", "0-1;RZ", "0-1;RY"]


def test_repeated_layers_are_legal_children():
    pool = layer_pool(2)
    beam = BeamState(candidates=[_cand((((0, 1),),), m=2)])
    children = extend(beam, pool)
    assert [c.layers for c in children] == [(((0, 1),), ((0, 1),))]


def _search_data(n=40, seed=0):
    # a search fits the targets it is given; callers standardize them
    data = synth_pes(3, n + 20, seed=seed).subset(range(n))
    return replace(data, y=standardize(data.y)[0])


def test_screen_retains_empty_circuit_plus_top_m():
    data = _search_data()
    cfg = search_config(beam_width=2, sigma_n=0.1)
    cands = [_cand(()), _cand((((0, 1),),)), _cand((((0, 2),),)),
             _cand((((1, 2),),))]
    beam = screen(cands, data, cfg)
    assert len(beam.candidates) == 3  # empty-circuit baseline + top 2
    assert any(not c.layers for c in beam.candidates)
    rest = [c for c in beam.candidates if c.layers]
    assert rest[0].beta_score >= rest[1].beta_score


def test_screen_clamps_when_m_exceeds_pool():
    data = _search_data()
    cfg = search_config(beam_width=10, sigma_n=0.1)
    beam = screen([_cand((((0, 1),),))], data, cfg)
    assert len(beam.candidates) == 1


_PARENTS = ((),  # the empty circuit: its prefix is H^m alone
            (((0, 1),), ((1, 2),)),  # R_ZZ matchings only
            (QubitLayer("H"), QubitLayer("RZ"), ((0, 2),), QubitLayer("RY")))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_prefix_built_child_states_equal_full_simulation(m):
    X = np.random.default_rng(m).uniform(0, 1, (20, m))
    for parent in _PARENTS:
        pv = build_variable_ansatz(m, parent).default_params().with_values(
            np.random.default_rng(len(parent)).uniform(0.2, 4.0, m + 1))
        prefix = None
        for move in search_moves(m):
            kernel = build_variable_ansatz(m, parent + (move,))
            if prefix is None:
                prefix = statevectors(m, kernel.layers[:-2], pv, X)
            states = apply_layers(prefix.copy(), kernel.layers[-2:], pv, X)
            assert states.flags.c_contiguous  # one column per input
            assert np.array_equal(states, statevectors(m, kernel.layers, pv, X))
        # building the children left the shared prefix as it was
        assert np.array_equal(prefix,
                              statevectors(m, kernel.layers[:-2], pv, X))


def test_screen_builds_each_parent_prefix_once(monkeypatch):
    parents = [_cand(layers) for layers in _PARENTS[:2]]
    children = extend(BeamState(candidates=parents), search_moves(3))
    assert len(children) == 2 * len(search_moves(3))
    built = []
    real = circuit_search.statevectors

    def statevectors(m, layers, params, X):
        built.append(layers)
        return real(m, layers, params, X)

    monkeypatch.setattr(circuit_search, "statevectors", statevectors)
    screen(children, _search_data(), search_config(sigma_n=0.1))
    # the prefix of a parent's children is H^m and the parent's layers
    assert built == [build_variable_ansatz(3, p.layers).layers[:-1]
                     for p in parents]


def test_screen_scores_equal_per_candidate_oracle():
    data = _search_data()
    cfg = search_config(sigma_n=0.1)
    moves = search_moves(3)
    # iteration 0: the empty-circuit baseline and every depth-1 circuit
    seeds = [_cand(())] + [_cand((move,)) for move in moves]
    # a later iteration: refined parents at distinct parameters, children
    # interleaved with the parents they came from
    parents = [_cand(layers) for layers in _PARENTS]
    for i, p in enumerate(parents):
        p.params = p.params * (1.0 + 0.4 * i)
        p.refined = True
    children = extend(BeamState(candidates=parents), moves)
    # consecutive candidates with one prefix circuit at different parameters
    twins = [_cand((((0, 1),), ((1, 2),))), _cand((((0, 1),), ((0, 2),)))]
    twins[1].params = twins[1].params * 3.0
    for cands in (seeds, parents + children, twins):
        want = screen_scores(cands, data, cfg)
        screen(cands, data, replace(cfg, beam_width=len(cands)))
        got = {canonical_layers(c.layers): (c.log_o, c.beta_score)
               for c in cands if not c.refined}
        assert got == want


def _poison_layers(monkeypatch, layers, exc):
    """Make circuit_search's logL raise ``exc`` for one layer sequence."""
    poisoned = build_variable_ansatz(3, layers).layers
    real = circuit_search.log_marginal_likelihood

    def log_marginal_likelihood(kernel, *args, **kwargs):
        if kernel.layers == poisoned:
            raise exc
        return real(kernel, *args, **kwargs)

    monkeypatch.setattr(circuit_search, "log_marginal_likelihood",
                        log_marginal_likelihood)


def test_screen_scores_typed_failure_as_sentinel_with_one_warning(
        monkeypatch, caplog):
    data = _search_data()
    cfg = search_config(beam_width=3, sigma_n=0.1)
    bad = (((0, 2),),)
    _poison_layers(monkeypatch, bad,
                   NotPositiveDefiniteError("factorization failed"))
    caplog.set_level(logging.WARNING, logger="peskit.circuit_search")
    cands = [_cand((((0, 1),),)), _cand(bad), _cand((((1, 2),),))]
    beam = screen(cands, data, cfg)
    by_key = {canonical_layers(c.layers): c for c in beam.candidates}
    assert by_key["0-2"].log_o == SENTINEL
    assert by_key["0-1"].log_o > SENTINEL and by_key["1-2"].log_o > SENTINEL
    assert beam.candidates[-1] is by_key["0-2"]
    records = [r for r in caplog.records if r.name == "peskit.circuit_search"]
    assert len(records) == 1
    assert "1 candidates" in records[0].getMessage()
    assert "[0-2]: factorization failed" in records[0].getMessage()


def test_screen_propagates_untyped_failures(monkeypatch):
    data = _search_data()
    cfg = search_config(beam_width=3, sigma_n=0.1)
    bad = (((0, 2),),)
    _poison_layers(monkeypatch, bad, ValueError("a bug, not a fit failure"))
    with pytest.raises(ValueError, match="a bug"):
        screen([_cand((((0, 1),),)), _cand(bad)], data, cfg)


def test_refine_improves_or_keeps_screened_score():
    data = _search_data()
    cfg = search_config(beam_width=3, refine_budget=10, sigma_n=0.1)
    beam = screen([_cand((((0, 1),),))], data, cfg)
    screened = beam.candidates[0].log_o
    refined = refine(beam, data, cfg, 0).candidates[0]
    assert refined.refined
    assert refined.log_o >= screened


def test_refined_candidates_are_frozen():
    data = _search_data()
    cfg = search_config(beam_width=3, refine_budget=6, sigma_n=0.1)
    beam = refine(screen([_cand((((0, 1),),))], data, cfg), data, cfg, 0)
    params = beam.candidates[0].params.copy()
    log_o = beam.candidates[0].log_o
    again = refine(beam, data, cfg, 0).candidates[0]
    assert np.array_equal(again.params, params)
    assert again.log_o == log_o


def _quick_cfg(beam_width):
    return search_config(beam_width=beam_width, refine_budget=8,
                         final_budget=10, max_depth=3, sigma_n=0.1)


def test_search_is_deterministic():
    data = _search_data(60, seed=0)
    s1, p1, t1 = search_circuit(data, _quick_cfg(2), 0)
    s2, p2, t2 = search_circuit(data, _quick_cfg(2), 0)
    assert s1 == s2
    assert np.array_equal(p1.values, p2.values)
    assert [r.criterion for r in t1] == [r.criterion for r in t2]


def test_search_trace_monotone_and_winner_beats_baseline():
    data = _search_data(60, seed=1)
    _, _, trace = search_circuit(data, _quick_cfg(3), 1)
    betas = [r.criterion for r in trace]
    assert all(b2 >= b1 for b1, b2 in zip(betas, betas[1:]))
    # iteration 0 already includes the depth-0 baseline, so the final best
    # can never fall below it
    assert betas[-1] >= betas[0]


def test_search_winner_respects_layer_constraint():
    data = _search_data(50, seed=2)
    kernel, _, _ = search_circuit(data, _quick_cfg(2), 2)
    assert kernel == build_variable_ansatz(3, kernel.layers[1:-1])
    for layer in kernel.layers:
        qubits = [q for pair in layer for q in pair]
        assert len(qubits) == len(set(qubits))


def test_search_screens_distinct_candidates(monkeypatch):
    # screen relies on extend never handing it one layer sequence twice
    calls, real = [], circuit_search.screen

    def screen(candidates, data, cfg):
        keys = [canonical_layers(c.layers) for c in candidates]
        calls.append(len(keys))
        assert len(set(keys)) == len(keys)
        return real(candidates, data, cfg)

    monkeypatch.setattr(circuit_search, "screen", screen)
    search_circuit(_search_data(60, seed=1), _quick_cfg(3), 1)
    assert len(calls) >= 2


def test_search_makes_children_once_per_parameter_set(monkeypatch):
    # a parent is extended once at each parameter set it holds, so no child
    # is made twice at one set and no circuit is refined twice
    made, optimized = [], []
    real_extend, real_optimize = circuit_search.extend, circuit_search._optimize

    def extend(beam, moves):
        children = real_extend(beam, moves)
        made.extend((canonical_layers(c.layers), c.params.tobytes())
                    for c in children)
        return children

    def _optimize(c, data, budget, tag, cfg, seed):
        if tag == "circuit":
            optimized.append(canonical_layers(c.layers))
        return real_optimize(c, data, budget, tag, cfg, seed)

    monkeypatch.setattr(circuit_search, "extend", extend)
    monkeypatch.setattr(circuit_search, "_optimize", _optimize)
    _, _, trace = search_circuit(_search_data(60, seed=0), _quick_cfg(3), 1)
    assert len(trace) == 3  # the seeds, their children and theirs
    assert len(made) == len(set(made))
    assert len(optimized) == len(set(optimized))
