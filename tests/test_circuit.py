"""Phase circuit: gate structure, telescoping product, schedule, conjugation."""

import random

import pytest

from gdslab.cli import build_manifold
from gdslab.complexes import Chain, _closure_masks
from gdslab.circuit import (
    ConjugationReport,
    PhaseGate,
    _gates_meeting,
    _phase_after_flip,
    build_gates,
    circuit_phase,
    schedule,
    verify_conjugation,
)
from gdslab.f2 import _set_bits
from gdslab.manifolds import builtin_manifold
from gdslab.model import GDS, flip, random_cycle
from gdslab.phases import I, MINUS_I, MINUS_ONE, ONE, Phase
from gdslab.voronoi import PointSet, torus_voronoi

from conftest import ORACLE_SPECS


def test_gate_census(torus3):
    gates = build_gates(torus3)
    expected = sum(torus3.n_cells(k) for k in range(3))
    assert len(gates) == expected
    d = torus3.dim
    for g in gates:
        if g.dim == d - 1:
            assert g.support == 1 << g.cell
        # a lone gate fires on its own support with +i (even dim) or -i (odd)
        alone = circuit_phase([g], Chain(torus3, d - 1, g.support))
        assert alone == (I if g.dim % 2 == 0 else MINUS_I)


def closure_supports(c):
    """Oracle for the gate supports: bit f on every cell in the closure of
    the (d-1)-cell f, keyed by (dim, id)."""
    support = {}
    for f in range(c.n_cells(c.dim - 1)):
        for key in c.closure([(c.dim - 1, f)]):
            support[key] = support.get(key, 0) | 1 << f
    return support


def closure_gates(c):
    support = closure_supports(c)
    return [PhaseGate(j, i, support.get((j, i), 0))
            for j in range(c.dim) for i in range(c.n_cells(j))]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_gate_supports_match_closure_oracle(spec):
    c = build_manifold(spec, 60, 1)
    if c.dim % 2:
        assert build_gates(c) == closure_gates(c)
    # even d has no circuit, but the downward pass gives the same supports
    d = c.dim
    masks = _closure_masks(c, {(d - 1, f): 1 << f for f in range(c.n_cells(d - 1))})
    assert {(j, i): m for j in range(d) for i, m in masks[j].items()} == closure_supports(c)


def test_gates_match_closure_oracle_on_voronoi3(voronoi3):
    assert build_gates(voronoi3) == closure_gates(voronoi3)


def test_circuit_phase_examples(torus3):
    gates = build_gates(torus3)
    assert circuit_phase(gates, Chain.empty(torus3, 2)) == ONE
    bubble = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    assert circuit_phase(gates, bubble) == MINUS_ONE  # i^chi(S2)


def test_circuit_phase_is_i_to_the_chi(torus3, sphere3):
    rng = random.Random(2)
    for c in (torus3, sphere3):
        gates = build_gates(c)
        for _ in range(25):
            state = random_cycle(c, rng)
            assert circuit_phase(gates, state) == Phase.i_power(
                state.euler_characteristic()
            )


def test_even_dimension_rejected(torus2, sphere4):
    for c in (torus2, sphere4):
        with pytest.raises(ValueError):
            build_gates(c)
        with pytest.raises(ValueError):
            verify_conjugation(c, [])


def test_schedule_rounds_are_conflict_free(sphere3):
    gates = build_gates(sphere3)
    sched = schedule(gates)
    assert sorted(g for r in sched.rounds for g in r) == list(range(len(gates)))
    for r in sched.rounds:
        for i, gi in enumerate(r):
            for gj in r[i + 1 :]:
                assert not (gates[gi].support & gates[gj].support)


def test_schedule_depth_bounded_by_local_geometry(torus3):
    gates = build_gates(torus3)
    sched = schedule(gates)
    per_qubit = {}
    for g in gates:
        for f in _set_bits(g.support):
            per_qubit[f] = per_qubit.get(f, 0) + 1
    max_conflicts = max(per_qubit.values())
    # greedy coloring never needs more colors than the largest clique bound
    assert sched.depth <= 2 * max_conflicts


def greedy_conflict_coloring(gates):
    """Independent oracle for `schedule`: color each gate, in order, with the
    least color that no earlier gate sharing one of its qubits holds."""
    by_qubit = {}
    for idx, g in enumerate(gates):
        for f in _set_bits(g.support):
            by_qubit.setdefault(f, []).append(idx)
    color = {}
    n_colors = 0
    for idx, g in enumerate(gates):
        used = set()
        for f in _set_bits(g.support):
            for other in by_qubit[f]:
                if other in color:
                    used.add(color[other])
        c0 = 0
        while c0 in used:
            c0 += 1
        color[idx] = c0
        n_colors = max(n_colors, c0 + 1)
    rounds = [[] for _ in range(n_colors)]
    for idx in range(len(gates)):
        rounds[color[idx]].append(idx)
    return rounds


@pytest.mark.parametrize("make", [
    lambda: builtin_manifold("sphere", 1),
    lambda: builtin_manifold("sphere", 3),
    lambda: builtin_manifold("torus", 3, 3),
    lambda: builtin_manifold("torus", 3, 4),
    lambda: builtin_manifold("torus", 3, 8),
    lambda: torus_voronoi(3, PointSet.random(3, 100, seed=1)),
], ids=["sphere:1", "sphere:3", "torus:3:3", "torus:3:4", "torus:3:8", "torus-voronoi:3"])
def test_schedule_matches_greedy_coloring_oracle(make):
    gates = build_gates(make())
    assert schedule(gates).rounds == greedy_conflict_coloring(gates)


def test_schedule_depth_matches_across_resolutions():
    d4 = schedule(build_gates(builtin_manifold("torus", 3, 4))).depth
    d8 = schedule(build_gates(builtin_manifold("torus", 3, 8))).depth
    assert d4 == d8


def test_sphere3_depth_golden(sphere3):
    assert schedule(build_gates(sphere3)).depth == 12


def test_schedule_export(tmp_path, sphere3):
    sched = schedule(build_gates(sphere3))
    path = tmp_path / "sched.txt"
    sched.save(str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == sched.depth


def test_conjugation(torus3, sphere3):
    assert verify_conjugation(torus3, build_gates(torus3), n_states=20, seed=0)
    assert verify_conjugation(sphere3, build_gates(sphere3), n_states=50, seed=1)



def full_product_failure(c, gates, n_states, seed):
    """Oracle for `verify_conjugation`: the circuit phase after every flip
    from the full gate-by-gate product."""
    rng = random.Random(seed)
    for trial in range(1, n_states + 1):
        state = random_cycle(c, rng)
        before = circuit_phase(gates, state)
        for cell in range(c.n_cells(c.dim)):
            after_state, sf = flip(c, cell, state, GDS)
            after = circuit_phase(gates, after_state)
            if after * Phase.from_sign(sf.phase) * before.conj() != ONE:
                return ConjugationReport(False, trial, state.bits, cell)
    return ConjugationReport(True)


def mutated_gate_lists(c, gates, rng):
    """Gate lists the circuit is not: a dimension changed, a support widened
    or narrowed, a gate dropped, a gate added."""
    k = rng.randrange(len(gates))
    g = gates[k]
    widened = g.support | 1 << rng.randrange(c.n_cells(c.dim - 1))
    return {
        "dim": gates[:k] + [g._replace(dim=g.dim + 1)] + gates[k + 1:],
        "wider": gates[:k] + [g._replace(support=widened)] + gates[k + 1:],
        "narrower": gates[:k] + [g._replace(support=g.support & (g.support - 1))] + gates[k + 1:],
        "dropped": gates[:k] + gates[k + 1:],
        "added": gates + [PhaseGate(0, 0, widened)],
    }


@pytest.mark.parametrize("spec", ["sphere:1", "sphere:3", "torus:3:3", "torus-voronoi:3"])
def test_phase_after_flip_matches_the_full_product(spec):
    c = build_manifold(spec, 30, 2)
    gates = build_gates(c)
    rng = random.Random(spec)
    lists = {"circuit": gates, **mutated_gate_lists(c, gates, rng)}
    for name, gate_list in lists.items():
        meeting = _gates_meeting(c, gate_list)
        for _ in range(4):
            state = random_cycle(c, rng)
            before = circuit_phase(gate_list, state)
            for cell in range(c.n_cells(c.dim)):
                after_state, _ = flip(c, cell, state, GDS)
                assert _phase_after_flip(meeting[cell], before, state.bits, after_state.bits) \
                    == circuit_phase(gate_list, after_state), (name, cell)


def test_verify_conjugation_reports_as_the_full_product(torus3, sphere3):
    for c, seed in ((torus3, 0), (sphere3, 1)):
        gates = build_gates(c)
        assert verify_conjugation(c, gates, 6, seed) == full_product_failure(c, gates, 6, seed)
    # a mutated circuit fails at the same (trial, state, cell) as the oracle
    rng = random.Random(8)
    for c in (torus3, sphere3):
        for name, gate_list in mutated_gate_lists(c, build_gates(c), rng).items():
            expected = full_product_failure(c, gate_list, 4, 3)
            assert verify_conjugation(c, gate_list, 4, 3) == expected, name
