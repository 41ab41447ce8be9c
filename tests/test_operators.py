"""Balloon operators, the surface Wilson sign, dual loops, excitations."""

import random

import pytest

from gdslab import f2
from gdslab import operators as op_mod
from gdslab.complexes import Chain, dual_of_triangulation, is_embedded_union
from gdslab.f2 import Subspace, _set_bits, reduce_by_rref
from gdslab.homology import _loop_components
from gdslab.manifolds import (
    barycentric_subdivision,
    builtin_manifold,
    simplex_boundary,
    torus_dual_loops,
)
from gdslab.model import GDS, flip, hplus_violations, random_cycle, sector_reps
from gdslab.operators import (
    Balloon,
    DualLoop,
    TangentialOverlapError,
    apply_balloon,
    balloon_dual_loop_commutator,
    balloon_sign,
    ds2_wilson_data,
    ds2_wilson_sign,
    dual_wilson_phase,
    is_dual_nullhomologous,
    open_balloon_apply,
    open_dual_arc_excite,
    overlap_pieces,
    random_sparse_cycle,
    sample_clean_pair,
    semichar_delta_check,
)
from gdslab.phases import MINUS_ONE, ONE
from gdslab.wavefunction import EVEN_SEMICHAR, ODD_CHI, PhaseFn, reference_phase

from conftest import boundary_space, reference_closure


@pytest.fixture(scope="module")
def fine_sphere():
    c = dual_of_triangulation(barycentric_subdivision(simplex_boundary(2)))
    c.meta["generic_validated"] = True
    return c


def test_balloon_guards(torus3):
    support = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    with pytest.raises(ValueError):
        Balloon(Chain.from_cells(torus3, 2, [0]), closed=True)
    with pytest.raises(ValueError):
        Balloon(support, closed=False)


def test_balloon_sign_odd_examples(torus3):
    bubble = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    L = Balloon(bubble, closed=True)
    # support equals state: i^chi(S2) * (-1)^chi(S2) = -1
    assert balloon_sign(torus3, L, bubble) == MINUS_ONE
    # empty state: i^chi(S2) = -1
    assert balloon_sign(torus3, L, Chain.empty(torus3, 2)) == MINUS_ONE


def test_balloon_matches_flip(torus3):
    # a balloon on the boundary of one cell is the flip operator up to sign
    rng = random.Random(1)
    for _ in range(20):
        cell = rng.randrange(torus3.n_cells(3))
        bubble = Chain(torus3, 2, torus3.boundary_bits(3, cell))
        L = Balloon(bubble, closed=True)
        alpha = random_cycle(torus3, rng)
        pieces = overlap_pieces(torus3, bubble.bits, alpha.bits)
        if not pieces.clean:
            continue
        out, _ = apply_balloon(torus3, L, alpha)
        flipped, _ = flip(torus3, cell, alpha, GDS)
        assert out.bits == flipped.bits


def test_balloon_preserves_reference_phase(torus3, sphere4, sphere3):
    cases = [(torus3, ODD_CHI), (sphere3, ODD_CHI), (sphere4, EVEN_SEMICHAR)]
    for c, kind in cases:
        f = PhaseFn(kind, c)
        reps = sector_reps(c).reps
        rng = random.Random(10)
        for _ in range(100):
            L, alpha = sample_clean_pair(c, rng, reps)
            out, phase = apply_balloon(c, L, alpha)
            assert not hplus_violations(c, out)
            assert reference_phase(f, out) == phase * reference_phase(f, alpha)


def test_balloon_tangential_overlap_raises(torus3):
    rng = random.Random(2)
    raised = 0
    for _ in range(500):
        a = random_cycle(torus3, rng)
        b = random_cycle(torus3, rng)
        if b.bits == 0:
            continue
        pieces = overlap_pieces(torus3, b.bits, a.bits)
        if pieces.clean:
            continue
        with pytest.raises(TangentialOverlapError):
            balloon_sign(torus3, Balloon(b, True), a)
        raised += 1
        if raised >= 3:
            break
    assert raised >= 1


def test_overlap_pieces_of_one_trial_are_computed_once(torus3, monkeypatch):
    calls = []
    real = op_mod.is_embedded_union
    monkeypatch.setattr(op_mod, "is_embedded_union", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(5)
    reps = sector_reps(torus3).reps
    for _ in range(10):
        L, alpha = sample_clean_pair(torus3, rng, reps)
        pieces = overlap_pieces(torus3, L.support.bits, alpha.bits)
        calls.clear()
        apply_balloon(torus3, L, alpha)
        assert semichar_delta_check(torus3, L, alpha).holds
        assert overlap_pieces(torus3, L.support.bits, alpha.bits) is pieces
        assert not calls
        # the kept pieces equal a computation on a complex that kept nothing
        assert pieces == overlap_pieces(builtin_manifold("torus", 3, 3), L.support.bits, alpha.bits)
    # a new pair replaces the kept one
    calls.clear()
    swapped = overlap_pieces(torus3, alpha.bits, L.support.bits)
    assert swapped is not pieces and calls


def pairwise_overlap_pieces(c, l_bits, a_bits):
    """Oracle for `overlap_pieces`: (clean, chi_shared, chi_boundary,
    chi_support) from the closures of the three pieces and of the shared
    boundary, compared pairwise as sets."""
    d1 = c.dim - 1
    b_bits = l_bits & a_bits
    a_only = l_bits & ~a_bits
    c_only = a_bits & ~l_bits

    def closure_of(k, bits):
        return reference_closure(c, [(k, i) for i in _set_bits(bits)])

    def chi(cells):
        return sum(-1 if k % 2 else 1 for k, _ in cells)

    cl_a, cl_b, cl_c = closure_of(d1, a_only), closure_of(d1, b_bits), closure_of(d1, c_only)
    m_cells = closure_of(d1 - 1, Chain(c, d1, b_bits).boundary().bits)
    clean = (
        (cl_a & cl_b) == m_cells
        and (cl_b & cl_c) == m_cells
        and (cl_a & cl_c) == m_cells
        and is_embedded_union(c, d1, _set_bits(a_only))
        and is_embedded_union(c, d1, _set_bits(b_bits))
        and is_embedded_union(c, d1, _set_bits(c_only))
    )
    return clean, chi(cl_b), chi(m_cells), chi(cl_a | cl_b)


@pytest.mark.parametrize("spec", ["torus:3:3", "torus:3:5", "sphere:3", "sphere:4", "voronoi3"])
def test_overlap_pieces_match_pairwise_oracle(spec, voronoi3):
    c = voronoi3 if spec == "voronoi3" else builtin_manifold(*[
        int(x) if x.isdigit() else x for x in spec.split(":")])
    rng = random.Random(7)
    reps = sector_reps(c).reps
    n = c.n_cells(c.dim - 1)
    seen = set()
    for trial in range(300):
        if trial % 2:
            # arbitrary (d-1)-cell sets, most of them not cycles
            pair = [Chain.from_cells(c, c.dim - 1, rng.sample(range(n), rng.randint(0, 6)))
                    for _ in range(2)]
        else:
            pair = [random_sparse_cycle(c, rng, reps=reps) for _ in range(2)]
        l_bits, a_bits = pair[0].bits, pair[1].bits
        pieces = overlap_pieces(c, l_bits, a_bits)
        expected = pairwise_overlap_pieces(c, l_bits, a_bits)
        assert (pieces.clean, pieces.chi_shared, pieces.chi_boundary,
                pieces.chi_support) == expected
        seen.add(pieces.clean)
    assert seen == {True, False}


def test_balloon_even_dimension_needs_tag(torus3, sphere4, torus2):
    bubble4 = Chain(sphere4, 3, sphere4.boundary_bits(4, 0))
    assert balloon_sign(sphere4, Balloon(bubble4, True), Chain.empty(sphere4, 3)) in (
        ONE,
        MINUS_ONE,
    )
    # an even-dimensional complex without the hypothesis tag is refused
    import gdslab.manifolds as mf

    klein = mf.builtin_manifold("klein")
    loop = sector_reps(klein).reps[1]
    with pytest.raises(ValueError):
        balloon_sign(klein, Balloon(loop, True), Chain.empty(klein, 1))


def test_balloon_maps_between_sectors(torus3):
    sectors = sector_reps(torus3)
    rng = random.Random(3)
    for _ in range(20):
        L, alpha = sample_clean_pair(torus3, rng, sectors.reps)
        out, _ = apply_balloon(torus3, L, alpha)
        expected = reduce_by_rref(alpha.bits ^ L.support.bits, boundary_space(torus3, 2))
        assert reduce_by_rref(out.bits, boundary_space(torus3, 2)) == expected


def test_semichar_delta_check_trials(torus3, sphere4):
    for c in (torus3, sphere4):
        reps = sector_reps(c).reps
        rng = random.Random(5)
        for _ in range(100):
            L, alpha = sample_clean_pair(c, rng, reps)
            assert semichar_delta_check(c, L, alpha).holds


def test_semichar_delta_disjoint_supports(torus3):
    # disjoint support and state: the boundary term vanishes
    b1 = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    other = None
    for cell in range(1, torus3.n_cells(3)):
        b2 = Chain(torus3, 2, torus3.boundary_bits(3, cell))
        if not (b1.closure() & b2.closure()):
            other = b2
            break
    check = semichar_delta_check(torus3, Balloon(b1, True), other)
    assert check.holds


def test_ds2_wilson_simple_cases(sphere2):
    # the boundary of one 2-cell is a simple loop
    loop = Chain(sphere2, 1, sphere2.boundary_bits(2, 0))
    assert ds2_wilson_sign(sphere2, loop, Chain.empty(sphere2, 1)) == MINUS_ONE
    assert ds2_wilson_sign(sphere2, loop, loop) == MINUS_ONE


def test_ds2_wilson_matches_loop_count_oracle(fine_sphere):
    from gdslab.operators import random_sparse_cycle

    c = fine_sphere
    rng = random.Random(12)

    def loops(e):
        return len(_loop_components(c, e)) if e.bits else 0

    checked = 0
    for _ in range(2000):
        l = random_sparse_cycle(c, rng, max_cells=4)
        alpha = random_sparse_cycle(c, rng, max_cells=4)
        if l.bits == 0:
            continue
        if len(_loop_components(c, l)) != 1:
            continue
        sign = ds2_wilson_sign(c, l, alpha).sign()
        oracle = (-1) ** (loops(alpha) + loops(alpha ^ l))
        assert sign == oracle
        checked += 1
    assert checked > 300


def test_ds2_wilson_refuses_two_loops(fine_sphere):
    c = fine_sphere
    first = c.boundary_bits(2, 0)
    near = c.closure([(2, 0)])
    far = next(
        cell for cell in range(1, c.n_cells(2))
        if not c.closure([(2, cell)]) & near
    )
    l = Chain(c, 1, first ^ c.boundary_bits(2, far))
    assert len(_loop_components(c, l)) == 2
    with pytest.raises(ValueError):
        ds2_wilson_data(c, l, Chain.empty(c, 1))


def test_ds2_wilson_data_runs_no_elimination(monkeypatch):
    # the sphere check is connectivity and chi, so no call eliminates,
    # the first one included
    c = dual_of_triangulation(barycentric_subdivision(simplex_boundary(2)))
    c.meta["generic_validated"] = True
    l = Chain(c, 1, c.boundary_bits(2, 0))
    calls = []
    forward = f2._forward
    monkeypatch.setattr(f2, "_forward", lambda rows: calls.append(rows) or forward(rows))
    first = ds2_wilson_data(c, l, Chain.empty(c, 1))
    assert ds2_wilson_data(c, l, Chain.empty(c, 1)) == first
    assert first.phase == MINUS_ONE
    assert calls == []


def test_ds2_wilson_figure_instance(fine_sphere):
    """A configuration with four crossing points and linking number one gives
    (-1) * i^4 * (-1) = +1."""
    c = fine_sphere
    rng = random.Random(3)
    from gdslab.operators import random_sparse_cycle

    found = None
    for _ in range(3000):
        l = random_sparse_cycle(c, rng, max_cells=4)
        alpha = random_sparse_cycle(c, rng, max_cells=4)
        if l.bits == 0 or len(_loop_components(c, l)) != 1:
            continue
        data = ds2_wilson_data(c, l, alpha)
        if data.endpoint_count == 4 and data.link == 1:
            found = data
            break
    assert found is not None
    assert found.phase == ONE


def test_interleave_parity_disk_independence():
    from gdslab.operators import interleave_parity

    rng = random.Random(4)
    for _ in range(200):
        n = rng.choice((4, 6, 8, 10))
        positions = rng.sample(range(40), n)
        rng.shuffle(positions)
        pairs = [
            (positions[2 * i], positions[2 * i + 1]) for i in range(n // 2)
        ]
        base = interleave_parity(pairs)
        # swapping endpoint order or relisting pairs changes nothing
        assert interleave_parity([(b, a) for a, b in pairs]) == base
        assert interleave_parity(list(reversed(pairs))) == base
        # reflecting the circle (viewing from the other disk) changes nothing
        top = max(positions)
        reflected = [(top - a, top - b) for a, b in pairs]
        assert interleave_parity(reflected) == base


def test_ds2_wilson_guards(sphere2, torus2, fine_sphere):
    loop = Chain(sphere2, 1, sphere2.boundary_bits(2, 0))
    with pytest.raises(ValueError):
        ds2_wilson_sign(torus2, loop, Chain.empty(torus2, 1))  # not a sphere
    with pytest.raises(ValueError):
        ds2_wilson_sign(sphere2, Chain.empty(sphere2, 1), loop)  # empty support
    # an honestly two-component support is rejected
    c = fine_sphere
    two = None
    for i in range(c.n_cells(2)):
        for j in range(i + 1, c.n_cells(2)):
            a = Chain(c, 1, c.boundary_bits(2, i))
            b = Chain(c, 1, c.boundary_bits(2, j))
            if not (a.closure() & b.closure()):
                two = a ^ b
                break
        if two:
            break
    assert two is not None
    with pytest.raises(ValueError):
        ds2_wilson_sign(c, two, Chain.empty(c, 1))


def test_dual_wilson_loops(torus2):
    h_cells, v_cells = torus_dual_loops(torus2)
    reps = sector_reps(torus2).reps
    h = DualLoop(h_cells, closed=True)
    v = DualLoop(v_cells, closed=True)
    assert not is_dual_nullhomologous(torus2, h)
    assert not is_dual_nullhomologous(torus2, v)
    patterns = {
        tuple(dual_wilson_phase(torus2, loop, r) for r in reps)
        for loop in (h, v)
    }
    assert len(patterns) == 2  # the two loops separate sectors differently
    elem = DualLoop(torus2.cofaces(0, 0), closed=True)
    assert is_dual_nullhomologous(torus2, elem)
    rng = random.Random(6)
    for _ in range(30):
        s = random_cycle(torus2, rng)
        assert dual_wilson_phase(torus2, elem, s) == 1


def span_nullhomologous(c, loop):
    """The construction the cycle-basis test replaced: the crossing chain in
    the span of the coface triples of the (d-2)-cells."""
    triples = [c.coboundary_bits(c.dim - 2, e) for e in range(c.n_cells(c.dim - 2))]
    cols = Subspace.from_vectors(c.n_cells(c.dim - 1), triples)
    return cols.contains(Chain.from_cells(c, c.dim - 1, loop.cells).bits)


def test_dual_nullhomologous_matches_span_oracle_on_torus_loops(torus2):
    h_cells, v_cells = torus_dual_loops(torus2)
    elem = torus2.cofaces(0, 0)
    for cells, bounds in ((h_cells, False), (v_cells, False), (elem, True)):
        loop = DualLoop(cells, closed=True)
        assert is_dual_nullhomologous(torus2, loop) == span_nullhomologous(torus2, loop) == bounds


@pytest.mark.parametrize("spec", [("torus", 2, 3), ("sphere", 2), ("klein",), ("tP", 3),
                                  ("torus", 3, 3)])
def test_dual_nullhomologous_matches_span_oracle_on_random_sets(spec):
    c = builtin_manifold(*spec)
    rng = random.Random(9)
    n_ridges, n_faces = c.n_cells(c.dim - 2), c.n_cells(c.dim - 1)
    seen = set()
    for _ in range(60):
        # a sum of coface triples, half the time with random cells added
        bits = 0
        for e in rng.sample(range(n_ridges), rng.randint(0, min(n_ridges, 6))):
            bits ^= c.coboundary_bits(c.dim - 2, e)
        if rng.random() < 0.5:
            for f in rng.sample(range(n_faces), rng.randint(1, min(n_faces, 4))):
                bits ^= 1 << f
        loop = DualLoop(tuple(_set_bits(bits)), closed=True)
        got = is_dual_nullhomologous(c, loop)
        assert got == span_nullhomologous(c, loop)
        seen.add(got)
    assert seen == {True, False}


def test_dual_wilson_noncycle_state(torus2):
    elem = DualLoop(torus2.cofaces(0, 0), closed=True)
    crossed = elem.cells[0]
    single = Chain.from_cells(torus2, 1, [crossed])
    assert dual_wilson_phase(torus2, elem, single) == -1


def test_dual_loop_adjacency_validated(torus2):
    # two far-apart cells do not form a dual walk
    far = None
    for e in range(torus2.n_cells(1)):
        if not (
            set(torus2.cofaces(1, 0)) & set(torus2.cofaces(1, e))
        ):
            far = e
            break
    assert far is not None
    with pytest.raises(ValueError):
        dual_wilson_phase(torus2, DualLoop((0, far), closed=True), Chain.empty(torus2, 1))


def test_open_arc_excitations(torus2, voronoi3):
    for c in (torus2, voronoi3):
        reps = sector_reps(c).reps
        f0 = 0
        arc = DualLoop((f0,), closed=False)
        report = open_dual_arc_excite(c, arc, reps)
        assert len(report.violated_cells) == 2
        assert report.violated_cells == frozenset(c.cofaces(c.dim - 1, f0))
    with pytest.raises(ValueError):
        open_dual_arc_excite(torus2, DualLoop((0,), closed=True), [])


def test_homologous_arcs_same_excitation(torus2):
    # two arcs between the same endpoint cells differing by a null loop
    elem = list(torus2.cofaces(0, 0))
    reps = sector_reps(torus2).reps
    arc1 = DualLoop((elem[0],), closed=False)
    arc2 = DualLoop((elem[1], elem[2]), closed=False)
    r1 = open_dual_arc_excite(torus2, arc1, reps)
    r2 = open_dual_arc_excite(torus2, arc2, reps)
    assert r1.violated_cells == r2.violated_cells
    assert r1.sector_phases == r2.sector_phases


def test_open_balloon_invariance(sphere4):
    from gdslab.operators import random_sparse_cycle

    rng = random.Random(7)
    reps = sector_reps(sphere4).reps
    count = 0
    for _ in range(3000):
        # a disk-like open support: one cell boundary with a face removed
        cell = rng.randrange(sphere4.n_cells(4))
        cells = list(Chain(sphere4, 3, sphere4.boundary_bits(4, cell)).cells())
        rng.shuffle(cells)
        open_support = Chain.from_cells(sphere4, 3, cells[:-1])
        if open_support.boundary().bits == 0:
            continue
        alpha = random_sparse_cycle(sphere4, rng, reps=reps)
        balloon = Balloon(open_support, closed=False)
        try:
            out, phase, violated = open_balloon_apply(sphere4, balloon, alpha)
            out2, phase2, _ = open_balloon_apply(
                sphere4, balloon, alpha, conjugate=True
            )
        except TangentialOverlapError:
            continue
        assert phase == phase2           # i and -i give the same operator
        assert out.bits == out2.bits == (alpha.bits ^ open_support.bits)
        assert violated == frozenset(open_support.boundary().cells())
        assert frozenset(hplus_violations(sphere4, out)) == violated
        count += 1
        if count >= 100:
            break
    assert count >= 100


def test_open_balloon_guards(sphere4, torus3):
    bubble = Chain(sphere4, 3, sphere4.boundary_bits(4, 0))
    with pytest.raises(ValueError):
        open_balloon_apply(sphere4, Balloon(bubble, True), Chain.empty(sphere4, 3))
    with pytest.raises(ValueError):
        open_balloon_apply(
            torus3,
            Balloon(Chain.from_cells(torus3, 2, [0]), closed=False),
            Chain.empty(torus3, 2),
        )


def test_open_balloon_rejects_non_embedded_support(sphere4):
    # two 3-cells whose closures meet in cells but share no 2-cell touch
    # tangentially, so their union is not embedded
    def tangent(a, b):
        shared = sphere4.closure([(3, a)]) & sphere4.closure([(3, b)])
        return shared and not set(sphere4.faces(3, a)) & set(sphere4.faces(3, b))

    a, b = next(
        (a, b) for a in range(15) for b in range(a + 1, 15) if tangent(a, b)
    )
    support = Balloon(Chain.from_cells(sphere4, 3, [a, b]), closed=False)
    with pytest.raises(TangentialOverlapError, match="open balloon support is not embedded"):
        open_balloon_apply(sphere4, support, Chain.empty(sphere4, 3))


def test_balloon_dual_loop_commutation(torus2):
    rng = random.Random(8)
    h_cells, _ = torus_dual_loops(torus2)
    loop = DualLoop(h_cells, closed=True)
    reps = sector_reps(torus2).reps
    for _ in range(30):
        balloon, alpha = sample_clean_pair(torus2, rng, reps)
        sign = balloon_dual_loop_commutator(torus2, balloon, loop, alpha)
        parity = sum(1 for f in loop.cells if balloon.support.contains(f)) % 2
        assert sign == (-1) ** parity
