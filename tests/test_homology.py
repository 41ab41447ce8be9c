"""Betti numbers, Euler additivity, semicharacteristic, sectors, sides."""

import random

import pytest

from gdslab import f2, homology
from gdslab.complexes import CellComplex, Chain
from gdslab.cli import build_manifold
from gdslab.f2 import F2Matrix, Subspace, in_span, reduce_by_rref
from gdslab.homology import (
    betti,
    betti_of_cells,
    bounding_cells,
    homology_sector_reps,
    semicharacteristic,
    semicharacteristic_of_cells,
    two_sidedness_d2,
    _loop_components,
    cycle_space_basis,
)
from gdslab.manifolds import builtin_manifold
from gdslab.model import random_cycle, sector_reps

from conftest import (
    ORACLE_SPECS,
    SHIPPED_COMPLEXES,
    boundary_space,
    dense_incidence,
    masked_kernel_generators,
    reference_betti,
    reference_bounding_cells,
    reference_nullspace,
    reference_rref,
)


def test_classical_betti_vectors(torus2, klein, sphere4, torus3, rp2):
    assert betti(torus2).b == (1, 2, 1)
    assert betti(klein).b == (1, 2, 1)
    assert betti(sphere4).b == (1, 0, 0, 0, 1)
    assert betti(torus3).b == (1, 3, 3, 1)
    assert betti(rp2).b == (1, 1, 1)


def test_betti_vector_iterates_its_numbers(sphere2):
    b = betti(sphere2)
    assert list(b) == [1, 0, 1]
    assert len(b) == 3
    assert b[3] == 0  # past the top dimension


def test_betti_alternating_sum_is_chi(torus3, voronoi2):
    for c in (torus3, voronoi2):
        assert betti(c).chi == c.euler_characteristic()


def test_euler_char_additivity_on_random_subcomplexes(torus2):
    rng = random.Random(4)
    n = torus2.n_cells(2)
    for _ in range(40):
        a_cells = rng.sample(range(n), rng.randint(1, n))
        b_cells = rng.sample(range(n), rng.randint(1, n))
        cl_a = torus2.closure((2, i) for i in a_cells)
        cl_b = torus2.closure((2, i) for i in b_cells)
        chi = torus2.chi_of_cells
        lhs = chi(cl_a | cl_b) + chi(cl_a & cl_b)
        rhs = chi(cl_a) + chi(cl_b)
        assert lhs == rhs


def test_semicharacteristic_circle(sphere2):
    ring = sphere2.boundary_sphere(0)
    assert semicharacteristic(betti(ring), k=0, start=0) == 1


def test_semicharacteristic_3_manifolds(sphere3, torus3):
    # b0 + b1 of the 3-sphere is 1; of the 3-torus it is 1 + 3, even
    assert semicharacteristic(betti(sphere3), k=1, start=0) == 1
    assert semicharacteristic(betti(torus3), k=1, start=0) == 0
    assert semicharacteristic(betti(torus3), k=1, start=1) == 1


def test_semicharacteristic_of_embedded_3_sphere(sphere4):
    bubble = Chain(sphere4, 3, sphere4.boundary_bits(4, 0))
    assert semicharacteristic(betti_of_cells(sphere4, bubble.closure()), k=1) == 1
    assert betti_of_cells(sphere4, bubble.closure()).b == (1, 0, 0, 1)


def semicharacteristic_chains(c, rng, count):
    """The empty (d-1)-chain and `count` random ones. A third are uniform
    random cycles, where the complex has under 1000 (d-1)-cells, and sums of
    one to four top-cell boundaries elsewhere; a third are a random class
    representative plus such a sum; a third are random sets of up to 40
    cells, most of them no cycle."""
    d, n = c.dim, c.n_cells(c.dim - 1)
    reps = sector_reps(c).reps
    chains = [Chain.empty(c, d - 1)]
    for i in range(count):
        if i % 3 == 2:
            chains.append(Chain.from_cells(c, d - 1, rng.sample(range(n), rng.randint(1, min(n, 40)))))
            continue
        if i % 3 == 0 and n < 1000:
            chains.append(random_cycle(c, rng))
            continue
        bits = rng.choice(reps).bits if i % 3 else 0
        for t in rng.sample(range(c.n_cells(d)), rng.randint(1, 4)):
            bits ^= c.boundary_bits(d, t)
        chains.append(Chain(c, d - 1, bits))
    return chains


@pytest.mark.parametrize("spec", ["sphere:2", "sphere:4", "sphere:6", "klein", "tP:3", "genus:2", "torus:4:3"])
def test_semicharacteristic_of_cells_matches_the_betti_oracle(spec):
    c = build_manifold(spec, None, None)
    chains = semicharacteristic_chains(c, random.Random(41), 150)
    assert any(not e.is_cycle() for e in chains) and any(e.bits and e.is_cycle() for e in chains)
    for e in chains:
        cells = [(e.dim, i) for i in e.cells()]
        b = betti_of_cells(c, cells)
        for k in range(c.dim):
            for start in (0, 1):
                got = semicharacteristic_of_cells(c, cells, k, start)
                assert got == semicharacteristic(b, k, start), (e.bits, k, start)


def test_semicharacteristic_of_cells_reads_cells_of_any_dimension(sphere4):
    bubble = Chain(sphere4, 3, sphere4.boundary_bits(4, 0))
    # the closure of the bubble is an embedded 3-sphere, b = 1 0 0 1
    for cells in (bubble.closure(), [(3, i) for i in bubble.cells()]):
        assert [semicharacteristic_of_cells(sphere4, cells, k, 0) for k in range(4)] == [1, 1, 1, 0]
        assert [semicharacteristic_of_cells(sphere4, cells, k, 1) for k in range(4)] == [0, 0, 0, 1]
    assert semicharacteristic_of_cells(sphere4, [], 3, 0) == 0
    with pytest.raises(ValueError, match="^start must be 0 or 1$"):
        semicharacteristic_of_cells(sphere4, [], 1, 2)


def test_betti_of_disjoint_union_adds(torus3):
    b1 = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    # find a second cell whose boundary shares nothing with the first
    other = None
    for cell in range(1, torus3.n_cells(3)):
        b2 = Chain(torus3, 2, torus3.boundary_bits(3, cell))
        if not (b1.closure() & b2.closure()):
            other = b2
            break
    assert other is not None
    union = betti_of_cells(torus3, b1.closure() | other.closure())
    single = betti_of_cells(torus3, b1.closure())
    assert union.b[0] == 2 * single.b[0]
    assert union.chi == 2 * single.chi


def test_boundary_spaces_give_the_ranks():
    c = builtin_manifold("torus", 3, 3)
    for p in range(c.dim + 1):
        space = boundary_space(c, p)
        assert space.dim == (dense_incidence(c, p + 1).rank() if p < c.dim else 0)
        assert list(space.basis) == (
            dense_incidence(c, p + 1).row_space_basis() if p < c.dim else []
        )
    reps = [r.bits for r in homology_sector_reps(c, 2).reps]
    assert betti(c).b == (1, 3, 3, 1)
    assert in_span(c.boundary_bits(3, 0), boundary_space(c, 2))
    assert not in_span(reps[1], boundary_space(c, 2))


@pytest.mark.parametrize("spec", SHIPPED_COMPLEXES + ["torus:3:5", "torus:4:3", "square-grid:3"])
def test_betti_matches_rref_oracle(spec):
    c = build_manifold(spec, 60, 1)
    assert betti(c).b == reference_betti(c)


def test_betti_of_voronoi3_matches_rref_oracle(voronoi3):
    assert betti(voronoi3).b == reference_betti(voronoi3)


@pytest.mark.parametrize("spec", [("torus", 3, 3), ("sphere", 4), ("klein",)])
def test_betti_of_cells_matches_rref_oracle_on_random_closures(spec):
    c = builtin_manifold(*spec)
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(0, c.dim)
        n = c.n_cells(k)
        cells = c.closure((k, i) for i in rng.sample(range(n), rng.randint(1, min(n, 12))))
        assert betti_of_cells(c, cells).b == reference_betti(c.subcomplex(cells))


@pytest.mark.parametrize("spec", [("torus", 3, 3), ("sphere", 4), ("klein",)])
def test_betti_of_cells_reads_the_closure_of_an_unclosed_set(spec):
    c = builtin_manifold(*spec)
    rng = random.Random(6)
    for _ in range(40):
        dims = rng.sample(range(c.dim + 1), rng.randint(1, 2))
        cells = [(k, i) for k in dims
                 for i in rng.sample(range(c.n_cells(k)), rng.randint(1, min(c.n_cells(k), 8)))]
        assert betti_of_cells(c, cells) == betti_of_cells(c, c.closure(cells))
        assert c.chi_of_cells(cells) == betti_of_cells(c, cells).chi


@pytest.mark.parametrize("faces, expected", [
    ([[()], [(0,)]], (0, 0)),  # a 1-cell with one face
    ([[(), ()], [(0, 1, 1)]], (1, 0)),  # a 1-cell with three faces
    ([[(), (), ()], [(0, 1, 2)]], (2, 0)),  # three distinct faces: not a graph
    ([[()], [(0, 0)]], (1, 1)),  # a loop edge
    ([[()] * 4, [(0, 1), (2, 3)]], (2, 0)),  # two disjoint edges
    ([[()], [], []], (1, 0, 0)),  # top dimensions with no cells
])
def test_betti_of_hand_built_complexes(faces, expected):
    c = CellComplex(len(faces) - 1, faces)
    assert betti(c).b == expected == reference_betti(c)
    cells = [(k, i) for k in range(c.dim + 1) for i in range(c.n_cells(k))]
    top = max(k for k, _ in cells)
    assert betti_of_cells(c, cells).b == expected[: top + 1]


def test_betti_eliminates_boundary_2_only(monkeypatch):
    # the top two ranks come from the propagation and rank boundary_1 from
    # the union-find, so only d >= 4 has a forward pass, the one of
    # boundary_2, and betti never takes an RREF
    calls = []
    forward = f2._forward
    monkeypatch.setattr(f2, "_forward", lambda rows: calls.append(len(rows)) or forward(rows))
    monkeypatch.setattr(F2Matrix, "rref", None)
    for spec, expected in [(("tP", 300), (1, 300, 1)), (("torus", 3, 5), (1, 3, 3, 1)),
                           (("torus", 4, 3), (1, 4, 6, 4, 1))]:
        c = builtin_manifold(*spec)
        calls.clear()
        assert betti(c).b == expected
        assert calls == ([c.n_cells(2)] if c.dim == 4 else [])


def test_sector_counts(sphere2, torus2):
    assert homology_sector_reps(sphere2, 1).class_count == 1
    assert homology_sector_reps(torus2, 1).class_count == 4
    t3 = builtin_manifold("tP", 3)
    assert homology_sector_reps(t3, 1).class_count == 8


def test_sector_reps_are_canonical_cycles(torus2):
    sectors = homology_sector_reps(torus2, 1)
    assert sectors.reps[0].bits == 0
    seen = set()
    for rep in sectors.reps:
        assert rep.is_cycle()
        assert reduce_by_rref(rep.bits, boundary_space(torus2, 1)) == rep.bits
        seen.add(rep.bits)
    assert len(seen) == 4
    for rep in sectors.reps[1:]:
        assert not in_span(rep.bits, boundary_space(torus2, 1))


def list_scan_reduce(vec, rref_rows):
    """Reduce vec against RREF rows by testing every row's pivot in turn."""
    for row in rref_rows:
        if vec & row & -row:
            vec ^= row
    return vec


def reference_sector_bits(c, p):
    """Sector representatives the slow way: the homology generators picked
    from the dense reference cycle basis by rebuilding the row space after
    each one, and every sum of them reduced against the boundary rows from
    scratch, by list scans only."""
    bound_rref = dense_incidence(c, p + 1).row_space_basis() if p < c.dim else []
    homology_basis = []
    seen_rref = list(bound_rref)
    # at p = 0 the transposed incidence has no rows: the unit vectors
    for z in reference_nullspace(dense_incidence(c, p).transpose()):
        if list_scan_reduce(z, seen_rref):
            homology_basis.append(z)
            seen_rref = F2Matrix(
                len(seen_rref) + 1, c.n_cells(p), seen_rref + [z]
            ).row_space_basis()
    reps = []
    for bits in range(1 << len(homology_basis)):
        z = 0
        for i, g in enumerate(homology_basis):
            if (bits >> i) & 1:
                z ^= g
        reps.append(list_scan_reduce(z, bound_rref))
    return sorted(reps, key=lambda b: (b.bit_count(), b))


@pytest.mark.parametrize("spec", [
    ("sphere", 2), ("sphere", 3), ("torus", 2, 3), ("torus", 3, 3), ("klein",),
    ("genus", 2), ("tP", 1), ("tP", 2), ("tP", 3), ("tP", 4), ("tP", 5), ("tP", 6),
    ("torus-voronoi:2", 60, 1), ("torus-voronoi:3", 30, 4),
])
def test_sector_reps_match_per_sector_reduction(spec):
    if spec[0].startswith("torus-voronoi"):
        c = build_manifold(*spec)
    else:
        c = builtin_manifold(*spec)
    p = c.dim - 1
    got = [r.bits for r in homology_sector_reps(c, p).reps]
    assert got == reference_sector_bits(c, p)


def rref_roots(c):
    """The free columns of the RREF of the coboundary rows of the (d-1)-cells:
    the top cells that the RREF filler leaves out."""
    _, pivots = reference_rref(dense_incidence(c, c.dim).transpose())
    return sorted(set(range(c.n_cells(c.dim))) - set(pivots))


def non_root_boundaries(c):
    """The boundary rows of the top cells that are no RREF root, in id order."""
    roots = rref_roots(c)
    return tuple(row for t, row in enumerate(dense_incidence(c, c.dim).data) if t not in roots)


@pytest.mark.parametrize("spec", SHIPPED_COMPLEXES)
def test_class_generators_are_independent_pivot_free_cycles(spec):
    c = build_manifold(spec, 60, 1)
    p = c.dim - 1
    bounds = boundary_space(c, p)
    basis = cycle_space_basis(c, p)
    head = non_root_boundaries(c)
    assert len(head) == bounds.dim
    assert basis[:len(head)] == head
    generators = basis[len(head):]
    assert generators == masked_kernel_generators(c, p)
    assert len(generators) == betti(c)[p]
    n = c.n_cells(p)
    assert Subspace.from_vectors(n, basis) == Subspace.from_vectors(n, bounds.basis + generators)
    _, ref_pivots = reference_rref(dense_incidence(c, p + 1))
    pivot_bits = sum(1 << q for q in ref_pivots)
    boundary = dense_incidence(c, p).transpose()
    for g in generators:
        assert boundary.matvec(g) == 0
        assert g & pivot_bits == 0
    _, pivots = reference_rref(F2Matrix(len(generators), c.n_cells(p), generators))
    assert len(pivots) == len(generators)


def relabelled(c, seed):
    """c with the cell ids of every dimension permuted at random."""
    rng = random.Random(seed)
    perms = []
    for k in range(c.dim + 1):
        perm = list(range(c.n_cells(k)))
        rng.shuffle(perm)
        perms.append(perm)
    faces = []
    for k in range(c.dim + 1):
        table = [()] * c.n_cells(k)
        for i in range(c.n_cells(k)):
            table[perms[k][i]] = tuple(perms[k - 1][f] for f in c.faces(k, i)) if k else ()
        faces.append(table)
    return CellComplex(c.dim, faces)


def disjoint_union(a, b):
    """The complex with a's cells, then b's, in every dimension."""
    faces = []
    for k in range(a.dim + 1):
        shift = a.n_cells(k - 1) if k else 0
        faces.append([a.faces(k, i) for i in range(a.n_cells(k))]
                     + [tuple(f + shift for f in b.faces(k, i)) for i in range(b.n_cells(k))])
    return CellComplex(a.dim, faces)


def assert_generators_match_oracles(c):
    p = c.dim - 1
    generators = masked_kernel_generators(c, p)
    basis = cycle_space_basis(c, p)
    assert basis == non_root_boundaries(c) + generators
    n, bounds = c.n_cells(p), boundary_space(c, p)
    assert Subspace.from_vectors(n, basis) == Subspace.from_vectors(n, bounds.basis + generators)
    assert [r.bits for r in homology_sector_reps(c, p).reps] == reference_sector_bits(c, p)


@pytest.mark.parametrize("spec", ORACLE_SPECS + ["torus:3:7"])
def test_class_generators_match_the_masked_kernel(spec):
    assert_generators_match_oracles(build_manifold(spec, 60, 1))


def test_class_generators_of_voronoi3_match_the_masked_kernel(voronoi3):
    assert_generators_match_oracles(voronoi3)


def test_class_generators_of_a_disjoint_union_match_the_masked_kernel():
    c = disjoint_union(builtin_manifold("torus", 3, 3), builtin_manifold("sphere", 3))
    assert betti(c).b == (2, 3, 3, 2)
    assert_generators_match_oracles(c)


@pytest.mark.parametrize("spec, seed", [
    (("torus", 3, 3), 0), (("tP", 3), 0), (("torus", 4, 3), 4), (("genus", 2), 1),
])
def test_class_generators_match_the_masked_kernel_with_constraint_ridges(spec, seed):
    # in id order these complexes propagate without a constraint; a random
    # relabelling makes the parameter picks land where some ridge closes
    # with all its cofaces known
    c = relabelled(builtin_manifold(*spec), seed)
    sweep = homology._propagate(c, c.dim - 1)
    assert sweep.constraints
    assert len(homology._solutions(sweep)) < sweep.params
    assert betti(c).b == reference_betti(c)
    assert_generators_match_oracles(c)


def kruskal_forest(c):
    """The (d-1)-cells that join two components of the top cells when they
    are added in id order."""
    root = list(range(c.n_cells(c.dim)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    forest = []
    for e in range(c.n_cells(c.dim - 1)):
        a, b = (find(x) for x in c.cofaces(c.dim - 1, e))
        if a != b:
            root[b] = a
            forest.append(e)
    return forest


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_boundary_pivots_are_the_min_id_spanning_forest(spec):
    c = build_manifold(spec, 60, 1)
    pivots = boundary_space(c, c.dim - 1)._pivot_rows
    assert sorted(pivots) == kruskal_forest(c) == homology._propagate(c, c.dim - 1).forest


def test_boundary_pivots_of_voronoi3_are_the_min_id_spanning_forest(voronoi3):
    pivots = boundary_space(voronoi3, 2)._pivot_rows
    assert sorted(pivots) == kruskal_forest(voronoi3) == homology._propagate(voronoi3, 2).forest


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_forest_roots_are_the_free_columns_of_the_filler_rref(spec):
    c = build_manifold(spec, 60, 1)
    assert sorted(homology._propagate(c, c.dim - 1).roots) == rref_roots(c)


def boundary_of(c, cells):
    bits = 0
    for t in cells:
        bits ^= c.boundary_bits(c.dim, t)
    return Chain(c, c.dim - 1, bits)


def assert_filler_matches_the_rref_filler(c, cell_sets):
    for cells in cell_sets:
        chain = boundary_of(c, cells)
        filler = bounding_cells(c, chain)
        assert filler == reference_bounding_cells(c, chain)
        assert boundary_of(c, filler.cells()) == chain


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_filler_matches_the_rref_filler(spec):
    c = build_manifold(spec, 60, 1)
    top = range(c.n_cells(c.dim))
    rng = random.Random(12)
    drawn = [rng.sample(top, rng.randint(1, len(top))) for _ in range(6)]
    assert_filler_matches_the_rref_filler(c, [[], list(top), [top[-1]]] + drawn)
    for g in masked_kernel_generators(c, c.dim - 1):
        chain = boundary_of(c, rng.sample(top, rng.randint(0, len(top)))) ^ Chain(c, c.dim - 1, g)
        for fill in (bounding_cells, reference_bounding_cells):
            with pytest.raises(ValueError, match="^chain is not a boundary$"):
                fill(c, chain)


def test_filler_of_a_disjoint_union_leaves_each_root_out():
    c = disjoint_union(builtin_manifold("torus", 3, 3), builtin_manifold("sphere", 3))
    first = builtin_manifold("torus", 3, 3).n_cells(3)
    top = range(c.n_cells(3))
    assert rref_roots(c) == [first - 1, len(top) - 1]
    rng = random.Random(13)
    cell_sets = [list(range(first)), list(range(first, len(top))), [first - 1, len(top) - 1]]
    cell_sets += [rng.sample(top, rng.randint(1, len(top))) for _ in range(4)]
    assert_filler_matches_the_rref_filler(c, cell_sets)


def test_ground_degeneracy_runs_no_elimination(monkeypatch, voronoi3):
    from gdslab.model import ground_degeneracy

    def never(*args):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(F2Matrix, "rref", never)
    monkeypatch.setattr(F2Matrix, "nullspace", never)
    monkeypatch.setattr(f2, "_forward", never)
    for c in (builtin_manifold("torus", 3, 5), voronoi3):
        assert ground_degeneracy(c) == 8
        assert not homology._propagate(c, c.dim - 1).constraints


def test_class_generators_need_p_one_below_the_top(torus3, torus2):
    for c in (torus3, torus2):
        for p in range(c.dim + 1):
            if p != c.dim - 1:
                with pytest.raises(ValueError, match=f"p = {c.dim - 1} only"):
                    cycle_space_basis(c, p)
                with pytest.raises(ValueError, match=f"p = {c.dim - 1} only"):
                    homology_sector_reps(c, p)
                with pytest.raises(ValueError, match=f"p = {c.dim - 1} only"):
                    bounding_cells(c, Chain.empty(c, p))


def test_class_generators_need_every_ridge_cell_in_two_top_cells():
    # a disk: one 2-cell on two edges between two vertices, so each edge is
    # a face of one 2-cell only
    c = CellComplex(2, [[(), ()], [(0, 1), (0, 1)], [(0, 1)]])
    message = "^1-cell 0 is not a face of exactly two distinct 2-cells$"
    for fn in (cycle_space_basis, homology_sector_reps):
        with pytest.raises(ValueError, match=message):
            fn(c, 1)
    with pytest.raises(ValueError, match=message):
        bounding_cells(c, Chain(c, 1, 0b11))
    assert betti(c).b == reference_betti(c) == (1, 0, 0)


def test_cycle_basis_does_not_reach_the_sector_guard():
    # random_cycle reads cycle_space_basis; only homology_sector_reps guards
    # the 2^b listing, so gsd on genus:7 still exits 2 (tests/test_cli.py)
    c = builtin_manifold("genus", 7)
    basis = cycle_space_basis(c, 1)
    assert len(basis) == boundary_space(c, 1).dim + 14
    assert random_cycle(c, random.Random(0)).is_cycle()
    with pytest.raises(ValueError, match=r"2\^14 sectors"):
        homology_sector_reps(c, 1)


def test_homology_test_helper(torus2):
    rng = random.Random(8)
    from gdslab.model import random_cycle

    sectors = homology_sector_reps(torus2, 1)
    bounds = boundary_space(torus2, 1)
    for _ in range(20):
        z = random_cycle(torus2, rng)
        idx = [r.bits for r in sectors.reps].index(reduce_by_rref(z.bits, bounds))
        assert in_span((z ^ sectors.reps[idx]).bits, bounds)
    boundary = Chain(torus2, 1, torus2.boundary_bits(2, 0))
    filler = bounding_cells(torus2, boundary)
    assert filler.bits == 1  # the cell itself is the least filler
    assert in_span(boundary.bits, bounds)


def test_rp2_essential_loop_is_one_sided(rp2):
    sectors = homology_sector_reps(rp2, 1)
    essential = [r for r in sectors.reps if r.bits][0]
    report = two_sidedness_d2(rp2, essential)
    assert report.one_sided == (True,)
    assert report.w1_eval == 1


def test_torus_loops_are_two_sided(torus2):
    sectors = homology_sector_reps(torus2, 1)
    for rep in sectors.reps:
        if rep.bits:
            assert two_sidedness_d2(torus2, rep).w1_eval == 0


def test_klein_loop_orientation_characters(klein):
    # the orientation character is onto for a non-orientable surface:
    # half the classes are one-sided
    sectors = homology_sector_reps(klein, 1)
    values = [two_sidedness_d2(klein, r).w1_eval for r in sectors.reps]
    assert sorted(values) == [0, 0, 1, 1]


def test_two_sidedness_guards(torus3, torus2):
    with pytest.raises(ValueError):
        two_sidedness_d2(torus3, Chain.empty(torus3, 2))
    with pytest.raises(ValueError):
        two_sidedness_d2(torus2, Chain.from_cells(torus2, 1, [0]))


@pytest.mark.parametrize("spec", [("sphere", 2), ("klein",), ("genus", 2), ("tP", 3)])
def test_loop_walker_orders_edges_and_vertices(spec):
    c = builtin_manifold(*spec)
    rng = random.Random(21)
    walked = 0
    for _ in range(30):
        e = random_cycle(c, rng)
        loops = _loop_components(c, e)
        assert sorted(x for edges, _ in loops for x in edges) == e.cells()
        assert [edges[0] for edges, _ in loops] == sorted(min(edges) for edges, _ in loops)
        for edges, verts in loops:
            n = len(edges)
            assert len(verts) == n == len(set(edges))
            assert edges[0] == min(edges)
            # walked from faces(1, start)[0] toward faces(1, start)[1]
            assert verts[0] == c.faces(1, edges[0])[1]
            assert verts[-1] == c.faces(1, edges[0])[0]
            for i in range(n):
                shared = set(c.faces(1, edges[i])) & set(c.faces(1, edges[(i + 1) % n]))
                assert verts[i] in shared
            walked += 1
    assert walked > 0


def test_bounding_manifold_chi_even(torus3):
    # boundaries of random top-cell unions have even Euler characteristic
    rng = random.Random(12)
    for _ in range(30):
        cells = rng.sample(range(torus3.n_cells(3)), rng.randint(1, 20))
        bits = 0
        for cell in cells:
            bits ^= torus3.boundary_bits(3, cell)
        chain = Chain(torus3, 2, bits)
        assert chain.euler_characteristic() % 2 == 0
