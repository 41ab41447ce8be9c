"""Face-poset machinery: duals, validation, subcomplexes, persistence."""

import random

import pytest

from gdslab.complexes import (
    CellComplex,
    Chain,
    Triangulation,
    closed_subcomplex,
    dual_of_triangulation,
    resolve_union,
    subset_boundary_manifold_check,
    validate_generic,
)
from gdslab.manifolds import (
    freudenthal_torus,
    projective_plane,
    simplex_boundary,
    square_grid_torus,
)


def test_tetrahedron_dual_counts(sphere2):
    assert sphere2.cell_counts == (4, 6, 4)
    for v in range(sphere2.n_cells(0)):
        assert len(sphere2.cofaces(0, v)) == 3


def test_simplex5_dual_counts(sphere4):
    assert sphere4.cell_counts == (6, 15, 20, 15, 6)
    assert sphere4.euler_characteristic() == 2


def test_rp2_dual_chi(rp2):
    assert rp2.euler_characteristic() == 1


def test_dual_preserves_euler_characteristic():
    for t in (projective_plane(), simplex_boundary(2), freudenthal_torus(2, 3)):
        dual = dual_of_triangulation(t)
        assert dual.euler_characteristic() == t.euler_characteristic()


def test_dual_rejects_non_pseudomanifold():
    # two triangles sharing an edge, open boundary
    t = Triangulation(2, [(0, 1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        dual_of_triangulation(t)


def test_triangulation_validate_flags_disconnected_link():
    # butterfly: two triangles joined at one vertex
    t = Triangulation(2, [(0, 1, 2), (0, 3, 4), (1, 2, 5), (3, 4, 5)])
    assert t.validate()  # not a closed surface


def test_validate_generic_passes_builtins(sphere2, torus2, torus3):
    for c in (sphere2, torus2, torus3):
        assert validate_generic(c).passed


def test_validate_generic_fails_square_lattice():
    report = validate_generic(square_grid_torus(3))
    assert not report.passed
    assert any("0-cell" in v for v in report.violations)


def test_boundary_sphere_of_surface_cell(sphere2):
    ring = sphere2.boundary_sphere(0)
    assert ring.dim == 1
    assert ring.euler_characteristic() == 0
    assert ring.n_cells(0) == ring.n_cells(1)


def test_boundary_sphere_of_4_cell(sphere4):
    s3 = sphere4.boundary_sphere(0)
    assert s3.dim == 3
    assert s3.euler_characteristic() == 0


def test_boundary_sphere_heritability(torus3, voronoi3):
    from gdslab.homology import betti

    for c in (torus3, voronoi3):
        sphere = c.boundary_sphere(0)
        assert validate_generic(sphere).passed
        assert sphere.euler_characteristic() == 2  # 2-sphere
        assert betti(sphere).b == (1, 0, 1)


def test_closed_subcomplex_examples(sphere2):
    empty = closed_subcomplex(sphere2, Chain.empty(sphere2, 1))
    assert empty.euler_characteristic() == 0
    one_edge = closed_subcomplex(sphere2, Chain.from_cells(sphere2, 1, [0]))
    assert one_edge.euler_characteristic() == 1
    assert one_edge.cell_counts == (2, 1)
    everything = closed_subcomplex(
        sphere2, Chain.from_cells(sphere2, 2, range(sphere2.n_cells(2)))
    )
    assert everything.cell_counts == sphere2.cell_counts


def test_boundary_of_boundary_vanishes(torus3, voronoi3):
    for c in (torus3, voronoi3):
        for k in range(2, c.dim + 1):
            prod = c.incidence(k).matmul(c.incidence(k - 1))
            assert not any(prod.data)


def test_chain_boundary_and_cycles(torus2):
    b = Chain(torus2, 1, torus2.boundary_bits(2, 0))
    assert b.is_cycle()
    single = Chain.from_cells(torus2, 1, [0])
    assert single.boundary().count() == 2


def test_cycle_cells_meet_ridges_evenly(torus3):
    rng = random.Random(5)
    from gdslab.model import random_cycle

    for _ in range(20):
        cyc = random_cycle(torus3, rng)
        bits = cyc.bits
        for e in range(torus3.n_cells(1)):
            count = sum(1 for f in torus3.cofaces(1, e) if (bits >> f) & 1)
            assert count % 2 == 0


def test_complex_file_roundtrip(tmp_path, torus2, voronoi2):
    for i, c in enumerate((torus2, voronoi2)):
        path = tmp_path / f"c{i}.cplx"
        c.save(str(path))
        again = CellComplex.load(str(path))
        assert again == c
        again.save(str(path) + ".2")
        assert open(path).read() == open(str(path) + ".2").read()


def test_triangulation_file_roundtrip(tmp_path):
    t = projective_plane()
    path = tmp_path / "rp2.tri"
    t.save(str(path))
    assert Triangulation.load(str(path)) == t


def test_triangulation_file_comments(tmp_path):
    path = tmp_path / "c.tri"
    path.write_text("# comment\ndim 2\ns 0 1 2\ns 0 1 3\ns 0 2 3\ns 1 2 3\n")
    t = Triangulation.load(str(path))
    assert t.dim == 2 and len(t.simplices) == 4


def test_resolve_union_plain_cycle_matches_closure(torus3):
    b = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    resolved = resolve_union(torus3, 2, b.cells())
    closure = b.closure()
    counts = [0] * 3
    for k, _ in closure:
        counts[k] += 1
    assert list(resolved.cell_counts) == counts
    assert resolved.euler_characteristic() == 2
    # Golden face tables: sheet numbering follows the union-find roots.
    assert resolved._faces[0] == [()] * 24
    assert resolved._faces[1] == [
        (0, 1), (2, 3), (2, 4), (0, 4), (1, 5), (3, 5), (6, 7), (8, 9), (8, 10),
        (6, 10), (7, 11), (9, 11), (12, 13), (6, 14), (12, 14), (13, 15), (7, 15),
        (0, 12), (1, 13), (16, 17), (16, 18), (2, 18), (3, 19), (17, 19), (8, 16),
        (9, 17), (18, 20), (10, 21), (20, 21), (4, 20), (14, 21), (15, 22), (5, 23),
        (22, 23), (11, 22), (19, 23),
    ]
    assert resolved._faces[2] == [
        (0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11), (6, 12, 13, 14, 15, 16),
        (0, 12, 17, 18), (1, 19, 20, 21, 22, 23), (7, 19, 24, 25),
        (8, 20, 24, 26, 27, 28), (2, 21, 26, 29), (9, 13, 27, 30),
        (3, 14, 17, 28, 29, 30), (4, 15, 18, 31, 32, 33), (10, 16, 31, 34),
        (5, 22, 32, 35), (11, 23, 25, 33, 34, 35),
    ]
    assert resolved.meta["source_cells"] == [(2, i) for i in range(14)]


def test_resolve_union_splits_tangent_wedges():
    # two squares of a 3x3 grid torus touching only at a corner
    sq = square_grid_torus(3)
    cells = [0, 4]  # squares (0,0) and (1,1) share exactly one vertex
    resolved = resolve_union(sq, 2, cells)
    assert resolved.n_cells(2) == 2
    # the shared corner is duplicated, one copy per wedge
    assert resolved.euler_characteristic() == 2
    assert resolved._faces == [
        [()] * 8,
        [(0, 2), (1, 3), (4, 6), (5, 7), (0, 1), (2, 3), (4, 5), (6, 7)],
        [(0, 1, 4, 5), (2, 3, 6, 7)],
    ]
    assert resolved.meta["source_cells"] == [(2, 0), (2, 4)]


def test_resolve_union_numbers_sheets_by_union_find_root():
    # two fans of two triangles pinched at vertex 0: fan A is faces {0, 3},
    # fan B is faces {1, 2}, so the sheet order at the pinch follows the roots
    c = CellComplex(2, [
        [()] * 7,
        [(0, 1), (1, 2), (0, 2), (2, 3), (0, 3), (0, 4), (4, 5), (0, 5), (5, 6), (0, 6)],
        [(0, 1, 2), (5, 6, 7), (7, 8, 9), (2, 3, 4)],
    ])
    resolved = resolve_union(c, 2, range(4))
    assert resolved._faces == [
        [()] * 8,
        [(0, 2), (2, 3), (0, 3), (3, 4), (0, 4), (1, 5), (5, 6), (1, 6), (6, 7), (1, 7)],
        [(0, 1, 2), (5, 6, 7), (7, 8, 9), (2, 3, 4)],
    ]


def test_subset_boundary_single_cell(voronoi2, voronoi3):
    assert subset_boundary_manifold_check(voronoi2, [0])
    assert subset_boundary_manifold_check(voronoi3, [0])


def test_subset_boundary_square_grid_counterexample():
    sq = square_grid_torus(2)
    assert not subset_boundary_manifold_check(sq, [0, 3])
    assert subset_boundary_manifold_check(sq, [0])


def test_subset_boundary_random_voronoi(voronoi2, voronoi3):
    rng = random.Random(9)
    for c in (voronoi2, voronoi3):
        n = c.n_cells(c.dim)
        for _ in range(50):
            subset = rng.sample(range(n), rng.randint(1, n - 1))
            assert subset_boundary_manifold_check(c, subset)
