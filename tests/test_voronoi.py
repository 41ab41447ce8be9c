"""Periodic Voronoi generator and its exact predicates."""

from itertools import combinations, product

import numpy as np
import pytest

from gdslab import voronoi
from gdslab.complexes import CellComplex
from gdslab.homology import betti
from gdslab.voronoi import (
    SCALE,
    GeneralPositionError,
    PointSet,
    in_sphere,
    torus_voronoi,
)


def test_in_sphere_calibration():
    assert in_sphere([(0, 0), (4, 0), (0, 4)], (1, 1)) == 1
    assert in_sphere([(0, 0), (4, 0), (0, 4)], (9, 9)) == -1
    assert in_sphere([(0, 0), (4, 0), (0, 4)], (4, 4)) == 0
    tet = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
    assert in_sphere(tet, (1, 1, 1)) == 1
    assert in_sphere(tet, (4, 4, 0)) == 0
    assert in_sphere(tet, (9, 9, 9)) == -1


def test_in_sphere_degenerate_simplex():
    with pytest.raises(GeneralPositionError):
        in_sphere([(0, 0), (1, 1), (2, 2)], (5, 0))


def test_pointset_guards():
    with pytest.raises(ValueError):
        PointSet(2, ((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        PointSet(2, ((0, 0, 0),))
    with pytest.raises(ValueError):
        PointSet(2, ((SCALE, 0),))
    with pytest.raises(ValueError, match="cannot draw 2 distinct points"):
        PointSet.random(0, 2, 1)  # dimension 0 has one point


def test_two_point_counts_forced_by_topology():
    c = torus_voronoi(2, PointSet.random(2, 2, seed=0))
    assert c.cell_counts == (4, 6, 2)
    assert c.euler_characteristic() == 0
    assert all(len(c.faces(2, i)) == 6 for i in range(2))  # hexagons


def test_25_point_validates_with_torus_homology(voronoi2):
    assert voronoi2.meta["validation_passed"]
    assert voronoi2.euler_characteristic() == 0
    assert betti(voronoi2).b == (1, 2, 1)


def test_3d_voronoi_complex(voronoi3):
    assert voronoi3.meta["validation_passed"]
    assert voronoi3.euler_characteristic() == 0
    assert betti(voronoi3).b == (1, 3, 3, 1)
    for i in range(voronoi3.n_cells(1)):
        assert len(voronoi3.cofaces(1, i)) == 3


def test_3d_8_point_trivalent_edges():
    c = torus_voronoi(3, PointSet.random(3, 8, seed=3))
    for i in range(c.n_cells(1)):
        assert len(c.cofaces(1, i)) == 3


def test_degenerate_square_grid_detected():
    q = SCALE // 4
    ps = PointSet(2, ((q, q), (q, 3 * q), (3 * q, q), (3 * q, 3 * q)))
    with pytest.raises(GeneralPositionError):
        torus_voronoi(2, ps)


def test_validation_sweep_d2():
    for seed in range(20):
        c = torus_voronoi(2, PointSet.random(2, 25, seed=seed))
        assert c.meta["validation_passed"], seed
        assert c.euler_characteristic() == 0


def test_validation_sweep_d3():
    for seed in range(4):
        c = torus_voronoi(3, PointSet.random(3, 14, seed=seed))
        assert c.meta["validation_passed"], seed
        assert c.euler_characteristic() == 0


def test_generator_is_deterministic():
    a = torus_voronoi(2, PointSet.random(2, 10, seed=5))
    b = torus_voronoi(2, PointSet.random(2, 10, seed=5))
    assert a == b


def test_dimension_guard():
    with pytest.raises(ValueError):
        torus_voronoi(4, PointSet.random(4, 5, seed=0))


# (d, n, seed) of every point set the tests and acceptance criteria build
SHIPPED_POINT_SETS = [
    (2, 2, 0), (2, 4, 2), (2, 5, 11), (2, 6, 4), (2, 25, 7), (3, 8, 3), (3, 14, 0),
]


def _patch(points):
    """The 3^d patch as torus_voronoi lays it out: vertices, integer coords."""
    offsets = sorted(product((-1, 0, 1), repeat=points.dim))
    patch = [(pid, off) for pid in range(len(points)) for off in offsets]
    coords = [
        tuple(x + SCALE * o for x, o in zip(points.coords[pid], off))
        for pid, off in patch
    ]
    return patch, coords


def _certify_args(monkeypatch, d, n, seed):
    """Build a complex and return the arguments torus_voronoi gave _certify."""
    calls = []
    real = voronoi._certify

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(voronoi, "_certify", spy)
    torus_voronoi(d, PointSet.random(d, n, seed=seed))
    (args,) = calls
    return args


@pytest.mark.parametrize("d,n,seed", SHIPPED_POINT_SETS)
def test_certified_simplices_match_all_patch_oracle(monkeypatch, d, n, seed):
    # oracle: exact in_sphere of every kept simplex against every patch point
    _, points, patch, _, kept = _certify_args(monkeypatch, d, n, seed)
    layout, coords = _patch(points)
    assert layout == patch
    for patch_ids in kept.values():
        simplex = [coords[i] for i in patch_ids]
        for q, pt in enumerate(coords):
            side = in_sphere(simplex, pt)
            if q in patch_ids:
                assert side == 0
            else:
                assert side == -1, (patch_ids, q)


def _canonical_class(verts):
    """Translation-canonical form of a set of patch vertices: the least
    sorted translate that puts one of them at offset 0."""
    best = None
    for _, shift in verts:
        candidate = tuple(
            sorted(
                (pid, tuple(o - s for o, s in zip(off, shift)))
                for pid, off in verts
            )
        )
        if best is None or candidate < best:
            best = candidate
    return best


def _base_representative(cls):
    """Shift a class so every offset coordinate starts at zero."""
    dim = len(cls[0][1])
    lows = [min(off[i] for _, off in cls) for i in range(dim)]
    return tuple((pid, tuple(o - lo for o, lo in zip(off, lows))) for pid, off in cls)


def _reference_quotient(d, points):
    """The kept simplices and the quotient complex, one tuple class at a
    time: each kept Delaunay simplex and each face is canonicalised by
    `_canonical_class`, tops are numbered in sorted class order and faces
    by first occurrence."""
    patch, coords = _patch(points)
    tri = voronoi.Delaunay(np.asarray(coords, dtype=float) / SCALE)
    kept = {}
    for simplex in tri.simplices:
        verts = [patch[i] for i in simplex]
        if not any(off == (0,) * d for _, off in verts):
            continue
        kept.setdefault(_canonical_class(verts), tuple(int(i) for i in simplex))

    classes = [{} for _ in range(d + 1)]
    for cls in sorted(kept):
        classes[d][cls] = len(classes[d])
    incidences = [[] for _ in range(d + 1)]
    for k in range(d, 0, -1):
        for cls in sorted(classes[k], key=lambda c: classes[k][c]):
            rep = _base_representative(cls)
            for face in combinations(rep, k):
                face_cls = _canonical_class(face)
                if face_cls not in classes[k - 1]:
                    classes[k - 1][face_cls] = len(classes[k - 1])
                incidences[k].append((classes[k][cls], classes[k - 1][face_cls]))

    faces = [[() for _ in classes[d]]]
    for j in range(1, d + 1):
        face_lists = [[] for _ in classes[d - j]]
        for simplex_id, face_id in incidences[d - j + 1]:
            face_lists[face_id].append(simplex_id)
        faces.append([tuple(sorted(fl)) for fl in face_lists])
    return list(kept.values()), CellComplex(d, faces)


@pytest.mark.parametrize(
    "d,n,seed", SHIPPED_POINT_SETS + [(2, 60, 1), (3, 30, 2), (2, 500, 7), (3, 100, 7)]
)
def test_quotient_matches_tuple_oracle(monkeypatch, d, n, seed):
    ref_kept, ref_complex = _reference_quotient(d, PointSet.random(d, n, seed=seed))
    _, _, _, _, kept = _certify_args(monkeypatch, d, n, seed)
    assert list(kept.values()) == ref_kept
    assert torus_voronoi(d, PointSet.random(d, n, seed=seed)) == ref_complex


def _hand_built(points, simplex_coords):
    """_certify arguments for a single kept simplex given by its coords."""
    patch, coords = _patch(points)
    ids = tuple(coords.index(p) for p in simplex_coords)
    coords_arr = np.asarray(coords, dtype=float) / SCALE
    return patch, coords_arr, {tuple(patch[i] for i in ids): ids}


def test_certify_rejects_non_delaunay_simplex():
    q = SCALE // 4
    # (1.5q, 1.5q) lies inside the circumcircle of the other three
    ps = PointSet(2, ((q, q), (3 * q, q), (q, 3 * q), (3 * q // 2, 3 * q // 2)))
    patch, coords_arr, kept = _hand_built(ps, ps.coords[:3])
    with pytest.raises(RuntimeError, match="not Delaunay"):
        voronoi._certify(2, ps, patch, coords_arr, kept)


def test_certify_decides_margin_points_exactly(monkeypatch):
    q, a = SCALE // 4, SCALE // 8
    # circumcircle: centre (q + a, q + a), radius a * sqrt(2); (q + 2a, q + 2a)
    # would be on it, one unit along the tangent puts it just outside, by
    # 2 / (2 a sqrt(2)) units, far inside the kd-tree query margin
    near = (q + 2 * a + 1, q + 2 * a - 1)
    ps = PointSet(2, ((q, q), (q + 2 * a, q), (q, q + 2 * a), near))
    patch, coords_arr, kept = _hand_built(ps, ps.coords[:3])
    seen = []
    real = voronoi.in_sphere

    def counting(simplex, pt):
        side = real(simplex, pt)
        seen.append((tuple(pt), side))
        return side

    monkeypatch.setattr(voronoi, "in_sphere", counting)
    voronoi._certify(2, ps, patch, coords_arr, kept)
    assert seen == [(near, -1)]
