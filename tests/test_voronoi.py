"""Periodic Voronoi generator and its exact predicates."""

import math
from itertools import combinations, product

import numpy as np
import pytest
from scipy.spatial import cKDTree

from gdslab import voronoi
from gdslab.cli import EXIT_INTERNAL, dispatch
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
    assert voronoi2.meta["generic_validated"]
    assert voronoi2.euler_characteristic() == 0
    assert betti(voronoi2).b == (1, 2, 1)


def test_3d_voronoi_complex(voronoi3):
    assert voronoi3.meta["generic_validated"]
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
        assert c.meta["generic_validated"], seed
        assert c.euler_characteristic() == 0


def test_validation_sweep_d3():
    for seed in range(4):
        c = torus_voronoi(3, PointSet.random(3, 14, seed=seed))
        assert c.meta["generic_validated"], seed
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


def _int_coords(points, pv):
    pid, off = pv
    return tuple(x + SCALE * o for x, o in zip(points.coords[pid], off))


def _patch(points):
    """The 3^d patch as torus_voronoi lays it out: vertices, integer coords."""
    offsets = sorted(product((-1, 0, 1), repeat=points.dim))
    patch = [(pid, off) for pid in range(len(points)) for off in offsets]
    return patch, [_int_coords(points, pv) for pv in patch]


def _certify_args(monkeypatch, d, n, seed):
    """Build a complex and return the arguments torus_voronoi gave the
    _certify call that passed, the last one."""
    calls = []
    real = voronoi._certify

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(voronoi, "_certify", spy)
    torus_voronoi(d, PointSet.random(d, n, seed=seed))
    return calls[-1]


@pytest.mark.parametrize("d,n,seed", SHIPPED_POINT_SETS)
def test_certified_simplices_match_all_patch_oracle(monkeypatch, d, n, seed):
    # oracle: exact in_sphere of every kept simplex against every patch point
    _, patch, coords, kept, _ = _certify_args(monkeypatch, d, n, seed)
    layout, oracle_coords = _patch(PointSet.random(d, n, seed=seed))
    assert layout == patch
    assert list(map(tuple, coords.tolist())) == oracle_coords
    for patch_ids in kept.tolist():
        simplex = [oracle_coords[i] for i in patch_ids]
        for q, pt in enumerate(oracle_coords):
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


def _reference_kept(points):
    """The first full-patch Delaunay simplex of each class that touches the
    unit box, in Delaunay order, keyed by `_canonical_class`."""
    patch, coords = _patch(points)
    tri = voronoi.Delaunay(np.asarray(coords, dtype=float) / SCALE)
    kept = {}
    for simplex in tri.simplices:
        verts = [patch[i] for i in simplex]
        if not any(off == (0,) * points.dim for _, off in verts):
            continue
        kept.setdefault(_canonical_class(verts), tuple(int(i) for i in simplex))
    return kept


def _reference_quotient(d, points):
    """The quotient complex, one tuple class at a time: each kept Delaunay
    simplex and each face is canonicalised by `_canonical_class`, tops are
    numbered in sorted class order and faces by first occurrence."""
    kept = _reference_kept(points)
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
    return set(kept), CellComplex(d, faces)


@pytest.mark.parametrize(
    "d,n,seed", SHIPPED_POINT_SETS + [(2, 60, 1), (3, 30, 2), (2, 500, 7), (3, 100, 7)]
)
def test_quotient_matches_tuple_oracle(monkeypatch, d, n, seed):
    ref_classes, ref_complex = _reference_quotient(d, PointSet.random(d, n, seed=seed))
    _, patch, _, kept, _ = _certify_args(monkeypatch, d, n, seed)
    # the margin run keeps other translates in another order, but one per
    # class and the same classes
    classes = [_canonical_class([patch[i] for i in ids]) for ids in kept.tolist()]
    assert len(set(classes)) == len(classes)
    assert set(classes) == ref_classes
    assert torus_voronoi(d, PointSet.random(d, n, seed=seed)) == ref_complex


def _circumcentre_offsets(simplex, orient):
    """Circumcentre minus the first vertex, as integer numerators over den.

    Cramer's rule on 2 (p_i - p_0) . c = |p_i - p_0|^2, with
    den = det(2 (p_i - p_0)) = 2^d * orient.
    """
    p0 = simplex[0]
    edges = [[x - y for x, y in zip(p, p0)] for p in simplex[1:]]
    a = [[2 * x for x in e] for e in edges]
    b = [sum(x * x for x in e) for e in edges]
    num = [
        voronoi._det_bareiss([r[:j] + [bj] + r[j + 1 :] for r, bj in zip(a, b)])
        for j in range(len(p0))
    ]
    return num, (1 << len(p0)) * orient


def _float_sphere(simplex, orient):
    """Float centre and radius of one simplex, in unit-box units."""
    num, den = _circumcentre_offsets(simplex, orient)
    scale = den * SCALE
    centre = [(x * den + c) / scale for x, c in zip(simplex[0], num)]
    return centre, math.sqrt(sum(c * c for c in num) / (scale * scale))


@pytest.mark.parametrize("d,n,seed", SHIPPED_POINT_SETS + [(2, 500, 7), (3, 100, 7)])
def test_batched_circumcentres_match_bareiss_oracle(monkeypatch, d, n, seed):
    _, _, coords, kept, _ = _certify_args(monkeypatch, d, n, seed)
    pts = coords[kept]
    orient, num = voronoi._exact_circumcentres(pts)
    centres, radii = voronoi._rounded_spheres(pts, orient, num)
    simplices = [[tuple(p) for p in simplex] for simplex in pts.tolist()]
    ref_orient = [voronoi._orient_det(s) for s in simplices]
    assert orient.tolist() == ref_orient
    assert num.tolist() == [_circumcentre_offsets(s, o)[0] for s, o in zip(simplices, ref_orient)]
    spheres = [_float_sphere(s, o) for s, o in zip(simplices, ref_orient)]
    # bit-identical, not just close
    assert centres.tobytes() == np.array([c for c, _ in spheres]).tobytes()
    assert radii.tobytes() == np.array([r for _, r in spheres]).tobytes()


def _spy_delaunay(monkeypatch):
    sizes = []
    real = voronoi.Delaunay

    def spy(pts):
        sizes.append(len(pts))
        return real(pts)

    monkeypatch.setattr(voronoi, "Delaunay", spy)
    return sizes


def test_margin_triangulates_a_fraction_of_the_patch(monkeypatch):
    sizes = _spy_delaunay(monkeypatch)
    torus_voronoi(2, PointSet.random(2, 500, seed=7))
    assert len(sizes) == 1 and sizes[0] < 9 * 500 / 4


def test_narrow_first_margin_grows(monkeypatch):
    # at 3 n^(-1/2) a circumsphere of this set leaves the margin box
    points = PointSet.random(2, 60, seed=35)
    sizes = _spy_delaunay(monkeypatch)
    c = torus_voronoi(2, points)
    assert len(sizes) == 2 and sizes[0] < sizes[1] < 9 * 60
    assert c == _reference_quotient(2, points)[1]


def _drop_first_class(monkeypatch):
    real = voronoi._certify
    monkeypatch.setattr(
        voronoi, "_certify",
        lambda d, patch, coords, kept, margin: real(d, patch, coords, kept[1:], margin),
    )


def test_missing_class_fails_the_tiling_certificate(monkeypatch):
    _drop_first_class(monkeypatch)
    with pytest.raises(RuntimeError, match="do not tile the torus"):
        torus_voronoi(2, PointSet.random(2, 25, seed=7))


def test_missing_class_is_an_internal_error_in_the_cli(monkeypatch, capsys):
    _drop_first_class(monkeypatch)
    rc = dispatch(["gsd", "--manifold", "torus-voronoi:3", "--points", "14", "--seed", "0"])
    out, err = capsys.readouterr()
    assert rc == EXIT_INTERNAL
    assert out == ""
    assert err.startswith("internal error: certified simplices do not tile the torus")


def _reference_certify(points, kept):
    """Certify kept patch-id tuples one simplex at a time, in order: Bareiss
    orientation and Cramer centre each, the 3^d patch box, then the
    kd-tree candidates by exact in_sphere."""
    patch, coords = _patch(points)
    centres, radii = [], []
    for ids in kept:
        simplex = [coords[i] for i in ids]
        orient = voronoi._orient_det(simplex)
        if orient == 0:
            raise GeneralPositionError("degenerate Delaunay simplex", [patch[i] for i in ids])
        centre, radius = _float_sphere(simplex, orient)
        centres.append(centre)
        radii.append(radius)
    centres, radii = np.array(centres), np.array(radii)
    if np.any(centres - radii[:, None] < -1.0 - 1e-9) or np.any(
        centres + radii[:, None] > 2.0 + 1e-9
    ):
        raise ValueError("point set too sparse: a circumsphere leaves the 3^d patch")
    tree = cKDTree(np.asarray(coords, dtype=float) / SCALE)
    for ids, candidates in zip(kept, tree.query_ball_point(centres, radii * (1 + 1e-9) + 1e-9)):
        for q in candidates:
            if q in ids:
                continue
            side = in_sphere([coords[i] for i in ids], coords[q])
            if side == 0:
                raise GeneralPositionError(
                    "cospherical points", [patch[i] for i in ids] + [patch[q]]
                )
            if side > 0:
                raise RuntimeError("triangulation is not Delaunay (exact check)")


def _outcome(build):
    try:
        return build()
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _reference_outcome(points):
    def build():
        _reference_certify(points, list(_reference_kept(points).values()))
        return _reference_quotient(points.dim, points)[1]

    return _outcome(build)


def _grid(k):
    q = SCALE // k
    return PointSet(2, tuple((q * i + 7, q * j + 3) for i in range(k) for j in range(k)))


SMALL_POINT_SETS = [
    PointSet.random(d, n, seed)
    for d, ns in ((2, range(2, 5)), (3, range(2, 7)))
    for n in ns
    for seed in range(10)
]


@pytest.mark.parametrize(
    "points",
    SMALL_POINT_SETS + [_grid(4), _grid(10)],
    ids=[f"{p.dim}-{len(p)}-{p.seed}" for p in SMALL_POINT_SETS] + ["grid4", "grid10"],
)
def test_outcome_matches_full_patch_oracle(points):
    # tiny sets start at the full patch; the 10 x 10 grid fails its margins
    # and must still report the full patch's error
    assert _outcome(lambda: torus_voronoi(points.dim, points)) == _reference_outcome(points)


@pytest.mark.parametrize("points,error", [
    (PointSet.random(3, 2, 0),
     (ValueError, "point set too sparse: a circumsphere leaves the 3^d patch")),
    (PointSet.random(3, 2, 1),
     (GeneralPositionError, "degenerate Delaunay simplex: [(0, (0, 0, 0)), "
      "(0, (-1, -1, 0)), (0, (0, -1, 0)), (0, (-1, 0, 0))]")),
    (_grid(10),
     (GeneralPositionError, "cospherical points: [(24, (0, 0)), (15, (0, 0)), "
      "(14, (0, 0)), (25, (0, 0))]")),
], ids=["too-sparse", "degenerate", "cospherical"])
def test_error_messages_pinned(points, error):
    assert _outcome(lambda: torus_voronoi(points.dim, points)) == error


def _hand_built(points, simplex_coords):
    """_certify arguments for a single kept simplex given by its coords."""
    patch, coords = _patch(points)
    ids = [coords.index(p) for p in simplex_coords]
    return patch, np.array(coords, dtype=np.int64), np.array([ids])


def test_certify_rejects_non_delaunay_simplex():
    q = SCALE // 4
    # (1.5q, 1.5q) lies inside the circumcircle of the other three
    ps = PointSet(2, ((q, q), (3 * q, q), (q, 3 * q), (3 * q // 2, 3 * q // 2)))
    patch, coords, kept = _hand_built(ps, ps.coords[:3])
    with pytest.raises(RuntimeError, match="not Delaunay"):
        voronoi._certify(2, patch, coords, kept)


def test_certify_decides_margin_points_exactly(monkeypatch):
    q, a = SCALE // 4, SCALE // 8
    # circumcircle: centre (q + a, q + a), radius a * sqrt(2); (q + 2a, q + 2a)
    # would be on it, one unit along the tangent puts it just outside, by
    # 2 / (2 a sqrt(2)) units, far inside the kd-tree query margin
    near = (q + 2 * a + 1, q + 2 * a - 1)
    ps = PointSet(2, ((q, q), (q + 2 * a, q), (q, q + 2 * a), near))
    patch, coords, kept = _hand_built(ps, ps.coords[:3])
    seen = []
    real = voronoi.in_sphere

    def counting(simplex, pt):
        side = real(simplex, pt)
        seen.append((tuple(pt), side))
        return side

    monkeypatch.setattr(voronoi, "in_sphere", counting)
    # the one empty triangle passes every point and then, alone, fails to
    # tile the torus
    with pytest.raises(RuntimeError, match="do not tile the torus"):
        voronoi._certify(2, patch, coords, kept)
    assert seen == [(near, -1)]
