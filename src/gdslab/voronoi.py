"""Periodic Voronoi cellulations of the flat torus, d = 2 or 3.

Points are replicated into the 3^d neighboring boxes, the patch points
within a margin of the unit box are triangulated, and the quotient complex
is rebuilt from translation classes by array operations.
Each simplex gets one key row: the least, over its vertices, of the sorted
vertex keys of the translate that puts that vertex at offset 0, where a
vertex key packs the point id and the offset digits into one int that
orders as the (point id, offset) tuple.  Rows compare as the sorted
translates do, so the least row is the least sorted translate, and top
cells, faces and their numbering come from sorting these rows.

Construction uses floating-point Delaunay, but every certificate decision is
exact: each accepted simplex gets an integer orientation and an exact
circumcentre, read off one int64 cofactor matrix of its edge matrix (edges
are below 3 * 2^20, so every minor and squared edge length is below 2^45;
only the final products are Python ints).  A kd-tree with a safety margin
then settles emptiness against the whole 3^d patch: a simplex whose d + 1
nearest patch points are checked to be its own vertices and whose
(d + 2)-th nearest lies beyond the margin has no other point in or on its
circumsphere, and every other simplex has each patch point within the
margin decided by the integer `in_sphere` predicate.  The kept classes
must then tile the torus: their exact volumes sum to the box's.  The margin
only saves work, so a margin too narrow for any check is widened until, at
the full patch, the checks pass or raise.  Degenerate inputs are detected
rather than silently perturbed.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, product
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .complexes import CellComplex, validate_generic

SCALE = 1 << 20

PatchVertex = Tuple[int, Tuple[int, ...]]  # (point id, integer box offset)


class GeneralPositionError(ValueError):
    """Input points violate general position; carries the offending subset."""

    def __init__(self, message: str, subset: Sequence[PatchVertex]):
        super().__init__(f"{message}: {list(subset)}")
        self.subset = tuple(subset)


class _PointSetFields(NamedTuple):
    dim: int
    coords: Tuple[Tuple[int, ...], ...]  # numerators over SCALE, in [0, SCALE)
    seed: Optional[int] = None


class PointSet(_PointSetFields):
    __slots__ = ()

    def __new__(cls, dim: int, coords: Tuple[Tuple[int, ...], ...],
                seed: Optional[int] = None) -> "PointSet":
        seen = set()
        for p in coords:
            if len(p) != dim:
                raise ValueError("coordinate arity mismatch")
            if not all(0 <= x < SCALE for x in p):
                raise ValueError("coordinates must lie in the unit box")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)
        return tuple.__new__(cls, (dim, coords, seed))

    @classmethod
    def random(cls, dim: int, n: int, seed: int) -> "PointSet":
        if n > SCALE**dim:
            raise ValueError(f"cannot draw {n} distinct points in dimension {dim}")
        rng = random.Random(seed)
        coords = set()
        while len(coords) < n:
            coords.add(tuple(rng.randrange(SCALE) for _ in range(dim)))
        return cls(dim, tuple(sorted(coords)), seed)

    def __len__(self) -> int:
        return len(self.coords)


def _det_bareiss(m: List[List[int]]) -> int:
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _orient_det(points: Sequence[Sequence[int]]) -> int:
    """Determinant of the edge matrix of a d-simplex; zero iff degenerate."""
    p0 = points[0]
    rows = [[x - y for x, y in zip(p, p0)] for p in points[1:]]
    return _det_bareiss(rows)


def _lifted_det(simplex: Sequence[Sequence[int]], q: Sequence[int]) -> int:
    rows = []
    for p in list(simplex) + [list(q)]:
        rows.append(list(p) + [sum(x * x for x in p), 1])
    return _det_bareiss(rows)


def in_sphere(simplex: Sequence[Sequence[int]], q: Sequence[int]) -> int:
    """+1 if q is strictly inside the circumsphere, -1 outside, 0 on it."""
    d = len(q)
    orient = _orient_det(simplex)
    if orient == 0:
        raise GeneralPositionError(
            "degenerate simplex (affinely dependent points)",
            [(i, tuple(p)) for i, p in enumerate(simplex)],
        )
    det = _lifted_det(simplex, q)
    if det == 0:
        return 0
    inside = ((-1) ** d) * (1 if det > 0 else -1) * (1 if orient > 0 else -1)
    return 1 if inside > 0 else -1


# A vertex key packs a point id and the d digits of a box offset into one
# int64.  Offset differences within one patch simplex lie in [-2, 2], so the
# digits are offset + 2 in radix 5.  Patch ids fit in scipy's int32 simplex
# array, so point ids are below 2^31 / 3^d and keys below 2^31 * (5/3)^d.
_RADIX = 5


def _vertex_keys(pids: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Keys of vertices (..., v) with offsets (..., v, d); the keys order
    as the (pid, offset) tuples do."""
    d = offs.shape[-1]
    return pids * _RADIX**d + (offs + 2) @ (_RADIX ** np.arange(d - 1, -1, -1))


def _decode_keys(keys: np.ndarray, d: int) -> Tuple[np.ndarray, np.ndarray]:
    """Point ids (..., v) and offsets (..., v, d) of vertex keys (..., v)."""
    pids, digits = np.divmod(keys, _RADIX**d)
    weights = _RADIX ** np.arange(d - 1, -1, -1)
    return pids, digits[..., None] // weights % _RADIX - 2


def _class_keys(pids: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Translation-class key row of each of n simplices (n, v) with vertex
    offsets (n, v, d).

    Anchoring at vertex a subtracts a's offset from every vertex; the sorted
    vertex keys of that translate compare as its sorted (pid, offset) tuple
    does, so the least row over the v anchors is the least sorted translate.
    A key is linear in the offset, so anchoring at a subtracts one amount,
    a's offset read in radix 5, from every key of the simplex: each anchor's
    row is the one sorted row less a constant, and the least row is the
    one less the largest.
    """
    d = offs.shape[-1]
    shifts = offs @ (_RADIX ** np.arange(d - 1, -1, -1))
    return np.sort(_vertex_keys(pids, offs), axis=1) - shifts.max(axis=1, keepdims=True)


def _unique_rows(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct rows of an int array (n, k) in sorted order, the index
    of each one's first occurrence, and the inverse (n,): what
    `np.unique(keys, axis=0, return_index=True, return_inverse=True)` gives,
    from one stable lexsort (column 0 the primary key)."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


def _cofaces(incidence: np.ndarray, n_faces: int) -> List[Tuple[int, ...]]:
    """Per face id, the sorted ids of the rows of `incidence` that list it,
    once per listing."""
    face_ids = incidence.ravel()
    cells = np.repeat(np.arange(len(incidence)), incidence.shape[1])
    ids = cells[np.argsort(face_ids, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(face_ids, minlength=n_faces)).tolist()
    return [tuple(ids[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def torus_voronoi(d: int, points: PointSet) -> CellComplex:
    """Voronoi cell complex of a periodic point set, as a face poset.

    The d-cells are the Voronoi cells of the input points; a j-cell is dual
    to a (d-j)-simplex of the periodic Delaunay triangulation.  Every kept
    simplex is certified nondegenerate with an exactly empty circumsphere,
    and the kept classes are certified to tile the torus.

    Only the patch points in [-m, 1 + m]^d are triangulated.  The margin m
    starts at three mean point spacings, 3 n^(-1/d), capped at 1, and grows
    by half whenever `_certify` rejects the margin's simplices; at m = 1 the
    whole patch is triangulated and any failure is raised.

    Quotient simplices are keyed by `_class_keys`.  Top simplices are
    numbered in the sorted order of their keys.  The faces of each
    k-simplex, in `combinations` order of its translate whose offset
    coordinates each start at 0, are numbered by first occurrence.
    """
    if d not in (2, 3):
        raise ValueError("periodic Voronoi is implemented for d in {2, 3}")
    if points.dim != d:
        raise ValueError("point set has wrong dimension")
    if len(points) < 2:
        raise ValueError("need at least two points")

    # patch vertex i is point i // 3^d shifted by offsets[i % 3^d]
    offsets = sorted(product((-1, 0, 1), repeat=d))
    n_off = len(offsets)
    patch: List[PatchVertex] = [(pid, off) for pid in range(len(points)) for off in offsets]
    offset_arr = np.array(offsets, dtype=np.int64)
    base = np.array(points.coords, dtype=np.int64)
    coords = (base[:, None] + SCALE * offset_arr).reshape(-1, d)
    coords_arr = coords / SCALE

    margin = min(1.0, 3 * len(points) ** (-1 / d))
    while True:
        sel = np.flatnonzero(((coords_arr >= -margin) & (coords_arr <= 1 + margin)).all(axis=1))
        simplices = sel[Delaunay(coords_arr[sel]).simplices]

        # a simplex is kept iff a vertex sits at offset 0, the middle of
        # offsets; each class keeps its first Delaunay simplex, and _certify
        # gets them in Delaunay order
        simplices = simplices[(simplices % n_off == n_off // 2).any(axis=1)]
        classes, first, _ = _unique_rows(
            _class_keys(simplices // n_off, offset_arr[simplices % n_off])
        )
        kept = simplices[np.sort(first)]
        try:
            _certify(d, patch, coords, kept, margin)
            break
        except (ValueError, RuntimeError):
            if margin == 1.0:
                raise
            margin = min(1.0, 1.5 * margin)

    # quotient face poset, dims d (tops) down to 1, with classes[i] the key
    # of k-simplex i; its dual: quotient k-simplex -> (d-k)-cell
    faces: List[List[Tuple[int, ...]]] = [[()] * len(classes)]
    for k in range(d, 0, -1):
        pids, offs = _decode_keys(classes, d)
        offs -= offs.min(axis=1, keepdims=True)
        face_cols = np.array(list(combinations(range(k + 1), k)))
        unique, first, inverse = _unique_rows(
            _class_keys(pids[:, face_cols].reshape(-1, k), offs[:, face_cols].reshape(-1, k, d))
        )
        by_occurrence = np.argsort(first)
        classes = unique[by_occurrence]
        face_ids = np.argsort(by_occurrence)[inverse].reshape(-1, k + 1)
        faces.append(_cofaces(face_ids, len(classes)))

    cplx = CellComplex(d, faces)
    cplx.meta["generic_validated"] = validate_generic(cplx).passed
    return cplx


def _certify(d, patch, coords, kept, margin=1.0) -> None:
    """Exact certificate that `kept` is the periodic Delaunay triangulation.

    `coords` are the integer patch coordinates, and each row of `kept` lists
    the patch ids of one simplex, one per translation class.  Orientations
    and circumcentres come from one exact batch (`_exact_circumcentres`,
    `_rounded_spheres`).  Each circumsphere must lie in the margin box
    [-m, 1 + m]^d, up to the 1e-9 slack of the queries below; as the box lies
    in the 3^d patch, no translate beyond the patch can be inside it.

    Emptiness: a kd-tree over all 3^d patch points gives every simplex its
    d + 2 nearest points.  A patch point is a candidate when it lies within
    the slack radius r * (1 + 1e-9) + 1e-9 of the centre.  If the (d + 2)-th
    nearest point lies beyond the slack radius, so does every point after
    it, and only the d + 1 nearest can be candidates; if those are checked
    to be the simplex's own vertices, it has no candidate besides them.
    Every other simplex (a point within the slack radius besides the
    vertices, or nearest points that are not the vertices) gets all its
    candidates from one ball query, and each that is not a vertex is
    decided by the exact `in_sphere`.  No patch point is judged inside or
    on a sphere by floating point alone.  A simplex with an empty
    circumsphere and no cospherical point is a true Delaunay simplex, and
    two distinct ones have disjoint interiors.

    Why a point left out is strictly outside the circumsphere: patch
    coordinates are k / 2^20 with |k| < 2^21, so they are exact in a double.
    The float centre is the exact rational rounded once per coordinate, and
    the radius is sqrt of the correctly rounded r^2, so both are within a
    few ulps (about 1e-15 on a box of side 3) of the truth, as are the
    distances the tree computes.  The slack, 1e-9 in unit-box units, dwarfs
    that error, so a point the tree puts beyond the slack radius lies
    beyond r.

    Tiling: the kept classes are then disjoint, so they cover the torus,
    and no class is missing, iff their exact volumes sum to the torus's:
    sum |orient| = d! * SCALE^d.  This is what makes a margin narrower than
    the patch safe.
    """
    pts = coords[kept]
    orient, num = _exact_circumcentres(pts)
    degenerate = np.flatnonzero(orient == 0)
    if degenerate.size:
        raise GeneralPositionError(
            "degenerate Delaunay simplex", [patch[i] for i in kept[degenerate[0]]]
        )
    centres, radii = _rounded_spheres(pts, orient, num)
    # circumspheres must stay inside the margin box for the periodic argument
    if np.any(centres - radii[:, None] < -margin - 1e-9) or np.any(
        centres + radii[:, None] > 1 + margin + 1e-9
    ):
        raise ValueError("point set too sparse: a circumsphere leaves the 3^d patch")

    tree = cKDTree(coords / SCALE)
    slack = radii * (1 + 1e-9) + 1e-9
    dist, nearest = tree.query(centres, k=d + 2)
    empty = (dist[:, d + 1] > slack) & (
        np.sort(nearest[:, : d + 1], axis=1) == np.sort(kept, axis=1)
    ).all(axis=1)
    rest = np.flatnonzero(~empty)
    near = tree.query_ball_point(centres[rest], slack[rest])
    for s, candidates in zip(rest.tolist(), near):
        patch_ids = kept[s].tolist()
        for q in candidates:
            if q in patch_ids:
                continue
            side = in_sphere(pts[s].tolist(), coords[q].tolist())
            if side == 0:
                raise GeneralPositionError(
                    "cospherical points",
                    [patch[i] for i in patch_ids] + [patch[q]],
                )
            if side > 0:
                raise RuntimeError("triangulation is not Delaunay (exact check)")

    volume, full = abs(orient).sum(), math.factorial(d) * SCALE**d
    if volume != full:
        raise RuntimeError(
            f"certified simplices do not tile the torus: |orient| sums to "
            f"{volume}, not d! SCALE^d = {full}"
        )


def _exact_circumcentres(pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Orientations (n,) and circumcentre offsets (n, d) of simplices with
    integer vertices pts (n, d + 1, d), as Python ints in object arrays.

    The orientation is det E, E the edge matrix with rows p_i - p_0.  The
    circumcentre minus p_0 is num / den with den = 2^d * orient, by Cramer's
    rule on 2 E c = b, b_i = |p_i - p_0|^2.  Both come from the cofactor
    matrix C of E: orient = sum_j E_0j C_0j, and num_j = 2^(d-1) sum_i
    b_i C_ij.  Patch coordinates lie in [-2^20, 2^21), so |E_ij| < 3 * 2^20,
    every entry of C (a minor of order at most 2) and every b_i is below
    2^45, and C and b are exact in int64.  The d + d^2 products above
    overflow it, hence the Python ints.
    """
    edges = pts[:, 1:] - pts[:, :1]
    d = edges.shape[2]
    if d == 2:
        cof = np.stack([edges[:, 1, ::-1] * (1, -1), edges[:, 0, ::-1] * (-1, 1)], axis=1)
    else:  # row i of the cofactor matrix is e_(i+1) x e_(i+2)
        cof = np.cross(edges[:, [1, 2, 0]], edges[:, [2, 0, 1]])
    cof = cof.astype(object)
    orient = (edges[:, 0].astype(object) * cof[:, 0]).sum(axis=1)
    b = (edges * edges).sum(axis=2).astype(object)
    num = (b[:, :, None] * cof).sum(axis=1) * (1 << (d - 1))
    return orient, num


def _rounded_spheres(
    pts: np.ndarray, orient: np.ndarray, num: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Float circumcentres (n, d) and radii (n,) in unit-box units.

    Each centre coordinate is the exact rational (x_0 * den + num) /
    (den * SCALE), and r^2 = |num|^2 / (den * SCALE)^2; int / int division
    rounds correctly, so each comes out as the exact value rounded once.
    """
    den = (1 << pts.shape[2]) * orient
    scale = den * SCALE
    p0 = pts[:, 0].astype(object)
    centres = ((p0 * den[:, None] + num) / scale[:, None]).astype(float)
    radii = np.sqrt(((num * num).sum(axis=1) / (scale * scale)).astype(float))
    return centres, radii
