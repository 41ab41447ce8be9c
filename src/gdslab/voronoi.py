"""Periodic Voronoi cellulations of the flat torus, d = 2 or 3.

Points are replicated into the 3^d neighboring boxes, triangulated, and the
quotient complex is rebuilt from translation classes.  Construction uses
floating-point Delaunay, but every certificate decision is exact: each
accepted simplex gets an integer orientation and an exact circumcentre, a
kd-tree with a safety margin collects the patch points that could lie in or
on its circumsphere, and each of those is decided by the integer `in_sphere`
predicate.  Degenerate inputs are detected rather than silently perturbed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Dict, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class PointSet:
    dim: int
    coords: Tuple[Tuple[int, ...], ...]  # numerators over SCALE, in [0, SCALE)
    seed: Optional[int] = None

    def __post_init__(self):
        seen = set()
        for p in self.coords:
            if len(p) != self.dim:
                raise ValueError("coordinate arity mismatch")
            if not all(0 <= x < SCALE for x in p):
                raise ValueError("coordinates must lie in the unit box")
            if p in seen:
                raise ValueError(f"duplicate point {p}")
            seen.add(p)

    @classmethod
    def random(cls, dim: int, n: int, seed: int) -> "PointSet":
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


def _canonical_class(verts: Sequence[PatchVertex]) -> Tuple[PatchVertex, ...]:
    """Translation-canonical form of a set of patch vertices."""
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


def _base_representative(cls: Tuple[PatchVertex, ...]) -> Tuple[PatchVertex, ...]:
    """Shift a class so every offset coordinate starts at zero."""
    dim = len(cls[0][1])
    lows = [min(off[i] for _, off in cls) for i in range(dim)]
    return tuple((pid, tuple(o - lo for o, lo in zip(off, lows))) for pid, off in cls)


def torus_voronoi(d: int, points: PointSet) -> CellComplex:
    """Voronoi cell complex of a periodic point set, as a face poset.

    The d-cells are the Voronoi cells of the input points; a j-cell is dual
    to a (d-j)-simplex of the periodic Delaunay triangulation.  Every kept
    simplex is certified nondegenerate with an exactly empty circumsphere.
    """
    if d not in (2, 3):
        raise ValueError("periodic Voronoi is implemented for d in {2, 3}")
    if points.dim != d:
        raise ValueError("point set has wrong dimension")
    if len(points) < 2:
        raise ValueError("need at least two points")

    offsets = sorted(product((-1, 0, 1), repeat=d))
    patch: List[PatchVertex] = []
    patch_coords: List[Tuple[int, ...]] = []
    for pid, p in enumerate(points.coords):
        for off in offsets:
            patch.append((pid, off))
            patch_coords.append(tuple(x + SCALE * o for x, o in zip(p, off)))
    coords_arr = np.asarray(patch_coords, dtype=float) / SCALE

    tri = Delaunay(coords_arr)

    kept: Dict[Tuple[PatchVertex, ...], Tuple[int, ...]] = {}
    for simplex in tri.simplices:
        verts = [patch[i] for i in simplex]
        if not any(off == (0,) * d for _, off in verts):
            continue
        cls = _canonical_class(verts)
        kept.setdefault(cls, tuple(int(i) for i in simplex))

    _certify(d, points, patch, coords_arr, kept)

    # quotient face poset, dims d (tops) down to 0
    classes: List[Dict[Tuple[PatchVertex, ...], int]] = [
        {} for _ in range(d + 1)
    ]
    for cls in sorted(kept):
        classes[d][cls] = len(classes[d])
    incidences: List[List[Tuple[int, int]]] = [[] for _ in range(d + 1)]
    for k in range(d, 0, -1):
        for cls in sorted(classes[k], key=lambda c: classes[k][c]):
            rep = _base_representative(cls)
            for face in combinations(rep, k):
                face_cls = _canonical_class(face)
                if face_cls not in classes[k - 1]:
                    classes[k - 1][face_cls] = len(classes[k - 1])
                incidences[k].append((classes[k][cls], classes[k - 1][face_cls]))

    # dual complex: quotient k-simplex -> (d-k)-cell
    faces: List[List[Tuple[int, ...]]] = [[] for _ in range(d + 1)]
    faces[0] = [() for _ in classes[d]]
    for j in range(1, d + 1):
        k = d - j
        face_lists: List[List[int]] = [[] for _ in range(len(classes[k]))]
        for simplex_id, face_id in incidences[k + 1]:
            face_lists[face_id].append(simplex_id)
        faces[j] = [tuple(sorted(fl)) for fl in face_lists]

    cplx = CellComplex(
        d,
        faces,
        provenance="voronoi",
        meta={
            "points": points.coords,
            "seed": points.seed,
            "n_points": len(points),
        },
    )
    report = validate_generic(cplx)
    cplx.meta["validation_passed"] = report.passed
    cplx.meta["validation_violations"] = report.violations
    if report.passed:
        cplx.meta["generic_validated"] = True
    return cplx


def _certify(d, points, patch, coords_arr, kept) -> None:
    """Exact nondegeneracy and empty-circumsphere checks for kept simplices.

    Each kept simplex gets its exact orientation and exact circumcentre
    (integer offsets from its first vertex over 2^d * orient) and r^2.  One
    kd-tree query then returns, for every simplex, the patch points within
    r * (1 + 1e-9) + 1e-9 of its centre, and each of those that is not a
    vertex is decided by the exact `in_sphere`.  No patch point is judged by
    floating point alone.

    Why the query misses nothing inside or on a sphere: patch coordinates
    are k / 2^20 with |k| < 2^21, so they are exact in a double.  The float
    centre is the exact rational rounded once per coordinate, and the
    radius is sqrt of the correctly rounded r^2, so both are within a few
    ulps (about 1e-15 on a box of side 3) of the truth, as is the distance
    the tree computes.  The margin, 1e-9 in unit-box units, dwarfs that
    error, so every point left out of the query result is strictly outside
    the circumsphere.
    """
    centres = np.empty((len(kept), d))
    radii = np.empty(len(kept))
    simplices = []
    for row, patch_ids in enumerate(kept.values()):
        simplex_pts = [_int_coords(points, patch[i]) for i in patch_ids]
        orient = _orient_det(simplex_pts)
        if orient == 0:
            raise GeneralPositionError(
                "degenerate Delaunay simplex", [patch[i] for i in patch_ids]
            )
        p0 = simplex_pts[0]
        num, den = _circumcentre_offsets(simplex_pts, orient)
        scale = den * SCALE
        centres[row] = [(x * den + c) / scale for x, c in zip(p0, num)]
        radii[row] = math.sqrt(sum(c * c for c in num) / (scale * scale))
        simplices.append((patch_ids, simplex_pts))
    # circumspheres must stay inside the patch for the periodic argument
    if np.any(centres - radii[:, None] < -1.0 - 1e-9) or np.any(
        centres + radii[:, None] > 2.0 + 1e-9
    ):
        raise ValueError("point set too sparse: a circumsphere leaves the 3^d patch")

    tree = cKDTree(coords_arr)
    near = tree.query_ball_point(centres, radii * (1 + 1e-9) + 1e-9)
    for (patch_ids, simplex_pts), candidates in zip(simplices, near):
        member = set(patch_ids)
        for q in candidates:
            if q in member:
                continue
            side = in_sphere(simplex_pts, _int_coords(points, patch[q]))
            if side == 0:
                raise GeneralPositionError(
                    "cospherical points",
                    [patch[i] for i in patch_ids] + [patch[q]],
                )
            if side > 0:
                raise RuntimeError("triangulation is not Delaunay (exact check)")


def _int_coords(points: PointSet, pv: PatchVertex) -> Tuple[int, ...]:
    pid, off = pv
    return tuple(x + SCALE * o for x, o in zip(points.coords[pid], off))


def _circumcentre_offsets(
    simplex: Sequence[Sequence[int]], orient: int
) -> Tuple[List[int], int]:
    """Circumcentre minus the first vertex, as integer numerators over den.

    Cramer's rule on 2 (p_i - p_0) . c = |p_i - p_0|^2, with
    den = det(2 (p_i - p_0)) = 2^d * orient.
    """
    p0 = simplex[0]
    edges = [[x - y for x, y in zip(p, p0)] for p in simplex[1:]]
    a = [[2 * x for x in e] for e in edges]
    b = [sum(x * x for x in e) for e in edges]
    num = [
        _det_bareiss([r[:j] + [bj] + r[j + 1 :] for r, bj in zip(a, b)])
        for j in range(len(p0))
    ]
    return num, (1 << len(p0)) * orient
