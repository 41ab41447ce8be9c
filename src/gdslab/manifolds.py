"""Built-in cellulations: spheres, grid tori, non-orientable sums, genus-g,
and `SPECS`, the one table of the `name:params` specs that name them.

Everything is produced by dualizing an honest triangulation, which is generic
by construction; the square-grid torus (deliberately non-generic) is the one
direct CW build, kept as the standard counterexample, and torus-voronoi is
built by `voronoi`.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .complexes import (
    CellComplex,
    Chain,
    DisjointSet,
    Triangulation,
    dual_of_triangulation,
    validate_generic,
)

# Antipodal quotient of the icosahedron: the unique 6-vertex closed surface
# with chi = 1.  Validated on construction.
_RP2_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3),
]


def simplex_boundary(d: int) -> Triangulation:
    """The boundary of the (d+1)-simplex: a minimal triangulated d-sphere."""
    return Triangulation(d, combinations(range(d + 2), d + 1))


def freudenthal_torus(d: int, n: int) -> Triangulation:
    """Kuhn-subdivided periodic grid: d! simplices per cube of an n^d torus.

    Vertex (c_0, ..., c_{d-1}) has id sum c_a n^(d-1-a), so stepping axis a
    adds its stride, or 1 - n strides where c_a = n - 1 wraps to 0.  The
    simplex of a cube and a permutation is its base id plus offsets that
    depend only on the axes that wrap; sorted once per wrap pattern, they
    list every simplex in increasing order."""
    if n < 3:
        raise ValueError("resolution too small; identifications degenerate below 3")
    strides = [n ** (d - 1 - a) for a in range(d)]
    offsets = []  # per wrap pattern (bit a: axis a wraps), per permutation
    for wraps in range(1 << d):
        steps = [s * (1 - n) if wraps >> a & 1 else s for a, s in enumerate(strides)]
        pattern = []
        for perm in permutations(range(d)):
            v, verts = 0, [0]
            for axis in perm:
                v += steps[axis]
                verts.append(v)
            pattern.append(sorted(verts))
        offsets.append(pattern)
    maximal = []
    for base, coords in enumerate(product(range(n), repeat=d)):
        wraps = sum(1 << a for a, c in enumerate(coords) if c == n - 1)
        maximal += [tuple([base + o for o in offs]) for offs in offsets[wraps]]
    return Triangulation(d, maximal)


def projective_plane() -> Triangulation:
    return Triangulation(2, _RP2_FACES)


def barycentric_subdivision(t: Triangulation) -> Triangulation:
    """One vertex per simplex; maximal simplices are the full flags."""
    by_dim = t.faces_by_dim()
    ids = {}
    nxt = 0
    for k in range(t.dim + 1):
        for s in by_dim[k]:
            ids[s] = nxt
            nxt += 1
    maximal = []

    def flags(simplex, chain):
        if len(simplex) == 1:
            maximal.append(tuple(sorted(chain + [ids[simplex]])))
            return
        for drop in range(len(simplex)):
            sub = simplex[:drop] + simplex[drop + 1 :]
            flags(sub, chain + [ids[simplex]])

    for top in t.simplices:
        flags(top, [])
    return Triangulation(t.dim, maximal)


# Segments per polygon side of `surface_from_word`; the tP, genus and klein
# cell counts of `SPECS` follow from it.
_SEGMENTS = 3


def surface_from_word(word: List[Tuple[int, int]]) -> Triangulation:
    """Triangulate a fundamental polygon and glue its sides by the edge word.

    Each of the k sides is split into _SEGMENTS segments. An inner ring of as
    many vertices and a centre keep every simplex away from its glued
    partner, so the quotient stays simplicial.
    """
    k = len(word)
    if k < 2:
        raise ValueError("need at least two sides")
    m = _SEGMENTS
    perimeter = k * m

    # Glued boundary positions 0..perimeter-1 share a vertex.
    glued = DisjointSet(range(perimeter))
    occurrences: Dict[int, List[Tuple[int, int]]] = {}
    for side, (letter, sign) in enumerate(word):
        occurrences.setdefault(letter, []).append((side, sign))
    for letter, occ in occurrences.items():
        if len(occ) != 2:
            raise ValueError(f"letter {letter} appears {len(occ)} times")
        (s1, g1), (s2, g2) = occ
        for t in range(m + 1):
            u = t if g1 == g2 else m - t
            glued.union((s1 * m + t) % perimeter, (s2 * m + u) % perimeter)

    # Outer vertices are numbered by first appearance of their glued root,
    # then come the inner ring and the centre.
    labels: Dict[int, int] = {}
    outer = [labels.setdefault(glued.find(j), len(labels)) for j in range(perimeter)]
    inner = range(len(labels), len(labels) + perimeter)
    center = len(labels) + perimeter
    triangles = []
    for j in range(perimeter):
        nxt = (j + 1) % perimeter
        triangles += [(outer[j], outer[nxt], inner[nxt]), (outer[j], inner[nxt], inner[j]),
                      (inner[j], inner[nxt], center)]

    for tri in triangles:
        if len(set(tri)) != 3:
            raise ValueError("degenerate triangle after identification")
    if len({tuple(sorted(t)) for t in triangles}) != len(triangles):
        raise ValueError("duplicate triangles after identification")
    return Triangulation(2, triangles)


def nonorientable_surface(t: int) -> Triangulation:
    """Connected sum of t projective planes, chi = 2 - t."""
    if t < 1:
        raise ValueError("t must be positive")
    if t == 1:
        return projective_plane()
    return surface_from_word([(i, 1) for i in range(t) for _ in range(2)])


def genus_surface(g: int) -> Triangulation:
    if g < 1:
        raise ValueError("genus must be positive")
    return surface_from_word(
        [(2 * i + j, s) for i in range(g) for j, s in ((0, 1), (1, 1), (0, -1), (1, -1))]
    )


def klein_bottle() -> Triangulation:
    return surface_from_word([(0, 1), (1, 1), (0, 1), (1, -1)])


def square_grid_torus(n: int) -> CellComplex:
    """The 4-valent square cellulation of the 2-torus.

    Not generic: every vertex has four edge cofaces, which is exactly the
    ambiguity that motivates degree at most 3.
    """
    if n < 2:
        raise ValueError("n must be at least 2")

    def v(x, y):  # also the horizontal edge ids 0 .. n^2-1
        return (x % n) * n + (y % n)

    def vert(x, y):
        return n * n + (x % n) * n + (y % n)

    vertices = [() for _ in range(n * n)]
    edges: List[Tuple[int, ...]] = [() for _ in range(2 * n * n)]
    for x in range(n):
        for y in range(n):
            edges[v(x, y)] = (v(x, y), v(x + 1, y))
            edges[vert(x, y)] = (v(x, y), v(x, y + 1))
    squares = []
    for x in range(n):
        for y in range(n):
            squares.append((v(x, y), v(x, y + 1), vert(x, y), vert(x + 1, y)))
    return CellComplex(2, [vertices, edges, squares])


class Spec(NamedTuple):
    """One `name[:params]` form of the manifold spec grammar.

    `cells` is log10 of the complex's cell count, so that a huge parameter
    cannot overflow. `build` returns a triangulation, which
    `builtin_manifold` dualizes and validates, or a finished complex. Both
    take the integer parameters, defaults filled in, and the keywords
    `points` and `seed`, which only torus-voronoi reads.
    """

    usage: str                        # the error for a malformed spec
    arity: Tuple[int, int]            # least and most integer parameters
    defaults: Tuple[int, ...]         # values of omitted trailing parameters
    cells: Callable[..., float]
    build: Callable[..., Union[Triangulation, CellComplex]]
    min_first: Optional[int] = None   # below it the usage is the error
    meta: Callable[..., dict] = lambda *_: {}  # extra meta of the dual

    def complete(self, params: Sequence[int]) -> Tuple[int, ...]:
        """The parameters with the defaults filled in."""
        least, most = self.arity
        if not least <= len(params) <= most or (
                self.min_first is not None and params[0] < self.min_first):
            raise ValueError(self.usage)
        return (*params, *self.defaults[len(params) - least:])


def _log10(count: int) -> float:
    return math.log10(max(count, 1))


def _torus_voronoi(d: int, points: Optional[int], seed: Optional[int]) -> CellComplex:
    if d not in (2, 3):
        raise ValueError("torus-voronoi:d needs d = 2 or 3, e.g. torus-voronoi:2")
    if seed is None:
        raise ValueError("torus-voronoi requires --seed for reproducibility")
    from .voronoi import PointSet, torus_voronoi  # loads scipy

    n = points if points is not None else (25 if d == 2 else 14)
    return torus_voronoi(d, PointSet.random(d, n, seed))


# Every built-in spec. The counts are exact, except torus (its n^d d! top
# cells) and torus-voronoi (its Delaunay simplices, 2 per point for d = 2 and
# about 7 for d = 3, 6.77 for Poisson points). The builders are called by
# their module-global names, so that wrapping those names reaches them.
SPECS: Dict[str, Spec] = {
    "sphere": Spec(
        "sphere:d needs d >= 1, e.g. sphere:2", (1, 1), (),
        lambda d, **_: (d + 2) * math.log10(2) + math.log10(1 - 2.0 ** -(d + 1)),
        lambda d, **_: simplex_boundary(d), min_first=1,
        meta=lambda d: {"balloon_even_ok": d % 2 == 0 and d >= 4}),
    "torus": Spec(
        "torus:d[:n] needs integers d and n, e.g. torus:3:4", (1, 2), (3,),
        lambda d, n, **_: d * math.log10(max(n, 1)) + math.lgamma(d + 1) / math.log(10),
        lambda d, n, **_: freudenthal_torus(d, n), min_first=1,
        meta=lambda d, n: {"torus_grid": (d, n)}),
    "tP": Spec(
        "tP:t needs an integer t, e.g. tP:3", (1, 1), (),
        lambda t, **_: _log10(53 * t + 2 if t > 1 else 31),
        lambda t, **_: nonorientable_surface(t)),
    "genus": Spec(
        "genus:g needs an integer g, e.g. genus:2", (1, 1), (),
        lambda g, **_: _log10(106 * g + 2),
        lambda g, **_: genus_surface(g)),
    "klein": Spec(
        "klein takes no parameters, e.g. klein", (0, 0), (),
        lambda **_: _log10(108),
        lambda **_: klein_bottle()),
    "square-grid": Spec(
        "square-grid[:n] needs an integer n, e.g. square-grid:2", (0, 1), (2,),
        lambda n, **_: _log10(4 * n * n),
        lambda n, **_: square_grid_torus(n)),
    "torus-voronoi": Spec(
        "torus-voronoi:d needs an integer d, e.g. torus-voronoi:2", (1, 1), (),
        lambda d, points=None, **_: _log10((points or 0) * {2: 2, 3: 7}.get(d, 0)),
        _torus_voronoi),
}


def manifold_spec(name: str) -> Spec:
    """The row of `SPECS` for a spec name."""
    if name not in SPECS:
        raise ValueError(f"unknown manifold name: {name}")
    return SPECS[name]


def builtin_manifold(name: str, *params: int, points: Optional[int] = None,
                     seed: Optional[int] = None) -> CellComplex:
    """Build the spec `name:params` of `SPECS`. A triangulation is dualized
    and validated as a generic cellulation."""
    spec = manifold_spec(name)
    values = spec.complete(params)
    built = spec.build(*values, points=points, seed=seed)
    if not isinstance(built, Triangulation):
        return built
    label = ":".join([name, *map(str, values)])
    c = dual_of_triangulation(built)
    del built  # free the triangulation before validation builds the coface table
    report = validate_generic(c)
    if not report.passed:
        raise AssertionError(
            f"builtin {label} failed genericity validation: {report.violations[:3]}"
        )
    c.meta.update(name=label, generic_validated=True, **spec.meta(*values))
    return c


def _grid_size(c: CellComplex) -> int:
    grid = c.meta.get("torus_grid")
    if not grid or grid[0] != 2:
        raise ValueError("complex is not a builtin 2-torus")
    return grid[1]


def _grid_edge_ids(n: int, edges) -> List[int]:
    """The dual 1-cells of a torus:2:n complex crossing the grid edges, each
    given as a pair of vertex coordinates.  The dual of an edge is numbered
    by the edge's place among the sorted edges of the triangulation."""
    edge_id = {e: i for i, e in enumerate(freudenthal_torus(2, n).faces_by_dim()[1])}

    def vid(x, y):
        return (x % n) * n + (y % n)

    return [edge_id[tuple(sorted((vid(*p), vid(*q))))] for p, q in edges]


def torus_diagonal_cycles(c: CellComplex) -> Tuple[Chain, Chain]:
    """Two homologous but oppositely wound loops on a grid torus.

    Returns the chains of dual 1-cells crossed by straight lines of slope +1
    and -1; both represent the same Z2 class.
    """
    n = _grid_size(c)
    diag_up = []
    for i in range(n):
        diag_up.append(((i, i), (i, i + 1)))          # vertical crossings
        diag_up.append(((i, i + 1), (i + 1, i + 1)))  # horizontal crossings
    diag_down = []
    for i in range(n):
        diag_down.append(((i, -i), (i, -i + 1)))        # vertical
        diag_down.append(((-i, i), (-i + 1, i)))        # horizontal (height i)
        diag_down.append(((i, -i), (i + 1, -i + 1)))    # diagonal, t = 1/4
        diag_down.append(((i, -i - 1), (i + 1, -i)))    # diagonal, t = 3/4
    return (
        Chain.from_cells(c, 1, _grid_edge_ids(n, diag_up)),
        Chain.from_cells(c, 1, _grid_edge_ids(n, diag_down)),
    )


def torus_dual_loops(c: CellComplex) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Two essential closed walks in the dual graph of a grid torus, given as
    the 1-cells they cross (a horizontal and a vertical line of sight)."""
    n = _grid_size(c)
    horizontal, vertical = [], []
    for i in range(n):
        # the diagonal of square i, then the vertical (horizontal) wall
        horizontal += [((i, 0), (i + 1, 1)), ((i + 1, 0), (i + 1, 1))]
        vertical += [((0, i), (1, i + 1)), ((0, i + 1), (1, i + 1))]
    return tuple(_grid_edge_ids(n, horizontal)), tuple(_grid_edge_ids(n, vertical))
