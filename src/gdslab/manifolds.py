"""Built-in cellulations: spheres, grid tori, non-orientable sums, genus-g.

Everything is produced by dualizing an honest triangulation, which is generic
by construction; the square-grid torus (deliberately non-generic) is the one
direct CW build, kept as the standard counterexample.
"""

from __future__ import annotations

from itertools import permutations
from typing import Dict, List, Sequence, Tuple

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
    verts = list(range(d + 2))
    maximal = []
    for drop in verts:
        maximal.append(tuple(v for v in verts if v != drop))
    return Triangulation(d, maximal)


def freudenthal_torus(d: int, n: int) -> Triangulation:
    """Kuhn-subdivided periodic grid: d! simplices per cube of an n^d torus."""
    if n < 3:
        raise ValueError("resolution too small; identifications degenerate below 3")

    def vid(coords: Sequence[int]) -> int:
        out = 0
        for c in coords:
            out = out * n + (c % n)
        return out

    maximal = []
    for base_index in range(n**d):
        base = []
        rem = base_index
        for _ in range(d):
            base.append(rem % n)
            rem //= n
        base = base[::-1]
        for perm in permutations(range(d)):
            verts = [vid(base)]
            cur = list(base)
            for axis in perm:
                cur[axis] += 1
                verts.append(vid(cur))
            maximal.append(tuple(sorted(verts)))
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


def _surface_word(kind: str, count: int) -> List[Tuple[int, int]]:
    if kind == "nonorientable":
        word = []
        for i in range(count):
            word += [(i, 1), (i, 1)]
        return word
    if kind == "orientable":
        word = []
        for i in range(count):
            a, b = 2 * i, 2 * i + 1
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
        return word
    if kind == "klein":
        return [(0, 1), (1, 1), (0, 1), (1, -1)]
    raise ValueError(kind)


def surface_from_word(word: List[Tuple[int, int]], m: int = 3, rings: int = 2) -> Triangulation:
    """Triangulate a fundamental polygon and glue its sides by the edge word.

    Each of the k sides is split into m segments; concentric rings keep every
    simplex away from its glued partner so the quotient stays simplicial.
    """
    k = len(word)
    if k < 2:
        raise ValueError("need at least two sides")
    if m < 3 or rings < 2:
        raise ValueError("resolution too small to triangulate without degenerate identifications")
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
            a = (s1 * m + t) % perimeter
            if g1 == g2:
                b = (s2 * m + t) % perimeter
            else:
                b = (s2 * m + (m - t)) % perimeter
            glued.union(a, b)

    labels: Dict[int, int] = {}
    next_id = 0

    def boundary_vertex(pos: int) -> int:
        nonlocal next_id
        root = glued.find(pos % perimeter)
        if root not in labels:
            labels[root] = next_id
            next_id = next_id + 1
        return labels[root]

    for pos in range(perimeter):
        boundary_vertex(pos)
    ring_vertex = {}
    for r in range(1, rings):
        for j in range(perimeter):
            ring_vertex[(r, j)] = next_id
            next_id += 1
    center = next_id

    def vertex(r: int, j: int) -> int:
        j %= perimeter
        if r == 0:
            return boundary_vertex(j)
        return ring_vertex[(r, j)]

    triangles = []
    for r in range(rings - 1):
        for j in range(perimeter):
            triangles.append((vertex(r, j), vertex(r, j + 1), vertex(r + 1, j + 1)))
            triangles.append((vertex(r, j), vertex(r + 1, j + 1), vertex(r + 1, j)))
    inner = rings - 1
    for j in range(perimeter):
        triangles.append((vertex(inner, j), vertex(inner, j + 1), center))

    for tri in triangles:
        if len(set(tri)) != 3:
            raise ValueError("degenerate triangle after identification; increase m")
    if len({tuple(sorted(t)) for t in triangles}) != len(triangles):
        raise ValueError("duplicate triangles after identification; increase m")
    return Triangulation(2, triangles)


def nonorientable_surface(t: int) -> Triangulation:
    """Connected sum of t projective planes, chi = 2 - t."""
    if t < 1:
        raise ValueError("t must be positive")
    if t == 1:
        return projective_plane()
    return surface_from_word(_surface_word("nonorientable", t))


def genus_surface(g: int) -> Triangulation:
    if g < 1:
        raise ValueError("genus must be positive")
    return surface_from_word(_surface_word("orientable", g))


def klein_bottle() -> Triangulation:
    return surface_from_word(_surface_word("klein", 0))


def square_grid_torus(n: int = 2) -> CellComplex:
    """The 4-valent square cellulation of the 2-torus.

    Not generic: every vertex has four edge cofaces, which is exactly the
    ambiguity that motivates degree at most 3.
    """
    if n < 2:
        raise ValueError("n must be at least 2")

    def v(x, y):
        return (x % n) * n + (y % n)

    def h(x, y):
        return (x % n) * n + (y % n)  # horizontal edge ids 0 .. n^2-1

    def vert(x, y):
        return n * n + (x % n) * n + (y % n)

    vertices = [() for _ in range(n * n)]
    edges: List[Tuple[int, ...]] = [() for _ in range(2 * n * n)]
    for x in range(n):
        for y in range(n):
            edges[h(x, y)] = (v(x, y), v(x + 1, y))
            edges[vert(x, y)] = (v(x, y), v(x, y + 1))
    squares = []
    for x in range(n):
        for y in range(n):
            squares.append((h(x, y), h(x, y + 1), vert(x, y), vert(x + 1, y)))
    return CellComplex(2, [vertices, edges, squares], provenance="builtin")


def _dualize_validated(t: Triangulation, name: str, meta_extra: dict | None = None) -> CellComplex:
    c = dual_of_triangulation(t)
    report = validate_generic(c)
    if not report.passed:
        raise AssertionError(
            f"builtin {name} failed genericity validation: {report.violations[:3]}"
        )
    c.provenance = "builtin"
    c.meta["name"] = name
    c.meta["generic_validated"] = True
    if meta_extra:
        c.meta.update(meta_extra)
    return c


def builtin_manifold(name: str, *params: int) -> CellComplex:
    """Construct a validated generic cellulation of a named manifold.

    Known names: sphere(d), torus(d, resolution), tP(t), genus(g), klein.
    """
    if name == "sphere":
        (d,) = params
        meta = {"balloon_even_ok": True} if d % 2 == 0 and d >= 4 else {}
        return _dualize_validated(simplex_boundary(d), f"sphere:{d}", meta)
    if name == "torus":
        if len(params) == 1:
            d, n = params[0], 3
        else:
            d, n = params
        return _dualize_validated(
            freudenthal_torus(d, n), f"torus:{d}:{n}", {"torus_grid": (d, n)}
        )
    if name == "tP":
        (t,) = params
        return _dualize_validated(nonorientable_surface(t), f"tP:{t}")
    if name == "genus":
        (g,) = params
        return _dualize_validated(genus_surface(g), f"genus:{g}")
    if name == "klein":
        return _dualize_validated(klein_bottle(), "klein")
    raise ValueError(f"unknown manifold name: {name}")


def _grid_edge_chain(c: CellComplex, n: int, edges: Sequence[Tuple[Tuple[int, int], Tuple[int, int]]]) -> Chain:
    """Map grid-coordinate vertex pairs to dual 1-cells of a torus:2 complex."""
    dual_id = c.meta["dual_id"][1]

    def vid(x, y):
        return (x % n) * n + (y % n)

    ids = []
    for (x1, y1), (x2, y2) in edges:
        key = tuple(sorted((vid(x1, y1), vid(x2, y2))))
        ids.append(dual_id[key])
    return Chain.from_cells(c, 1, ids)


def torus_diagonal_cycles(c: CellComplex) -> Tuple[Chain, Chain]:
    """Two homologous but oppositely wound loops on a grid torus.

    Returns the chains of dual 1-cells crossed by straight lines of slope +1
    and -1; both represent the same Z2 class.
    """
    grid = c.meta.get("torus_grid")
    if not grid or grid[0] != 2:
        raise ValueError("complex is not a builtin 2-torus")
    n = grid[1]
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
        _grid_edge_chain(c, n, diag_up),
        _grid_edge_chain(c, n, diag_down),
    )


def torus_dual_loops(c: CellComplex) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Two essential closed walks in the dual graph of a grid torus, given as
    the 1-cells they cross (a horizontal and a vertical line of sight)."""
    grid = c.meta.get("torus_grid")
    if not grid or grid[0] != 2:
        raise ValueError("complex is not a builtin 2-torus")
    n = grid[1]
    dual_id = c.meta["dual_id"][1]

    def vid(x, y):
        return (x % n) * n + (y % n)

    def edge(p, q):
        return dual_id[tuple(sorted((vid(*p), vid(*q))))]

    horizontal = []
    for x in range(n):
        horizontal.append(edge((x, 0), (x + 1, 1)))      # diagonal of square x
        horizontal.append(edge((x + 1, 0), (x + 1, 1)))  # vertical wall
    vertical = []
    for y in range(n):
        vertical.append(edge((0, y), (1, y + 1)))        # diagonal
        vertical.append(edge((0, y + 1), (1, y + 1)))    # horizontal wall
    return tuple(horizontal), tuple(vertical)
