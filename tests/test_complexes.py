"""Face-poset machinery: duals, validation, subcomplexes, persistence."""

import itertools
import random
from collections import Counter
from typing import Dict, Iterable, List, Tuple

import pytest

from gdslab.complexes import (
    HERITABILITY_SAMPLES,
    CellComplex,
    CellKey,
    Chain,
    DisjointSet,
    Triangulation,
    _closure_cells,
    _closure_masks,
    _cofacets,
    _pseudomanifold_problems,
    _ridge_flags,
    closed_subcomplex,
    dual_of_triangulation,
    is_embedded_union,
    subset_boundary_manifold_check,
    validate_generic,
)
from gdslab.f2 import _set_bits
from gdslab.manifolds import (
    _grid_edge_ids,
    barycentric_subdivision,
    builtin_manifold,
    freudenthal_torus,
    genus_surface,
    klein_bottle,
    manifold_spec,
    nonorientable_surface,
    projective_plane,
    simplex_boundary,
    square_grid_torus,
)
from gdslab import complexes as complexes_mod
from gdslab.cli import EXIT_USAGE, build_manifold, dispatch
from gdslab.model import ground_degeneracy, sector_reps
from gdslab.operators import random_sparse_cycle

from conftest import ORACLE_SPECS, cell_closure, dense_incidence, reference_closure


def resolve_union(
    c: CellComplex, k: int, cells: Iterable[int], closure_of=None
) -> CellComplex:
    """Normalization of a union of k-cells: tangential touchings split apart.

    Cells of the result are (cell, sheet) pairs, where the sheets at a face
    are the components of the incident k-cells under codimension-1 adjacency.
    Two k-cells count as locally connected at a face only when they share a
    (k-1)-cell containing it, which is exactly the perturbed picture of a
    union of closed cells.

    Oracle for `is_embedded_union`: the union is embedded iff its
    normalization has as many cells as its closure.  `closure_of` is a
    memoized `cell_closure(c)` that callers on one complex may share.
    """
    tops = sorted(set(cells))
    closure_of = closure_of or cell_closure(c)
    containing: Dict[CellKey, List[int]] = {}
    for f in tops:
        for key in closure_of((k, f)):
            containing.setdefault(key, []).append(f)
    ridge_members: Dict[CellKey, List[int]] = {
        key: mem for key, mem in containing.items() if key[0] == k - 1
    }
    touches: Dict[CellKey, List[CellKey]] = {}
    for ridge in ridge_members:
        for key in closure_of(ridge):
            touches.setdefault(key, []).append(ridge)
    # sheet index per (cell, top): components under adjacency through ridges
    sheet_of: Dict[CellKey, Dict[int, int]] = {}
    for key, members in containing.items():
        sheets = DisjointSet(members)
        for ridge in touches.get(key, []):
            mem = ridge_members[ridge]
            for other in mem[1:]:
                sheets.union(mem[0], other)
        roots = sorted({sheets.find(f) for f in members})
        root_index = {r: i for i, r in enumerate(roots)}
        sheet_of[key] = {f: root_index[sheets.find(f)] for f in members}
    new_ids: Dict[Tuple[CellKey, int], int] = {}
    per_dim: List[List[Tuple[CellKey, int]]] = [[] for _ in range(k + 1)]
    for key in sorted(containing):
        for sheet in sorted(set(sheet_of[key].values())):
            new_ids[(key, sheet)] = len(per_dim[key[0]])
            per_dim[key[0]].append((key, sheet))
    faces: List[List[Tuple[int, ...]]] = [[] for _ in range(k + 1)]
    for dim in range(k + 1):
        for key, sheet in per_dim[dim]:
            if dim == 0:
                faces[0].append(())
                continue
            rep = next(f for f, s in sheet_of[key].items() if s == sheet)
            fl = []
            for fid in c.faces(*key):
                face_key = (dim - 1, fid)
                fl.append(new_ids[(face_key, sheet_of[face_key][rep])])
            faces[dim].append(tuple(fl))
    return CellComplex(k, faces, meta={"source_cells": [key for key, _ in per_dim[k]]})


def resolved_counts_match_closure(
    c: CellComplex, k: int, cells: List[int], closure_of=None
) -> bool:
    """The oracle's embeddedness: normalizing the union splits nothing."""
    if not cells:
        return True
    counts = [0] * (k + 1)
    for dim, _ in c.closure((k, i) for i in cells):
        counts[dim] += 1
    return list(resolve_union(c, k, cells, closure_of).cell_counts) == counts


def subset_boundary_link_walk(c: CellComplex, top_cells: Iterable[int]) -> bool:
    """Oracle for `subset_boundary_manifold_check`: the same counts, with the
    d = 3 vertex links walked over every edge through each vertex and joined
    by their own union-find."""
    d = c.dim
    if d > 3:
        raise NotImplementedError("link checks implemented for dimension <= 3")
    tset = set(top_cells)
    boundary_cells = [
        i
        for i in range(c.n_cells(d - 1))
        if sum(1 for cf in c.cofaces(d - 1, i) if cf in tset) == 1
    ]
    if not boundary_cells:
        return True
    bset = set(boundary_cells)
    closure = c.closure((d - 1, i) for i in boundary_cells)
    if d >= 2:
        # every (d-2)-cell of the boundary must sit in exactly 2 boundary cells
        for k, i in closure:
            if k != d - 2:
                continue
            n = sum(1 for cf in c.cofaces(d - 2, i) if cf in bset)
            if n != 2:
                return False
    if d == 3:
        # vertex links inside the boundary surface must be single circles
        closed = {(k, i): c.closure([(k, i)]) for k in (1, 2) for i in range(c.n_cells(k))}
        for k, v in closure:
            if k != 0:
                continue
            incident = [
                f
                for f in bset
                if (0, v) in closed[(2, f)]
            ]
            edges_at_v = {
                e
                for e in range(c.n_cells(1))
                if (0, v) in closed[(1, e)]
            }
            link = DisjointSet(incident)
            degree = {f: 0 for f in incident}
            for e in edges_at_v:
                sharing = [f for f in incident if e in c.faces(2, f)]
                if len(sharing) == 2:
                    a, b = sharing
                    degree[a] += 1
                    degree[b] += 1
                    link.union(a, b)
                elif len(sharing) > 2:
                    return False
            if any(deg != 2 for deg in degree.values()):
                return False
            if len({link.find(f) for f in incident}) != 1:
                return False
    return True


def cubical_torus3(n: int = 3) -> CellComplex:
    """The cubical 3-torus with n^3 cubes: six edges at every vertex, so it
    is not generic. Cube (x, y, z) has id 9x + 3y + z for n = 3."""
    points = list(itertools.product(range(n), repeat=3))

    def idx(p):
        return sum((p[a] % n) * n ** (2 - a) for a in range(3))

    def step(p, a):
        return tuple(x + (i == a) for i, x in enumerate(p))

    def edge(p, a):
        return a * n ** 3 + idx(p)

    planes = [(0, 1), (0, 2), (1, 2)]

    def square(p, plane):
        return plane * n ** 3 + idx(p)

    edges = [(idx(p), idx(step(p, a))) for a in range(3) for p in points]
    squares = [
        (edge(p, a), edge(step(p, b), a), edge(p, b), edge(step(p, a), b))
        for a, b in planes
        for p in points
    ]
    cubes = [
        tuple(
            sq
            for plane, (a, b) in enumerate(planes)
            for sq in (square(p, plane), square(step(p, 3 - a - b), plane))
        )
        for p in points
    ]
    return CellComplex(3, [[()] * n ** 3, edges, squares, cubes])


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


@pytest.mark.parametrize("t", [
    Triangulation(2, [(0, 1, 2), (1, 2, 3)]),
    Triangulation(2, [(0, 1, 2), (0, 3, 4), (1, 2, 5), (3, 4, 5)]),
    Triangulation(2, [f for s in [(0, 1, 2, 3), (0, 4, 5, 6)]
                      for f in itertools.combinations(s, 3)]),
    Triangulation(0, [(0,), (1,), (2,)]),
], ids=["open-ridges", "butterfly", "pinched-vertex", "three-points"])
def test_dual_refuses_with_the_first_validate_message(t):
    # the dual checks its own top-level facet table, with validate's messages
    with pytest.raises(ValueError) as err:
        dual_of_triangulation(t)
    assert str(err.value) == "input is not a closed pseudo-manifold: " + t.validate()[0]
    assert_links_match_oracle(t)


def test_triangulation_validate_flags_disconnected_link():
    # butterfly: two open strips that meet only at vertices 0 and 5
    t = Triangulation(2, [(0, 1, 2), (0, 3, 4), (1, 2, 5), (3, 4, 5)])
    assert t.validate() == [
        "face (0, 2) lies in 1 maximal simplices",
        "face (0, 1) lies in 1 maximal simplices",
        "face (0, 4) lies in 1 maximal simplices",
        "face (0, 3) lies in 1 maximal simplices",
        "face (2, 5) lies in 1 maximal simplices",
        "face (1, 5) lies in 1 maximal simplices",
        "face (4, 5) lies in 1 maximal simplices",
        "face (3, 5) lies in 1 maximal simplices",
        "vertex 0 has a disconnected link",
        "vertex 5 has a disconnected link",
    ]


def test_triangulation_validate_lists_open_ridges_in_order():
    # two triangles sharing an edge: every other edge lies in one triangle
    t = Triangulation(2, [(0, 1, 2), (1, 2, 3)])
    assert t.validate() == [
        "face (0, 2) lies in 1 maximal simplices",
        "face (0, 1) lies in 1 maximal simplices",
        "face (2, 3) lies in 1 maximal simplices",
        "face (1, 3) lies in 1 maximal simplices",
    ]


def test_triangulation_validate_flags_a_pinched_vertex_alone():
    # two tetrahedron boundaries sharing vertex 0: every ridge pairs up
    spheres = [(0, 1, 2, 3), (0, 4, 5, 6)]
    t = Triangulation(2, [f for s in spheres for f in itertools.combinations(s, 3)])
    assert t.validate() == ["vertex 0 has a disconnected link"]


def test_triangulation_validate_counts_the_empty_ridge_in_dimension_0():
    assert Triangulation(0, [(0,), (1,), (2,)]).validate() == [
        "face () lies in 3 maximal simplices"
    ]


def reference_pseudomanifold_problems(
    simplices: List[Tuple[int, ...]], ridges: Dict[Tuple[int, ...], List[int]]
) -> List[str]:
    """Oracle for the closed pseudo-manifold check: ridge counts, then one
    union-find per vertex over the top simplices through it."""
    problems = [
        f"face {ridge} lies in {len(ids)} maximal simplices"
        for ridge, ids in ridges.items()
        if len(ids) != 2
    ]
    star: Dict[int, List[int]] = {}
    for idx, s in enumerate(simplices):
        for v in s:
            star.setdefault(v, []).append(idx)
    links = {v: DisjointSet(idxs) for v, idxs in star.items()}
    for ridge, ids in ridges.items():
        for v in ridge:
            for other in ids[1:]:
                links[v].union(ids[0], other)
    for v, idxs in star.items():
        if len({links[v].find(i) for i in idxs}) != 1:
            problems.append(f"vertex {v} has a disconnected link")
    return problems


def assert_links_match_oracle(t: Triangulation) -> List[str]:
    problems = t.validate()
    assert problems == reference_pseudomanifold_problems(t.simplices, _cofacets(t.simplices))
    return problems


# every oracle spec but Voronoi, which builds its complex without a triangulation
@pytest.mark.parametrize("spec", [s for s in ORACLE_SPECS if not s.startswith("torus-voronoi")])
def test_flag_union_find_matches_per_vertex_links(spec):
    name, *params = spec.split(":")
    row = manifold_spec(name)
    t = row.build(*row.complete([int(p) for p in params]), points=None, seed=None)
    assert assert_links_match_oracle(t) == []


def test_flag_union_find_matches_oracle_on_failures():
    # two 3-sphere boundaries of 4-simplices sharing vertex 4
    pinch = Triangulation(3, [f for s in [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8)]
                              for f in itertools.combinations(s, 4)])
    assert assert_links_match_oracle(pinch) == ["vertex 4 has a disconnected link"]
    # a butterfly on sparse labels: its bad vertices in order of first appearance
    butterfly = Triangulation(2, [(5, 6, 9), (5, 7, 8), (6, 9, 10), (7, 8, 10)])
    assert assert_links_match_oracle(butterfly)[-2:] == [
        "vertex 5 has a disconnected link", "vertex 10 has a disconnected link"]


# the closed pseudo-manifolds that ship: every triangulation a spec builds, at
# a few sizes
SHIPPED_TRIANGULATIONS = [
    "sphere:1", "sphere:2", "sphere:3", "sphere:4", "sphere:5",
    "torus:1:3", "torus:2:3", "torus:2:4", "torus:3:3", "torus:3:4", "torus:4:3",
    "tP:1", "tP:2", "tP:3", "tP:6", "genus:1", "genus:2", "genus:3", "klein",
]

# triangulations that fail the check, each in its own way
BROKEN_TRIANGULATIONS = {
    "open-ridges": Triangulation(2, [(0, 1, 2), (1, 2, 3)]),
    "butterfly": Triangulation(2, [(0, 1, 2), (0, 3, 4), (1, 2, 5), (3, 4, 5)]),
    "sparse-butterfly": Triangulation(2, [(5, 6, 9), (5, 7, 8), (6, 9, 10), (7, 8, 10)]),
    "pinched-vertex": Triangulation(2, [f for s in [(0, 1, 2, 3), (0, 4, 5, 6)]
                                        for f in itertools.combinations(s, 3)]),
    "pinched-3-spheres": Triangulation(3, [f for s in [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8)]
                                           for f in itertools.combinations(s, 4)]),
    "three-points": Triangulation(0, [(0,), (1,), (2,)]),
    "one-point": Triangulation(0, [(0,)]),
    "three-sheets": Triangulation(2, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3),
                                      (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)]),
}


def spec_triangulation(spec: str) -> Triangulation:
    name, *params = spec.split(":")
    row = manifold_spec(name)
    return row.build(*row.complete([int(p) for p in params]), points=None, seed=None)


def assert_flag_table_matches_problems(t: Triangulation) -> bool:
    """The flag table lists `_cofacets`' ridges in order of first appearance,
    each simplex leaving out its first vertex first, with flag j*w + i for
    simplex j; the problem list from it equals the oracle's."""
    flags, cofacets = _ridge_flags(t.simplices), _cofacets(t.simplices)
    w = t.dim + 1
    first_seen = dict.fromkeys(s[:i] + s[i + 1:] for s in t.simplices for i in range(w))
    assert list(flags) == list(cofacets) == list(first_seen)
    for ridge, xs in flags.items():
        assert [x // w for x in xs] == cofacets[ridge]
        for x in xs:  # the vertex that x's simplex adds is at position x % w
            s = t.simplices[x // w]
            assert s[: x % w] + s[x % w + 1:] == ridge
    problems = _pseudomanifold_problems(t.simplices, flags)
    assert problems == reference_pseudomanifold_problems(t.simplices, cofacets)
    assert problems == t.validate()
    return not problems


def relabelled(t: Triangulation, rng: random.Random) -> Triangulation:
    """t with its vertices renamed by a random injection into a wider range."""
    labels = rng.sample(range(3 * t.n_vertices + 5), t.n_vertices)
    return Triangulation(t.dim, [[labels[v] for v in s] for s in t.simplices])


@pytest.mark.parametrize("spec", SHIPPED_TRIANGULATIONS)
def test_pseudomanifold_problems_match_the_oracle_on_shipped_triangulations(spec):
    t = spec_triangulation(spec)
    assert assert_flag_table_matches_problems(t)
    rng = random.Random(spec)
    for _ in range(3):
        assert assert_flag_table_matches_problems(relabelled(t, rng))


def test_pseudomanifold_problems_match_the_oracle_on_a_barycentric_subdivision():
    t = barycentric_subdivision(simplex_boundary(3))
    assert assert_flag_table_matches_problems(t)
    assert assert_flag_table_matches_problems(relabelled(t, random.Random(5)))


@pytest.mark.parametrize("name", sorted(BROKEN_TRIANGULATIONS))
def test_pseudomanifold_problems_match_the_oracle_on_broken_triangulations(name):
    t = BROKEN_TRIANGULATIONS[name]
    assert not assert_flag_table_matches_problems(t)
    rng = random.Random(name)
    for _ in range(5):
        assert not assert_flag_table_matches_problems(relabelled(t, rng))


def test_pseudomanifold_problems_match_the_oracle_on_random_pieces():
    # random subsets of the top simplices of small closed manifolds, and
    # disjoint unions with copies: mostly broken, some closed
    rng = random.Random(11)
    verdicts = set()
    for spec in ("sphere:2", "sphere:3", "torus:2:3", "tP:2"):
        t = spec_triangulation(spec)
        for _ in range(15):
            keep = [s for s in t.simplices if rng.random() < 0.8] or t.simplices[:1]
            copy = [[v + t.n_vertices for v in s] for s in t.simplices]
            for pieces in (keep, keep + copy):
                verdicts.add(assert_flag_table_matches_problems(
                    relabelled(Triangulation(t.dim, pieces), rng)))
    assert verdicts == {True, False}


def test_every_triangulation_spec_checks_its_ridges_once(monkeypatch):
    # one pass over the ridge flags checks a build, and finds no problem
    real = complexes_mod._pseudomanifold_problems
    found = []

    def counted(simplices, ridges):
        found.append(real(simplices, ridges))
        return found[-1]

    monkeypatch.setattr(complexes_mod, "_pseudomanifold_problems", counted)
    for spec in SHIPPED_TRIANGULATIONS:
        name, *params = spec.split(":")
        c = builtin_manifold(name, *map(int, params))
        assert c.meta["generic_validated"]
    assert found == [[]] * len(SHIPPED_TRIANGULATIONS)


def test_broken_tri_file_exits_2_with_the_first_problem(tmp_path, capsys):
    for name in ("open-ridges", "butterfly", "pinched-vertex"):
        t = BROKEN_TRIANGULATIONS[name]
        path = tmp_path / f"{name}.tri"
        t.save(str(path))
        rc = dispatch(["gsd", "--manifold", f"tri:{path}"])
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert captured.out == ""
        assert captured.err == ("error: input is not a closed pseudo-manifold: "
                                f"{t.validate()[0]}\n")


def test_disjoint_set_list_and_dict_storage_agree():
    rng = random.Random(3)
    n = 300
    as_list, as_dict = DisjointSet(range(n)), DisjointSet(list(range(n)))
    assert isinstance(as_list.parent, list) and isinstance(as_dict.parent, dict)
    for _ in range(250):
        a, b = rng.randrange(n), rng.randrange(n)
        as_list.union(a, b)
        as_dict.union(a, b)
        probe = rng.randrange(n)
        assert as_list.find(probe) == as_dict.find(probe)
    assert [as_list.find(x) for x in range(n)] == [as_dict.find(x) for x in range(n)]
    # any other range keeps a dict keyed by its items
    assert isinstance(DisjointSet(range(2, 9)).parent, dict)


def faces_by_dim_oracle(t: Triangulation) -> Dict[int, List[Tuple[int, ...]]]:
    """Oracle for `Triangulation.faces_by_dim`: every nonempty vertex subset
    of every maximal simplex, sorted per dimension."""
    found = {k: set() for k in range(t.dim + 1)}
    for s in t.simplices:
        n = len(s)
        for bits in range(1, 1 << n):
            sub = tuple(s[i] for i in range(n) if (bits >> i) & 1)
            found[len(sub) - 1].add(sub)
    return {k: sorted(v) for k, v in found.items()}


def dual_oracle(t: Triangulation) -> CellComplex:
    """Oracle for `dual_of_triangulation`: the faces of the dual of a
    k-simplex are the ids of the (k+1)-simplices whose facets include it,
    found by dropping each vertex of every (k+1)-simplex."""
    d = t.dim
    by_dim = faces_by_dim_oracle(t)
    ids = {k: {s: i for i, s in enumerate(by_dim[k])} for k in by_dim}
    contains = {k: {s: [] for s in by_dim[k]} for k in by_dim}
    for k in range(1, d + 1):
        for tau in by_dim[k]:
            for drop in range(len(tau)):
                contains[k - 1][tau[:drop] + tau[drop + 1 :]].append(ids[k][tau])
    faces = [[()] * len(by_dim[d])] + [
        [tuple(sorted(contains[d - j][s])) for s in by_dim[d - j]]
        for j in range(1, d + 1)
    ]
    return CellComplex(d, faces, meta={"dual_id": ids})


def assert_matches_lattice_oracle(t: Triangulation, c: CellComplex):
    assert t.faces_by_dim() == faces_by_dim_oracle(t)
    oracle = dual_oracle(t)
    assert c._faces == oracle._faces


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_grid_edge_ids_match_the_dual_oracle(n):
    # the grid edges of torus:2:n name the dual 1-cells the lattice oracle
    # numbers, horizontal, vertical and diagonal, from every vertex
    edge_id = dual_oracle(freudenthal_torus(2, n)).meta["dual_id"][1]
    edges = [((x, y), (x + dx, y + dy)) for x in range(n) for y in range(n)
             for dx, dy in ((1, 0), (0, 1), (1, 1))]
    expected = [edge_id[tuple(sorted((p[0] * n + p[1], (q[0] % n) * n + q[1] % n)))]
                for p, q in edges]
    assert _grid_edge_ids(n, edges) == expected
    assert sorted(expected) == list(range(3 * n * n))


def random_cell_set(c, rng, dims):
    """A few random cells of each of the given dimensions."""
    return [(k, i) for k in dims
            for i in rng.sample(range(c.n_cells(k)), rng.randint(1, min(c.n_cells(k), 6)))]


def assert_closures_match_oracle(c, seed):
    rng = random.Random(seed)
    for _ in range(12):
        k = rng.randint(0, c.dim)
        for cells in (random_cell_set(c, rng, [k]),
                      random_cell_set(c, rng, rng.sample(range(c.dim + 1), 2))):
            assert c.closure(cells) == reference_closure(c, cells)
    assert c.closure([]) == frozenset()


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_closure_matches_the_recursive_oracle(spec):
    assert_closures_match_oracle(build_manifold(spec, 60, 1), seed=len(spec))


def test_closure_matches_the_recursive_oracle_on_voronoi3(voronoi3):
    assert_closures_match_oracle(voronoi3, seed=3)


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_closure_cells_are_the_keys_of_closure_masks(spec):
    # seeds of one or several dimensions, with arbitrary masks
    c = build_manifold(spec, 60, 1)
    rng = random.Random(spec)
    for _ in range(12):
        dims = rng.sample(range(c.dim + 1), rng.randint(1, c.dim + 1))
        cells = random_cell_set(c, rng, dims)
        masks = _closure_masks(c, {key: rng.getrandbits(6) | 1 for key in cells})
        assert _closure_cells(c, cells) == [set(ms) for ms in masks]
    assert _closure_cells(c, []) == [] == _closure_masks(c, {})


@pytest.mark.parametrize("make,args", [
    (simplex_boundary, (2,)), (simplex_boundary, (3,)), (simplex_boundary, (4,)),
    (freudenthal_torus, (2, 3)), (freudenthal_torus, (3, 3)),
    (nonorientable_surface, (1,)), (nonorientable_surface, (3,)),
    (genus_surface, (2,)), (klein_bottle, ()),
], ids=["sphere:2", "sphere:3", "sphere:4", "torus:2:3", "torus:3:3",
        "tP:1", "tP:3", "genus:2", "klein"])
def test_faces_and_dual_match_oracle_on_builtins(make, args):
    t = make(*args)
    assert_matches_lattice_oracle(t, dual_of_triangulation(t))


def test_faces_and_dual_match_oracle_on_barycentric_subdivision():
    t = barycentric_subdivision(simplex_boundary(3))
    assert_matches_lattice_oracle(t, dual_of_triangulation(t))


def test_faces_and_dual_match_oracle_on_a_tri_file(tmp_path):
    # an octahedron boundary, vertices and lines out of order
    path = tmp_path / "octahedron.tri"
    path.write_text(
        "dim 2\n"
        "s 5 2 0\ns 1 3 4\ns 0 3 2\ns 4 2 5\n"
        "s 3 0 5\ns 1 2 3\ns 4 5 3\ns 2 1 4\n"
    )
    c = build_manifold(f"tri:{path}", None, None)
    assert_matches_lattice_oracle(Triangulation.load(str(path)), c)
    assert c.cell_counts == (8, 12, 6)


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
            prod = dense_incidence(c, k).matmul(dense_incidence(c, k - 1))
            assert not any(prod.data)


def assert_bits_match_dense_oracle(c):
    """boundary_bits are the rows of the dense boundary map, coboundary_bits
    its columns, in every dimension."""
    for k in range(c.dim + 1):
        dense = dense_incidence(c, k)
        assert [c.boundary_bits(k, i) for i in range(c.n_cells(k))] == dense.data
        if k >= 1:
            cobound = [c.coboundary_bits(k - 1, j) for j in range(c.n_cells(k - 1))]
            assert cobound == dense.transpose().data
    assert all(c.coboundary_bits(c.dim, i) == 0 for i in range(c.n_cells(c.dim)))


SHIPPED_SPECS = [
    "sphere:1", "sphere:2", "sphere:3", "sphere:4", "torus:2:3", "torus:3:3",
    "tP:1", "tP:3", "genus:2", "klein", "square-grid:3", "torus-voronoi:2",
    "torus-voronoi:3",
]


@pytest.mark.parametrize("spec", SHIPPED_SPECS)
def test_boundary_and_coboundary_bits_match_dense_oracle(spec):
    assert_bits_match_dense_oracle(build_manifold(spec, None, 1))


def glued_complex() -> CellComplex:
    """Two vertices, two edges between them and a loop edge at vertex 0; a
    2-cell runs along edges 0 and 1 and twice along the loop, another once
    along the loop and twice along edge 0. Repeated faces cancel over F2."""
    return CellComplex(2, [[(), ()], [(0, 1), (0, 1), (0, 0)], [(0, 1, 2, 2), (2, 0, 0)]])


def test_repeated_faces_cancel_in_boundary_and_coboundary_bits():
    c = glued_complex()
    assert c.boundary_bits(1, 2) == 0          # the loop's vertex twice
    assert c.boundary_bits(2, 0) == 0b011      # the loop twice
    assert c.boundary_bits(2, 1) == 0b100      # edge 0 twice
    assert c.coboundary_bits(0, 0) == 0b011    # vertex 0 on the loop twice
    assert c.coboundary_bits(1, 0) == 0b01     # edge 0 in cell 1 twice
    assert c.coboundary_bits(1, 2) == 0b10     # the loop in cell 0 twice
    assert_bits_match_dense_oracle(c)
    assert Chain.from_cells(c, 1, [0, 2, 0]).bits == 0b100


def test_boundary_of_boundary_is_checked_per_cell():
    # a 2-cell on one edge: its boundary has boundary v0 + v1
    c = CellComplex(2, [[(), ()], [(0, 1)], [(0,)]])
    report = validate_generic(c)
    assert "boundary of boundary nonzero in dimension 2" in report.violations
    assert any(dense_incidence(c, 2).matmul(dense_incidence(c, 1)).data)
    # the glued complex's repeats cancel: its boundary of boundary is zero
    glued = glued_complex()
    assert not any(dense_incidence(glued, 2).matmul(dense_incidence(glued, 1)).data)
    assert not any("boundary of boundary" in v for v in validate_generic(glued).violations)
    assert c._boundary_rows == {} and glued._boundary_rows == {}


def reference_validate_generic(c: CellComplex) -> List[str]:
    """Oracle for `validate_generic`: coface counts from `cofaces`, and the
    boundary of a boundary from one Counter of faces' faces per cell."""
    violations: List[str] = []
    d = c.dim
    for k in range(d):
        expected = d - k + 1
        for i in range(c.n_cells(k)):
            n = len(c.cofaces(k, i))
            if n != expected:
                violations.append(f"{k}-cell {i} has {n} cofaces, expected {expected}")
    for k in range(1, d + 1):
        for i in range(c.n_cells(k)):
            fl = c.faces(k, i)
            if len(fl) != len(set(fl)):
                violations.append(f"{k}-cell {i} has a repeated face (non-embedded)")
    for k in range(2, d + 1):
        if any(n & 1 for i in range(c.n_cells(k))
               for n in Counter(g for f in c.faces(k, i) for g in c.faces(k - 1, f)).values()):
            violations.append(f"boundary of boundary nonzero in dimension {k}")
    if d >= 1 and not violations:
        n_top = c.n_cells(d)
        for cell in range(0, n_top, max(1, n_top // HERITABILITY_SAMPLES)):
            try:
                sphere = c.boundary_sphere(cell)
            except ValueError as exc:
                violations.append(f"top cell {cell}: {exc}")
                continue
            if sphere.dim != d - 1:
                violations.append(f"top cell {cell}: boundary has wrong dimension")
                continue
            for k in range(sphere.dim):
                for i in range(sphere.n_cells(k)):
                    if len(sphere.cofaces(k, i)) != sphere.dim - k + 1:
                        violations.append(
                            f"top cell {cell}: boundary sphere fails coface count at {k}-cell {i}"
                        )
            expected_chi = 0 if (d - 1) % 2 else 2
            if sphere.euler_characteristic() != expected_chi:
                violations.append(
                    f"top cell {cell}: boundary sphere has chi "
                    f"{sphere.euler_characteristic()}, expected {expected_chi}"
                )
    return violations


def assert_validate_matches_oracle(c: CellComplex) -> List[str]:
    violations = validate_generic(c).violations
    assert violations == reference_validate_generic(c)
    return violations


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_validate_generic_matches_cofaces_and_counter_oracle(spec):
    assert assert_validate_matches_oracle(build_manifold(spec, 60, 1)) == []


def test_validate_generic_matches_oracle_on_voronoi3(voronoi3):
    assert assert_validate_matches_oracle(voronoi3) == []


def test_validate_generic_matches_oracle_on_failures():
    violations = assert_validate_matches_oracle(square_grid_torus(3))
    assert violations
    # one face id of a 3-cell moved to another 2-cell: coface counts and the
    # boundary of boundary both break
    c = builtin_manifold("torus", 3, 3)
    faces = [list(c._faces[k]) for k in range(4)]
    fl = faces[3][0]
    new = next(f for f in range(c.n_cells(2)) if f not in fl)
    faces[3][0] = (new,) + fl[1:]
    violations = assert_validate_matches_oracle(CellComplex(3, faces))
    assert "boundary of boundary nonzero in dimension 3" in violations
    assert any("cofaces, expected 2" in v for v in violations)
    # a repeated face and a 2-cell on one edge
    assert assert_validate_matches_oracle(glued_complex())
    assert assert_validate_matches_oracle(CellComplex(2, [[(), ()], [(0, 1)], [(0,)]]))


def test_gsd_builds_no_boundary_rows_below_the_top_dimension():
    c = builtin_manifold("torus", 3, 6)
    assert c._boundary_rows == {}  # validation fills no boundary memo
    ground_degeneracy(c)
    # the sector generators come from the face tuples: no boundary rows
    assert c._boundary_rows == {}


def per_cell_boundary(c: CellComplex, k: int, bits: int) -> int:
    """Oracle for `Chain.boundary`: every face of every cell of the chain
    toggled once per occurrence."""
    out = 0
    for i in range(c.n_cells(k)):
        if bits >> i & 1:
            for f in c.faces(k, i):
                out ^= 1 << f
    return out


@pytest.mark.parametrize("spec", SHIPPED_SPECS + ["glued"])
def test_chain_boundary_matches_the_per_cell_xor(spec):
    c = glued_complex() if spec == "glued" else build_manifold(spec, None, 1)
    rng = random.Random(spec)
    for k in range(c.dim + 1):
        n = c.n_cells(k)
        assert Chain.empty(c, k).boundary() == Chain.empty(c, k - 1)
        assert k not in c._boundary_rows  # the empty chain builds no row table
        for bits in ((1 << n) - 1, 1 << rng.randrange(n), rng.getrandbits(n), rng.getrandbits(n)):
            b = Chain(c, k, bits).boundary()
            assert (b.complex, b.dim, b.bits) == (c, k - 1, per_cell_boundary(c, k, bits))


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


def reference_is_embedded_union(
    c: CellComplex, k: int, cells: Iterable[int], closure_of=None
) -> bool:
    """`is_embedded_union` checking every closure cell, (k-1)- and k-cells
    included; `closure_of` as in `resolve_union`."""
    closure_of = closure_of or cell_closure(c)
    containing: Dict[CellKey, List[int]] = {}
    for f in set(cells):
        for key in closure_of((k, f)):
            containing.setdefault(key, []).append(f)
    ridges_at: Dict[CellKey, List[List[int]]] = {}
    for ridge, members in containing.items():
        if ridge[0] == k - 1 and len(members) > 1:
            for key in closure_of(ridge):
                ridges_at.setdefault(key, []).append(members)
    for key, members in containing.items():
        if len(members) < 2:
            continue
        sheets = DisjointSet(members)
        for ridge_members in ridges_at.get(key, ()):
            for other in ridge_members[1:]:
                sheets.union(ridge_members[0], other)
        root = sheets.find(members[0])
        if any(sheets.find(f) != root for f in members[1:]):
            return False
    return True


EMBEDDING_SPECS = [
    ("sphere", 2), ("sphere", 3), ("sphere", 4), ("torus", 3, 3), ("torus", 3, 4),
    ("tP", 3), ("klein",), ("genus", 2), ("torus", 2, 3), ("torus", 4, 3),
]


@pytest.mark.parametrize("spec", EMBEDDING_SPECS, ids=lambda s: ":".join(map(str, s)))
def test_is_embedded_union_matches_resolved_counts(spec):
    c = builtin_manifold(*spec)
    k = c.dim - 1
    n = c.n_cells(k)
    reps = sector_reps(c).reps
    rng = random.Random(11)
    closure_of = cell_closure(c)  # one memo for every oracle call below
    outcomes = []
    for _ in range(40):
        unions = [rng.sample(range(n), rng.randint(1, min(n, 6)))]
        # a cycle support and the three overlap pieces of a cycle pair
        l_bits = random_sparse_cycle(c, rng, reps=reps).bits
        a_bits = random_sparse_cycle(c, rng, reps=reps).bits
        for bits in (l_bits, l_bits & ~a_bits, l_bits & a_bits, a_bits & ~l_bits):
            unions.append(_set_bits(bits))
        for cells in unions:
            expected = resolved_counts_match_closure(c, k, cells, closure_of)
            assert is_embedded_union(c, k, cells) == expected, (spec, cells)
            assert reference_is_embedded_union(c, k, cells, closure_of) == expected, (spec, cells)
            outcomes.append(expected)
    assert True in outcomes
    if c.dim >= 3:
        assert False in outcomes  # tangential touchings occur and are caught


def test_is_embedded_union_skips_no_deciding_cell(voronoi3):
    # random clusters of (d-1)-cells around one vertex, where tangential
    # touchings are frequent, and random pieces of cycles
    rng = random.Random(12)
    outcomes = set()
    for c in (builtin_manifold("torus", 3, 5), voronoi3):
        k = c.dim - 1
        near: Dict[int, List[int]] = {}
        for f in range(c.n_cells(k)):
            for key in c.closure([(k, f)]):
                if key[0] == 0:
                    near.setdefault(key[1], []).append(f)
        reps = sector_reps(c).reps
        for _ in range(150):
            around = near[rng.randrange(c.n_cells(0))]
            pieces = [rng.sample(around, rng.randint(2, len(around))),
                      _set_bits(random_sparse_cycle(c, rng, reps=reps).bits)]
            for cells in pieces:
                answer = is_embedded_union(c, k, cells)
                assert answer == reference_is_embedded_union(c, k, cells), cells
                outcomes.add(answer)
    assert outcomes == {True, False}


def test_is_embedded_union_tangent_wedge():
    sq = square_grid_torus(3)
    assert not is_embedded_union(sq, 2, [0, 4])  # squares meeting at a corner
    assert is_embedded_union(sq, 2, [0, 1])      # squares sharing an edge
    assert is_embedded_union(sq, 2, [])


def test_cubical_torus3_is_a_closed_3_manifold():
    cube = cubical_torus3()
    assert cube.cell_counts == (27, 81, 81, 27)
    assert cube.euler_characteristic() == 0
    for k in range(2, 4):
        assert not any(dense_incidence(cube, k).matmul(dense_incidence(cube, k - 1)).data)
    assert all(len(cube.cofaces(2, i)) == 2 for i in range(81))
    assert not validate_generic(cube).passed


def test_subset_boundary_corner_touching_cubes():
    cube = cubical_torus3()
    # cubes (0,0,0) and (1,1,1) share one corner, whose link is two circles
    assert subset_boundary_link_walk(cube, [0, 13]) is False
    assert subset_boundary_manifold_check(cube, [0, 13]) is False
    assert subset_boundary_manifold_check(cube, [0])
    assert subset_boundary_manifold_check(cube, [0, 1])  # sharing a square


@pytest.mark.parametrize("boundary,expected", [
    ([(0, 1), (0, 1)], True),                   # two bigons: a 2-sphere
    ([(0, 1, 2, 3), (0, 1, 2, 3)], False),      # figure eights, pinched at v
    ([(0, 1, 4, 4), (0, 1)], True),             # a loop edge folded into one face
])
def test_subset_boundary_edges_through_a_vertex(boundary, expected):
    # one 3-cell bounded by two 2-cells; edges 0, 1 run v-a-v, edges 2, 3
    # run v-b-v and edge 4 is a loop at v (vertices v, a, b = 0, 1, 2)
    edges = [(0, 1), (1, 0), (0, 2), (2, 0), (0, 0)]
    c = CellComplex(3, [[()] * 3, edges, boundary, [(0, 1)]])
    assert subset_boundary_link_walk(c, [0]) is expected
    assert subset_boundary_manifold_check(c, [0]) is expected


def test_subset_boundary_matches_link_walk(voronoi2, voronoi3, torus3, sphere3):
    rng = random.Random(21)
    cube = cubical_torus3()
    for c, trials in ((cube, 150), (voronoi3, 40), (torus3, 40), (sphere3, 20),
                      (voronoi2, 20), (square_grid_torus(3), 40)):
        n = c.n_cells(c.dim)
        outcomes = []
        for _ in range(trials):
            subset = rng.sample(range(n), rng.randint(1, n - 1))
            expected = subset_boundary_link_walk(c, subset)
            assert subset_boundary_manifold_check(c, subset) == expected, subset
            outcomes.append(expected)
        if c is cube:
            assert True in outcomes and False in outcomes
