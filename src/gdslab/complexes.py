"""Cell complexes as graded face posets, triangulations, and their duals.

A complex of dimension d stores, for every k-cell, the tuple of its
codimension-1 face ids, and derives the coface tuples from them; these are
its only incidence.  Face tuples may contain repeats (a cell glued to the
same face twice); boundaries over F2 use the parity of the multiplicity,
coface counts use the multiplicity itself.  A cell's boundary or coboundary
as a bitmask is the XOR of its face or coface ids, built on request.
Validation reads the face tables in flat passes: coface counts from one
counting pass per dimension, and the boundary of a k-cell's boundary vanishes
iff the sorted list of its faces' faces pairs up.

Closures come from one downward pass, `_closure_masks`: masks on seed cells
of any dimensions are ORed into their faces one dimension at a time.  The
closure of a cell set is the key set of that pass with every mask 1; callers
that only count cells (Euler characteristics, Betti numbers, clean-overlap
tests) read its per-dimension dicts instead.

A triangulation's faces are enumerated in one place, `_cofacets`, which
lists every facet of the k-simplices with the ids of the simplices that
contain it.  Applied top-down it gives `faces_by_dim`; applied once to the
top simplices it gives the closed pseudo-manifold check its ridge counts and
vertex links; and its id lists are the face tuples of `dual_of_triangulation`,
which checks its own top-level table rather than calling `validate`.  The
vertex links are checked by one union-find over flags, a flag being a vertex
of one top simplex: a ridge joins the flags of each of its vertices in the
simplices it lies in, and every link is connected iff there are as many
classes as vertices.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

from .f2 import Subspace, _mask_of, _set_bits

CellKey = Tuple[int, int]  # (dimension, id)


class DisjointSet:
    """Union-find over a fixed set of hashable items, with path halving."""

    __slots__ = ("parent",)

    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> None:
        """Merge the set of b into the set of a; a's root stays the root."""
        root = self.find(a)
        self.parent[self.find(b)] = root


def _ints(tokens: Iterable[str], where: str) -> List[int]:
    """Parse integer tokens of a saved file, naming the place of a bad one."""
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"{where}: expected an integer, got {tok!r}") from None
    return out


def _cofacets(simplices: Sequence[Tuple[int, ...]]) -> Dict[Tuple[int, ...], List[int]]:
    """Every facet of a sorted list of k-simplices, in order of first
    appearance, with the increasing ids of the simplices containing it."""
    out: Dict[Tuple[int, ...], List[int]] = {}
    for j, s in enumerate(simplices):
        for i in range(len(s)):
            out.setdefault(s[:i] + s[i + 1 :], []).append(j)
    return out


def _pseudomanifold_problems(
    simplices: Sequence[Tuple[int, ...]], ridges: Dict[Tuple[int, ...], List[int]]
) -> List[str]:
    """Closed pseudo-manifold violations of the top simplices, given their
    `_cofacets` table: a ridge not in exactly two of them, or a vertex whose
    link is disconnected."""
    problems = [
        f"face {ridge} lies in {len(ids)} maximal simplices"
        for ridge, ids in ridges.items()
        if len(ids) != 2
    ]
    # Vertex links must be connected (one wedge of top simplices per vertex):
    # flag j*w + p is vertex p of simplex j, and a ridge through v joins the
    # flags of v in the simplices that share it.
    w = len(simplices[0])
    flags = DisjointSet(range(w * len(simplices)))
    for ridge, ids in ridges.items():
        first = simplices[ids[0]]
        for other in ids[1:]:
            s = simplices[other]
            for v in ridge:
                flags.union(ids[0] * w + first.index(v), other * w + s.index(v))
    n_vertices = len({v for s in simplices for v in s})
    if sum(1 for x, p in flags.parent.items() if x == p) > n_vertices:
        roots: Dict[int, Set[int]] = {}
        for j, s in enumerate(simplices):
            for p, v in enumerate(s):
                roots.setdefault(v, set()).add(flags.find(j * w + p))
        problems += [f"vertex {v} has a disconnected link" for v, r in roots.items() if len(r) > 1]
    return problems


class Triangulation:
    """A pure simplicial complex given by its maximal simplices."""

    def __init__(self, dim: int, maximal_simplices: Iterable[Sequence[int]]):
        self.dim = dim
        self.simplices = sorted({tuple(sorted(s)) for s in maximal_simplices})
        if not self.simplices:
            raise ValueError("no simplices")
        for s in self.simplices:
            if len(s) != dim + 1 or len(set(s)) != dim + 1:
                raise ValueError(f"simplex {s} is not a {dim}-simplex")
        self.n_vertices = max(max(s) for s in self.simplices) + 1

    def faces_by_dim(self) -> Dict[int, List[Tuple[int, ...]]]:
        """All faces of all maximal simplices, sorted per dimension."""
        by_dim = {self.dim: list(self.simplices)}
        for k in range(self.dim, 0, -1):
            by_dim[k - 1] = sorted(_cofacets(by_dim[k]))
        return {k: by_dim[k] for k in range(self.dim + 1)}

    def validate(self) -> List[str]:
        """Closed pseudo-manifold checks; returns a list of violations."""
        return _pseudomanifold_problems(self.simplices, _cofacets(self.simplices))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * len(v) for k, v in self.faces_by_dim().items())

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"dim {self.dim}\n")
            for s in self.simplices:
                fh.write("s " + " ".join(str(v) for v in s) + "\n")

    @classmethod
    def load(cls, path: str) -> "Triangulation":
        dim = None
        simplices = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                where = f"{path}:{lineno}"
                if line.startswith("dim "):
                    dim = _ints(line.split()[1:2], where)[0]
                elif line.startswith("s "):
                    simplices.append(_ints(line.split()[1:], where))
                else:
                    raise ValueError(f"{where}: bad triangulation line: {line!r}")
        if dim is None:
            raise ValueError(f"{path}: missing dim header")
        return cls(dim, simplices)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Triangulation)
            and self.dim == other.dim
            and self.simplices == other.simplices
        )


class CellComplex:
    """Regular-CW-style complex stored as a graded face poset."""

    def __init__(
        self,
        dim: int,
        faces: Sequence[Sequence[Sequence[int]]],
        meta: dict | None = None,
    ):
        if len(faces) != dim + 1:
            raise ValueError("need one face table per dimension")
        self.dim = dim
        self._faces: List[List[Tuple[int, ...]]] = [
            [tuple(f) for f in faces[k]] for k in range(dim + 1)
        ]
        self.meta = dict(meta or {})
        for k in range(1, dim + 1):
            limit = len(self._faces[k - 1])
            for i, fl in enumerate(self._faces[k]):
                if not fl:
                    raise ValueError(f"{k}-cell {i} has no faces")
                for f in fl:
                    if not 0 <= f < limit:
                        raise ValueError(f"{k}-cell {i} has bad face id {f}")
        for i, fl in enumerate(self._faces[0]):
            if fl:
                raise ValueError(f"0-cell {i} has faces")
        self._cofaces: List[List[Tuple[int, ...]]] | None = None
        # boundary bitmasks of every k-cell, kept by boundary_bits
        self._boundary_rows: Dict[int, List[int]] = {}
        # boundary basis + class generators, kept by homology.cycle_space_basis
        self._cycle_bases: Dict[int, Tuple[int, ...]] = {}
        # per top cell chi_up tables, kept by model._chi_table
        self._chi_tables: Dict[int, tuple] = {}
        # reduced boundary spaces, kept by homology.boundary_space
        self._boundary_spaces: Dict[int, Subspace] = {}
        # ((support bits, state bits), pieces) of the latest pair, kept by
        # operators.overlap_pieces: one balloon trial asks three times
        self._overlap_pieces: tuple | None = None
        self._vertex_roots: Tuple[int, ...] | None = None
        self._n_components = 0

    # -- basic queries -----------------------------------------------------

    def n_cells(self, k: int) -> int:
        if not 0 <= k <= self.dim:
            return 0
        return len(self._faces[k])

    @property
    def cell_counts(self) -> Tuple[int, ...]:
        return tuple(len(self._faces[k]) for k in range(self.dim + 1))

    def faces(self, k: int, i: int) -> Tuple[int, ...]:
        return self._faces[k][i]

    def cofaces(self, k: int, i: int) -> Tuple[int, ...]:
        """Ids of (k+1)-cells having (k, i) as a face, with multiplicity."""
        if self._cofaces is None:
            tables: List[List[List[int]]] = [
                [[] for _ in range(self.n_cells(k2))] for k2 in range(self.dim + 1)
            ]
            for k2 in range(1, self.dim + 1):
                for j, fl in enumerate(self._faces[k2]):
                    for f in fl:
                        tables[k2 - 1][f].append(j)
            self._cofaces = [[tuple(lst) for lst in tab] for tab in tables]
        return self._cofaces[k][i]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in range(self.dim + 1))

    def boundary_bits(self, k: int, i: int) -> int:
        """Odd-multiplicity faces of (k, i) as a bitmask over (k-1)-cells,
        built for every k-cell on the first call in dimension k."""
        rows = self._boundary_rows.get(k)
        if rows is None:
            rows = self._boundary_rows[k] = [_mask_of(fl) for fl in self._faces[k]]
        return rows[i]

    def coboundary_bits(self, k: int, i: int) -> int:
        """Odd-multiplicity cofaces of (k, i) as a bitmask over (k+1)-cells."""
        return _mask_of(self.cofaces(k, i))

    # -- closures and subcomplexes ------------------------------------------

    def closure(self, cells: Iterable[CellKey]) -> FrozenSet[CellKey]:
        """The cells of the closure of a cell set, in any dimensions."""
        by_dim = _closure_masks(self, dict.fromkeys(cells, 1))
        return frozenset((k, i) for k, ms in enumerate(by_dim) for i in ms)

    def chi_of_cells(self, cells: Iterable[CellKey]) -> int:
        """Euler characteristic of the closure of a cell set."""
        by_dim = _closure_masks(self, dict.fromkeys(cells, 1))
        return sum(-len(ms) if k % 2 else len(ms) for k, ms in enumerate(by_dim))

    def subcomplex(self, cells: Iterable[CellKey]) -> "CellComplex":
        """The complex induced on a face-closed set of cells.

        Cell ids are re-densified per dimension in increasing parent order.
        """
        cell_set = set(cells)
        for k, i in cell_set:
            for f in self._faces[k][i]:
                if (k - 1, f) not in cell_set:
                    raise ValueError("cell set is not closed under faces")
        if cell_set:
            sub_dim = max(k for k, _ in cell_set)
        else:
            sub_dim = 0
        kept = [
            sorted(i for k, i in cell_set if k == kk) for kk in range(sub_dim + 1)
        ]
        index = [
            {pid: new for new, pid in enumerate(ids)} for ids in kept
        ]
        faces: List[List[Tuple[int, ...]]] = [[] for _ in range(sub_dim + 1)]
        for k in range(sub_dim + 1):
            for pid in kept[k]:
                if k == 0:
                    faces[0].append(())
                else:
                    faces[k].append(
                        tuple(index[k - 1][f] for f in self._faces[k][pid])
                    )
        return CellComplex(sub_dim, faces)

    def boundary_sphere(self, cell: int) -> "CellComplex":
        """The induced complex on the proper faces of a top cell."""
        if not 0 <= cell < self.n_cells(self.dim):
            raise ValueError(f"no {self.dim}-cell {cell}")
        closed = self.closure([(self.dim, cell)])
        if any(len(set(fl)) != len(fl) for fl in (self._faces[k][i] for k, i in closed)):
            raise ValueError(
                f"{self.dim}-cell {cell} has a non-embedded closure; "
                "its boundary is not an induced subcomplex"
            )
        return self.subcomplex(closed - {(self.dim, cell)})

    def vertex_roots(self) -> Tuple[int, ...]:
        """Component label of every vertex: its union-find root under the
        edges, computed once per complex (the cell tables never change)."""
        if self._vertex_roots is None:
            ds = DisjointSet(range(self.n_cells(0)))
            for fl in self._faces[1] if self.dim >= 1 else []:
                for other in fl[1:]:
                    ds.union(fl[0], other)
            self._vertex_roots = tuple(ds.find(v) for v in range(self.n_cells(0)))
            self._n_components = len(set(self._vertex_roots))
        return self._vertex_roots

    def is_connected(self) -> bool:
        self.vertex_roots()
        return self._n_components <= 1

    # -- persistence ---------------------------------------------------------

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"dim {self.dim}\n")
            for k in range(self.dim + 1):
                for i, fl in enumerate(self._faces[k]):
                    face_txt = " ".join(str(f) for f in fl)
                    fh.write(f"c {i} {k} : {face_txt}\n".rstrip() + "\n")

    @classmethod
    def load(cls, path: str) -> "CellComplex":
        dim = None
        rows: Dict[int, Dict[int, Tuple[int, ...]]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                where = f"{path}:{lineno}"
                if line.startswith("dim "):
                    dim = _ints(line.split()[1:2], where)[0]
                elif line.startswith("c "):
                    head, _, tail = line[2:].partition(":")
                    key = _ints(head.split(), where)
                    if len(key) != 2:
                        raise ValueError(f"{where}: expected 'c <id> <dim> : <faces>'")
                    idx, k = key
                    rows.setdefault(k, {})[idx] = tuple(_ints(tail.split(), where))
                else:
                    raise ValueError(f"{where}: bad complex line: {line!r}")
        if dim is None:
            raise ValueError(f"{path}: missing dim header")
        if dim < 0:
            raise ValueError(f"{path}: dim must be >= 0, got {dim}")
        outside = sorted(k for k in rows if not 0 <= k <= dim)
        if outside:
            raise ValueError(f"{path}: {outside[0]}-cells outside dimensions 0..{dim}")
        if not rows.get(dim):
            raise ValueError(f"{path}: dim {dim} but no {dim}-cells")
        faces = []
        for k in range(dim + 1):
            table = rows.get(k, {})
            if sorted(table) != list(range(len(table))):
                raise ValueError(f"{path}: non-dense ids in dimension {k}")
            faces.append([table[i] for i in range(len(table))])
        return cls(dim, faces)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellComplex)
            and self.dim == other.dim
            and self._faces == other._faces
        )


class _ChainFields(NamedTuple):
    complex: CellComplex
    dim: int
    bits: int


class Chain(_ChainFields):
    """A per-dimension bit vector over the cells of one complex; equality and
    hash read the dimension and the bits, not the complex."""

    __slots__ = ()

    def __new__(cls, complex: CellComplex, dim: int, bits: int) -> "Chain":
        if bits >> complex.n_cells(dim):
            raise ValueError("chain has bits beyond the cell count")
        return tuple.__new__(cls, (complex, dim, bits))

    def __eq__(self, other) -> bool:
        return (other.__class__ is self.__class__
                and self.dim == other.dim and self.bits == other.bits)

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash((self.dim, self.bits))

    @classmethod
    def from_cells(cls, complex: CellComplex, dim: int, cells: Iterable[int]) -> "Chain":
        return cls(complex, dim, _mask_of(cells))

    @classmethod
    def empty(cls, complex: CellComplex, dim: int) -> "Chain":
        return cls(complex, dim, 0)

    def cells(self) -> List[int]:
        return _set_bits(self.bits)

    def count(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "Chain") -> "Chain":
        if other.complex is not self.complex or other.dim != self.dim:
            raise ValueError("chains live on different cell sets")
        return Chain(self.complex, self.dim, self.bits ^ other.bits)

    def contains(self, cell: int) -> bool:
        return (self.bits >> cell) & 1 == 1

    def boundary(self) -> "Chain":
        c, k = self.complex, self.dim
        bits = 0
        for i in self.cells():
            bits ^= c.boundary_bits(k, i)
        return Chain(c, k - 1, bits)

    def is_cycle(self) -> bool:
        return self.dim == 0 or self.boundary().bits == 0

    def closure(self) -> FrozenSet[CellKey]:
        return self.complex.closure((self.dim, c) for c in self.cells())

    def euler_characteristic(self) -> int:
        return self.complex.chi_of_cells((self.dim, i) for i in self.cells())


def dual_of_triangulation(t: Triangulation) -> CellComplex:
    """One (d-k)-cell per k-simplex; the dual of sigma is a face of the dual
    of tau exactly when tau is a facet of sigma."""
    top = _cofacets(t.simplices)
    problems = _pseudomanifold_problems(t.simplices, top)
    if problems:
        raise ValueError("input is not a closed pseudo-manifold: " + problems[0])
    d = t.dim
    by_dim = {d: t.simplices}
    faces: List[List[Sequence[int]]] = [[()] * len(t.simplices)]
    # The dual of a k-simplex has dimension d - k; its faces are the duals of
    # the (k+1)-simplices containing it, which are its cofacet ids.
    for k in range(d, 0, -1):
        cofacets = top if k == d else _cofacets(by_dim[k])
        by_dim[k - 1] = sorted(cofacets)
        faces.append([cofacets[sigma] for sigma in by_dim[k - 1]])
    return CellComplex(d, faces)


class GenericityReport(NamedTuple):
    passed: bool
    violations: List[str]

    def __bool__(self) -> bool:
        return self.passed


def _coface_counts(c: CellComplex, k: int) -> List[int]:
    """Number of cofaces of every k-cell, with multiplicity."""
    counts = [0] * c.n_cells(k)
    for fl in c._faces[k + 1]:
        for f in fl:
            counts[f] += 1
    return counts


def _closure_masks(c: CellComplex, seeds: Dict[CellKey, int]) -> List[Dict[int, int]]:
    """Masks on the cells of dimensions 0..k, k the highest seed dimension,
    from masks on seed cells of any dimensions: a cell's mask is the OR of
    the masks of the seeds whose closure holds it, and only those cells are
    keyed.  One downward pass ORs each j-cell's mask into its faces, for
    j = k down to 1; the keys in dimension j are the j-cells of the closure
    of the seeds."""
    k = max((j for j, _ in seeds), default=-1)
    out: List[Dict[int, int]] = [{} for _ in range(k + 1)]
    for (j, i), m in seeds.items():
        out[j][i] = m
    for j in range(k, 0, -1):
        below, faces = out[j - 1], c._faces[j]
        get = below.get
        for i, m in out[j].items():
            for f in faces[i]:
                below[f] = get(f, 0) | m
    return out


HERITABILITY_SAMPLES = 4  # evenly spaced top cells whose boundary spheres are validated


def validate_generic(c: CellComplex) -> GenericityReport:
    """Check the local combinatorics of a generic cellulation.

    (a) every j-cell (j < d) has exactly d - j + 1 cofaces, in particular
        every (d-1)-cell sits in 2 top cells and every (d-2)-cell in 3
        codimension-1 cells; (b) boundary spheres of sampled top cells pass
        the same counts one dimension down; (c) the F2 boundary of a boundary
        vanishes; (d) cell closures are embedded (no repeated faces).
    """
    violations: List[str] = []
    d = c.dim
    for k in range(d):
        expected = d - k + 1
        violations += [
            f"{k}-cell {i} has {n} cofaces, expected {expected}"
            for i, n in enumerate(_coface_counts(c, k))
            if n != expected
        ]
    for k in range(1, d + 1):
        for i, fl in enumerate(c._faces[k]):
            if len(fl) != len(set(fl)):
                violations.append(f"{k}-cell {i} has a repeated face (non-embedded)")
    for k in range(2, d + 1):
        below = c._faces[k - 1]  # each k-cell's faces' faces must pair up
        for fl in c._faces[k]:
            g = sorted([x for f in fl for x in below[f]])
            if g[0::2] != g[1::2]:
                violations.append(f"boundary of boundary nonzero in dimension {k}")
                break
    if d >= 1 and not violations:
        n_top = c.n_cells(d)
        step = max(1, n_top // HERITABILITY_SAMPLES)
        for cell in range(0, n_top, step):
            try:
                sphere = c.boundary_sphere(cell)
            except ValueError as exc:
                violations.append(f"top cell {cell}: {exc}")
                continue
            if sphere.dim != d - 1:
                violations.append(f"top cell {cell}: boundary has wrong dimension")
                continue
            for k in range(sphere.dim):
                expected = sphere.dim - k + 1
                violations += [
                    f"top cell {cell}: boundary sphere fails coface count at {k}-cell {i}"
                    for i, n in enumerate(_coface_counts(sphere, k))
                    if n != expected
                ]
            expected_chi = 0 if (d - 1) % 2 else 2
            if sphere.euler_characteristic() != expected_chi:
                violations.append(
                    f"top cell {cell}: boundary sphere has chi "
                    f"{sphere.euler_characteristic()}, expected {expected_chi}"
                )
    return GenericityReport(not violations, violations)


def ensure_validated(c: CellComplex) -> None:
    """Validate once and cache; model operations require a generic cellulation
    of dimension >= 1, whose (d-1)-cells carry the qubits."""
    if c.dim < 1:
        raise ValueError(
            f"the models need a complex of dimension >= 1 to put qubits on its "
            f"(d-1)-cells; this one has dimension {c.dim}"
        )
    if c.meta.get("generic_validated"):
        return
    report = validate_generic(c)
    if not report.passed:
        raise ValueError(
            "complex is not a validated generic cellulation: "
            + "; ".join(report.violations[:3])
        )
    c.meta["generic_validated"] = True


def closed_subcomplex(c: CellComplex, top_cells: Chain) -> CellComplex:
    """The subcomplex of all faces of the selected cells of one dimension."""
    if top_cells.complex is not c:
        raise ValueError("chain belongs to another complex")
    return c.subcomplex(c.closure((top_cells.dim, i) for i in top_cells.cells()))


def is_embedded_union(c: CellComplex, k: int, cells: Iterable[int]) -> bool:
    """True iff a union of closed k-cells has one sheet at every cell.

    At every cell of the union's closure that lies in two or more of the
    k-cells, those k-cells must be connected through the union's (k-1)-cells
    whose closure contains it. Otherwise the k-cells only touch there
    tangentially, a contact the continuum picture perturbs away.  One
    closure pass marks each cell with the k-cells holding it (bit j for the
    j-th k-cell), a second with the shared (k-1)-cells above it; the members
    at a cell are one sheet iff its ridges reach them all from the lowest.
    """
    tops = set(cells)
    if k < 2 or not tops:
        return True  # no cell lies below a (k-1)-cell of the union
    held = _closure_masks(c, {(k, f): 1 << j for j, f in enumerate(tops)})
    # (k-1)-cells shared by two or more k-cells: ridges that join their members
    ridges = [(r, m) for r, m in held[k - 1].items() if m & (m - 1)]
    # an empty pass when nothing is shared: no lower cell then has a ridge
    above = _closure_masks(c, {(k - 1, r): 1 << j for j, (r, _) in enumerate(ridges)})
    above = above or [{}] * (k - 1)
    for j in range(k - 1):
        for cell, m in held[j].items():
            if not m & (m - 1):
                continue
            # grow the members reached from the lowest one through the ridges
            joins = [ridges[r][1] for r in _set_bits(above[j].get(cell, 0))]
            reached, grown = m & -m, True
            while grown:
                grown = False
                for ridge in joins:
                    if ridge & reached and ridge & ~reached:
                        reached |= ridge
                        grown = True
            if reached != m:
                return False
    return True


def subset_boundary_manifold_check(c: CellComplex, top_cells: Iterable[int]) -> bool:
    """True iff the boundary of a union of closed top cells is a closed
    (d-1)-manifold, verified by link conditions (supported for d <= 3).

    The boundary is the set of (d-1)-cells with exactly one coface in the
    union. For d >= 2 every (d-2)-cell of its closure must lie in exactly
    two boundary cells. For d = 3 the link of every boundary vertex must be
    one circle: each boundary 2-cell through the vertex has exactly two
    edges through it that appear once in the 2-cell's face list, and the
    boundary 2-cells are an embedded union (`is_embedded_union`).
    """
    d = c.dim
    if d > 3:
        raise NotImplementedError("link checks implemented for dimension <= 3")
    tset = set(top_cells)
    walls = [
        i
        for i in range(c.n_cells(d - 1))
        if sum(1 for cf in c.cofaces(d - 1, i) if cf in tset) == 1
    ]
    if not walls:
        return True
    wset = set(walls)
    # every (d-2)-cell of the boundary must sit in exactly 2 boundary cells
    for r in {r for f in walls for r in c.faces(d - 1, f)}:
        if sum(1 for cf in c.cofaces(d - 2, r) if cf in wset) != 2:
            return False
    if d == 3:
        # an edge repeated in a face list is not shared with another boundary
        # cell, so it is no step of the vertex link
        for f in walls:
            fl = c.faces(2, f)
            once = [e for e in fl if fl.count(e) == 1]
            for v in {v for e in fl for v in c.faces(1, e)}:
                if sum(v in c.faces(1, e) for e in once) != 2:
                    return False
        return is_embedded_union(c, 2, walls)
    return True
