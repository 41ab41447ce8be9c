"""Cell complexes as graded face posets, triangulations, and their duals.

A complex of dimension d stores, for every k-cell, the list of its
codimension-1 face ids.  Face lists may contain repeats (a cell glued to the
same face twice); boundary maps over F2 use the parity of the multiplicity,
coface counts use the multiplicity itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .f2 import F2Matrix, Subspace, _set_bits

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
        found: Dict[int, Set[Tuple[int, ...]]] = {k: set() for k in range(self.dim + 1)}
        for s in self.simplices:
            n = len(s)
            for bits in range(1, 1 << n):
                sub = tuple(s[i] for i in range(n) if (bits >> i) & 1)
                found[len(sub) - 1].add(sub)
        return {k: sorted(v) for k, v in found.items()}

    def validate(self) -> List[str]:
        """Closed pseudo-manifold checks; returns a list of violations."""
        problems = []
        ridge_count: Dict[Tuple[int, ...], int] = {}
        for s in self.simplices:
            for i in range(len(s)):
                ridge = s[:i] + s[i + 1 :]
                ridge_count[ridge] = ridge_count.get(ridge, 0) + 1
        for ridge, n in ridge_count.items():
            if n != 2:
                problems.append(f"face {ridge} lies in {n} maximal simplices")
        # Vertex links must be connected (one wedge of top simplices per vertex).
        star: Dict[int, List[int]] = {}
        for idx, s in enumerate(self.simplices):
            for v in s:
                star.setdefault(v, []).append(idx)
        for v, idxs in star.items():
            link = DisjointSet(idxs)
            by_ridge: Dict[Tuple[int, ...], List[int]] = {}
            for i in idxs:
                s = self.simplices[i]
                for j in range(len(s)):
                    ridge = s[:j] + s[j + 1 :]
                    if v in ridge:
                        by_ridge.setdefault(ridge, []).append(i)
            for members in by_ridge.values():
                for other in members[1:]:
                    link.union(members[0], other)
            if len({link.find(i) for i in idxs}) != 1:
                problems.append(f"vertex {v} has a disconnected link")
        return problems

    def euler_characteristic(self) -> int:
        faces = self.faces_by_dim()
        return sum((-1) ** k * len(v) for k, v in faces.items())

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
        provenance: str = "unknown",
        meta: dict | None = None,
    ):
        if len(faces) != dim + 1:
            raise ValueError("need one face table per dimension")
        self.dim = dim
        self._faces: List[List[Tuple[int, ...]]] = [
            [tuple(f) for f in faces[k]] for k in range(dim + 1)
        ]
        self.provenance = provenance
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
        self._closures: Dict[CellKey, FrozenSet[CellKey]] = {}
        self._incidence: Dict[int, F2Matrix] = {}
        # kernel bases of the boundary maps, kept by homology.cycle_space_basis
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
        """Odd-multiplicity faces of (k, i) as a bitmask over (k-1)-cells."""
        return self.incidence(k).row(i)

    def incidence(self, k: int) -> F2Matrix:
        """Matrix with one row per k-cell, bit j set iff (k-1)-cell j appears
        an odd number of times among its faces."""
        if k not in self._incidence:
            rows = []
            for fl in self._faces[k] if 0 <= k <= self.dim else []:
                bits = 0
                for f in set(fl):
                    if fl.count(f) & 1:
                        bits |= 1 << f
                rows.append(bits)
            self._incidence[k] = F2Matrix(
                self.n_cells(k), self.n_cells(k - 1) if k >= 1 else 0, rows
            )
        return self._incidence[k]

    # -- closures and subcomplexes ------------------------------------------

    def closure_of_cell(self, k: int, i: int) -> FrozenSet[CellKey]:
        key = (k, i)
        cached = self._closures.get(key)
        if cached is not None:
            return cached
        out: Set[CellKey] = {key}
        if k > 0:
            for f in set(self._faces[k][i]):
                out |= self.closure_of_cell(k - 1, f)
        result = frozenset(out)
        self._closures[key] = result
        return result

    def closure(self, cells: Iterable[CellKey]) -> FrozenSet[CellKey]:
        out: Set[CellKey] = set()
        for k, i in cells:
            out |= self.closure_of_cell(k, i)
        return frozenset(out)

    def chi_of_cells(self, closed_cells: Iterable[CellKey]) -> int:
        total = 0
        for k, _ in closed_cells:
            total += 1 if k % 2 == 0 else -1
        return total

    def cell_closure_embedded(self, k: int, i: int) -> bool:
        """True iff no face list inside the closure of (k, i) has repeats."""
        for ck, ci in self.closure_of_cell(k, i):
            fl = self._faces[ck][ci]
            if len(fl) != len(set(fl)):
                return False
        return True

    def subcomplex(self, cells: Iterable[CellKey]) -> "CellComplex":
        """The complex induced on a face-closed set of cells.

        Cell ids are re-densified per dimension in increasing parent order;
        the parent ids are kept in meta["parent_ids"].
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
        parent_ids = [
            sorted(i for k, i in cell_set if k == kk) for kk in range(sub_dim + 1)
        ]
        index = [
            {pid: new for new, pid in enumerate(ids)} for ids in parent_ids
        ]
        faces: List[List[Tuple[int, ...]]] = [[] for _ in range(sub_dim + 1)]
        for k in range(sub_dim + 1):
            for pid in parent_ids[k]:
                if k == 0:
                    faces[0].append(())
                else:
                    faces[k].append(
                        tuple(index[k - 1][f] for f in self._faces[k][pid])
                    )
        return CellComplex(
            sub_dim,
            faces,
            provenance=f"subcomplex-of-{self.provenance}",
            meta={"parent_ids": parent_ids},
        )

    def boundary_sphere(self, cell: int) -> "CellComplex":
        """The induced complex on the proper faces of a top cell."""
        if not 0 <= cell < self.n_cells(self.dim):
            raise ValueError(f"no {self.dim}-cell {cell}")
        if not self.cell_closure_embedded(self.dim, cell):
            raise ValueError(
                f"{self.dim}-cell {cell} has a non-embedded closure; "
                "its boundary is not an induced subcomplex"
            )
        cells = self.closure_of_cell(self.dim, cell) - {(self.dim, cell)}
        return self.subcomplex(cells)

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
        return cls(dim, faces, provenance="loaded")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CellComplex)
            and self.dim == other.dim
            and self._faces == other._faces
        )


@dataclass(frozen=True)
class Chain:
    """A per-dimension bit vector over the cells of one complex."""

    complex: CellComplex = field(compare=False)
    dim: int
    bits: int

    def __post_init__(self):
        n = self.complex.n_cells(self.dim)
        if self.bits >> n:
            raise ValueError("chain has bits beyond the cell count")

    @classmethod
    def from_cells(cls, complex: CellComplex, dim: int, cells: Iterable[int]) -> "Chain":
        bits = 0
        for c in cells:
            bits ^= 1 << c
        return cls(complex, dim, bits)

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
        inc = self.complex.incidence(self.dim)
        bits = 0
        for c in self.cells():
            bits ^= inc.row(c)
        return Chain(self.complex, self.dim - 1, bits)

    def is_cycle(self) -> bool:
        return self.dim == 0 or self.boundary().bits == 0

    def closure(self) -> FrozenSet[CellKey]:
        return self.complex.closure((self.dim, c) for c in self.cells())

    def euler_characteristic(self) -> int:
        return self.complex.chi_of_cells(self.closure())


def dual_of_triangulation(t: Triangulation) -> CellComplex:
    """One (d-k)-cell per k-simplex; the dual of sigma is a face of the dual
    of tau exactly when tau is a facet of sigma."""
    problems = t.validate()
    if problems:
        raise ValueError("input is not a closed pseudo-manifold: " + problems[0])
    d = t.dim
    by_dim = t.faces_by_dim()
    ids = {
        k: {simplex: i for i, simplex in enumerate(by_dim[k])} for k in by_dim
    }
    # The dual of a k-simplex has dimension d - k; its faces are the duals of
    # the (k+1)-simplices containing it.
    contains: Dict[int, Dict[Tuple[int, ...], List[int]]] = {
        k: {s: [] for s in by_dim[k]} for k in by_dim
    }
    for k in range(1, d + 1):
        for tau in by_dim[k]:
            n = len(tau)
            for drop in range(n):
                sigma = tau[:drop] + tau[drop + 1 :]
                contains[k - 1][sigma].append(ids[k][tau])
    faces: List[List[Tuple[int, ...]]] = [[] for _ in range(d + 1)]
    for j in range(d + 1):
        k = d - j
        for simplex in by_dim[k]:
            if j == 0:
                faces[0].append(())
            else:
                faces[j].append(tuple(sorted(contains[k][simplex])))
    meta = {
        "dual_id": {k: dict(ids[k]) for k in ids},
        "primal_simplices": {k: list(by_dim[k]) for k in by_dim},
    }
    return CellComplex(d, faces, provenance="dual-of-triangulation", meta=meta)


@dataclass
class GenericityReport:
    passed: bool
    violations: List[str]

    def __bool__(self) -> bool:
        return self.passed


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
        for i in range(c.n_cells(k)):
            n = len(c.cofaces(k, i))
            if n != expected:
                violations.append(
                    f"{k}-cell {i} has {n} cofaces, expected {expected}"
                )
    for k in range(1, d + 1):
        for i, fl in enumerate(c._faces[k]):
            if len(fl) != len(set(fl)):
                violations.append(f"{k}-cell {i} has a repeated face (non-embedded)")
    for k in range(2, d + 1):
        m = c.incidence(k).matmul(c.incidence(k - 1))
        if any(m.data):
            violations.append(f"boundary of boundary nonzero in dimension {k}")
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
                for i in range(sphere.n_cells(k)):
                    if len(sphere.cofaces(k, i)) != expected:
                        violations.append(
                            f"top cell {cell}: boundary sphere fails coface "
                            f"count at {k}-cell {i}"
                        )
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
    tangentially, a contact the continuum picture perturbs away.
    """
    containing: Dict[CellKey, List[int]] = {}
    for f in set(cells):
        for key in c.closure_of_cell(k, f):
            containing.setdefault(key, []).append(f)
    # (k-1)-cells shared by two or more k-cells, listed under each closure cell
    ridges_at: Dict[CellKey, List[List[int]]] = {}
    for ridge, members in containing.items():
        if ridge[0] == k - 1 and len(members) > 1:
            for key in c.closure_of_cell(*ridge):
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
        # an edge repeated in a face list is not shared with another boundary
        # cell, so it is no step of the vertex link
        for f in boundary_cells:
            fl = c.faces(2, f)
            once = [e for e in fl if fl.count(e) == 1]
            for k, v in c.closure_of_cell(2, f):
                if k == 0 and sum((0, v) in c.closure_of_cell(1, e) for e in once) != 2:
                    return False
        return is_embedded_union(c, 2, boundary_cells)
    return True
