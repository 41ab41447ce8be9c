"""Z2 cellular homology: Betti numbers, semicharacteristic, sector
representatives, and side analysis of curves on surfaces."""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .complexes import CellComplex, CellKey, Chain, DisjointSet, _closure_masks
from .f2 import F2Matrix, Subspace, _mask_of, _span

MAX_SECTOR_RANK = 12  # largest b_p whose 2^b_p sector representatives are listed


class _BettiFields(NamedTuple):
    b: Tuple[int, ...]


class BettiVector(_BettiFields):
    """Betti numbers b_0..b_top; indexing past either end reads 0, and
    iteration and length run over the numbers, not the one field."""

    __slots__ = ()

    def __getnewargs__(self) -> Tuple[Tuple[int, ...]]:
        # copy and pickle rebuild from this; the inherited one reads __iter__
        return (self.b,)

    @property
    def chi(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.b))

    def __getitem__(self, k: int) -> int:
        return self.b[k] if 0 <= k < len(self.b) else 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.b)

    def __len__(self) -> int:
        return len(self.b)


def betti(c: CellComplex) -> BettiVector:
    """Betti numbers of c, with b_k = 0 for the top dimensions that hold no
    cells; the cell set is closed, so no closure pass is needed."""
    return _betti(c, [range(c.n_cells(k)) for k in range(c.dim + 1)])


def betti_of_cells(c: CellComplex, cells: Iterable[CellKey]) -> BettiVector:
    """Betti numbers of the closure of a cell set, b_k = dim ker boundary_k -
    rank boundary_{k+1} over F2, computed in place from the cells of each
    dimension that one closure pass keys."""
    return _betti(c, _closure_masks(c, dict.fromkeys(cells, 1)))


def _betti(c: CellComplex, ids: Sequence[Collection[int]]) -> BettiVector:
    """Betti numbers of a face-closed cell set, given as its cell ids per
    dimension.

    Where every 1-cell of the set has exactly two faces (a loop counts), the
    rank of boundary_1 is the vertex count less the number of components, from
    one union-find. Every other rank is the pivot count of a forward
    elimination of the set's boundary rows, built from the face tuples; the
    set is closed, so they have no bit outside it.
    """
    if not ids:
        return BettiVector((0,))
    top = len(ids) - 1
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        if k == 1 and all(len(c.faces(1, e)) == 2 for e in ids[1]):
            graph = DisjointSet(ids[0])
            for e in ids[1]:
                graph.union(*c.faces(1, e))
            ranks[1] = len(ids[0]) - len({graph.find(v) for v in ids[0]})
            continue
        rows = [_mask_of(c.faces(k, i)) for i in ids[k]]
        ranks[k] = F2Matrix(len(rows), c.n_cells(k - 1), rows).rank()
    return BettiVector(tuple(len(ids[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)))


def semicharacteristic(b: BettiVector, k: int, start: int = 0) -> int:
    """Sum of b_start .. b_k mod 2; the half-range Betti parity of a
    (2k+1)-dimensional space."""
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    return sum(b[i] for i in range(start, k + 1)) % 2


def cycle_space_basis(c: CellComplex, p: int) -> Tuple[int, ...]:
    """Basis of ker boundary_p as bitmasks over p-cells, computed once per
    complex and dimension: the boundary basis, then one generator per class.

    Each class holds one cycle with no pivot bit of the boundary space; these
    cycles are the kernel of the coboundary rows with the pivot columns
    masked out, less the unit vectors of the masked columns.
    """
    basis = c._cycle_bases.get(p)
    if basis is None:
        bounds = boundary_space(c, p)
        mask = bounds._pivot_mask
        rows = [c.coboundary_bits(p - 1, j) & ~mask for j in range(c.n_cells(p - 1))]
        kernel = F2Matrix(len(rows), c.n_cells(p), rows).nullspace()
        basis = bounds.basis + tuple(v for v in kernel if not v & mask)
        c._cycle_bases[p] = basis
    return basis


def boundary_space(c: CellComplex, p: int) -> Subspace:
    """The boundaries inside the p-chains (the row space of boundary_{p+1}),
    computed once per complex and dimension."""
    if p not in c._boundary_spaces:
        rows = [c.boundary_bits(p + 1, i) for i in range(c.n_cells(p + 1))]
        basis = F2Matrix(len(rows), c.n_cells(p), rows).row_space_basis()
        c._boundary_spaces[p] = Subspace(c.n_cells(p), tuple(basis))
    return c._boundary_spaces[p]


def bounding_cells(c: CellComplex, chain: Chain) -> Chain:
    """A set of (p+1)-cells whose boundary is the given null-homologous chain."""
    k, n = chain.dim, c.n_cells(chain.dim + 1)
    # solve boundary(x) = chain.bits: one equation per k-cell, over the
    # (k+1)-cells it is a face of, with the chain's bit as the last column
    aug = [c.coboundary_bits(k, r) | ((chain.bits >> r) & 1) << n for r in range(c.n_cells(k))]
    red, pivots = F2Matrix(len(aug), n + 1, aug).rref()
    x = 0
    for r, p in enumerate(pivots):
        if p == n:
            raise ValueError("chain is not a boundary")
        if (red.data[r] >> n) & 1:
            x |= 1 << p
    return Chain(c, k + 1, x)


class SectorSet(NamedTuple):
    reps: List[Chain]

    @property
    def class_count(self) -> int:
        return len(self.reps)


def homology_sector_reps(c: CellComplex, p: int) -> SectorSet:
    """One canonical cycle per Z2 homology class of dimension p.

    A class is represented by its one cycle with no pivot bit of the boundary
    space (its reduced form in lexicographic pivot order), so the empty chain
    represents the trivial class and the choice is reproducible. The
    generators are the class part of `cycle_space_basis`.
    """
    bounds = boundary_space(c, p)
    generators = cycle_space_basis(c, p)[bounds.dim:]
    if len(generators) > MAX_SECTOR_RANK:
        raise ValueError(f"2^{len(generators)} sectors exceed the enumeration guard")
    # a sum of pivot-free cycles is pivot-free: its class's representative
    rep_bits = _span(generators)
    rep_bits.sort(key=lambda bits: (bits.bit_count(), bits))
    assert rep_bits[0] == 0
    return SectorSet([Chain(c, p, bits) for bits in rep_bits])


class SideReport(NamedTuple):
    one_sided: Tuple[bool, ...]
    w1_eval: int


def _loop_components(c: CellComplex, e: Chain) -> List[Tuple[List[int], List[int]]]:
    """Split a 1-cycle into its loops, each as (edges, verts).

    verts[i] is the vertex between edges[i] and edges[i+1] (cyclically).
    Each loop starts at its lowest edge id e and walks from faces(1, e)[0]
    toward faces(1, e)[1]; loops come in order of their lowest edge.
    """
    edges = e.cells()
    at_vertex: Dict[int, List[int]] = {}
    for edge in edges:
        for v in c.faces(1, edge):
            at_vertex.setdefault(v, []).append(edge)
    for v, lst in at_vertex.items():
        if len(lst) != 2:
            raise ValueError(f"not a disjoint union of loops at vertex {v}")
    components = []
    remaining = set(edges)
    for start in edges:
        if start not in remaining:
            continue
        loop, verts = [start], []
        remaining.discard(start)
        v_cur = c.faces(1, start)[1]
        while True:
            verts.append(v_cur)
            a, b = at_vertex[v_cur]
            edge = b if a == loop[-1] else a
            if edge == start:
                break
            loop.append(edge)
            remaining.discard(edge)
            a, b = c.faces(1, edge)
            v_cur = b if a == v_cur else a
        components.append((loop, verts))
    return components


def _corner_face(c: CellComplex, v: int, e1: int, e2: int) -> int:
    """The 2-cell wedged between two edges at a trivalent vertex."""
    shared = [
        f
        for f in set(c.cofaces(1, e1))
        if f in c.cofaces(1, e2) and any(v in c.faces(1, e) for e in c.faces(2, f))
    ]
    if len(shared) != 1:
        raise ValueError(f"ambiguous corner at vertex {v}")
    return shared[0]


def two_sidedness_d2(c: CellComplex, e: Chain) -> SideReport:
    """Propagate a side label along each loop of a 1-cycle on a surface.

    A loop is one-sided when the label comes back flipped (a Mobius
    neighborhood); the parity of one-sided loops is both the defect-point
    count mod 2 and the orientation character of the cycle's class.
    """
    if c.dim != 2:
        raise ValueError("side analysis is defined for surfaces only")
    if not e.is_cycle():
        raise ValueError("chain is not a cycle")
    flags = []
    for loop, verts in _loop_components(c, e):
        # side = one of the two cofaces of the current edge
        side = c.cofaces(1, loop[0])[0]
        start_side = side
        n = len(loop)
        for i in range(n):
            edge = loop[i]
            nxt_edge = loop[(i + 1) % n]
            v = verts[i]
            third = [
                x for x in set(c.cofaces(0, v)) if x not in (edge, nxt_edge)
            ][0]
            if side != _corner_face(c, v, edge, nxt_edge):
                # crossing the vertex, the other side passes the third edge
                side = _corner_face(c, v, third, nxt_edge)
        flags.append(side != start_side)
    return SideReport(tuple(flags), sum(flags) % 2)
