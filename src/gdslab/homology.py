"""Z2 cellular homology: Betti numbers, semicharacteristic, sector
representatives, fillers, and side analysis of curves on surfaces.

Every question about (d-1)-cycles and boundaries is answered on the top-cell
graph, whose nodes are the d-cells and whose edges are the (d-1)-cells, each
joining its two cofaces, with no elimination of boundary rows:

- The pivot columns of the RREF of boundary_d are the greedy column basis
  of a graphic matroid, so they are the spanning forest that Kruskal builds
  scanning the (d-1)-cells in id order. A cycle with no boundary pivot bit,
  the canonical representative of its class, is zero on that forest.
- The boundaries of a component's top cells sum to 0, and those of no proper
  subset do. So its root, its highest-id top cell, is its one free column in
  the RREF of the (d-1)-cells' coboundary rows: the other top cells'
  boundaries are a basis of the boundaries, and a boundary's filler with
  every root outside, the RREF's, is one walk of the forest (a cut's).
- The cycles zero on the forest are found by propagation. Forest cells are 0.
  A (d-2)-cell with one unknown coface forces it to the XOR of the known
  ones, a linear form over the parameters; when nothing is forced, the lowest
  unknown cell becomes a new parameter; a (d-2)-cell whose cofaces are all
  known gives a constraint form. The parameter vectors that meet every
  constraint, expanded and reduced to the echelon basis by highest bit, are
  the class generators.
- So rank boundary_d is the forest's size, b_{d-1} the parameter count less
  the constraint rank, and rank boundary_{d-1} = n_{d-1} - rank boundary_d -
  b_{d-1}. `betti` reads them there and keeps the forward pass for the middle
  ranks only.
- A `SectorSet` holds those b generators, not the 2^b classes: class j of
  the span numbering is the sum of the generators picked by the bits of j,
  and `SectorSet.reps` builds the listing, by weight and then bits, only when
  it is read. The 2^MAX_SECTOR_RANK guard is on the generator count.

Every rank of a closed cell set comes from `_rank`. The semicharacteristic
needs only a parity of Betti numbers, and b_i = n_i - r_i - r_{i+1} (r_i
the rank of boundary_i, r_0 = 0) telescopes: b_start + ... + b_k = n_start +
... + n_k + r_start + r_{k+1} mod 2. So `semicharacteristic_of_cells` takes
one closure pass and at most two ranks, where `betti_of_cells` takes them
all.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Set, Tuple

from .complexes import CellComplex, CellKey, Chain, DisjointSet, _closure_cells
from .f2 import F2Matrix, _mask_of, _set_bits, _span

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
    cells; the cell set is closed, so no closure pass is needed.

    Where d >= 2 and every (d-1)-cell lies in two distinct d-cells, the top
    two ranks come from the propagation; otherwise, and for the middle ranks,
    from `_betti`'s union-find and forward passes.
    """
    d = c.dim
    known: Dict[int, int] = {}
    try:
        sweep = _propagate(c, d - 1) if d >= 2 else None
    except ValueError:  # a (d-1)-cell that is not in two distinct d-cells
        sweep = None
    if sweep is not None:
        known[d] = len(sweep.forest)
        known[d - 1] = c.n_cells(d - 1) - known[d] - len(_solutions(sweep))
    return _betti(c, [range(c.n_cells(k)) for k in range(d + 1)], known)


def betti_of_cells(c: CellComplex, cells: Iterable[CellKey]) -> BettiVector:
    """Betti numbers of the closure of a cell set, b_k = dim ker boundary_k -
    rank boundary_{k+1} over F2, computed in place from the cells of each
    dimension that one closure pass keys."""
    return _betti(c, _closure_cells(c, cells), {})


def _rank(c: CellComplex, ids: Sequence[Collection[int]], k: int) -> int:
    """rank boundary_k of a face-closed cell set, given as its cell ids per
    dimension; 0 for k = 0 and past the set's top dimension.

    Where every 1-cell of the set has exactly two faces (a loop counts), the
    rank of boundary_1 is the vertex count less the number of components, from
    one union-find. Every other rank is the pivot count of a forward
    elimination of the set's boundary rows, built from the face tuples; the
    set is closed, so they have no bit outside it.
    """
    if not 0 < k < len(ids):
        return 0
    if k == 1 and all(len(c.faces(1, e)) == 2 for e in ids[1]):
        graph = DisjointSet(ids[0])
        for e in ids[1]:
            graph.union(*c.faces(1, e))
        return len(ids[0]) - len({graph.find(v) for v in ids[0]})
    rows = [_mask_of(c.faces(k, i)) for i in ids[k]]
    return F2Matrix(len(rows), c.n_cells(k - 1), rows).rank()


def _betti(c: CellComplex, ids: Sequence[Collection[int]], known: Dict[int, int]) -> BettiVector:
    """Betti numbers of a face-closed cell set, given as its cell ids per
    dimension, from `_rank`; a rank in `known`, keyed by dimension, is taken
    as given."""
    if not ids:
        return BettiVector((0,))
    top = len(ids) - 1
    ranks = [known[k] if k in known else _rank(c, ids, k) for k in range(top + 2)]
    return BettiVector(tuple(len(ids[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)))


def semicharacteristic(b: BettiVector, k: int, start: int = 0) -> int:
    """Sum of b_start .. b_k mod 2; the half-range Betti parity of a
    (2k+1)-dimensional space."""
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    return sum(b[i] for i in range(start, k + 1)) % 2


def semicharacteristic_of_cells(c: CellComplex, cells: Iterable[CellKey], k: int, start: int = 0) -> int:
    """`semicharacteristic` of the closure of a cell set, from at most two
    ranks: b_i = n_i - r_i - r_{i+1} telescopes, so the sum of b_start .. b_k
    is n_start + ... + n_k + r_start + r_{k+1} mod 2, and r_0 = 0."""
    if start not in (0, 1):
        raise ValueError("start must be 0 or 1")
    ids = _closure_cells(c, cells)
    counts = sum(len(ids[i]) for i in range(start, min(k + 1, len(ids))))
    return (counts + _rank(c, ids, start) + _rank(c, ids, k + 1)) % 2


class _Propagation(NamedTuple):
    forest: List[int]  # the min-id spanning forest of the top-cell graph
    roots: Set[int]  # the highest-id top cell of each component
    forms: List[int]  # per (d-1)-cell, its value as a form over the parameters
    params: int
    constraints: List[int]  # nonzero forms that every class generator meets


def _top_forest(c: CellComplex, p: int) -> Tuple[List[int], Set[int]]:
    """The min-id spanning forest of the top-cell graph, and the root of each
    component, its highest-id top cell; the graph needs p = d-1 and every
    (d-1)-cell in two distinct d-cells (every validated complex)."""
    d = c.dim
    if p != d - 1:
        raise ValueError(f"class generators are computed for p = {d - 1} only, not {p}")
    tops = DisjointSet(range(c.n_cells(d)))
    forest = []
    for e in range(c.n_cells(p)):
        ends = c.cofaces(p, e)
        if len(ends) != 2 or ends[0] == ends[1]:
            raise ValueError(f"{p}-cell {e} is not a face of exactly two distinct {d}-cells")
        if tops.find(ends[0]) != tops.find(ends[1]):
            tops.union(*ends)
            forest.append(e)
    return forest, set({tops.find(t): t for t in range(c.n_cells(d))}.values())


def _propagate(c: CellComplex, p: int) -> _Propagation:
    """The p-cycles that are zero on the top-cell forest, as one linear form
    per p-cell (see the module docstring); raises where `_top_forest` does.

    Each (d-2)-cell counts its unknown cofaces, with multiplicity, and XORs
    the forms of its known ones; a face listed twice cancels, as over F2.
    """
    d = c.dim
    n = c.n_cells(d - 1)
    faces, cofaces = c.faces, c.cofaces
    forest, roots = _top_forest(c, p)
    unknown = [len(cofaces(d - 2, r)) for r in range(c.n_cells(d - 2))]
    known = [0] * len(unknown)
    ready = [r for r, count in enumerate(unknown) if count == 1]
    forms: List[int | None] = [None] * n
    constraints: List[int] = []

    def settle(e: int, form: int) -> None:
        forms[e] = form
        for r in faces(d - 1, e):
            unknown[r] -= 1
            known[r] ^= form
            if unknown[r] == 1:
                ready.append(r)
            elif not unknown[r] and known[r]:
                constraints.append(known[r])

    for e in forest:
        settle(e, 0)
    params = lowest = 0
    while True:
        while ready:
            r = ready.pop()
            if unknown[r] == 1:
                settle(next(e for e in cofaces(d - 2, r) if forms[e] is None), known[r])
        while lowest < n and forms[lowest] is not None:
            lowest += 1
        if lowest == n:
            return _Propagation(forest, roots, forms, params, constraints)
        settle(lowest, 1 << params)
        params += 1


def _solutions(sweep: _Propagation) -> List[int]:
    """A basis of the parameter vectors that meet every constraint form; its
    length is b_{d-1}. Only a complex with constraint forms eliminates."""
    if not sweep.constraints:
        return [1 << i for i in range(sweep.params)]
    return F2Matrix(len(sweep.constraints), sweep.params, sweep.constraints).nullspace()


def _expand(sweep: _Propagation, solutions: Sequence[int]) -> Tuple[int, ...]:
    """The cycles of the given parameter vectors, as the echelon basis of
    their span reduced by highest bit, in increasing order of that bit: each
    holds its own highest bit and no other one's."""
    cells: List[List[int]] = [[] for _ in range(sweep.params)]
    for e, form in enumerate(sweep.forms):
        if form:
            for i in _set_bits(form):
                cells[i].append(e)
    masks = [_mask_of(ids) for ids in cells]
    rows: Dict[int, int] = {}
    for s in solutions:
        z = 0
        for i in _set_bits(s):
            z ^= masks[i]
        for top, row in rows.items():
            if z >> top & 1:
                z ^= row
        # z holds no highest bit of a row now, so its own is new; clearing it
        # from the rows that hold it leaves their highest bits where they are
        top = z.bit_length() - 1
        for t, row in rows.items():
            if row >> top & 1:
                rows[t] = row ^ z
        rows[top] = z
    return tuple(rows[t] for t in sorted(rows))


def cycle_space_basis(c: CellComplex, p: int) -> Tuple[int, ...]:
    """Basis of ker boundary_p for p = d-1 as bitmasks over p-cells, computed
    once per complex: the boundary of every top cell but the component roots,
    in increasing id, then one generator per class."""
    basis = c._cycle_bases.get(p)
    if basis is None:
        sweep = _propagate(c, p)
        top = range(c.n_cells(p + 1))
        bounds = tuple(c.boundary_bits(p + 1, t) for t in top if t not in sweep.roots)
        basis = c._cycle_bases[p] = bounds + _expand(sweep, _solutions(sweep))
    return basis


def bounding_cells(c: CellComplex, chain: Chain) -> Chain:
    """The d-cells, no component root among them, whose boundary is the given
    null-homologous (d-1)-chain: one walk of the top-cell forest."""
    d, n = c.dim, c.n_cells(c.dim - 1)
    forest, roots = _top_forest(c, chain.dim)
    holds = [bit == "1" for bit in reversed(f"{chain.bits:0{n}b}")]  # per (d-1)-cell
    tree, inside = set(forest), dict.fromkeys(roots, False)
    # roots are outside, and crossing a forest cell flips membership iff the
    # chain holds it; every other cell must then agree with the chain
    todo = list(roots)
    while todo:
        t = todo.pop()
        for e in tree.intersection(c.faces(d, t)):
            u = sum(c.cofaces(d - 1, e)) - t
            if u not in inside:
                inside[u] = inside[t] ^ holds[e]
                todo.append(u)
    for e in range(n):
        a, b = c.cofaces(d - 1, e)
        if inside[a] ^ inside[b] != holds[e]:
            raise ValueError("chain is not a boundary")
    return Chain.from_cells(c, d, [t for t, x in inside.items() if x])


class SectorSet(NamedTuple):
    """The Z2 homology classes of p-cycles on a complex, as the b echelon
    generators of `_expand`; class j of the span numbering (bit k of j picks
    generator k, as `_span` lists them) is never built unless listed."""

    complex: CellComplex
    dim: int
    generators: Tuple[int, ...]

    @property
    def class_count(self) -> int:
        return 1 << len(self.generators)

    def listing(self) -> Tuple[List[int], List[int]]:
        """Every class's representative bits in span numbering, and the span
        indices in listing order: by weight, then by bits, so the empty
        chain is sector 0."""
        span = _span(self.generators)
        return span, sorted(range(len(span)), key=lambda j: (span[j].bit_count(), span[j]))

    @property
    def reps(self) -> List[Chain]:
        """The representatives in listing order."""
        span, order = self.listing()
        return [Chain(self.complex, self.dim, span[j]) for j in order]


def homology_sector_reps(c: CellComplex, p: int) -> SectorSet:
    """The classes of dimension p = d-1, each represented by its one cycle
    with no pivot bit of the boundary space (its reduced form in
    lexicographic pivot order), a sum of the generators of
    `cycle_space_basis`: a sum of pivot-free cycles is pivot-free. So the
    empty chain represents the trivial class, and the choice is
    reproducible. Raises past 2^MAX_SECTOR_RANK classes."""
    sweep = _propagate(c, p)
    solutions = _solutions(sweep)
    if len(solutions) > MAX_SECTOR_RANK:
        raise ValueError(f"2^{len(solutions)} sectors exceed the enumeration guard")
    return SectorSet(c, p, _expand(sweep, solutions))


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
