"""Plaquette dynamics of the generalized toric-code / double-semion models.

States put one qubit on every (d-1)-cell.  Vertex terms check the even-count
condition at (d-2)-cells; a plaquette flip NOTs the boundary of a top cell and,
in the semion model, carries a sign fixed by the Euler characteristic of the
up-labelled part of the cell boundary.

A single flip (`chi_up`, and the oracle's terms in `ed`) reads chi_up from a
table kept per top cell.  Number the cells sigma of the closure of its
boundary 0..n-1, dimension by dimension (`complexes._closure_cells`).  The
table holds its face tuple, for every face position the mask of the sigma
in the closure of that face, and the masks of the sigma of even and of odd
dimension.  One upward pass builds it: a cell's mask is its own bit ORed
with its faces' masks.  The OR of the masks of the up faces is the closed
up-part, so chi_up is the count of its even-dimensional sigma less the
count of its odd ones: two `bit_count`s.  The numbering of the sigma is
free, since only these counts read it.

The flip phase -(-1)^chi_up depends on chi_up only mod 2, and mod 2 every
cell counts +1 whatever its dimension: the phase is -1 exactly when an even
number of sigma are up.  `_sweeps`, the one sweep loop, uses this to flip
many states at once, bit-sliced: the states are stored transposed, one int
per (d-1)-cell whose bit j says whether state j contains that cell.  It
builds no table.  Per top cell, `_flip_columns` seeds the faces with their
columns and runs the same downward OR steps (`complexes._or_into_faces`),
so sigma ends with the OR of the columns of the faces whose closure holds
it: for all states in one int, whether sigma is up.  XOR-ing those over
sigma gives the parity of chi_up, and the flip XORs the all-states mask
into the columns of the cell boundary.  One column set may be swept in
many flip orders; it is checked to be a set of cycles once, and every
sweep must bring it back to its starting columns.

`sweep_signs` transposes an explicit list of chains into those columns.
The sectors need no list: with generators g_0 .. g_{b-1}, sector j of the
span numbering is the sum of the g_k with bit k of j set, so its column
bit at a cell f is the parity of the generators holding f that j picks.
That is the XOR, over the generators holding f, of the Walsh masks W_k,
whose bit j is bit k of j (2^k zeros, then 2^k ones, repeated over 2^b
bits). `ground_degeneracy` reads the count off the sign mask alone, and
`sector_reports` numbers the sectors in listing order, by weight and then
bits (`SectorSet.listing`), as `SectorSet.reps` lists them;
`order_dependent_sectors` names a sector whose sign changes under another
flip order by the same numbering.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import chain
from operator import xor
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .complexes import CellComplex, Chain, _closure_cells, _or_into_faces, ensure_validated
from .f2 import F2Matrix, PreconditionError, _set_bits
from .homology import SectorSet, cycle_space_basis, homology_sector_reps

GDS = "gds"
GTC = "gtc"
MODELS = (GDS, GTC)


class _SignedFlipFields(NamedTuple):
    cell: int
    chi_up: int
    phase: int
    model: str


class SignedFlip(_SignedFlipFields):
    __slots__ = ()

    def __new__(cls, cell: int, chi_up: int, phase: int, model: str) -> "SignedFlip":
        expected = -((-1) ** chi_up) if model == GDS else 1
        if phase != expected:
            raise ValueError("phase inconsistent with chi_up")
        return tuple.__new__(cls, (cell, chi_up, phase, model))


class SectorReport(NamedTuple):
    sector: int
    rep: Chain
    sweep_sign: int
    survives: bool
    epsilon: Optional[int] = None


def hplus_violations(c: CellComplex, s: Chain) -> FrozenSet[int]:
    """(d-2)-cells with an odd number of up cofaces: the excited vertex terms."""
    _check_state(c, s)
    return frozenset(s.boundary().cells())


def is_cycle_state(c: CellComplex, s: Chain) -> bool:
    return not hplus_violations(c, s)


# (face tuple of a top cell, cols, even, odd): the closure cells sigma of
# the cell boundary numbered 0..n-1, cols[pos] the mask of those in the
# closure of face pos, even and odd the masks of those of even and odd
# dimension
ChiTable = Tuple[Tuple[int, ...], Tuple[int, ...], int, int]


def _chi_table(c: CellComplex, cell: int) -> ChiTable:
    """The chi_up table of one top cell for single flips, built once per
    complex; sweeps read none (`_flip_columns`)."""
    table = c._chi_tables.get(cell)
    if table is None:
        faces = c.faces(c.dim, cell)
        parity = [0, 0]
        n = 0
        below: Dict[int, int] = {}
        for j, ids in enumerate(_closure_cells(c, [(c.dim - 1, f) for f in faces])):
            # each cell's own bit ORed with its faces' masks: its closure
            faces_j = c._faces[j]
            level = {}
            for x in ids:
                m = 1 << n
                for f in faces_j[x]:
                    m |= below[f]
                level[x] = m
                n += 1
            parity[j % 2] |= (1 << n) - (1 << n - len(ids))  # this dimension's bits
            below = level
        table = (faces, tuple(map(below.__getitem__, faces)), parity[0], parity[1])
        c._chi_tables[cell] = table
    return table


def chi_up(c: CellComplex, cell: int, s: Chain) -> int:
    """Euler characteristic of the closed up-part of a top cell's boundary.

    Defined combinatorially for every state, cycle or not, so the plaquette
    operator is total.
    """
    _check_state(c, s)
    ensure_validated(c)
    faces, cols, even, odd = _chi_table(c, cell)
    bits = s.bits
    up = 0
    for f, col in zip(faces, cols):
        if (bits >> f) & 1:
            up |= col
    return (up & even).bit_count() - (up & odd).bit_count()


def flip(c: CellComplex, cell: int, s: Chain, model: str = GDS) -> Tuple[Chain, SignedFlip]:
    """Apply one plaquette operator; the new state is s XOR the cell boundary."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    _check_state(c, s)
    chi = chi_up(c, cell, s)
    phase = -((-1) ** chi) if model == GDS else 1
    new_bits = s.bits ^ c.boundary_bits(c.dim, cell)
    return Chain(c, c.dim - 1, new_bits), SignedFlip(cell, chi, phase, model)


def verify_projector(c: CellComplex, cell: int, s: Chain) -> bool:
    """Flipping twice must return the state with net phase +1.

    Determinate when the state satisfies the vertex terms on the cell
    boundary, or when its restriction to the boundary sphere is a relative
    cycle there (for a connected sphere: all faces down or all faces up).
    Anything else is the open off-kernel regime and is refused.
    """
    boundary_ridges = {r for f in c.faces(c.dim, cell) for r in c.faces(c.dim - 1, f)}
    restricted = [f for f in c.faces(c.dim, cell) if s.contains(f)]
    relative_cycle = len(restricted) in (0, len(c.faces(c.dim, cell)))
    if hplus_violations(c, s) & boundary_ridges and not relative_cycle:
        raise PreconditionError(
            "state violates vertex terms on the cell boundary; projector "
            "property is indeterminate here"
        )
    s1, f1 = flip(c, cell, s, GDS)
    s2, f2 = flip(c, cell, s1, GDS)
    chi_down_parity = f2.chi_up % 2
    return s2.bits == s.bits and f1.phase * f2.phase == 1 and (
        f1.chi_up % 2 == chi_down_parity
    )


def verify_commutation(c: CellComplex, c1: int, c2: int, s: Chain) -> bool:
    """Both flip orders must produce the same state and the same total phase."""
    if not is_cycle_state(c, s):
        raise PreconditionError("commutation is only claimed on cycle states")
    a1, fa1 = flip(c, c1, s, GDS)
    a2, fa2 = flip(c, c2, a1, GDS)
    b1, fb1 = flip(c, c2, s, GDS)
    b2, fb2 = flip(c, c1, b1, GDS)
    return a2.bits == b2.bits and fa1.phase * fa2.phase == fb1.phase * fb2.phase


def sweep_sign(c: CellComplex, e: Chain, order: Optional[Sequence[int]] = None) -> int:
    """Accumulated semion phase of flipping every top cell once, starting and
    ending at the given cycle.  +1 means the sector admits a zero-energy state.
    """
    return sweep_signs(c, [e], order)[0]


def sweep_signs(
    c: CellComplex, reps: Sequence[Chain], order: Optional[Sequence[int]] = None
) -> List[int]:
    """`sweep_sign` of every given cycle, all swept together bit-sliced."""
    _check_sweepable(c)
    for e in reps:
        _check_state(c, e)
    # bit j of cols[f]: does reps[j] contain (d-1)-cell f
    cols = F2Matrix(len(reps), c.n_cells(c.dim - 1), [e.bits for e in reps]).transpose().data
    negative = _sweep(c, cols, len(reps), order)
    return [-1 if (negative >> j) & 1 else 1 for j in range(len(reps))]


def _sweep(c: CellComplex, cols: List[int], n: int, order: Optional[Sequence[int]]) -> int:
    """The mask of the cycles whose sweep sign is -1, for one flip order
    (`_sweeps`)."""
    return next(_sweeps(c, cols, n, [order]))


def _sweeps(
    c: CellComplex, cols: List[int], n: int, orders: Iterable[Optional[Sequence[int]]]
) -> Iterator[int]:
    """The one bit-sliced sweep of n cycles stored transposed, bit j of
    cols[f] saying whether cycle j contains (d-1)-cell f: for each flip order
    in turn (None for id order), the mask of the cycles whose sweep sign is
    -1.  The columns are checked to be cycles once; each sweep flips them in
    place and must bring them back."""
    d = c.dim
    # the boundaries of all cycles at once, one int per (d-2)-cell; a repeated face cancels
    ridge_sums = [0] * c.n_cells(d - 2)
    for f, col in enumerate(cols):
        if col:
            for r in c.faces(d - 1, f):
                ridge_sums[r] ^= col
    if any(ridge_sums):
        raise ValueError("sweep must start from a cycle")
    ids = list(range(c.n_cells(d)))
    start = list(cols)
    full = (1 << n) - 1
    for order in orders:
        cells = ids
        if order is not None:
            cells = list(order)
            if sorted(cells) != ids:
                raise ValueError("order must visit every top cell exactly once")
        negative = 0
        for cell in cells:
            # an even chi_up gives the phase -1
            negative ^= _flip_columns(c, cell, cols, full) ^ full
        if cols != start:
            raise AssertionError("sweep did not return to its starting cycle")
        yield negative


def _flip_columns(c: CellComplex, cell: int, cols: List[int], full: int) -> int:
    """One step of the sweep: the flip of a top cell on every cycle at once.
    Returns the parity of chi_up before the flip, bit j for cycle j, and
    XORs `full` into the columns of the cell's faces.  The faces are seeded
    with their columns and ORed down one dimension at a time, so every cell
    sigma of the closure ends with the OR of the columns of the faces whose
    closure holds it, which says whether sigma is up; the parity is the XOR
    of those values."""
    tables = c._faces
    faces = tables[c.dim][cell]
    level = {f: cols[f] for f in faces}
    parity = reduce(xor, level.values(), 0)
    for j in range(c.dim - 1, 0, -1):
        level = _or_into_faces(tables[j], level, {})
        parity = reduce(xor, level.values(), parity)
    for f in faces:
        cols[f] ^= full
    return parity


def _walsh(k: int, b: int) -> int:
    """W_k over the 2^b classes in span numbering: bit j is bit k of j, a
    run of 2^k zeros then 2^k ones, repeated by one multiplication."""
    run = 1 << k
    period = ((1 << run) - 1) << run
    return period * ((1 << (1 << b)) - 1) // ((1 << 2 * run) - 1)


def _sector_columns(c: CellComplex, sectors: SectorSet) -> List[int]:
    """The columns of every class in span numbering, bit j of column f
    saying whether class j contains (d-1)-cell f: the XOR of W_k over the
    generators k holding f, so no class is built. Refused where a sweep is."""
    _check_sweepable(c)
    b = len(sectors.generators)
    cols = [0] * c.n_cells(c.dim - 1)
    for k, g in enumerate(sectors.generators):
        w = _walsh(k, b)
        for f in _set_bits(g):
            cols[f] ^= w
    return cols


def _negative_sectors(c: CellComplex, sectors: SectorSet) -> int:
    """The classes whose sweep sign is -1, as a mask in span numbering."""
    return _sweep(c, _sector_columns(c, sectors), sectors.class_count, None)


def order_dependent_sectors(
    c: CellComplex, orders: Iterable[Sequence[int]]
) -> Iterator[Optional[int]]:
    """For each flip order in turn, the first sector in listing order whose
    sweep sign differs from the sweep in id order, or None if none does.
    Every sweep reads one build of the sector columns, checked once; the
    listing is built only once some sign differs."""
    sectors = sector_reps(c)
    sweeps = _sweeps(c, _sector_columns(c, sectors), sectors.class_count, chain([None], orders))
    base = next(sweeps)
    listing = None
    for negative in sweeps:
        changed = negative ^ base
        if not changed:
            yield None
            continue
        if listing is None:
            listing = sectors.listing()[1]
        yield next(i for i, j in enumerate(listing) if changed >> j & 1)


def sector_reps(c: CellComplex) -> SectorSet:
    return homology_sector_reps(c, c.dim - 1)


def ground_degeneracy(c: CellComplex, model: str = GDS) -> int:
    """Zero-energy dimension by the generator sweep (semion model): 2^b less
    the negative sectors; or by the homology count 2^b (toric code).

    A disconnected complex factorizes: the dimension is the product over
    components.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    ensure_validated(c)
    if not c.is_connected():
        gsd = 1
        for piece in _components(c):
            gsd *= ground_degeneracy(piece, model)
        return gsd
    sectors = sector_reps(c)
    if model == GTC:
        return sectors.class_count
    return sectors.class_count - _negative_sectors(c, sectors).bit_count()


def sector_reports(c: CellComplex, model: str = GDS) -> List[SectorReport]:
    """One report per sector, numbered in listing order (`SectorSet.reps`):
    its representative, sweep sign (+1 throughout for the toric code),
    survival and, in even d, epsilon. A disconnected complex's reports are
    listed per component, each numbered from 0."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    ensure_validated(c)
    if not c.is_connected():
        return [r for piece in _components(c) for r in sector_reports(piece, model)]
    sectors = sector_reps(c)
    negative = _negative_sectors(c, sectors) if model == GDS else 0
    chi = c.euler_characteristic()
    span, listing = sectors.listing()
    reports = []
    for idx, j in enumerate(listing):
        survives = not (negative >> j) & 1
        eps = None
        if c.dim % 2 == 0:
            eps = (chi % 2) if survives else (chi + 1) % 2
        rep = Chain(c, c.dim - 1, span[j])
        reports.append(SectorReport(idx, rep, 1 if survives else -1, survives, eps))
    return reports


def _components(c: CellComplex) -> List[CellComplex]:
    """Connected components as standalone complexes, in order of their
    union-find roots."""
    roots = c.vertex_roots()
    by_root: dict = {}
    for cell in range(c.n_cells(c.dim)):
        root = roots[min(_closure_cells(c, [(c.dim, cell)])[0])]
        by_root.setdefault(root, []).append(cell)
    pieces = []
    for root in sorted(by_root):
        cells = c.closure((c.dim, i) for i in by_root[root])
        piece = c.subcomplex(cells)
        piece.meta["generic_validated"] = bool(c.meta.get("generic_validated"))
        pieces.append(piece)
    return pieces


def random_cycle(c: CellComplex, rng: random.Random) -> Chain:
    """Uniformly random element of the cycle space of states."""
    basis = cycle_space_basis(c, c.dim - 1)
    bits = 0
    for v in basis:
        if rng.getrandbits(1):
            bits ^= v
    return Chain(c, c.dim - 1, bits)


def _check_sweepable(c: CellComplex) -> None:
    """A sweep needs a validated generic complex, one component at a time."""
    ensure_validated(c)
    if not c.is_connected():
        raise ValueError("sweep is defined per connected component")


def _check_state(c: CellComplex, s: Chain) -> None:
    if s.complex is not c or s.dim != c.dim - 1:
        raise ValueError("state must be a (d-1)-chain on this complex")
