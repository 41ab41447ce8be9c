"""Plaquette dynamics of the generalized toric-code / double-semion models.

States put one qubit on every (d-1)-cell.  Vertex terms check the even-count
condition at (d-2)-cells; a plaquette flip NOTs the boundary of a top cell and,
in the semion model, carries a sign fixed by the Euler characteristic of the
up-labelled part of the cell boundary.

chi_up is read from a table kept per top cell: its face tuple and, for every
cell sigma in the closure of its boundary, grouped by dim sigma, the mask of
the face positions whose closure contains sigma.  The table comes from one
downward pass (`complexes._closure_masks`): face pos starts with bit pos, and
every cell ORs its mask into its own faces.  A state's local pattern (bit i
set iff face i is up) meets mask_sigma exactly when sigma lies in the closed
up-part, so chi_up = sum over sigma of (-1)^dim sigma
[pattern & mask_sigma != 0].  Only such sums and their parities read the
masks, so their order within a dimension is free.

The flip phase -(-1)^chi_up depends on chi_up only mod 2, and mod 2 every
cell counts +1 whatever its dimension: the phase is -1 exactly when an even
number of sigma meet the pattern.  `sweep_signs` uses this to flip every
sector at once, bit-sliced: the states are stored transposed, one int per
(d-1)-cell whose bit j says whether sector j's state contains that cell.
OR-ing the columns of the faces selected by mask_sigma gives, for all
sectors in one int, whether sigma is up; XOR-ing those over sigma gives the
parity of chi_up, and a flip XORs the all-sectors mask into the columns of
the cell boundary.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .complexes import CellComplex, CellKey, Chain, _closure_masks, ensure_validated
from .f2 import F2Matrix, PreconditionError
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


# (face tuple of a top cell, masks by dimension): masks[k] holds, for every
# k-cell sigma in the closure of the cell boundary, the mask of the face
# positions whose closure contains sigma
ChiTable = Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]


def _chi_table(c: CellComplex, cell: int) -> ChiTable:
    """The chi_up table of one top cell, built once per complex."""
    table = c._chi_tables.get(cell)
    if table is None:
        faces = c.faces(c.dim, cell)
        seed: Dict[CellKey, int] = {}
        for pos, f in enumerate(faces):
            key = (c.dim - 1, f)
            seed[key] = seed.get(key, 0) | 1 << pos
        by_dim = _closure_masks(c, seed)
        table = (faces, tuple(tuple(ms.values()) for ms in by_dim))
        c._chi_tables[cell] = table
    return table


def _chi_of_pattern(masks: Tuple[Tuple[int, ...], ...], pattern: int) -> int:
    """chi_up of a local up-pattern over a table's face positions."""
    chi = 0
    for k, ms in enumerate(masks):
        up = sum(1 for m in ms if pattern & m)
        chi += -up if k % 2 else up
    return chi


def chi_up(c: CellComplex, cell: int, s: Chain) -> int:
    """Euler characteristic of the closed up-part of a top cell's boundary.

    Defined combinatorially for every state, cycle or not, so the plaquette
    operator is total.
    """
    _check_state(c, s)
    ensure_validated(c)
    faces, masks = _chi_table(c, cell)
    bits = s.bits
    pattern = 0
    for pos, f in enumerate(faces):
        if (bits >> f) & 1:
            pattern |= 1 << pos
    return _chi_of_pattern(masks, pattern)


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
    ensure_validated(c)
    if not c.is_connected():
        raise ValueError("sweep is defined per connected component")
    d = c.dim
    for e in reps:
        _check_state(c, e)
    # bit j of cols[f]: does reps[j] contain (d-1)-cell f
    cols = F2Matrix(len(reps), c.n_cells(d - 1), [e.bits for e in reps]).transpose().data
    # the boundaries of all reps at once, one int per (d-2)-cell; a repeated face cancels
    ridge_sums = [0] * c.n_cells(d - 2)
    for f, col in enumerate(cols):
        if col:
            for r in c.faces(d - 1, f):
                ridge_sums[r] ^= col
    if any(ridge_sums):
        raise ValueError("sweep must start from a cycle")
    n_top = c.n_cells(d)
    cells = list(order) if order is not None else list(range(n_top))
    if sorted(cells) != list(range(n_top)):
        raise ValueError("order must visit every top cell exactly once")
    start = list(cols)
    full = (1 << len(reps)) - 1
    negative = 0
    for cell in cells:
        faces, masks = _chi_table(c, cell)
        face_cols = [cols[f] for f in faces]
        parity = 0
        for ms in masks:
            for m in ms:
                up = 0
                while m:
                    low = m & -m
                    up |= face_cols[low.bit_length() - 1]
                    m ^= low
                parity ^= up
        # an even chi_up gives the phase -1
        negative ^= parity ^ full
        for f in faces:
            cols[f] ^= full
    if cols != start:
        raise AssertionError("sweep did not return to its starting cycle")
    return [-1 if (negative >> j) & 1 else 1 for j in range(len(reps))]


def sector_reps(c: CellComplex) -> SectorSet:
    return homology_sector_reps(c, c.dim - 1)


def ground_degeneracy(
    c: CellComplex, model: str = GDS
) -> Tuple[int, List[SectorReport]]:
    """Zero-energy dimension by per-sector sweep (semion model) or by the
    homology count (toric code).

    A disconnected complex factorizes: the dimension is the product over
    components and the reports are listed per component.
    """
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    ensure_validated(c)
    if not c.is_connected():
        gsd = 1
        reports: List[SectorReport] = []
        for piece in _components(c):
            part_gsd, part_reports = ground_degeneracy(piece, model)
            gsd *= part_gsd
            reports.extend(part_reports)
        return gsd, reports
    sectors = sector_reps(c)
    chi = c.euler_characteristic()
    if model == GTC:
        signs = [1] * len(sectors.reps)
    else:
        signs = sweep_signs(c, sectors.reps)
    reports = []
    for idx, (rep, sign) in enumerate(zip(sectors.reps, signs)):
        survives = sign == 1
        eps = None
        if c.dim % 2 == 0:
            eps = (chi % 2) if survives else (chi + 1) % 2
        reports.append(SectorReport(idx, rep, sign, survives, eps))
    gsd = sum(1 for r in reports if r.survives)
    return gsd, reports


def _components(c: CellComplex) -> List[CellComplex]:
    """Connected components as standalone complexes, in order of their
    union-find roots."""
    roots = c.vertex_roots()
    by_root: dict = {}
    for cell in range(c.n_cells(c.dim)):
        root = roots[min(_closure_masks(c, {(c.dim, cell): 1})[0])]
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


def _check_state(c: CellComplex, s: Chain) -> None:
    if s.complex is not c or s.dim != c.dim - 1:
        raise ValueError("state must be a (d-1)-chain on this complex")
