"""Plaquette dynamics of the generalized toric-code / double-semion models.

States put one qubit on every (d-1)-cell.  Vertex terms check the even-count
condition at (d-2)-cells; a plaquette flip NOTs the boundary of a top cell and,
in the semion model, carries a sign fixed by the Euler characteristic of the
up-labelled part of the cell boundary.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .complexes import CellComplex, Chain, ensure_validated
from .f2 import PreconditionError
from .homology import SectorSet, homology_sector_reps

GDS = "gds"
GTC = "gtc"
MODELS = (GDS, GTC)


@dataclass(frozen=True)
class SignedFlip:
    cell: int
    chi_up: int
    phase: int
    model: str

    def __post_init__(self):
        expected = -((-1) ** self.chi_up) if self.model == GDS else 1
        if self.phase != expected:
            raise ValueError("phase inconsistent with chi_up")


@dataclass
class SectorReport:
    sector: int
    rep: Chain
    sweep_sign: int
    survives: bool
    epsilon: Optional[int] = None
    reference_kind: Optional[str] = None


def hplus_violations(c: CellComplex, s: Chain) -> FrozenSet[int]:
    """(d-2)-cells with an odd number of up cofaces: the excited vertex terms."""
    _check_state(c, s)
    return frozenset(s.boundary().cells())


def is_cycle_state(c: CellComplex, s: Chain) -> bool:
    return not hplus_violations(c, s)


def chi_up(c: CellComplex, cell: int, s: Chain) -> int:
    """Euler characteristic of the closed up-part of a top cell's boundary.

    Defined combinatorially for every state, cycle or not, so the plaquette
    operator is total.
    """
    _check_state(c, s)
    ensure_validated(c)
    up = [f for f in c.faces(c.dim, cell) if s.contains(f)]
    return c.chi_of_cells(c.closure((c.dim - 1, f) for f in up))


def flip(c: CellComplex, cell: int, s: Chain, model: str = GDS) -> Tuple[Chain, SignedFlip]:
    """Apply one plaquette operator; the new state is s XOR the cell boundary."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    _check_state(c, s)
    chi = chi_up(c, cell, s)
    phase = -((-1) ** chi) if model == GDS else 1
    new_bits = s.bits ^ c.boundary_bits(c.dim, cell)
    return Chain(c, c.dim - 1, new_bits), SignedFlip(cell, chi, phase, model)


def morse_parity(c: CellComplex, cell: int, s: Chain) -> int:
    """Number of elementary transitions realizing the flip, mod 2."""
    return (chi_up(c, cell, s) + 1) % 2


def verify_projector(c: CellComplex, cell: int, s: Chain) -> bool:
    """Flipping twice must return the state with net phase +1.

    Determinate when the state satisfies the vertex terms on the cell
    boundary, or when its restriction to the boundary sphere is a relative
    cycle there (for a connected sphere: all faces down or all faces up).
    Anything else is the open off-kernel regime and is refused.
    """
    boundary_ridges = {
        i for k, i in c.closure_of_cell(c.dim, cell) if k == c.dim - 2
    }
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
    ensure_validated(c)
    if not c.is_connected():
        raise ValueError("sweep is defined per connected component")
    if not is_cycle_state(c, e):
        raise ValueError("sweep must start from a cycle")
    cells = list(order) if order is not None else list(range(c.n_cells(c.dim)))
    if sorted(cells) != list(range(c.n_cells(c.dim))):
        raise ValueError("order must visit every top cell exactly once")
    state = e
    sign = 1
    for cell in cells:
        state, sf = flip(c, cell, state, GDS)
        sign *= sf.phase
    if state.bits != e.bits:
        raise AssertionError("sweep did not return to its starting cycle")
    return sign


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
    reports = []
    for idx, rep in enumerate(sectors.reps):
        if model == GTC:
            sign = 1
        else:
            sign = sweep_sign(c, rep)
        survives = sign == 1
        eps = None
        kind = None
        if c.dim % 2 == 0:
            eps = (chi % 2) if survives else (chi + 1) % 2
        else:
            kind = "odd-chi"
        reports.append(SectorReport(idx, rep, sign, survives, eps, kind))
    gsd = sum(1 for r in reports if r.survives)
    return gsd, reports


def _components(c: CellComplex) -> List[CellComplex]:
    """Connected components as standalone complexes, in order of their
    union-find roots."""
    roots = c.vertex_roots()
    by_root: dict = {}
    for cell in range(c.n_cells(c.dim)):
        root = roots[min(i for k, i in c.closure_of_cell(c.dim, cell) if k == 0)]
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
    from .homology import cycle_space_basis

    basis = cycle_space_basis(c, c.dim - 1)
    bits = 0
    for v in basis:
        if rng.getrandbits(1):
            bits ^= v
    return Chain(c, c.dim - 1, bits)


def _check_state(c: CellComplex, s: Chain) -> None:
    if s.complex is not c or s.dim != c.dim - 1:
        raise ValueError("state must be a (d-1)-chain on this complex")
