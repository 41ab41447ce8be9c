"""Reference zero-energy phase functions and their consistency checks.

For odd ambient dimension the phase of a cycle is i to its Euler
characteristic; on even-dimensional homology spheres it is -1 to the
semicharacteristic.  Wavefunctions are never materialized as amplitude
vectors here: they are phases evaluated on demand.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Optional, Tuple

from .complexes import CellComplex, Chain
from .homology import betti, betti_of_cells, bounding_cells, semicharacteristic
from .manifolds import builtin_manifold
from .model import GDS, GTC, flip, ground_degeneracy, random_cycle
from .phases import MINUS_ONE, ONE, Phase

ODD_CHI = "odd-chi"
EVEN_SEMICHAR = "even-semichar"


class _PhaseFnFields(NamedTuple):
    kind: str
    complex: CellComplex


class PhaseFn(_PhaseFnFields):
    __slots__ = ()

    def __new__(cls, kind: str, complex: CellComplex) -> "PhaseFn":
        d = complex.dim
        if kind == ODD_CHI:
            if d % 2 == 0:
                raise ValueError("odd-chi phase needs odd ambient dimension")
        elif kind == EVEN_SEMICHAR:
            if d % 2 == 1:
                raise ValueError("even-semichar phase needs even ambient dimension")
            b = betti(complex)
            if b[d - 1] != 0 or b[d // 2] != 0:
                raise ValueError(
                    "even-semichar phase needs vanishing homology in "
                    "codimension 1 and middle dimension"
                )
        else:
            raise ValueError(f"unknown phase kind {kind!r}")
        return tuple.__new__(cls, (kind, complex))


def reference_phase(f: PhaseFn, e: Chain) -> Phase:
    """The phase the reference ground state assigns to a cycle."""
    if e.complex is not f.complex or e.dim != f.complex.dim - 1:
        raise ValueError("chain is not a state of this complex")
    if not e.is_cycle():
        raise ValueError("reference phases are defined on cycles only")
    if f.kind == ODD_CHI:
        return Phase.i_power(e.euler_characteristic())
    k = (f.complex.dim - 2) // 2
    s = semicharacteristic(betti_of_cells(f.complex, ((e.dim, i) for i in e.cells())), k, start=0)
    return MINUS_ONE if s else ONE


class FlipConsistencyResult(NamedTuple):
    ok: bool
    first_violation: Optional[Tuple[int, int]]  # (step, cell)


def verify_flip_consistency(f: PhaseFn, trials: int, seed: int) -> FlipConsistencyResult:
    """Random flip walks from random cycles: every step must satisfy
    phase(after) = flip_sign * phase(before)."""
    c = f.complex
    rng = random.Random(seed)
    state = random_cycle(c, rng)
    phase = reference_phase(f, state)
    for step in range(trials):
        if step % 97 == 0:
            state = random_cycle(c, rng)
            phase = reference_phase(f, state)
        cell = rng.randrange(c.n_cells(c.dim))
        state, sf = flip(c, cell, state, GDS)
        phase = phase * Phase.from_sign(sf.phase)
        if reference_phase(f, state) != phase:
            return FlipConsistencyResult(False, (step, cell))
    return FlipConsistencyResult(True, None)


def transported_phase(c: CellComplex, e_from: Chain, e_to: Chain) -> int:
    """Accumulated flip sign along an explicit path between homologous cycles.

    The filler is any set of top cells bounding the difference; phases are
    path independent exactly when the sector supports a zero-energy state.
    """
    if not (e_from.is_cycle() and e_to.is_cycle()):
        raise ValueError("endpoints must be cycles")
    try:
        filler = bounding_cells(c, e_from ^ e_to)
    except ValueError:
        raise ValueError("cycles are not homologous") from None
    state = e_from
    sign = 1
    for cell in filler.cells():
        state, sf = flip(c, cell, state, GDS)
        sign *= sf.phase
    assert state.bits == e_to.bits
    return sign


class TableRow(NamedTuple):
    t: int
    dim_ds: int
    dim_tc: int

    @property
    def ratio(self) -> str:
        from math import gcd

        g = gcd(self.dim_ds, self.dim_tc)
        return f"{self.dim_ds // g}/{self.dim_tc // g}"


def ds_tc_dimension_table(t_max: int) -> List[TableRow]:
    """Ground-space dimensions of both models on connected sums of projective
    planes, computed by the sector sweep."""
    if t_max < 1:
        raise ValueError(f"table needs t_max >= 1, got {t_max}")
    if t_max > 6:
        raise ValueError("table guard: t_max must be at most 6")
    rows = []
    for t in range(1, t_max + 1):
        c = builtin_manifold("tP", t)
        ds, _ = ground_degeneracy(c, GDS)
        tc, _ = ground_degeneracy(c, GTC)
        rows.append(TableRow(t, ds, tc))
    return rows
