"""Local phase circuit conjugating the semion model to the toric code (odd d).

One gate per cell of dimension below d.  Its support is the bitmask of the
(d-1)-cells whose closure holds the cell, so it fires on a basis state iff
`support & state.bits` is nonzero: its cell lies in the closure of the up-set.
The supports come from the downward pass that builds the chi_up tables
(`complexes._closure_masks`), seeded with bit f on every (d-1)-cell f.
A firing gate gives +i for an even-dimensional cell and -i for an odd one, so
the phase is i to (#even - #odd firing gates); it telescopes to i^chi.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from .complexes import CellComplex, Chain, _closure_masks, ensure_validated
from .model import GDS, flip, random_cycle
from .phases import ONE, Phase


@dataclass(frozen=True)
class PhaseGate:
    dim: int
    cell: int
    support: int   # bitmask of the (d-1)-cells whose closure holds the cell


def build_gates(c: CellComplex) -> List[PhaseGate]:
    if c.dim % 2 == 0:
        raise ValueError("the conjugating circuit exists in odd dimension")
    ensure_validated(c)
    d = c.dim
    support = _closure_masks(c, d - 1, {f: 1 << f for f in range(c.n_cells(d - 1))})
    return [PhaseGate(j, i, support[j].get(i, 0))
            for j in range(d) for i in range(c.n_cells(j))]


def circuit_phase(gates: Sequence[PhaseGate], state: Chain) -> Phase:
    """Product of all firing gates, evaluated gate by gate."""
    bits = state.bits
    return Phase.i_power(sum(-1 if g.dim % 2 else 1 for g in gates if g.support & bits))


@dataclass
class Schedule:
    rounds: List[List[int]]   # gate indices per round

    @property
    def depth(self) -> int:
        return len(self.rounds)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for r in self.rounds:
                fh.write(" ".join(str(g) for g in r) + "\n")


def schedule(gates: Sequence[PhaseGate]) -> Schedule:
    """Greedy conflict coloring: gates with disjoint supports share a round.

    Each round keeps the OR of its gates' supports, and each gate, in order,
    joins the first round whose mask misses its support.  A mask meets the
    support iff a gate of that round shares a qubit, so each gate gets the
    least color no conflicting earlier gate holds.  Gates come per dimension
    in id order, so the result is a pure function of the complex; the depth is
    bounded by one plus the largest number of gates any single qubit
    supports, hence by local geometry only.
    """
    masks: List[int] = []
    rounds: List[List[int]] = []
    for idx, g in enumerate(gates):
        r = next((k for k, m in enumerate(masks) if not m & g.support), len(masks))
        if r == len(masks):
            masks.append(0)
            rounds.append([])
        masks[r] |= g.support
        rounds[r].append(idx)
    return Schedule(rounds)


@dataclass(frozen=True)
class ConjugationReport:
    """Falsy on failure, naming the first failing flip: its trial (1-based),
    the bits of the state before it and the flipped top cell."""

    ok: bool
    trial: int = 0
    state: int = 0
    cell: int = 0

    def __bool__(self) -> bool:
        return self.ok


def verify_conjugation(c: CellComplex, n_states: int = 20, seed: int = 0) -> ConjugationReport:
    """Check that conjugating a flip by the phase circuit cancels its sign.

    For every top cell and sampled cycle states: the circuit phase after the
    flip, times the semion flip sign, times the conjugate circuit phase before
    the flip, must be the toric-code sign +1.
    """
    if c.dim % 2 == 0:
        raise ValueError("the conjugating circuit exists in odd dimension")
    gates = build_gates(c)
    rng = random.Random(seed)
    for trial in range(1, n_states + 1):
        state = random_cycle(c, rng)
        before = circuit_phase(gates, state)
        for cell in range(c.n_cells(c.dim)):
            after_state, sf = flip(c, cell, state, GDS)
            after = circuit_phase(gates, after_state)
            if after * Phase.from_sign(sf.phase) * before.conj() != ONE:
                return ConjugationReport(False, trial, state.bits, cell)
    return ConjugationReport(True)
