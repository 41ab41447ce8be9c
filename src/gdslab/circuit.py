"""Local phase circuit conjugating the semion model to the toric code (odd d).

One gate per cell of dimension below d.  Its support is the bitmask of the
(d-1)-cells whose closure holds the cell, so it fires on a basis state iff
`support & state.bits` is nonzero: its cell lies in the closure of the up-set.
The supports come from one downward OR pass over the whole complex
(`complexes._closure_masks`), seeded with bit f on every (d-1)-cell f.
A firing gate gives +i for an even-dimensional cell and -i for an odd one, so
the phase is i to (#even - #odd firing gates); it telescopes to i^chi.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Sequence, Tuple

from .complexes import CellComplex, Chain, _closure_masks, ensure_validated
from .f2 import _set_bits
from .model import GDS, flip, random_cycle
from .phases import ONE, Phase


class PhaseGate(NamedTuple):
    dim: int
    cell: int
    support: int   # bitmask of the (d-1)-cells whose closure holds the cell


def build_gates(c: CellComplex) -> List[PhaseGate]:
    if c.dim % 2 == 0:
        raise ValueError("the conjugating circuit exists in odd dimension")
    ensure_validated(c)
    d = c.dim
    support = _closure_masks(c, {(d - 1, f): 1 << f for f in range(c.n_cells(d - 1))})
    return [PhaseGate(j, i, support[j].get(i, 0))
            for j in range(d) for i in range(c.n_cells(j))]


def circuit_phase(gates: Sequence[PhaseGate], state: Chain) -> Phase:
    """Product of all firing gates, evaluated gate by gate."""
    bits = state.bits
    return Phase.i_power(sum(-1 if g.dim % 2 else 1 for g in gates if g.support & bits))


class Schedule(NamedTuple):
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


class ConjugationReport(NamedTuple):
    """Falsy on failure, naming the first failing flip: its trial (1-based),
    the bits of the state before it and the flipped top cell."""

    ok: bool
    trial: int = 0
    state: int = 0
    cell: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _gates_meeting(c: CellComplex, gates: Sequence[PhaseGate]) -> List[Tuple[Tuple[int, ...], ...]]:
    """For every top cell, the supports of the gates that meet one of its
    faces, as two tuples: the gates a firing adds 1 to the exponent of i in
    `circuit_phase` for (even dimension), and those it subtracts 1 for.  A
    flip of the cell changes only bits of its faces, so every other gate
    fires alike before and after it."""
    d = c.dim
    by_qubit: List[List[int]] = [[] for _ in range(c.n_cells(d - 1))]
    for idx, g in enumerate(gates):
        for f in _set_bits(g.support):
            by_qubit[f].append(idx)
    out = []
    for cell in range(c.n_cells(d)):
        meeting = [gates[idx] for idx in sorted({idx for f in c.faces(d, cell) for idx in by_qubit[f]})]
        out.append((tuple(g.support for g in meeting if not g.dim % 2),
                    tuple(g.support for g in meeting if g.dim % 2)))
    return out


def _phase_after_flip(
    meeting: Tuple[Tuple[int, ...], ...], before: Phase, bits: int, after: int
) -> Phase:
    """`circuit_phase` on the state `after`, given its value `before` on the
    state `bits` and the signed supports `meeting` every bit where the two
    differ: i to the change of their signed firing count."""
    change = 0
    plus, minus = meeting
    for support in plus:
        if support & after:
            change += 1
        if support & bits:
            change -= 1
    for support in minus:
        if support & after:
            change -= 1
        if support & bits:
            change += 1
    return before * Phase.i_power(change)


def verify_conjugation(
    c: CellComplex, gates: Sequence[PhaseGate], n_states: int = 20, seed: int = 0
) -> ConjugationReport:
    """Check that conjugating a flip by the phase circuit `gates` (as
    `build_gates(c)` gives them) cancels its sign.

    For every top cell and sampled cycle states: the circuit phase after the
    flip, times the semion flip sign, times the conjugate circuit phase before
    the flip, must be the toric-code sign +1.  The phase before is the full
    product; the phase after updates it by the gates whose support meets a
    face of the flipped cell (`_phase_after_flip`).
    """
    if c.dim % 2 == 0:
        raise ValueError("the conjugating circuit exists in odd dimension")
    meeting = _gates_meeting(c, gates)
    rng = random.Random(seed)
    for trial in range(1, n_states + 1):
        state = random_cycle(c, rng)
        before = circuit_phase(gates, state)
        for cell in range(c.n_cells(c.dim)):
            after_state, sf = flip(c, cell, state, GDS)
            after = _phase_after_flip(meeting[cell], before, state.bits, after_state.bits)
            if after * Phase.from_sign(sf.phase) * before.conj() != ONE:
                return ConjugationReport(False, trial, state.bits, cell)
    return ConjugationReport(True)
