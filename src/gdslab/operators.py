"""Balloon operators, the classical two-dimensional Wilson sign with its
linking term, dual Wilson loops and arcs, and open-balloon excitations."""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, List, NamedTuple, Sequence, Tuple

from .complexes import (
    CellComplex,
    Chain,
    DisjointSet,
    _closure_masks,
    ensure_validated,
    is_embedded_union,
)
from .f2 import _set_bits
from .homology import _loop_components, cycle_space_basis, semicharacteristic_of_cells
from .phases import MINUS_ONE, Phase


class _BalloonFields(NamedTuple):
    support: Chain
    closed: bool = True


class Balloon(_BalloonFields):
    """Codimension-1 operator support: a set of (d-1)-cells, closed or open."""

    __slots__ = ()

    def __new__(cls, support: Chain, closed: bool = True) -> "Balloon":
        if support.dim != support.complex.dim - 1:
            raise ValueError("balloon support must consist of (d-1)-cells")
        has_boundary = support.boundary().bits != 0
        if closed and has_boundary:
            raise ValueError("closed balloon support must be a cycle")
        if not closed and not has_boundary:
            raise ValueError("open balloon support must have boundary")
        return tuple.__new__(cls, (support, closed))


class DualLoop(NamedTuple):
    """A walk in the dual graph given by the (d-1)-cells it crosses."""

    cells: Tuple[int, ...]
    closed: bool = True


def _walk_shared_cells(c: CellComplex, loop: DualLoop) -> List[int]:
    """Top cells shared by consecutive crossed faces; validates adjacency."""
    cells = loop.cells
    if not cells:
        raise ValueError("empty dual walk")
    pairs = list(zip(cells, cells[1:]))
    if loop.closed and len(cells) > 1:
        pairs.append((cells[-1], cells[0]))
    shared = []
    for f1, f2 in pairs:
        common = set(c.cofaces(c.dim - 1, f1)) & set(c.cofaces(c.dim - 1, f2))
        if not common:
            raise ValueError(f"faces {f1} and {f2} do not share a top cell")
        shared.append(min(common))
    return shared


class TangentialOverlapError(ValueError):
    """The two supports touch along cells without sharing codimension-1 cells
    there; the continuum treatment perturbs such contacts away, so no sign is
    assigned on the unrefined complex."""


class OverlapPieces(NamedTuple):
    """Support-only, shared, and state-only parts of a balloon application."""

    clean: bool
    chi_shared: int
    chi_boundary: int
    chi_support: int


def overlap_pieces(c: CellComplex, l_bits: int, a_bits: int) -> OverlapPieces:
    """Decompose supports and certify that they intersect cleanly.

    Clean means: the support-only, shared, and state-only pieces are each
    embedded, and all pairwise closures meet exactly in the boundary of the
    shared piece, so the Euler/Betti bookkeeping of the continuum picture
    applies verbatim. One closure pass marks every cell with the pieces
    holding it; the pairwise meets are all that boundary's closure iff the
    cells held by two or more pieces are exactly that closure and each of
    them is held by all three. The same pass gives the Euler characteristics
    of the closures of the shared piece, of its boundary and of the whole
    support (the cells held by the support-only or the shared piece), and
    each piece's embedding test (`is_embedded_union`) takes one more pass:
    four closure passes per pair. The pieces of the latest pair are kept on
    `c`.
    """
    key = (l_bits, a_bits)
    if c._overlap_pieces is not None and c._overlap_pieces[0] == key:
        return c._overlap_pieces[1]
    d1 = c.dim - 1
    b_bits = l_bits & a_bits
    a_bits_only = l_bits & ~a_bits
    c_bits_only = a_bits & ~l_bits
    # pass bits: 1 support-only, 2 shared, 4 state-only, 8 boundary of shared
    seeds = {}
    for bit, k, bits in (
        (1, d1, a_bits_only),
        (2, d1, b_bits),
        (4, d1, c_bits_only),
        (8, d1 - 1, Chain(c, d1, b_bits).boundary().bits),
    ):
        seeds.update(dict.fromkeys(((k, i) for i in _set_bits(bits)), bit))
    by_dim = _closure_masks(c, seeds)
    chi_shared = chi_boundary = chi_support = 0
    for k, masks in enumerate(by_dim):
        sign = -1 if k % 2 else 1
        chi_shared += sign * sum(1 for m in masks.values() if m & 2)
        chi_boundary += sign * sum(1 for m in masks.values() if m & 8)
        chi_support += sign * sum(1 for m in masks.values() if m & 3)
    clean = (
        # each cell lies in one piece, or in all three and the boundary's closure
        all(m in (1, 2, 4, 15) for masks in by_dim for m in masks.values())
        and is_embedded_union(c, d1, _set_bits(a_bits_only))
        and is_embedded_union(c, d1, _set_bits(b_bits))
        and is_embedded_union(c, d1, _set_bits(c_bits_only))
    )
    pieces = OverlapPieces(clean, chi_shared, chi_boundary, chi_support)
    c._overlap_pieces = (key, pieces)
    return pieces


def _semichar(c: CellComplex, chain: Chain, k: int, start: int) -> int:
    """The semicharacteristic of the closure of a chain's cells."""
    return semicharacteristic_of_cells(c, ((chain.dim, i) for i in chain.cells()), k, start)


def balloon_sign(c: CellComplex, l: Balloon, alpha: Chain) -> Phase:
    """Sign that makes NOT-on-support preserve zero-energy states.

    Odd ambient dimension needs no topological assumptions; the even case is
    only offered on complexes tagged as satisfying the vanishing-homology and
    tangent-class hypotheses (the shipped even spheres)."""
    ensure_validated(c)
    if not l.closed:
        raise ValueError("balloon must be closed; use open_balloon_apply")
    if not alpha.is_cycle():
        raise ValueError("state must be a cycle")
    d = c.dim
    pieces = overlap_pieces(c, l.support.bits, alpha.bits)
    if not pieces.clean:
        raise TangentialOverlapError(
            "balloon support and state touch tangentially; no consistent sign"
        )
    if d % 2 == 1:
        return Phase.i_power(pieces.chi_support) * Phase.from_sign((-1) ** pieces.chi_shared)
    if d == 2:
        raise ValueError("balloon signs are not defined on surfaces; there the"
                         " overlap boundary is points and the sign carries a"
                         " linking term")
    if not c.meta.get("balloon_even_ok"):
        raise ValueError(
            "even-dimensional balloon signs are only defined on complexes "
            "tagged with the required topology hypotheses"
        )
    k = (d - 2) // 2
    s_l = _semichar(c, l.support, k, start=0)
    if pieces.chi_boundary % 2:
        raise AssertionError("boundary of the overlap has odd Euler characteristic")
    return Phase.from_sign((-1) ** s_l) * Phase.i_power(pieces.chi_boundary)


def apply_balloon(c: CellComplex, l: Balloon, alpha: Chain) -> Tuple[Chain, Phase]:
    sign = balloon_sign(c, l, alpha)
    return alpha ^ l.support, sign


class WilsonData(NamedTuple):
    phase: Phase
    endpoint_count: int
    link: int


def ds2_wilson_sign(c: CellComplex, l: Chain, alpha: Chain) -> Phase:
    return ds2_wilson_data(c, l, alpha).phase


def ds2_wilson_data(c: CellComplex, l: Chain, alpha: Chain) -> WilsonData:
    """Wilson sign on a cellulated 2-sphere: a semicharacteristic factor, an
    endpoint count, and a total mod-2 linking number of the endpoint pairs.
    A connected closed generic surface with chi = 2 is the sphere."""
    ensure_validated(c)
    if c.dim != 2 or not c.is_connected() or c.euler_characteristic() != 2:
        raise ValueError("ambient complex must be a 2-sphere cellulation")
    if not alpha.is_cycle():
        raise ValueError("state must be a cycle")
    loops = _loop_components(c, l)
    if len(loops) != 1:
        raise ValueError(f"support must be one loop, got {len(loops)}")
    loop_verts = loops[0][1]

    b_bits = l.bits & alpha.bits
    endpoints = set(Chain(c, 1, b_bits).boundary().cells())
    # positions of endpoint vertices along the loop
    position = {v: i for i, v in enumerate(loop_verts)}
    if not all(v in position for v in endpoints):
        raise AssertionError("overlap endpoints must lie on the loop")

    # pair endpoints by the off-loop arcs of the state: the ends of an arc
    # are its degree-1 vertices, grouped by the arc's component
    arcs = DisjointSet(range(c.n_cells(0)))
    degree: Counter = Counter()
    for e in Chain(c, 1, alpha.bits & ~l.bits).cells():
        a, b = c.faces(1, e)
        arcs.union(a, b)
        degree.update((a, b))
    ends: Dict[int, List[int]] = {}
    for v, n in degree.items():
        if n == 1:
            ends.setdefault(arcs.find(v), []).append(position[v])
    pairs = []
    for arc_ends in ends.values():
        if len(arc_ends) != 2:
            raise AssertionError("off-loop arc with a bad endpoint count")
        pairs.append((arc_ends[0], arc_ends[1]))

    link = interleave_parity(pairs)
    chi_points = len(endpoints)
    if chi_points % 2:
        raise AssertionError("odd number of overlap endpoints")
    phase = MINUS_ONE * Phase.i_power(chi_points) * Phase.from_sign((-1) ** link)
    return WilsonData(phase, chi_points, link)


def interleave_parity(pairs: Sequence[Tuple[int, int]]) -> int:
    """Total mod-2 linking of point pairs on a circle: the parity of chord
    crossings, independent of which complementary disk the chords use."""
    link = 0
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a1, b1 = pairs[i]
            a2, b2 = pairs[j]
            lo, hi = min(a1, b1), max(a1, b1)
            inside = sum(1 for x in (a2, b2) if lo < x < hi)
            link ^= inside & 1
    return link


def dual_wilson_phase(c: CellComplex, loop: DualLoop, state: Chain) -> int:
    """Diagonal phase of the Z-string along a closed dual loop."""
    if not loop.closed:
        raise ValueError("loop must be closed")
    _walk_shared_cells(c, loop)
    ups = sum(1 for f in loop.cells if state.contains(f))
    return (-1) ** (ups % 2)


def dual_crossing_chain(c: CellComplex, loop: DualLoop) -> Chain:
    return Chain.from_cells(c, c.dim - 1, loop.cells)


def is_dual_nullhomologous(c: CellComplex, loop: DualLoop) -> bool:
    """True iff the loop bounds in the dual 2-skeleton, i.e. its crossing
    chain is a sum of coface triples of (d-2)-cells. Those sums are the
    orthogonal complement of the (d-1)-cycles, so the test is an even
    overlap with every vector of the cycle basis."""
    bits = dual_crossing_chain(c, loop).bits
    return not any((bits & z).bit_count() & 1 for z in cycle_space_basis(c, c.dim - 1))


class ArcExcitation(NamedTuple):
    violated_cells: FrozenSet[int]
    sector_phases: Tuple[int, ...]


def open_dual_arc_excite(c: CellComplex, arc: DualLoop, sector_reps: Sequence[Chain]) -> ArcExcitation:
    """Z-string along an open dual arc: plaquette terms at the two endpoint
    top cells anticommute, everything else is untouched."""
    if arc.closed:
        raise ValueError("arc must be open")
    _walk_shared_cells(c, arc)
    ends = 0  # the top cells holding an odd number of the crossed faces
    for f in dual_crossing_chain(c, arc).cells():
        ends ^= c.coboundary_bits(c.dim - 1, f)
    violated = frozenset(_set_bits(ends))
    phases = tuple(
        (-1) ** (sum(1 for f in arc.cells if rep.contains(f)) % 2)
        for rep in sector_reps
    )
    return ArcExcitation(violated, phases)


def open_balloon_apply(
    c: CellComplex, l: Balloon, alpha: Chain, conjugate: bool = False
) -> Tuple[Chain, Phase, FrozenSet[int]]:
    """NOT on an open codimension-1 support, with the boundary-overlap sign;
    the excited vertex terms lie exactly on the support boundary."""
    ensure_validated(c)
    d = c.dim
    if d % 2 or d < 4:
        raise ValueError("open balloons are defined in even dimension >= 4")
    if l.closed:
        raise ValueError("balloon must be open")
    if not alpha.is_cycle():
        raise ValueError("state must be a cycle")
    k = (d - 2) // 2
    if not is_embedded_union(c, d - 1, l.support.cells()):
        raise TangentialOverlapError("open balloon support is not embedded")
    s_l = _semichar(c, l.support, k, start=1)
    pieces = overlap_pieces(c, l.support.bits, alpha.bits)
    if not pieces.clean:
        raise TangentialOverlapError(
            "balloon support and state touch tangentially; no consistent sign"
        )
    chi_m = pieces.chi_boundary
    if chi_m % 2:
        raise AssertionError("overlap boundary has odd Euler characteristic")
    i_factor = Phase.i_power(-chi_m if conjugate else chi_m)
    phase = Phase.from_sign((-1) ** s_l) * i_factor
    new_state = alpha ^ l.support
    violated = frozenset(l.support.boundary().cells())
    return new_state, phase, violated


class DeltaCheck(NamedTuple):
    holds: bool
    lhs: int
    rhs: int


def semichar_delta_check(c: CellComplex, l: Balloon, alpha: Chain) -> DeltaCheck:
    """Bookkeeping identity for the semicharacteristic (even d) or the Euler
    characteristic (odd d) across a balloon application."""
    if not l.closed or not alpha.is_cycle():
        raise ValueError("both the balloon and the state must be closed")
    d = c.dim
    pieces = overlap_pieces(c, l.support.bits, alpha.bits)
    if not pieces.clean:
        raise TangentialOverlapError("supports touch tangentially; refine first")
    final = alpha ^ l.support          # the cycle A union C
    chi_m = pieces.chi_boundary
    if d % 2 == 1:
        lhs = final.euler_characteristic() - alpha.euler_characteristic()
        rhs = (
            l.support.euler_characteristic()
            + chi_m
            - 2 * pieces.chi_shared
        )
        return DeltaCheck(lhs == rhs and chi_m == 0, lhs, rhs)
    k = (d - 2) // 2
    s_final, s_initial, s_l = (_semichar(c, x, k, start=0) for x in (final, alpha, l.support))
    if chi_m % 2:
        return DeltaCheck(False, (s_final + s_initial) % 2, -1)
    lhs = (s_final + s_initial) % 2
    rhs = (s_l + chi_m // 2) % 2
    return DeltaCheck(lhs == rhs, lhs, rhs)


def random_sparse_cycle(c: CellComplex, rng, max_cells: int = 3, reps=None) -> Chain:
    """Flip-generated cycle: boundary of a few top cells, optionally shifted
    into a nontrivial sector."""
    bits = 0
    for _ in range(rng.randint(1, max_cells)):
        bits ^= c.boundary_bits(c.dim, rng.randrange(c.n_cells(c.dim)))
    if reps and rng.getrandbits(1):
        bits ^= rng.choice(reps).bits
    return Chain(c, c.dim - 1, bits)


def sample_clean_pair(
    c: CellComplex, rng, reps=None, max_tries: int = 400
) -> Tuple[Balloon, Chain]:
    """Rejection-sample a (closed balloon, cycle state) pair whose supports
    intersect cleanly; tangential contacts would be refined away in the
    continuum, so they are skipped here."""
    for _ in range(max_tries):
        support = random_sparse_cycle(c, rng, reps=reps)
        alpha = random_sparse_cycle(c, rng, reps=reps)
        if support.bits == 0:
            continue
        if overlap_pieces(c, support.bits, alpha.bits).clean:
            return Balloon(support, closed=True), alpha
    raise RuntimeError("no cleanly intersecting pair found")


def balloon_dual_loop_commutator(
    c: CellComplex, l: Balloon, loop: DualLoop, alpha: Chain
) -> int:
    """+1 or -1 according to the parity of |support intersect crossings|.

    The balloon sign cancels between the two application orders, so this is
    checked operationally on the NOT part alone."""
    p_before = dual_wilson_phase(c, loop, alpha)
    p_after = dual_wilson_phase(c, loop, alpha ^ l.support)
    parity = sum(1 for f in loop.cells if l.support.contains(f)) % 2
    if p_before * p_after != (-1) ** parity:
        raise AssertionError("commutator parity disagrees with the overlap count")
    return (-1) ** parity
