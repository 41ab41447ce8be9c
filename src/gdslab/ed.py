"""Brute-force oracle: full-space Hamiltonian terms on up to 20 qubits.

A basis state is an n-bit integer x whose bit i is the qubit on (d-1)-cell i.
Every term T moves a basis state to at most one other basis state, and always
by the same bit flip f_T (the boundary of a top cell for a plaquette term, 0
for a vertex term):

    2 T|x> = D_T(x) |x> + O_T(x) |x ^ f_T>.

`Term.tabulate` evaluates the integers D_T (twice the diagonal coefficient)
and O_T (twice the off-diagonal coefficient, read at the source state x) on an
array of states, as int8 "branches" (offset, coefficient): (0, D_T) and, for a
plaquette term, (f_T, O_T).  Every coefficient is 0, +-1/2 or 1, so every
table entry lies in {-1, 0, 1, 2}.  Each caller tabulates each term once:

- `verify_full_commutation` composes 4AB branch by branch.  B sends x to
  x ^ f_B, and A is then read at that state, so the branches of 4AB are

      offset 0          D_A(x)       D_B(x)
      offset f_A        O_A(x)       D_B(x)
      offset f_B        D_A(x^f_B)   O_B(x)
      offset f_A^f_B    O_A(x^f_B)   O_B(x)

  with the target state x ^ offset.  Tables are indexed by the state, so
  D_A(x^f_B) over all x is the gather D_A[arange(2^n) ^ f_B].  Branches with
  equal offsets are summed, and distinct offsets reach distinct targets, so
  AB = BA exactly when every offset's array agrees on all 2^n states.  The
  first row is D_A(x) D_B(x) in 4AB and D_B(x) D_A(x) in 4BA, one array, so
  both sides leave it out; no comparison changes, also when f_A = f_B puts
  the last row on offset 0.  An entry sums at most four products of
  magnitude at most 4, so int8 cannot overflow.  A projected plaquette reads
  the parities of its ridges' vertex masks off the vertex terms' D tables.
- `_plain_spectrum` sums the branches of all terms by offset into one CSR
  matrix; its entries are sums of halves, so they are exact in float.  It is
  diagonalized densely for small spaces and is the `eigsh` operator otherwise.
- `exact_zero_space` tabulates the plaquette terms on the cycle states only,
  and finds the kernel of twice the restricted matrix, a dense int64 matrix,
  by fraction-free elimination in whole-array passes (in Python ints once an
  entry could overflow); only the kernel vectors are `Fraction`s.

Everything that feeds an assertion is exact; the numeric eigensolve is a
smoke layer for the unprojected variant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .complexes import CellComplex, ensure_validated
from .f2 import _span
from .homology import cycle_space_basis
from .model import GDS, GTC, MODELS, _chi_table

QUBIT_LIMIT = 20
# Largest Hilbert space diagonalized densely; bigger ones go to eigsh.
_DENSE_SPECTRUM_MAX_DIM = 4096
# Kernel entries below 2^30 keep |p*x - f*y| < 2 * 2^30 * 2^30 = 2^61 inside int64.
_INT64_SAFE = 1 << 30

H_E = "H_e"
H_C = "H_c"
H_C_PROJ = "H_c_proj"

# (XOR offset from the source state to the target, twice the coefficient at
# each source state)
Branch = Tuple[int, np.ndarray]


def _check_size(c: CellComplex) -> int:
    n = c.n_cells(c.dim - 1)
    if n > QUBIT_LIMIT:
        raise ValueError(f"{n} qubits exceed the oracle limit of {QUBIT_LIMIT}")
    return n


def _pattern_table(c: CellComplex, cell: int, model: str) -> Tuple[Tuple[int, ...], List[int]]:
    """Flip sign per up-pattern on the faces of one top cell."""
    faces = c.faces(c.dim, cell)
    m = len(faces)
    if m > 12:
        raise ValueError("top cell has too many faces for a pattern table")
    if model == GTC:
        return faces, [1] * (1 << m)
    cols, even, odd = _chi_table(c, cell)[1:]
    # the closed up-part of each pattern: that of the pattern less its
    # lowest bit, ORed with that bit's face mask
    up = [0] * (1 << m)
    for pat in range(1, 1 << m):
        low = pat & -pat
        up[pat] = up[pat ^ low] | cols[low.bit_length() - 1]
    return faces, [-((-1) ** ((u & even).bit_count() - (u & odd).bit_count())) for u in up]


def _odd(x: np.ndarray, mask: int) -> np.ndarray:
    """Parity of the bits of each state under a mask, as 0/1 int8."""
    return (np.bitwise_count(x & mask) & 1).astype(np.int8)


class Term(NamedTuple):
    """One Hamiltonian term, acting on basis states as a single bit flip.

    H_e is the parity of the vertex mask; H_c is (1 - s(x) X_f)/2 with the
    sign s read from the up-pattern on the cell's faces; H_c_proj is H_c
    projected onto the vertex terms of the cell's ridges on both sides.
    """

    kind: str
    diag_masks: Tuple[int, ...]          # vertex-term masks read for projection
    flip_mask: int                       # 0 for diagonal terms
    faces: Tuple[int, ...]
    sign_table: Tuple[int, ...]

    def sign(self, x: int) -> int:
        """Flip sign of the plaquette at basis state x."""
        pat = 0
        for i, f in enumerate(self.faces):
            if (x >> f) & 1:
                pat |= 1 << i
        return self.sign_table[pat]

    @property
    def support_mask(self) -> int:
        bits = self.flip_mask
        for m in self.diag_masks:
            bits |= m
        return bits

    def tabulate(self, x: np.ndarray, vertex_d: Optional[Dict[int, np.ndarray]] = None) -> List[Branch]:
        """The term's branches on the int64 states x, as int8 coefficients:
        (0, D) and, for a plaquette term, (flip_mask, O).  A projected
        plaquette reads the parity under a mask from `vertex_d` (mask -> that
        vertex term's D table on x, twice the parity) where it is there."""
        if self.kind == H_E:
            return [(0, 2 * _odd(x, self.diag_masks[0]))]
        pat = np.zeros(len(x), dtype=np.intp)
        for i, f in enumerate(self.faces):
            pat |= ((x >> f) & 1) << i
        flip = -np.array(self.sign_table, dtype=np.int8)[pat]
        if self.kind == H_C:
            return [(0, np.ones(len(x), dtype=np.int8)), (self.flip_mask, flip)]
        # P H_c P: the diagonal needs the projector at x, the flip needs it at
        # x and at x ^ f, whose parity under m differs by that of f & m.
        ok_x = np.ones(len(x), dtype=np.int8)
        ok_y = np.ones(len(x), dtype=np.int8)
        for m in self.diag_masks:
            d = vertex_d.get(m) if vertex_d else None
            odd = _odd(x, m) if d is None else d >> 1
            ok_x &= 1 - odd
            ok_y &= 1 - (odd ^ ((self.flip_mask & m).bit_count() & 1))
        return [(0, ok_x), (self.flip_mask, flip * ok_x * ok_y)]


def build_term(c: CellComplex, which: str, cell_id: int, model: str = GDS) -> Term:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    _check_size(c)
    ensure_validated(c)
    if which == H_E:
        return Term(H_E, (c.coboundary_bits(c.dim - 2, cell_id),), 0, (), ())
    faces, signs = _pattern_table(c, cell_id, model)
    flip_mask = c.boundary_bits(c.dim, cell_id)
    if which == H_C:
        return Term(H_C, (), flip_mask, faces, tuple(signs))
    if which == H_C_PROJ:
        ridges = sorted({r for f in faces for r in c.faces(c.dim - 1, f)})
        masks = tuple(c.coboundary_bits(c.dim - 2, e) for e in ridges)
        return Term(H_C_PROJ, masks, flip_mask, faces, tuple(signs))
    raise ValueError(f"unknown term kind {which!r}")


def _plaquette_kind(variant: str) -> str:
    if variant not in ("projected", "plain"):
        raise ValueError(f"unknown variant {variant!r}")
    return H_C_PROJ if variant == "projected" else H_C


def all_terms(c: CellComplex, model: str, variant: str) -> List[Term]:
    plaquette = _plaquette_kind(variant)
    terms = [build_term(c, H_E, e, model) for e in range(c.n_cells(c.dim - 2))]
    terms += [build_term(c, plaquette, i, model) for i in range(c.n_cells(c.dim))]
    return terms


# -- exact joint kernel ------------------------------------------------------


def _cycle_states(c: CellComplex) -> List[int]:
    basis = cycle_space_basis(c, c.dim - 1)
    if len(basis) > 14:
        raise ValueError("cycle space too large for exact kernel enumeration")
    return sorted(_span(basis))


def _rational_kernel(matrix: np.ndarray) -> List[List[Fraction]]:
    """Kernel basis of a square int64 matrix by fraction-free Gauss-Jordan
    elimination, one whole-array pass per pivot.

    Pivots are taken column by column from the first remaining row that has
    the column.  A pass sets each other row holding the column, with entry
    f there, to p * row - f * pivot_row and divides it by its content, so
    every row stays an integer multiple (nonzero where that is) of the row
    rational elimination would hold: the pivots, the reduced row echelon form
    and the basis are the rational ones.  Before a pass, a matrix with an
    entry of magnitude `_INT64_SAFE` or more becomes dtype=object for good.
    """
    work = np.array(matrix, dtype=np.int64)
    n = len(work)
    pivots: List[Tuple[int, int]] = []
    for col in range(n):
        row = len(pivots)
        hits = np.flatnonzero(work[row:, col])
        if not len(hits):
            continue
        if work.dtype != object and np.abs(work).max() >= _INT64_SAFE:
            work = work.astype(object)
        work[[row, row + hits[0]]] = work[[row + hits[0], row]]
        others = np.flatnonzero(work[:, col])
        others = others[others != row]
        new = work[others] * work[row, col] - work[others, col][:, None] * work[row]
        work[others] = new // np.maximum(np.gcd.reduce(new, axis=1), 1)[:, None]
        pivots.append((row, col))
    rows = work.tolist()
    basis = []
    for free in sorted(set(range(n)) - {col for _, col in pivots}):
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in pivots:
            vec[col] = -Fraction(rows[r][free], rows[r][col])
        basis.append(vec)
    return basis


def exact_zero_space(c: CellComplex, model: str) -> Tuple[List[int], List[List[Fraction]]]:
    """Cycle-state basis and an exact kernel basis of the summed plaquette
    terms restricted to it.

    The vertex terms are diagonal, so their joint kernel is spanned by the
    cycle basis states; the projected plaquette terms act within that span.
    """
    _check_size(c)
    ensure_validated(c)
    states = _cycle_states(c)
    x = np.array(states, dtype=np.int64)
    n = len(states)
    twice = np.zeros((n, n), dtype=np.int64)   # [dst, src] = 2 * entry
    for cell in range(c.n_cells(c.dim)):
        for offset, coef in build_term(c, H_C, cell, model).tabulate(x):
            y = x ^ offset
            target = np.minimum(np.searchsorted(x, y), n - 1)
            if not np.array_equal(x[target], y):
                raise AssertionError("a plaquette flip left the cycle states")
            twice[target, np.arange(n)] += coef   # x -> x ^ offset is one-to-one
    return states, _rational_kernel(twice)


def ground_degeneracy_ed(
    c: CellComplex, model: str = GDS, variant: str = "projected"
) -> Tuple[float, int]:
    """Exact zero-space dimension (projected variant) or a numeric smoke test
    of the unprojected Hamiltonian."""
    n = _check_size(c)
    if _plaquette_kind(variant) == H_C_PROJ:
        _, kernel = exact_zero_space(c, model)
        if kernel:
            return 0.0, len(kernel)
        return float("nan"), 0
    evals = _plain_spectrum(c, model, k=16)
    ground = evals[0]
    degeneracy = int(sum(1 for v in evals if abs(v - ground) < 1e-9))
    if degeneracy == len(evals):
        raise RuntimeError("eigensolver window too small to resolve degeneracy")
    return float(ground), degeneracy


def _hamiltonian_csr(terms: List[Term], n: int):
    """The sum of the terms as one CSR matrix on all 2^n basis states."""
    from scipy.sparse import coo_array

    x = np.arange(1 << n, dtype=np.int64)
    by_offset: Dict[int, np.ndarray] = {}
    for t in terms:
        for offset, coef in t.tabulate(x):
            if offset in by_offset:
                by_offset[offset] += coef
            else:
                by_offset[offset] = coef.astype(np.int32)
    rows, data, src = [], [], []
    for offset, coef in by_offset.items():
        keep = np.flatnonzero(coef)
        src.append(x[keep])
        rows.append(x[keep] ^ offset)
        data.append(coef[keep] / 2)
    return coo_array(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(src))),
        shape=(1 << n, 1 << n),
    ).tocsr()


def _plain_spectrum(c: CellComplex, model: str, k: int) -> np.ndarray:
    n = _check_size(c)
    dim = 1 << n
    ham = _hamiltonian_csr(all_terms(c, model, "plain"), n)
    if dim <= _DENSE_SPECTRUM_MAX_DIM:
        return np.sort(np.linalg.eigvalsh(ham.toarray()))[: k]
    from scipy.sparse.linalg import eigsh

    # A seeded generator fixes the start vector and every restart vector, so
    # the Lanczos run, its output and its run time are the same on every
    # call; without it eigsh draws them from OS entropy.
    vals = eigsh(ham, k=min(k, dim - 2), which="SA", return_eigenvectors=False,
                 rng=np.random.default_rng(0))
    return np.sort(vals)


# -- full-space commutators --------------------------------------------------


def _product_branches(a: List[Branch], b: List[Branch], index: np.ndarray) -> Dict[int, np.ndarray]:
    """4AB on all basis states less its D_A(x) D_B(x) product, as {XOR
    offset: int8 coefficient at the source}.  That product is also the one
    left out of 4BA, so the two sides still compare as AB and BA do."""
    out: Dict[int, np.ndarray] = {}
    for fb, cb in b:
        for fa, ca in a:
            if fa or fb:
                coef = (ca[index ^ fb] if fb else ca) * cb
                key = fa ^ fb
                out[key] = out[key] + coef if key in out else coef
    return out


def verify_full_commutation(c: CellComplex, variant: str = "projected", model: str = GDS) -> bool:
    """Exact vanishing of all term commutators as full-space operators.

    Pairs with disjoint qubit support commute structurally, and two vertex
    terms are both diagonal; every other pair is checked on all 2^n basis
    states with integer arithmetic.
    """
    n = _check_size(c)
    terms = all_terms(c, model, variant)
    index = np.arange(1 << n, dtype=np.int64)
    tables, vertex_d = [], {}   # vertex_d: mask -> that vertex term's D table
    for t in terms:
        tables.append(t.tabulate(index, vertex_d))
        if t.kind == H_E:
            vertex_d[t.diag_masks[0]] = tables[-1][0][1]
    for i, a in enumerate(terms):
        for j in range(i + 1, len(terms)):
            b = terms[j]
            if a.kind == H_E and b.kind == H_E:
                continue
            if not a.support_mask & b.support_mask:
                continue
            ab = _product_branches(tables[i], tables[j], index)
            ba = _product_branches(tables[j], tables[i], index)
            # both sides pair the same offsets: {0, f_a} x {0, f_b} less (0, 0)
            if not all(np.array_equal(ab[key], ba[key]) for key in ab):
                return False
    return True

