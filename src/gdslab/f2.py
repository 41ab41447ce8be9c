"""Exact linear algebra over the two-element field.

Matrices store one Python int per row (bit j = column j), so row operations
are single word-level XORs and everything stays exact.

Elimination is sparse, and it has one loop, the forward pass `_forward`. It
reduces the rows in their given order against a dictionary of pivot rows
keyed by each row's lowest set bit (`r & -r`): a row either finds its low bit
free and becomes that pivot, or is XOR-ed with the pivot row and tried again.
`F2Matrix.rank` is the pivot count of that pass. `F2Matrix.rref` then
back-substitutes the pivot rows in decreasing pivot order, so every pivot
column is cleared from every other row. The cost follows the fill-in of the
rows, not rows x cols. The reduced row echelon form of a matrix is unique: it
depends on the row space only, never on the elimination order. So `rref`, its
pivot list and the nullspace basis read off it are the same bits as any other
correct elimination gives.

Every span question goes through `Subspace`, an RREF basis with a pivot ->
row map and a pivot mask. `reduce_by_rref` XORs in the row of each pivot set
in `vec & mask`, read once from the original vec: O(popcount(vec & mask)) row
XORs, not one test per row. That is exact because an RREF row holds no pivot
but its own, so each XOR clears its own pivot and touches no other. The
result has no pivot bit set, the one such element of its coset. `Subspace`
rejects a basis that is not in RREF, so this invariant always holds.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, NamedTuple, Sequence, Tuple


class PreconditionError(ValueError):
    """A stated precondition failed; the result would be meaningless, not false."""


class F2Matrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[int] | None = None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [0] * rows
        else:
            if len(data) != rows:
                raise ValueError("row count mismatch")
            if any(r >> cols for r in data):
                raise ValueError(f"a row has a bit at or past column {cols}")
            self.data = list(data)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols)

    def get(self, r: int, c: int) -> int:
        return (self.data[r] >> c) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        lines = [
            "".join(str((r >> j) & 1) for j in range(self.cols)) for r in self.data
        ]
        return f"F2Matrix({self.rows}x{self.cols}:[" + ",".join(lines) + "])"

    def transpose(self) -> "F2Matrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            bit = 1 << i
            for j in _set_bits(r):
                out[j] |= bit
        return F2Matrix(self.cols, self.rows, out)

    def matvec(self, v: int) -> int:
        """Apply to a column vector given as a bitmask over columns."""
        out = 0
        for i, r in enumerate(self.data):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        """Row i of the product is the XOR of the rows of `other` picked by
        the set bits of row i of self: O(nnz) row operations."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        od = other.data
        data = []
        for r in self.data:
            acc = 0
            while r:
                low = r & -r
                acc ^= od[low.bit_length() - 1]
                r ^= low
            data.append(acc)
        return F2Matrix(self.rows, other.cols, data)

    def rref(self) -> Tuple["F2Matrix", List[int]]:
        """Reduced row echelon form; returns (matrix, pivot column list).

        Pivot rows come first in increasing pivot order, zero rows last.
        """
        by_pivot = _forward(self.data)
        pivots = sorted(by_pivot)
        pivot_mask = sum(1 << p for p in pivots)
        # A reduced pivot row holds no other pivot bit, so XOR-ing it in
        # clears one pivot bit of r and sets none.
        for p in reversed(pivots):
            r = by_pivot[p]
            hits = (r & pivot_mask) >> (p + 1)
            while hits:
                low = hits & -hits
                r ^= by_pivot[low.bit_length() + p]
                hits ^= low
            by_pivot[p] = r
        red = F2Matrix(self.rows, self.cols)
        red.data[: len(pivots)] = [by_pivot[p] for p in pivots]
        return red, pivots

    def rank(self) -> int:
        """The pivot count of the forward pass; no back-substitution."""
        return len(_forward(self.data))

    def nullspace(self) -> List[int]:
        """Basis (as column bitmasks) of {v : M v = 0}, one vector per free
        column in increasing order: the free bit plus the pivots whose
        reduced row holds that free column."""
        red, pivots = self.rref()
        vecs = [0] * self.cols
        for row, p in zip(red.data, pivots):
            pbit = 1 << p
            free = row ^ pbit
            while free:
                low = free & -free
                vecs[low.bit_length() - 1] |= pbit
                free ^= low
        pivot_set = set(pivots)
        return [vecs[f] | (1 << f) for f in range(self.cols) if f not in pivot_set]

    def row_space_basis(self) -> List[int]:
        red, pivots = self.rref()
        return [red.data[i] for i in range(len(pivots))]


def _forward(rows: Iterable[int]) -> Dict[int, int]:
    """Forward elimination: pivot column -> a pivot row whose lowest set bit
    it is. Each row is reduced by the pivot rows found before it."""
    by_pivot: Dict[int, int] = {}
    for r in rows:
        while r:
            p = (r & -r).bit_length() - 1
            q = by_pivot.get(p)
            if q is None:
                by_pivot[p] = r
                break
            r ^= q
    return by_pivot


def _set_bits(x: int) -> List[int]:
    """Indices of the set bits of x, lowest first.

    The one bit-iterator of the package; `matmul`, `rref` and `nullspace`
    keep their own loops because they fuse the walk with a row operation."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


def _mask_of(ids: Iterable[int]) -> int:
    """The inverse of `_set_bits`, XOR-ing so that an id repeated twice cancels."""
    mask = 0
    for i in ids:
        mask ^= 1 << i
    return mask


def _span(basis: Iterable[int]) -> List[int]:
    """Every sum of a subset of `basis`, by doubling: the sums without the
    i-th vector come before those with it. The one span enumerator."""
    out = [0]
    for b in basis:
        out += [v ^ b for v in out]
    return out


def reduce_by_rref(vec: int, space: "Subspace") -> int:
    """Canonical (lexicographically least) coset representative of vec + space,
    in O(popcount(vec & pivot mask)) row XORs."""
    rows = space._pivot_rows
    hits = vec & space._pivot_mask
    while hits:
        low = hits & -hits
        vec ^= rows[low.bit_length() - 1]
        hits ^= low
    return vec


def in_span(vec: int, space: "Subspace") -> bool:
    return reduce_by_rref(vec, space) == 0


class _SubspaceFields(NamedTuple):
    ambient_dim: int
    basis: Tuple[int, ...]


class Subspace(_SubspaceFields):
    """A subspace of F2^n held as its canonical RREF basis, so equality is
    bitwise; the derived pivot -> row map and pivot mask are instance
    attributes, neither compared nor shown."""

    _pivot_rows: Dict[int, int]
    _pivot_mask: int

    def __new__(cls, ambient_dim: int, basis: Tuple[int, ...]) -> "Subspace":
        pivots = [row & -row for row in basis]
        mask = sum(pivots)
        increasing = all(a < b for a, b in zip([0] + pivots, pivots))
        if not increasing or any(row & mask != p for row, p in zip(basis, pivots)):
            raise ValueError("basis is not in RREF")
        self = tuple.__new__(cls, (ambient_dim, basis))
        self._pivot_rows = {p.bit_length() - 1: row for row, p in zip(basis, pivots)}
        self._pivot_mask = mask
        return self

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[int]) -> "Subspace":
        m = F2Matrix(len(list_v := list(vectors)), ambient_dim, list_v)
        return cls(ambient_dim, tuple(m.row_space_basis()))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: int) -> bool:
        return in_span(v, self)

    def extend(self, v: int) -> "Subspace":
        """The span of this subspace and v in O(dim) row XORs: reduced v is a
        new pivot row, cleared from the rows that hold its pivot."""
        r = reduce_by_rref(v, self)
        if not r:
            return self
        low = r & -r
        rows = [b ^ r if b & low else b for b in self.basis] + [r]
        rows.sort(key=lambda b: b & -b)
        return Subspace(self.ambient_dim, tuple(rows))

    def vectors(self) -> List[int]:
        """All 2^dim elements; only sensible for small subspaces."""
        return _span(self.basis)


def subspace_intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim U + dim V - dim(U + V)."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    total = F2Matrix(u.dim + v.dim, u.ambient_dim, u.basis + v.basis).rank()
    return u.dim + v.dim - total


def bilinear(q: F2Matrix, x: int, y: int) -> int:
    """(x, Q y) over F2."""
    return (x & q.matvec(y)).bit_count() & 1


def is_isotropic(q: F2Matrix, u: Subspace) -> bool:
    """True iff the form vanishes on u, checked on all basis pairs."""
    if q.rows != q.cols or q.rows != u.ambient_dim:
        raise ValueError("shape mismatch")
    qb = [q.matvec(b) for b in u.basis]
    for i, bi in enumerate(u.basis):
        for j in range(i, u.dim):
            if (bi & qb[j]).bit_count() & 1:
                return False
    return True


def _zero_sum_triple_space(a: Subspace, b: Subspace, c: Subspace) -> List[Tuple[int, int]]:
    """Pairs (x, y), x in A, y in B with x + y in C, spanning the zero-sum triples.

    Returned pairs form a basis of the solution space of the stacked linear
    system; the triples themselves are (x, y, x ^ y).
    """
    dims = (a.dim, b.dim, c.dim)
    stacked = F2Matrix(
        sum(dims), a.ambient_dim, list(a.basis) + list(b.basis) + list(c.basis)
    ).transpose()
    pairs = []
    for coeff in stacked.nullspace():
        x = 0
        for i in range(a.dim):
            if (coeff >> i) & 1:
                x ^= a.basis[i]
        y = 0
        for i in range(b.dim):
            if (coeff >> (a.dim + i)) & 1:
                y ^= b.basis[i]
        pairs.append((x, y))
    return pairs


def no_twist_holds(q: F2Matrix, a: Subspace, b: Subspace, c: Subspace) -> bool:
    """Check (x, Q y) = 0 for every triple x+y+z = 0 drawn from (a, b, c).

    The zero-sum triples form a linear space K; (x, Qy) is a quadratic form on
    K, so it vanishes identically iff it vanishes on a basis of K and its polar
    form vanishes on all basis pairs.  No exponential enumeration needed.
    """
    if not (a.ambient_dim == b.ambient_dim == c.ambient_dim == q.cols):
        raise ValueError("dimension mismatch")
    pairs = _zero_sum_triple_space(a, b, c)
    for x, y in pairs:
        if bilinear(q, x, y):
            return False
    for (x1, y1), (x2, y2) in combinations(pairs, 2):
        if bilinear(q, x1, y2) ^ bilinear(q, x2, y1):
            return False
    return True


def hyperbolic_form(j: int) -> F2Matrix:
    """The 2j x 2j block form with 0 1 / 1 0 blocks on the diagonal."""
    m = F2Matrix.zeros(2 * j, 2 * j)
    for i in range(j):
        m.data[2 * i] = 1 << (2 * i + 1)
        m.data[2 * i + 1] = 1 << (2 * i)
    return m


def is_hyperbolic_form(q: F2Matrix) -> bool:
    return q.rows == q.cols and q.rows % 2 == 0 and q == hyperbolic_form(q.rows // 2)


class ParityCheck(NamedTuple):
    sum_mod2: int
    j_mod2: int
    identity_holds: bool


def triple_intersection_parity(
    q: F2Matrix, a: Subspace, b: Subspace, c: Subspace
) -> ParityCheck:
    """Parity of dim(A&B) + dim(B&C) + dim(C&A) against j, for maximal
    isotropic subspaces of the standard block form satisfying the no-twist
    condition.  Precondition failures raise, so they are never confused with
    a failed identity."""
    if not is_hyperbolic_form(q):
        raise PreconditionError("form is not the standard hyperbolic block form")
    j = q.rows // 2
    for name, s in (("A", a), ("B", b), ("C", c)):
        if s.ambient_dim != 2 * j:
            raise PreconditionError(f"{name} has wrong ambient dimension")
        if s.dim != j:
            raise PreconditionError(f"{name} is not maximal (dim {s.dim} != {j})")
        if not is_isotropic(q, s):
            raise PreconditionError(f"{name} is not isotropic")
    if not no_twist_holds(q, a, b, c):
        raise PreconditionError("no-twist condition fails")
    total = (
        subspace_intersection_dim(a, b)
        + subspace_intersection_dim(b, c)
        + subspace_intersection_dim(c, a)
    )
    return ParityCheck(total % 2, j % 2, total % 2 == j % 2)


def enumerate_max_isotropics(q: F2Matrix, j: int) -> List[Subspace]:
    """All j-dimensional subspaces on which the (zero-diagonal symmetric) form
    vanishes, deduplicated via canonical bases.  Guarded to ambient dim <= 8."""
    n = q.rows
    if q.cols != n:
        raise ValueError("form must be square")
    if n > 8:
        raise ValueError("enumeration guard: ambient dimension > 8")
    if j == 0:
        return [Subspace.from_vectors(n, [])]
    for i in range(n):
        if q.get(i, i):
            raise ValueError("form must have zero diagonal")
    level = {Subspace.from_vectors(n, [])}
    for _ in range(j):
        nxt = set()
        for sub in level:
            # Candidates must be Q-orthogonal to the whole subspace; with a
            # zero diagonal every vector is isotropic by itself.
            if sub.dim == 0:
                perp_basis = [1 << i for i in range(n)]
            else:
                constraint = F2Matrix(
                    sub.dim, n, [q.matvec(b) for b in sub.basis]
                )
                perp_basis = constraint.nullspace()
            # One candidate per coset of sub: its reduced representative.
            # Any other vector of the coset spans the same extension.
            for v in _span(perp_basis):
                if v and reduce_by_rref(v, sub) == v:
                    nxt.add(sub.extend(v))
        level = nxt
    return sorted(level, key=lambda s: s.basis)


def symmetric_zero_diagonal_matrices(n: int):
    """Yield all symmetric n x n F2 matrices with zero diagonal."""
    positions = [(i, k) for i in range(n) for k in range(i + 1, n)]
    for bits in range(1 << len(positions)):
        m = F2Matrix.zeros(n, n)
        for idx, (i, k) in enumerate(positions):
            if (bits >> idx) & 1:
                m.data[i] |= 1 << k
                m.data[k] |= 1 << i
        yield m


def exists_nonsingular_alternating(n: int) -> bool:
    """Exhaustive search for a nonsingular symmetric zero-diagonal matrix."""
    return any(m.rank() == n for m in symmetric_zero_diagonal_matrices(n))
