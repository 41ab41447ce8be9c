"""Brute-force oracle: full-space Hamiltonian terms on up to 20 qubits.

Terms act on computational basis states given as bitmasks.  Everything that
feeds an assertion is exact: term coefficients are rationals (halves), sign
tables are integers, and joint kernels are computed by fraction arithmetic.
A numeric eigensolve is kept as a smoke layer for the unprojected variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .complexes import CellComplex, Chain, ensure_validated
from .homology import cycle_space_basis
from .model import GDS, GTC, chi_up

QUBIT_LIMIT = 20
# Largest Hilbert space diagonalized densely; bigger ones go to eigsh.
_DENSE_SPECTRUM_MAX_DIM = 4096

H_E = "H_e"
H_C = "H_c"
H_C_PROJ = "H_c_proj"


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
    signs = []
    for pat in range(1 << m):
        if model == GTC:
            signs.append(1)
            continue
        bits = 0
        for i, f in enumerate(faces):
            if (pat >> i) & 1:
                bits |= 1 << f
        chi = chi_up(c, cell, Chain(c, c.dim - 1, bits))
        signs.append(-((-1) ** chi))
    return faces, signs


@dataclass
class DenseOperator:
    """Exact sparse-row action: basis state -> list of (state, coefficient)."""

    n_qubits: int
    kind: str
    diag_masks: Tuple[int, ...]          # vertex-term masks read for projection
    flip_mask: int                       # 0 for diagonal terms
    faces: Tuple[int, ...]
    sign_table: Tuple[int, ...]

    def _projector_ok(self, x: int) -> bool:
        return all((x & m).bit_count() % 2 == 0 for m in self.diag_masks)

    def _sign(self, x: int) -> int:
        pat = 0
        for i, f in enumerate(self.faces):
            if (x >> f) & 1:
                pat |= 1 << i
        return self.sign_table[pat]

    def apply_basis(self, x: int) -> List[Tuple[int, Fraction]]:
        if self.kind == H_E:
            v = (x & self.diag_masks[0]).bit_count() % 2
            return [(x, Fraction(v))] if v else []
        if self.kind == H_C:
            out = [(x, Fraction(1, 2))]
            s = self._sign(x)
            out.append((x ^ self.flip_mask, Fraction(-s, 2)))
            return out
        # projected plaquette: P H_c P with P the vertex-term projector
        if not self._projector_ok(x):
            return []
        y = x ^ self.flip_mask
        out = [(x, Fraction(1, 2))]
        if self._projector_ok(y):
            out.append((y, Fraction(-self._sign(x), 2)))
        return out

    def matrix(self) -> Dict[Tuple[int, int], Fraction]:
        """Full matrix as a sparse dict; only for small qubit counts."""
        if self.n_qubits > 14:
            raise ValueError("matrix materialization capped at 14 qubits")
        out: Dict[Tuple[int, int], Fraction] = {}
        for x in range(1 << self.n_qubits):
            for y, a in self.apply_basis(x):
                out[(y, x)] = out.get((y, x), Fraction(0)) + a
        return {k: v for k, v in out.items() if v}

    @property
    def support(self) -> frozenset:
        bits = self.flip_mask
        for m in self.diag_masks:
            bits |= m
        out = set()
        while bits:
            low = bits & -bits
            out.add(low.bit_length() - 1)
            bits ^= low
        return frozenset(out)


def _vertex_mask(c: CellComplex, e: int) -> int:
    mask = 0
    for f in c.cofaces(c.dim - 2, e):
        mask ^= 1 << f
    return mask


def build_term(c: CellComplex, which: str, cell_id: int, model: str = GDS) -> DenseOperator:
    n = _check_size(c)
    ensure_validated(c)
    if which == H_E:
        return DenseOperator(n, H_E, (_vertex_mask(c, cell_id),), 0, (), ())
    faces, signs = _pattern_table(c, cell_id, model)
    flip_mask = c.boundary_bits(c.dim, cell_id)
    if which == H_C:
        return DenseOperator(n, H_C, (), flip_mask, faces, tuple(signs))
    if which == H_C_PROJ:
        ridges = sorted(
            i for k, i in c.closure_of_cell(c.dim, cell_id) if k == c.dim - 2
        )
        masks = tuple(_vertex_mask(c, e) for e in ridges)
        return DenseOperator(n, H_C_PROJ, masks, flip_mask, faces, tuple(signs))
    raise ValueError(f"unknown term kind {which!r}")


def all_terms(c: CellComplex, model: str, variant: str) -> List[DenseOperator]:
    plaquette = H_C_PROJ if variant == "projected" else H_C
    terms = [build_term(c, H_E, e, model) for e in range(c.n_cells(c.dim - 2))]
    terms += [
        build_term(c, plaquette, i, model) for i in range(c.n_cells(c.dim))
    ]
    return terms


# -- exact joint kernel ------------------------------------------------------


def _cycle_states(c: CellComplex) -> List[int]:
    basis = cycle_space_basis(c, c.dim - 1)
    if len(basis) > 14:
        raise ValueError("cycle space too large for exact kernel enumeration")
    states = [0]
    for v in basis:
        states += [s ^ v for s in states]
    return sorted(states)


def _rational_kernel(matrix: List[List[Fraction]]) -> List[List[Fraction]]:
    """Kernel basis of a square rational matrix by Gaussian elimination."""
    n = len(matrix)
    work = [row[:] for row in matrix]
    pivots: List[Tuple[int, int]] = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if work[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        inv = 1 / work[row][col]
        work[row] = [v * inv for v in work[row]]
        for r in range(n):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        pivots.append((row, col))
        row += 1
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for r, col in pivots:
            vec[col] = -work[r][free]
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
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for cell in range(c.n_cells(c.dim)):
        term = build_term(c, H_C, cell, model)
        for s in states:
            i = index[s]
            for y, a in term.apply_basis(s):
                mat[index[y]][i] += a
    return states, _rational_kernel(mat)


def ground_degeneracy_ed(
    c: CellComplex, model: str = GDS, variant: str = "projected"
) -> Tuple[float, int]:
    """Exact zero-space dimension (projected variant) or a numeric smoke test
    of the unprojected Hamiltonian."""
    n = _check_size(c)
    if variant == "projected":
        _, kernel = exact_zero_space(c, model)
        if kernel:
            return 0.0, len(kernel)
        return float("nan"), 0
    if variant != "plain":
        raise ValueError(f"unknown variant {variant!r}")
    evals = _plain_spectrum(c, model, k=16)
    ground = evals[0]
    degeneracy = int(sum(1 for v in evals if abs(v - ground) < 1e-9))
    if degeneracy == len(evals):
        raise RuntimeError("eigensolver window too small to resolve degeneracy")
    return float(ground), degeneracy


def _plain_spectrum(c: CellComplex, model: str, k: int) -> np.ndarray:
    n = _check_size(c)
    terms = all_terms(c, model, "plain")
    dim = 1 << n
    if dim <= _DENSE_SPECTRUM_MAX_DIM:
        dense = np.zeros((dim, dim))
        for t in terms:
            for x in range(dim):
                for y, a in t.apply_basis(x):
                    dense[y, x] += float(a)
        return np.sort(np.linalg.eigvalsh(dense))[: k]
    from scipy.sparse.linalg import LinearOperator, eigsh

    def matvec(v):
        out = np.zeros_like(v)
        for t in terms:
            out += _apply_vectorized(t, v)
        return out

    op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    # A seeded generator fixes the start vector and every restart vector, so
    # the Lanczos run, its output and its run time are the same on every
    # call; without it eigsh draws them from OS entropy.
    vals = eigsh(op, k=min(k, dim - 2), which="SA", return_eigenvectors=False,
                 rng=np.random.default_rng(0))
    return np.sort(vals)


def _term_branch_arrays(t: DenseOperator, x: np.ndarray) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Branches (target states, twice-the-coefficient) of a term on an array
    of basis states; everything integer."""
    if t.kind == H_E:
        mask = t.diag_masks[0]
        par = _parity(x & np.uint64(mask))
        return [(x, 2 * par.astype(np.int64))]
    sign = _signs_vectorized(t, x)
    if t.kind == H_C:
        y = x ^ np.uint64(t.flip_mask)
        ones = np.ones(len(x), dtype=np.int64)
        return [(x, ones), (y, -sign)]
    ok_x = _proj_vectorized(t, x)
    y = x ^ np.uint64(t.flip_mask)
    ok_y = _proj_vectorized(t, y)
    return [(x, ok_x.astype(np.int64)), (y, -sign * ok_x * ok_y)]


def _parity(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        out ^= out >> np.uint64(shift)
    return (out & np.uint64(1)).astype(np.int64)


def _signs_vectorized(t: DenseOperator, x: np.ndarray) -> np.ndarray:
    pat = np.zeros(len(x), dtype=np.int64)
    for i, f in enumerate(t.faces):
        pat |= (((x >> np.uint64(f)) & np.uint64(1)).astype(np.int64)) << i
    table = np.array(t.sign_table, dtype=np.int64)
    return table[pat]


def _proj_vectorized(t: DenseOperator, x: np.ndarray) -> np.ndarray:
    ok = np.ones(len(x), dtype=np.int64)
    for m in t.diag_masks:
        ok &= 1 - _parity(x & np.uint64(m))
    return ok


def _apply_vectorized(t: DenseOperator, v: np.ndarray) -> np.ndarray:
    x = np.arange(len(v), dtype=np.uint64)
    out = np.zeros_like(v)
    for target, coef2 in _term_branch_arrays(t, x):
        np.add.at(out, target.astype(np.int64), 0.5 * coef2 * v)
    return out


def _compose_branches(a: DenseOperator, b: DenseOperator, x: np.ndarray):
    """Integer branch decomposition of 4*A*B on an array of basis states."""
    out: Dict[int, np.ndarray] = {}
    for target_b, coef_b in _term_branch_arrays(b, x):
        for target_ab, coef_a in _term_branch_arrays(a, target_b):
            offsets = target_ab ^ x
            key = int(offsets[0])
            if not np.all(offsets == offsets[0]):
                raise AssertionError("branch offsets are state dependent")
            acc = coef_a * coef_b
            out[key] = out.get(key, 0) + acc
    return out


def verify_full_commutation(c: CellComplex, variant: str = "projected", model: str = GDS) -> bool:
    """Exact vanishing of all term commutators as full-space operators.

    Pairs with disjoint qubit support commute structurally; every overlapping
    pair is checked on all 2^n basis states with integer arithmetic.
    """
    n = _check_size(c)
    terms = all_terms(c, model, variant)
    diag = [t for t in terms if t.kind == H_E]
    x = np.arange(1 << n, dtype=np.uint64)
    for i, a in enumerate(terms):
        for b in terms[i + 1 :]:
            if a in diag and b in diag:
                continue
            if not (a.support & b.support):
                continue
            ab = _compose_branches(a, b, x)
            ba = _compose_branches(b, a, x)
            for key in set(ab) | set(ba):
                da = ab.get(key, 0)
                db = ba.get(key, 0)
                if not np.array_equal(
                    np.asarray(da) if np.ndim(da) else np.full(len(x), da),
                    np.asarray(db) if np.ndim(db) else np.full(len(x), db),
                ):
                    return False
    return True


def offkernel_projector_survey(c: CellComplex, trials: int = 200, seed: int = 0) -> Tuple[int, int]:
    """How often the unprojected plaquette term squares to itself on random
    (possibly vertex-violating) basis states.  Informative only."""
    n = _check_size(c)
    rng = random.Random(seed)
    holds = 0
    for _ in range(trials):
        x = rng.getrandbits(n)
        cell = rng.randrange(c.n_cells(c.dim))
        t = build_term(c, H_C, cell, GDS)
        # O_c must be an involution: signs at x and flipped x agree
        s1 = t._sign(x)
        s2 = t._sign(x ^ t.flip_mask)
        holds += int(s1 == s2)
    return holds, trials
