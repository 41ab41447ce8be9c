"""Exact diagonalization oracle: term structure, kernels, commutators."""

import random
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np
import pytest

from gdslab import ed
from gdslab.cli import build_manifold
from gdslab.complexes import Chain
from gdslab.ed import (
    H_C,
    H_C_PROJ,
    H_E,
    Term,
    all_terms,
    build_term,
    exact_zero_space,
    ground_degeneracy_ed,
    verify_full_commutation,
)
from gdslab.homology import cycle_space_basis
from gdslab.manifolds import builtin_manifold
from gdslab.model import GDS, GTC, ground_degeneracy, sector_reps
from gdslab.voronoi import PointSet, torus_voronoi
from gdslab.wavefunction import EVEN_SEMICHAR, ODD_CHI, PhaseFn, reference_phase


# -- reference implementations ----------------------------------------------
# The per-state `Fraction` action, the whole-space branch-array commutator
# check and the dense rational eliminator that the term tables replaced. They
# recompute everything per state or per pair, so they are slow but plainly
# right; the tabulated paths must agree with them exactly.


def _projector_ok(t: Term, x: int) -> bool:
    return all((x & m).bit_count() % 2 == 0 for m in t.diag_masks)


def _apply_basis(t: Term, x: int) -> List[Tuple[int, Fraction]]:
    """Exact action of a term on one basis state: [(state, coefficient)]."""
    if t.kind == H_E:
        v = (x & t.diag_masks[0]).bit_count() % 2
        return [(x, Fraction(v))] if v else []
    if t.kind == H_C:
        return [(x, Fraction(1, 2)), (x ^ t.flip_mask, Fraction(-t.sign(x), 2))]
    # projected plaquette: P H_c P with P the vertex-term projector
    if not _projector_ok(t, x):
        return []
    y = x ^ t.flip_mask
    out = [(x, Fraction(1, 2))]
    if _projector_ok(t, y):
        out.append((y, Fraction(-t.sign(x), 2)))
    return out


def _matrix(c, t: Term) -> Dict[Tuple[int, int], Fraction]:
    """Full matrix of a term as a sparse {(row, col): value} dict."""
    out: Dict[Tuple[int, int], Fraction] = {}
    for x in range(1 << c.n_cells(c.dim - 1)):
        for y, a in _apply_basis(t, x):
            out[(y, x)] = out.get((y, x), Fraction(0)) + a
    return {k: v for k, v in out.items() if v}


def _parity(v: np.ndarray) -> np.ndarray:
    out = v.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        out ^= out >> np.uint64(shift)
    return (out & np.uint64(1)).astype(np.int64)


def _signs_vectorized(t: Term, x: np.ndarray) -> np.ndarray:
    pat = np.zeros(len(x), dtype=np.int64)
    for i, f in enumerate(t.faces):
        pat |= (((x >> np.uint64(f)) & np.uint64(1)).astype(np.int64)) << i
    return np.array(t.sign_table, dtype=np.int64)[pat]


def _proj_vectorized(t: Term, x: np.ndarray) -> np.ndarray:
    ok = np.ones(len(x), dtype=np.int64)
    for m in t.diag_masks:
        ok &= 1 - _parity(x & np.uint64(m))
    return ok


def _term_branch_arrays(t: Term, x: np.ndarray):
    """Branches (target states, twice the coefficient) of a term on an array
    of basis states."""
    if t.kind == H_E:
        return [(x, 2 * _parity(x & np.uint64(t.diag_masks[0])))]
    sign = _signs_vectorized(t, x)
    y = x ^ np.uint64(t.flip_mask)
    if t.kind == H_C:
        return [(x, np.ones(len(x), dtype=np.int64)), (y, -sign)]
    ok_x = _proj_vectorized(t, x)
    ok_y = _proj_vectorized(t, y)
    return [(x, ok_x), (y, -sign * ok_x * ok_y)]


def _compose_branches(a: Term, b: Term, x: np.ndarray):
    """4AB on an array of basis states, keyed by the XOR offset."""
    out: Dict[int, np.ndarray] = {}
    for target_b, coef_b in _term_branch_arrays(b, x):
        for target_ab, coef_a in _term_branch_arrays(a, target_b):
            offsets = target_ab ^ x
            key = int(offsets[0])
            assert np.all(offsets == offsets[0]), "branch offsets are state dependent"
            out[key] = out.get(key, 0) + coef_a * coef_b
    return out


def _reference_full_commutation(terms: List[Term], n: int) -> bool:
    """Whole-space check: both products of every overlapping pair, rebuilt
    from the per-state branch arrays."""
    x = np.arange(1 << n, dtype=np.uint64)
    for i, a in enumerate(terms):
        for b in terms[i + 1:]:
            if a.kind == H_E and b.kind == H_E:
                continue
            if not a.support_mask & b.support_mask:
                continue
            ab = _compose_branches(a, b, x)
            ba = _compose_branches(b, a, x)
            for key in set(ab) | set(ba):
                if not np.array_equal(
                    np.broadcast_to(ab.get(key, 0), x.shape),
                    np.broadcast_to(ba.get(key, 0), x.shape),
                ):
                    return False
    return True


def _reference_rational_kernel(matrix: List[List[Fraction]]) -> List[List[Fraction]]:
    """Kernel basis of a dense square rational matrix by Gauss-Jordan
    elimination over every column."""
    n = len(matrix)
    work = [row[:] for row in matrix]
    pivots: List[Tuple[int, int]] = []
    row = 0
    for col in range(n):
        sel = next((r for r in range(row, n) if work[r][col] != 0), None)
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


def _reference_zero_space(c, model):
    """Cycle states and the dense-eliminated kernel of the plaquette sum,
    built state by state from the `Fraction` action."""
    states = [0]
    for v in cycle_space_basis(c, c.dim - 1):
        states += [s ^ v for s in states]
    states.sort()
    index = {s: i for i, s in enumerate(states)}
    mat = [[Fraction(0)] * len(states) for _ in states]
    for cell in range(c.n_cells(c.dim)):
        term = build_term(c, H_C, cell, model)
        for s in states:
            for y, a in _apply_basis(term, s):
                mat[index[y]][index[s]] += a
    return states, _reference_rational_kernel(mat)


def _reference_plain_dense(c, model) -> np.ndarray:
    n = c.n_cells(c.dim - 1)
    dense = np.zeros((1 << n, 1 << n))
    for t in all_terms(c, model, "plain"):
        for x in range(1 << n):
            for y, a in _apply_basis(t, x):
                dense[y, x] += float(a)
    return dense


def _matmul(a, b, dim):
    out = {}
    cols = {}
    for (r, c), v in b.items():
        cols.setdefault(c, []).append((r, v))
    rows = {}
    for (r, c), v in a.items():
        rows.setdefault(c, []).append((r, v))
    for c, entries in cols.items():
        for mid, v in entries:
            for r, w in rows.get(mid, []):
                out[(r, c)] = out.get((r, c), Fraction(0)) + w * v
    return {k: v for k, v in out.items() if v}


# The shipped complexes of at most 14 qubits (d = 2, 3), as CLI specs.
SMALL_SHIPPED = [
    ("sphere:2", None, None),
    ("torus-voronoi:2", 4, 2),
    ("sphere:3", None, None),
]


def test_vertex_term_is_diagonal_parity_projector(sphere2):
    t = build_term(sphere2, H_E, 0)
    for x in range(1 << 6):
        action = _apply_basis(t, x)
        ups = (x & t.diag_masks[0]).bit_count()
        if ups % 2:
            assert action == [(x, Fraction(1))]
        else:
            assert action == []


def test_vertex_terms_match_violation_map(sphere2, sphere3):
    # the diagonal terms must agree with the independent boundary computation
    from gdslab.model import hplus_violations

    rng = random.Random(3)
    for c in (sphere2, sphere3):
        n = c.n_cells(c.dim - 1)
        terms = [build_term(c, H_E, e) for e in range(c.n_cells(c.dim - 2))]
        for _ in range(60):
            x = rng.getrandbits(n)
            violated = hplus_violations(c, Chain(c, c.dim - 1, x))
            for e, t in enumerate(terms):
                assert bool(_apply_basis(t, x)) == (e in violated)


def test_plaquette_action_on_all_down(sphere2):
    t = build_term(sphere2, H_C, 0)
    action = dict(_apply_basis(t, 0))
    assert action[0] == Fraction(1, 2)
    # birth of a loop carries sign -1, so the off-diagonal entry is +1/2
    assert action[t.flip_mask] == Fraction(1, 2)


def test_plaquette_matches_flip_operator(sphere2):
    from gdslab.model import flip

    rng = random.Random(0)
    t = build_term(sphere2, H_C, 2)
    for _ in range(40):
        x = rng.getrandbits(6)
        state = Chain(sphere2, 1, x)
        flipped, sf = flip(sphere2, 2, state, GDS)
        action = dict(_apply_basis(t, x))
        assert action[flipped.bits] == Fraction(-sf.phase, 2)


def test_projected_term_is_idempotent(sphere2):
    for cell in range(sphere2.n_cells(2)):
        t = build_term(sphere2, H_C_PROJ, cell)
        m = _matrix(sphere2, t)
        assert _matmul(m, m, 1 << 6) == m


def test_projected_term_hermitian(sphere2):
    t = build_term(sphere2, H_C_PROJ, 1)
    m = _matrix(sphere2, t)
    assert {(c, r): v for (r, c), v in m.items()} == m


@pytest.mark.parametrize(
    "name,params",
    [
        ("sphere", (2,)),
        ("sphere", (3,)),
        ("sphere", (4,)),
        ("tP", (1,)),
    ],
)
def test_oracle_matches_sweep_on_builtins(name, params):
    c = builtin_manifold(name, *params)
    for model in (GDS, GTC):
        energy, deg = ground_degeneracy_ed(c, model, "projected")
        assert energy == 0.0
        assert deg == ground_degeneracy(c, model)[0]


def test_oracle_matches_sweep_on_small_voronoi():
    for n, seed in ((4, 2), (5, 11), (6, 4)):
        c = torus_voronoi(2, PointSet.random(2, n, seed=seed))
        assert c.meta["generic_validated"], (n, seed)
        for model in (GDS, GTC):
            _, deg = ground_degeneracy_ed(c, model, "projected")
            assert deg == ground_degeneracy(c, model)[0]


def test_kernel_amplitudes_match_reference_phase(sphere3, sphere4, sphere2):
    for c, kind in ((sphere3, ODD_CHI), (sphere4, EVEN_SEMICHAR), (sphere2, EVEN_SEMICHAR)):
        f = PhaseFn(kind, c)
        states, kernel = exact_zero_space(c, GDS)
        assert len(kernel) == 1
        vec = kernel[0]
        sectors = sector_reps(c)
        # one global scale per sector; here a sphere has a single sector
        scale = None
        for amp, s in zip(vec, states):
            ref = reference_phase(f, Chain(c, c.dim - 1, s))
            ratio = amp / ref.sign()
            if scale is None and amp:
                scale = ratio
            assert amp == 0 or ratio == scale
        assert scale is not None


def test_full_commutation_small_complexes(sphere2, sphere3):
    assert verify_full_commutation(sphere2)
    assert verify_full_commutation(sphere3)


def test_full_commutation_voronoi_12_qubits():
    c = torus_voronoi(2, PointSet.random(2, 4, seed=2))
    assert verify_full_commutation(c)


def test_tables_match_per_state_action(sphere2, sphere3):
    for c in (sphere2, sphere3):
        n = c.n_cells(c.dim - 1)
        x = np.arange(1 << n, dtype=np.int64)
        for model in (GDS, GTC):
            for variant in ("projected", "plain"):
                for t in all_terms(c, model, variant):
                    branches = t.tabulate(x)
                    assert all(coef.dtype == np.int8 for _, coef in branches)
                    for s in range(1 << n):
                        got: Dict[int, Fraction] = {}
                        for offset, coef in branches:
                            y = s ^ offset
                            got[y] = got.get(y, Fraction(0)) + Fraction(int(coef[s]), 2)
                        want = dict(_apply_basis(t, s))
                        assert {y: a for y, a in got.items() if a} == want


@pytest.mark.parametrize("spec,points,seed", SMALL_SHIPPED)
def test_tabulated_commutation_matches_whole_space_reference(spec, points, seed):
    c = build_manifold(spec, points, seed)
    n = c.n_cells(c.dim - 1)
    for model in (GDS, GTC):
        for variant in ("projected", "plain"):
            got = verify_full_commutation(c, variant, model)
            assert got == _reference_full_commutation(all_terms(c, model, variant), n)
            # the unprojected toric code already commutes; the semion
            # plaquettes commute only inside the vertex-term kernel
            assert got is (variant == "projected" or model == GTC), (model, variant)


def _flip_sign_entry(terms: List[Term], k: int, pattern: int) -> List[Term]:
    t = terms[k]
    table = list(t.sign_table)
    table[pattern] = -table[pattern]
    return terms[:k] + [t._replace(sign_table=tuple(table))] + terms[k + 1:]


@pytest.mark.parametrize("spec,points,seed", SMALL_SHIPPED)
def test_flipped_sign_entry_breaks_commutation(monkeypatch, spec, points, seed):
    # the all-down pattern satisfies every vertex term, so the projected
    # plaquette reads it and the corrupted term stops commuting
    c = build_manifold(spec, points, seed)
    n = c.n_cells(c.dim - 1)
    for model in (GDS, GTC):
        terms = all_terms(c, model, "projected")
        k = next(i for i, t in enumerate(terms) if t.kind == H_C_PROJ)
        bad = _flip_sign_entry(terms, k, 0)
        monkeypatch.setattr(ed, "all_terms", lambda *args: bad)
        assert verify_full_commutation(c, "projected", model) is False, model
        monkeypatch.undo()
        assert _reference_full_commutation(bad, n) is False, model


def test_every_flipped_sign_entry_agrees_with_reference(monkeypatch, sphere2):
    terms = all_terms(sphere2, GDS, "projected")
    for k, t in enumerate(terms):
        for pattern in range(len(t.sign_table)):
            bad = _flip_sign_entry(terms, k, pattern)
            monkeypatch.setattr(ed, "all_terms", lambda *args: bad)
            got = verify_full_commutation(sphere2, "projected", GDS)
            monkeypatch.undo()
            assert got == _reference_full_commutation(bad, 6), (k, pattern)


def test_csr_plain_hamiltonian_matches_per_term_dense(sphere2, sphere3):
    # entries are sums of halves, so float equality is exact
    for c in (sphere2, sphere3):
        n = c.n_cells(c.dim - 1)
        for model in (GDS, GTC):
            dense = ed._hamiltonian_csr(all_terms(c, model, "plain"), n).toarray()
            assert np.array_equal(dense, _reference_plain_dense(c, model))


def test_sparse_kernel_matches_dense_elimination(sphere2, sphere3, sphere4, rp2):
    small_voronoi = torus_voronoi(2, PointSet.random(2, 4, seed=2))
    for c in (sphere2, sphere3, sphere4, rp2, small_voronoi):
        for model in (GDS, GTC):
            assert exact_zero_space(c, model) == _reference_zero_space(c, model)


def test_plain_variant_smoke(sphere2):
    energy, deg = ground_degeneracy_ed(sphere2, GDS, "plain")
    assert abs(energy) < 1e-9
    assert deg == 1
    energy, deg = ground_degeneracy_ed(sphere2, GTC, "plain")
    assert abs(energy) < 1e-9
    assert deg == 1


def test_plain_variant_sparse_branch(rp2):
    # the unprojected Hamiltonian reaches the same zero-energy count
    energy, deg = ground_degeneracy_ed(rp2, GDS, "plain")
    assert abs(energy) < 1e-9 and deg == 1
    energy, deg = ground_degeneracy_ed(rp2, GTC, "plain")
    assert abs(energy) < 1e-9 and deg == 2


def test_qubit_guard():
    c = builtin_manifold("torus", 2, 3)  # 27 qubits
    with pytest.raises(ValueError):
        ground_degeneracy_ed(c, GDS, "projected")


def test_offkernel_projector_survey(sphere2, sphere3):
    # the double-flip sign identity holds even off the kernel: on random,
    # possibly vertex-violating, states a plaquette flip and its reverse
    # carry the same sign, so the unprojected term is an involution
    rng = random.Random(5)
    for c in (sphere2, sphere3):
        n = c.n_cells(c.dim - 1)
        for _ in range(300):
            x = rng.getrandbits(n)
            t = build_term(c, H_C, rng.randrange(c.n_cells(c.dim)), GDS)
            assert t.sign(x) == t.sign(x ^ t.flip_mask)
