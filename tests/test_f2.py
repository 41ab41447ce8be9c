"""GF(2) linear algebra: ranks, subspaces, isotropy, and the parity identity."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdslab.cli import build_manifold
from gdslab.f2 import (
    F2Matrix,
    ParityCheck,
    PreconditionError,
    Subspace,
    bilinear,
    enumerate_max_isotropics,
    exists_nonsingular_alternating,
    hyperbolic_form,
    in_span,
    is_isotropic,
    no_twist_holds,
    reduce_by_rref,
    subspace_intersection_dim,
    _set_bits,
    triple_intersection_parity,
)
from gdslab.homology import cycle_space_basis

from conftest import (
    SHIPPED_COMPLEXES,
    dense_incidence,
    reference_nullspace,
    reference_rref,
)


def reference_matmul(a: F2Matrix, b: F2Matrix) -> F2Matrix:
    bt = b.transpose()
    data = []
    for r in a.data:
        bits = 0
        for j, col in enumerate(bt.data):
            if (r & col).bit_count() & 1:
                bits |= 1 << j
        data.append(bits)
    return F2Matrix(a.rows, b.cols, data)


def assert_matches_reference(m: F2Matrix):
    red, pivots = m.rref()
    ref_red, ref_pivots = reference_rref(m)
    assert red == ref_red
    assert pivots == ref_pivots
    assert m.rank() == len(ref_pivots)
    assert m.nullspace() == reference_nullspace(m)


@st.composite
def f2_matrices(draw, rows=None, max_dim=12, max_cols=70):
    """Random matrices up to 70 columns (past two 30-bit int digits), with
    zero and repeated rows drawn often; any side may be 0."""
    if rows is None:
        rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, draw(st.sampled_from([max_dim, max_cols]))))
    entry = st.integers(0, (1 << cols) - 1)
    pool = draw(st.lists(entry, min_size=1, max_size=3)) + [0]
    data = draw(
        st.lists(st.one_of(entry, st.sampled_from(pool)), min_size=rows, max_size=rows)
    )
    return F2Matrix(rows, cols, data)


@given(f2_matrices())
@settings(max_examples=300, deadline=None)
def test_sparse_elimination_matches_dense_reference(m):
    assert_matches_reference(m)
    assert_matches_reference(m.transpose())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_matmul_matches_dense_reference(data):
    a = data.draw(f2_matrices())
    b = data.draw(f2_matrices(rows=a.cols))
    assert a.matmul(b) == reference_matmul(a, b)


@pytest.mark.parametrize("spec", SHIPPED_COMPLEXES)
def test_shipped_incidences_match_dense_reference(spec):
    c = build_manifold(spec, 60, 1)
    for k in range(1, c.dim + 1):
        assert_matches_reference(dense_incidence(c, k))
        assert_matches_reference(dense_incidence(c, k).transpose())
    for k in range(2, c.dim + 1):
        a, b = dense_incidence(c, k), dense_incidence(c, k - 1)
        assert a.matmul(b) == reference_matmul(a, b)
        at, bt = b.transpose(), a.transpose()
        assert at.matmul(bt) == reference_matmul(at, bt)
    p = c.dim - 1
    cycles = reference_nullspace(dense_incidence(c, p).transpose())
    rows = [c.coboundary_bits(p - 1, j) for j in range(c.n_cells(p - 1))]
    assert F2Matrix(len(rows), c.n_cells(p), rows).nullspace() == cycles
    # the production basis is another basis of the same cycle space
    basis = cycle_space_basis(c, p)
    assert len(basis) == len(cycles)
    assert (reference_rref(F2Matrix(len(basis), c.n_cells(p), basis))
            == reference_rref(F2Matrix(len(cycles), c.n_cells(p), cycles)))
    assert cycle_space_basis(c, p) is basis


def brute_force_rank(rows, n_cols):
    """Oracle: size of the row span by explicit enumeration."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    size = len(span)
    rank = size.bit_length() - 1
    assert 1 << rank == size
    return rank


def span_set(sub: Subspace):
    return set(sub.vectors())


def test_rank_identity_3x3():
    m = F2Matrix(3, 3, [1, 2, 4])
    assert m.rank() == 3
    assert m.nullspace() == []


def test_rank_zero_2x5():
    m = F2Matrix.zeros(2, 5)
    assert m.rank() == 0
    assert len(m.nullspace()) == 5


@pytest.mark.parametrize("row", [1 << 5, 0b100001, -1])
def test_row_past_the_last_column_is_rejected(row):
    with pytest.raises(ValueError, match="at or past column 5"):
        F2Matrix(2, 5, [0b101, row])


def test_rows_are_kept_as_given():
    rows = [1 << 200, (1 << 200) | 1]
    m = F2Matrix(2, 201, rows)
    assert all(a is b for a, b in zip(m.data, rows))
    red, pivots = m.rref()
    assert pivots == [0, 200] and red.data == [1, 1 << 200]


def reference_set_bits(x):
    return [i for i in range(x.bit_length()) if (x >> i) & 1]


def test_set_bits_matches_the_reference_on_sparse_and_dense_ints():
    # widths and densities on both sides of the 64-bit gate and of the
    # switch to the linear pass
    rng = random.Random(4)
    for width in (0, 1, 7, 63, 64, 65, 66, 128, 300, 1000, 5000, 28672):
        for density in (0.0, 0.001, 0.01, 0.05, 0.2, 0.5, 0.95, 1.0):
            x = sum(1 << i for i in range(width) if rng.random() < density)
            assert _set_bits(x) == reference_set_bits(x)
    assert _set_bits((1 << 28672) - 1) == list(range(28672))
    assert _set_bits(1 << 10000) == [10000]
    for width in (64, 65):
        assert _set_bits((1 << width) - 1) == list(range(width))


def test_set_bits_reads_ints_of_at_most_64_bits_by_the_low_bit_loop(monkeypatch):
    # the string pass has a fixed cost that no int of 64 bits or fewer repays
    import gdslab.f2 as f2_mod

    def no_string(x):
        raise AssertionError("a string pass on a narrow int")

    monkeypatch.setattr(f2_mod, "bin", no_string, raising=False)
    for x in (0, 1, 0b1011, (1 << 63) | 1, (1 << 64) - 1):
        assert _set_bits(x) == reference_set_bits(x)
    with pytest.raises(AssertionError):
        _set_bits((1 << 65) - 1)


@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=6))
@settings(max_examples=200)
def test_rank_matches_brute_force_span(rows):
    m = F2Matrix(len(rows), 6, rows)
    ns = m.nullspace()
    assert m.rank() == brute_force_rank(rows, 6)
    assert m.rank() + len(ns) == 6  # rank-nullity
    for v in ns:
        assert m.matvec(v) == 0


def test_nullspace_vectors_annihilated():
    rng = random.Random(11)
    for _ in range(50):
        rows = [rng.getrandbits(8) for _ in range(5)]
        m = F2Matrix(5, 8, rows)
        ns = Subspace.from_vectors(8, m.nullspace())
        for v in ns.vectors():
            assert m.matvec(v) == 0
        assert m.rank() + ns.dim == 8


# -- the pivot-keyed reduction ------------------------------------------------


def list_scan_reduce(vec, rref_rows):
    """Oracle: test every RREF row's pivot in turn, in row order."""
    for row in rref_rows:
        if vec & row & -row:
            vec ^= row
    return vec


@given(
    st.integers(min_value=1, max_value=70).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=12),
        st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), min_size=1, max_size=8),
    ))
)
@settings(max_examples=300)
def test_pivot_keyed_reduction_matches_list_scan(case):
    n, rows, vecs = case
    rows = rows + rows[:2] + [0]  # repeated and zero rows
    space = Subspace.from_vectors(n, rows)
    rref_rows = F2Matrix(len(rows), n, rows).row_space_basis()
    assert list(space.basis) == rref_rows
    for v in vecs + rows:
        got = reduce_by_rref(v, space)
        assert got == list_scan_reduce(v, rref_rows)
        assert reduce_by_rref(got, space) == got
        assert in_span(v ^ got, space)


@given(
    st.integers(min_value=1, max_value=8).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(min_value=0, max_value=(1 << n) - 1), max_size=6),
    ))
)
@settings(max_examples=200)
def test_in_span_matches_brute_force_span(case):
    n, rows = case
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    space = Subspace.from_vectors(n, rows)
    for v in range(1 << n):
        assert in_span(v, space) == (v in span) == space.contains(v)
    assert set(space.vectors()) == span


def test_subspace_equality_ignores_generator_order():
    rng = random.Random(17)
    for _ in range(100):
        rows = [rng.getrandbits(40) for _ in range(rng.randint(0, 7))]
        shuffled = rows[::-1] + [a ^ b for a, b in zip(rows, rows[1:])]
        u = Subspace.from_vectors(40, rows)
        v = Subspace.from_vectors(40, shuffled)
        assert u == v and hash(u) == hash(v) and repr(u) == repr(v)
        assert len({u, v}) == 1


@pytest.mark.parametrize("basis,reason", [
    ((0b10, 0), "zero row"),
    ((0b100, 0b10), "pivots not increasing"),
    ((0b10, 0b10), "pivots not increasing"),
    ((0b011, 0b010), "a row holds another pivot"),
    ((0b01, 0b110, 0b1100), "a row holds another pivot"),
])
def test_non_rref_basis_is_rejected(basis, reason):
    with pytest.raises(ValueError, match="not in RREF"):
        Subspace(4, basis)


def test_extend_matches_from_vectors():
    rng = random.Random(23)
    for _ in range(200):
        rows = [rng.getrandbits(12) for _ in range(rng.randint(0, 6))]
        v = rng.getrandbits(12)
        space = Subspace.from_vectors(12, rows)
        assert space.extend(v) == Subspace.from_vectors(12, rows + [v])
        if space.contains(v):
            assert space.extend(v) is space


def test_intersection_dim_trivial_cases():
    e1 = Subspace.from_vectors(2, [0b01])
    e2 = Subspace.from_vectors(2, [0b10])
    assert subspace_intersection_dim(e1, e1) == 1
    assert subspace_intersection_dim(e1, e2) == 0


def test_intersection_dim_mismatch_raises():
    u = Subspace.from_vectors(2, [1])
    v = Subspace.from_vectors(3, [1])
    with pytest.raises(ValueError):
        subspace_intersection_dim(u, v)


def test_intersection_matches_exhaustive_membership():
    rng = random.Random(7)
    for _ in range(100):
        u = Subspace.from_vectors(4, [rng.getrandbits(4) for _ in range(rng.randint(0, 4))])
        v = Subspace.from_vectors(4, [rng.getrandbits(4) for _ in range(rng.randint(0, 4))])
        got = subspace_intersection_dim(u, v)
        expected = brute_force_rank(
            [x for x in range(16) if u.contains(x) and v.contains(x)], 4
        )
        assert got == expected
        assert got == subspace_intersection_dim(v, u)
        assert got <= min(u.dim, v.dim)


def all_subspaces_of_dim(ambient, dim):
    vectors = list(range(1, 1 << ambient))
    seen = set()
    for combo in combinations(vectors, dim):
        s = Subspace.from_vectors(ambient, list(combo))
        if s.dim == dim:
            seen.add(s)
    return seen


def test_isotropy_hyperbolic_examples():
    q = hyperbolic_form(2)
    assert is_isotropic(q, Subspace.from_vectors(4, [0b0001, 0b0100]))
    assert not is_isotropic(q, Subspace.from_vectors(4, [0b0001, 0b0010]))


def test_isotropy_exhaustive_vs_pairwise_definition():
    q = hyperbolic_form(2)
    for sub in all_subspaces_of_dim(4, 2):
        pairwise = all(
            bilinear(q, x, y) == 0 for x in sub.vectors() for y in sub.vectors()
        )
        assert is_isotropic(q, sub) == pairwise


def test_two_dim_subspace_count_of_f2_4():
    assert len(all_subspaces_of_dim(4, 2)) == 35


def brute_force_no_twist(q, a, b, c):
    cset = span_set(c)
    for x in span_set(a):
        for y in span_set(b):
            if (x ^ y) in cset and bilinear(q, x, y):
                return False
    return True


def test_no_twist_trivial_and_violating_triples():
    q = hyperbolic_form(2)
    u = Subspace.from_vectors(4, [0b0001, 0b0100])
    assert no_twist_holds(q, u, u, u)
    a = Subspace.from_vectors(4, [0b0001, 0b0100])
    b = Subspace.from_vectors(4, [0b0010, 0b1000])
    c = Subspace.from_vectors(4, [0b0011, 0b1100])
    # x=e1, y=e2 has x^y in c and (e1, Q e2) = 1.
    assert bilinear(q, 0b0001, 0b0010) == 1
    assert not no_twist_holds(q, a, b, c)


def test_no_twist_matches_brute_force():
    q = hyperbolic_form(2)
    iso = enumerate_max_isotropics(q, 2)
    rng = random.Random(3)
    triples = [tuple(rng.choice(iso) for _ in range(3)) for _ in range(200)]
    for a, b, c in triples:
        assert no_twist_holds(q, a, b, c) == brute_force_no_twist(q, a, b, c)


def test_enumerate_max_isotropics_small_counts():
    assert len(enumerate_max_isotropics(hyperbolic_form(1), 1)) == 3
    q = hyperbolic_form(2)
    got = enumerate_max_isotropics(q, 2)
    expected = {s for s in all_subspaces_of_dim(4, 2) if is_isotropic(q, s)}
    assert set(got) == expected
    assert len(enumerate_max_isotropics(q, 0)) == 1


def reference_enumerate_max_isotropics(q: F2Matrix, j: int):
    """The enumeration before coset representatives: every nonzero vector of
    the orthogonal complement outside the subspace extends it, so each
    extension is built once per vector of its coset."""
    n = q.rows
    level = {Subspace.from_vectors(n, [])}
    for _ in range(j):
        nxt = set()
        for sub in level:
            if sub.dim == 0:
                perp_basis = [1 << i for i in range(n)]
            else:
                constraint = F2Matrix(sub.dim, n, [q.matvec(b) for b in sub.basis])
                perp_basis = constraint.nullspace()
            span = [0]
            for b in perp_basis:
                span += [v ^ b for v in span]
            for v in span:
                if v and not sub.contains(v):
                    nxt.add(Subspace.from_vectors(n, list(sub.basis) + [v]))
        level = nxt
    return sorted(level, key=lambda s: s.basis)


def random_zero_diagonal_form(n: int, rng: random.Random) -> F2Matrix:
    m = F2Matrix.zeros(n, n)
    for i, k in combinations(range(n), 2):
        if rng.getrandbits(1):
            m.data[i] |= 1 << k
            m.data[k] |= 1 << i
    return m


def test_enumerate_max_isotropics_matches_reference():
    rng = random.Random(12)
    forms = [hyperbolic_form(j) for j in (1, 2, 3)]
    forms += [random_zero_diagonal_form(n, rng) for n in (3, 4, 5, 6) for _ in range(2)]
    for q in forms:
        for j in range(1, min(3, q.rows) + 1):
            assert enumerate_max_isotropics(q, j) == reference_enumerate_max_isotropics(q, j)


def test_enumerate_guard():
    with pytest.raises(ValueError):
        enumerate_max_isotropics(hyperbolic_form(5), 5)


def test_parity_identity_one_dim():
    q = hyperbolic_form(1)
    a = Subspace.from_vectors(2, [0b01])
    check = triple_intersection_parity(q, a, a, a)
    assert check == ParityCheck(1, 1, True)


def test_parity_identity_two_dim():
    q = hyperbolic_form(2)
    a = Subspace.from_vectors(4, [0b0001, 0b0100])
    check = triple_intersection_parity(q, a, a, a)
    assert check == ParityCheck(0, 0, True)


def test_parity_identity_precondition_reported_distinctly():
    q = hyperbolic_form(2)
    a = Subspace.from_vectors(4, [0b0001, 0b0100])
    b = Subspace.from_vectors(4, [0b0010, 0b1000])
    c = Subspace.from_vectors(4, [0b0011, 0b1100])
    with pytest.raises(PreconditionError):
        triple_intersection_parity(q, a, b, c)
    with pytest.raises(PreconditionError):
        triple_intersection_parity(q, a, b, Subspace.from_vectors(4, [0b0001]))


@pytest.mark.parametrize("j", [1, 2])
def test_parity_identity_exhaustive_no_twist_triples(j):
    q = hyperbolic_form(j)
    iso = enumerate_max_isotropics(q, j)
    for a in iso:
        for b in iso:
            for c in iso:
                if no_twist_holds(q, a, b, c):
                    assert triple_intersection_parity(q, a, b, c).identity_holds


def test_evenness_fact_exhaustive():
    for n in (1, 3, 5):
        assert not exists_nonsingular_alternating(n)
    for n in (2, 4):
        assert exists_nonsingular_alternating(n)
