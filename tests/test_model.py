"""Plaquette model: flips, signs, projector and commutation laws, sweeps."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdslab.cli import build_manifold
from gdslab.complexes import Chain, ensure_validated
from gdslab.f2 import PreconditionError
from gdslab.manifolds import builtin_manifold
from gdslab.model import (
    GDS,
    GTC,
    MODELS,
    SignedFlip,
    _components,
    _chi_table,
    _sweep,
    chi_up,
    flip,
    ground_degeneracy,
    hplus_violations,
    order_dependent_sectors,
    random_cycle,
    sector_reports,
    sector_reps,
    sweep_sign,
    sweep_signs,
    verify_commutation,
    verify_projector,
)

import conftest
from conftest import (
    ORACLE_SPECS,
    dense_incidence,
    forgetful_flip,
    mask_table,
    reference_nullspace,
    reference_sector_reports,
    reference_sweep,
    widened_flip,
    widened_table,
)


def closure_chi_up(c, cell, s):
    """Reference chi_up: the Euler characteristic of the closure of the up
    faces, built as a cell set."""
    up = [f for f in c.faces(c.dim, cell) if s.contains(f)]
    return c.chi_of_cells(c.closure((c.dim - 1, f) for f in up))


def reference_sweep_sign(c, e, order=None):
    """Reference sweep: one state, one flip at a time, closure-based chi_up."""
    cells = list(order) if order is not None else list(range(c.n_cells(c.dim)))
    bits = e.bits
    sign = 1
    for cell in cells:
        sign *= -((-1) ** closure_chi_up(c, cell, Chain(c, c.dim - 1, bits)))
        bits ^= c.boundary_bits(c.dim, cell)
    assert bits == e.bits
    return sign


# every shipped small complex: (spec, --points, --seed)
SMALL_COMPLEXES = [
    ("sphere:2", None, None), ("sphere:3", None, None), ("sphere:4", None, None),
    ("torus:2:3", None, None), ("torus:3:3", None, None),
    ("tP:1", None, None), ("tP:2", None, None), ("tP:3", None, None),
    ("tP:4", None, None), ("tP:5", None, None), ("tP:6", None, None),
    ("genus:2", None, None), ("klein", None, None), ("torus-voronoi:2", 60, 1),
]


@pytest.fixture(scope="module", params=SMALL_COMPLEXES, ids=lambda p: p[0])
def small_complex(request):
    c = build_manifold(*request.param)
    ensure_validated(c)
    return c


def test_hplus_violations_examples(torus2):
    empty = Chain.empty(torus2, 1)
    assert not hplus_violations(torus2, empty)
    boundary = Chain(torus2, 1, torus2.boundary_bits(2, 0))
    assert not hplus_violations(torus2, boundary)
    single = Chain.from_cells(torus2, 1, [0])
    assert len(hplus_violations(torus2, single)) == 2


def test_chi_up_examples(torus2, sphere3):
    all_down = Chain.empty(torus2, 1)
    assert chi_up(torus2, 0, all_down) == 0
    # the whole boundary of a 3-cell is a 2-sphere
    cell_faces = sphere3.faces(3, 0)
    state = Chain.from_cells(sphere3, 2, cell_faces)
    assert chi_up(sphere3, 0, state) == 2
    # one edge of a polygon is a closed arc
    one_edge = Chain.from_cells(torus2, 1, [torus2.faces(2, 0)[0]])
    assert chi_up(torus2, 0, one_edge) == 1


def test_flip_phases(torus2, sphere3):
    all_down = Chain.empty(torus2, 1)
    _, sf = flip(torus2, 0, all_down, GDS)
    assert sf.phase == -1  # birth of a loop
    # one elementary transition: the Morse parity (chi_up + 1) mod 2 is odd
    assert (chi_up(torus2, 0, all_down) + 1) % 2 == 1
    state = Chain(torus2, 1, torus2.boundary_bits(2, 0))
    back, sf2 = flip(torus2, 0, state, GDS)
    assert back.bits == 0 and sf2.phase == -1  # death of the same loop
    _, sf3 = flip(torus2, 0, all_down, GTC)
    assert sf3.phase == 1
    # d=3 birth: chi of the empty set is 0, phase -1
    _, sf4 = flip(sphere3, 0, Chain.empty(sphere3, 2), GDS)
    assert sf4.phase == -1


def test_signed_flip_consistency_guard():
    with pytest.raises(ValueError):
        SignedFlip(cell=0, chi_up=0, phase=1, model=GDS)


def test_flip_is_involution_on_states(torus3):
    rng = random.Random(0)
    for _ in range(30):
        s = random_cycle(torus3, rng)
        cell = rng.randrange(torus3.n_cells(3))
        s1, _ = flip(torus3, cell, s, GDS)
        s2, _ = flip(torus3, cell, s1, GDS)
        assert s2.bits == s.bits


@pytest.mark.parametrize("spec,states", [("tP:1", 64), ("sphere:2", 8), ("torus:2:3", 1024)])
def test_random_cycle_reaches_every_cycle_state(spec, states):
    # a seed's draws depend on the cycle basis; the set they reach must not
    c = build_manifold(spec, None, None)
    span = {0}
    for z in reference_nullspace(dense_incidence(c, c.dim - 1).transpose()):
        span |= {s ^ z for s in span}
    assert len(span) == states
    rng = random.Random(5)
    assert {random_cycle(c, rng).bits for _ in range(16 * states)} == span


def test_projector_property_random_cycles(torus2, sphere3, voronoi2):
    rng = random.Random(1)
    for c in (torus2, sphere3, voronoi2):
        for _ in range(100):
            s = random_cycle(c, rng)
            cell = rng.randrange(c.n_cells(c.dim))
            assert verify_projector(c, cell, s)


def test_projector_all_down_and_all_up(sphere3):
    n = sphere3.n_cells(2)
    assert verify_projector(sphere3, 0, Chain.empty(sphere3, 2))
    all_up = Chain.from_cells(sphere3, 2, range(n))
    assert verify_projector(sphere3, 0, all_up)


def test_projector_precondition_reported(torus2):
    # a single up edge violates vertex terms on every 2-cell containing it
    bad = Chain.from_cells(torus2, 1, [0])
    cell = torus2.cofaces(1, 0)[0]
    with pytest.raises(PreconditionError):
        verify_projector(torus2, cell, bad)


def test_commutation_on_cycles(torus2, voronoi3):
    rng = random.Random(2)
    for c in (torus2, voronoi3):
        n = c.n_cells(c.dim)
        for _ in range(60):
            s = random_cycle(c, rng)
            assert verify_commutation(c, rng.randrange(n), rng.randrange(n), s)


def test_commutation_rejects_noncycle(torus2):
    with pytest.raises(PreconditionError):
        verify_commutation(torus2, 0, 1, Chain.from_cells(torus2, 1, [0]))


def test_sweep_sign_rp2_and_sphere(rp2, sphere2):
    assert sweep_sign(rp2, Chain.empty(rp2, 1)) == -1
    assert sweep_sign(sphere2, Chain.empty(sphere2, 1)) == 1


def test_sweep_sign_torus_all_sectors(torus2):
    for rep in sector_reps(torus2).reps:
        assert sweep_sign(torus2, rep) == 1


def test_sweep_order_independence(rp2, torus2):
    rng = random.Random(3)
    for c in (rp2, torus2):
        for rep in sector_reps(c).reps:
            base = sweep_sign(c, rep)
            for _ in range(20):
                order = list(range(c.n_cells(2)))
                rng.shuffle(order)
                assert sweep_sign(c, rep, order) == base


def test_sweep_representative_independence(klein):
    rng = random.Random(4)
    sectors = sector_reps(klein)
    for rep in sectors.reps:
        base = sweep_sign(klein, rep)
        for _ in range(5):
            # another representative of the same class
            bits = rep.bits
            for _ in range(rng.randint(1, 4)):
                bits ^= klein.boundary_bits(2, rng.randrange(klein.n_cells(2)))
            assert sweep_sign(klein, Chain(klein, 1, bits)) == base


def test_sweep_rejects_noncycle(torus2):
    with pytest.raises(ValueError):
        sweep_sign(torus2, Chain.from_cells(torus2, 1, [0]))


@pytest.mark.parametrize("t,expected", [(1, 1), (2, 2), (3, 4), (4, 8)])
def test_ground_degeneracy_projective_sums(t, expected):
    c = builtin_manifold("tP", t)
    gds = ground_degeneracy(c, GDS)
    gtc = ground_degeneracy(c, GTC)
    assert gds == expected
    assert gtc == 2**t


def test_ground_degeneracy_odd_dimension(torus3, sphere3):
    assert ground_degeneracy(torus3, GDS) == 8
    assert ground_degeneracy(torus3, GTC) == 8
    assert ground_degeneracy(sphere3, GDS) == 1


def test_ground_degeneracy_even_sphere(sphere4):
    gsd, reports = ground_degeneracy(sphere4, GDS), sector_reports(sphere4, GDS)
    assert gsd == 1
    assert reports[0].survives and reports[0].epsilon == 0


def test_sector_reports_flag_consistency(klein):
    gsd, reports = ground_degeneracy(klein, GDS), sector_reports(klein, GDS)
    assert gsd == 2
    for r in reports:
        assert r.survives == (r.sweep_sign == 1)
        # even d back-solved one-sidedness parity
        assert r.epsilon == (0 if r.survives else 1)  # chi(klein) = 0


def test_disconnected_complex_factorizes():
    from gdslab.complexes import Triangulation, dual_of_triangulation
    from gdslab.manifolds import freudenthal_torus, nonorientable_surface

    t_torus = freudenthal_torus(2, 3)
    t_rp2 = nonorientable_surface(1)
    shift = t_torus.n_vertices
    merged = Triangulation(
        2,
        t_torus.simplices
        + [tuple(v + shift for v in s) for s in t_rp2.simplices],
    )
    c = dual_of_triangulation(merged)
    assert ground_degeneracy(c, GDS) == 4 * 1
    assert ground_degeneracy(c, GTC) == 4 * 2
    # Reports come per component, the torus (lowest vertex ids) first.
    torus, rp2 = (18, 27, 9), (10, 15, 6)
    golden = {
        GDS: [(torus, 0, 0, 1, True, 0), (torus, 1, 16121856, 1, True, 0),
              (torus, 2, 68628544, 1, True, 0), (torus, 3, 81866816, 1, True, 0),
              (rp2, 0, 0, -1, False, 0), (rp2, 1, 11456, 1, True, 1)],
        GTC: [(torus, 0, 0, 1, True, 0), (torus, 1, 16121856, 1, True, 0),
              (torus, 2, 68628544, 1, True, 0), (torus, 3, 81866816, 1, True, 0),
              (rp2, 0, 0, 1, True, 1), (rp2, 1, 11456, 1, True, 1)],
    }
    for model, expected in golden.items():
        reports = sector_reports(c, model)
        assert [
            (r.rep.complex.cell_counts, r.sector, r.rep.bits, r.sweep_sign,
             r.survives, r.epsilon)
            for r in reports
        ] == expected
    with pytest.raises(ValueError):
        sweep_sign(c, Chain.empty(c, 1))


def test_even_d_sign_identity_on_cycles(sphere2, sphere4):
    # (-1)^chi(up) equals i^chi(up meet down) on cycle states in even d
    from gdslab.phases import Phase

    rng = random.Random(6)
    for c in (sphere2, sphere4):
        d = c.dim
        for _ in range(50):
            s = random_cycle(c, rng)
            cell = rng.randrange(c.n_cells(d))
            up = [f for f in c.faces(d, cell) if s.contains(f)]
            down = [f for f in c.faces(d, cell) if not s.contains(f)]
            cl_up = c.closure((d - 1, f) for f in up)
            cl_down = c.closure((d - 1, f) for f in down)
            chi_meet = c.chi_of_cells(cl_up & cl_down)
            assert chi_meet % 2 == 0
            assert Phase.i_power(chi_meet).sign() == (-1) ** chi_up(c, cell, s)


def test_odd_d_flip_changes_chi_by_even(torus3):
    from gdslab.phases import Phase

    rng = random.Random(7)
    f_state = random_cycle(torus3, rng)
    for _ in range(100):
        cell = rng.randrange(torus3.n_cells(3))
        new_state, sf = flip(torus3, cell, f_state, GDS)
        delta = new_state.euler_characteristic() - f_state.euler_characteristic()
        assert delta % 2 == 0
        # i^chi flips sign exactly when the flip phase is -1
        assert Phase.i_power(delta).sign() == sf.phase
        f_state = new_state


def test_chi_up_matches_closure_chi_on_random_states(small_complex):
    c = small_complex
    rng = random.Random(31)
    n_states, n_top = c.n_cells(c.dim - 1), c.n_cells(c.dim)
    for _ in range(40):
        s = Chain(c, c.dim - 1, rng.getrandbits(n_states))
        cell = rng.randrange(n_top)
        assert chi_up(c, cell, s) == closure_chi_up(c, cell, s)
    for cell in range(n_top):
        s = random_cycle(c, rng)
        assert chi_up(c, cell, s) == closure_chi_up(c, cell, s)


def untransposed(table):
    """A chi_up table in the first form that `mask_table` builds, with the
    masks grouped by the parity of their dimension: for every closure cell
    (bit i of the even or odd mask), the mask of the face positions whose
    mask holds bit i."""
    faces, cols, even, odd = table
    assert even & odd == 0 and (even | odd) + 1 == 1 << (even | odd).bit_length()
    by_parity = [[], []]
    for i in range((even | odd).bit_length()):
        mask = sum(1 << pos for pos, col in enumerate(cols) if col >> i & 1)
        by_parity[odd >> i & 1].append(mask)
    return faces, [sorted(ms) for ms in by_parity]


def assert_chi_tables_match_oracle(c):
    for cell in range(c.n_cells(c.dim)):
        ref_faces, ref_masks = mask_table(c, cell)
        by_parity = [sorted(m for ms in ref_masks[p::2] for m in ms) for p in (0, 1)]
        assert untransposed(_chi_table(c, cell)) == (ref_faces, by_parity), cell


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_chi_tables_match_closure_oracle(spec):
    assert_chi_tables_match_oracle(build_manifold(spec, 60, 1))


def test_chi_tables_match_closure_oracle_on_voronoi3(voronoi3):
    assert_chi_tables_match_oracle(voronoi3)


def test_sweep_signs_match_reference_sweep(small_complex):
    c = small_complex
    reps = sector_reps(c).reps
    rng = random.Random(32)
    orders = [None]
    for _ in range(3):
        order = list(range(c.n_cells(c.dim)))
        rng.shuffle(order)
        orders.append(order)
    for order in orders:
        expected = [reference_sweep_sign(c, e, order) for e in reps]
        assert sweep_signs(c, reps, order) == expected
        assert [sweep_sign(c, e, order) for e in reps] == expected


# the small complexes, tP:7..12, torus:4:3 and a small Voronoi torus, for the
# table-sweep oracle
TABLE_SWEEP_COMPLEXES = SMALL_COMPLEXES + [
    (f"tP:{t}", None, None) for t in range(7, 13)
] + [("torus:4:3", None, None), ("torus-voronoi:2", 25, 7)]


def sector_sweep_input(c):
    """The sector columns of a complex and their class count."""
    from gdslab.model import _sector_columns

    sectors = sector_reps(c)
    return _sector_columns(c, sectors), sectors.class_count


def assert_sweep_matches_table_sweep(c, cols, n, order):
    start = list(cols)
    assert _sweep(c, cols, n, order) == reference_sweep(c, cols, n, order)
    assert cols == start


@pytest.mark.parametrize("spec,points,seed", TABLE_SWEEP_COMPLEXES,
                         ids=[f"{spec}-{points}" if points else spec
                              for spec, points, _ in TABLE_SWEEP_COMPLEXES])
def test_sweep_matches_the_table_sweep(spec, points, seed):
    c = build_manifold(spec, points, seed)
    cols, n = sector_sweep_input(c)
    rng = random.Random(spec)
    orders = [None, list(range(c.n_cells(c.dim)))[::-1]]
    orders += [rng.sample(range(c.n_cells(c.dim)), c.n_cells(c.dim)) for _ in range(2)]
    for order in orders:
        assert_sweep_matches_table_sweep(c, cols, n, order)


HYPOTHESIS_SWEEP_SPECS = ["tP:3", "klein", "torus:3:3", "sphere:4", "genus:2"]


@given(spec=st.sampled_from(HYPOTHESIS_SWEEP_SPECS), seed=st.integers(0, 2 ** 32 - 1),
       shuffled=st.booleans())
@settings(max_examples=60, deadline=None)
def test_sweep_matches_the_table_sweep_on_drawn_orders_and_cycles(spec, seed, shuffled):
    # the sector columns plus random cycles, in id order or a shuffled one
    c = build_manifold(spec, None, None)
    rng = random.Random(seed)
    cols, n = sector_sweep_input(c)
    for k in range(4):
        for f in random_cycle(c, rng).cells():
            cols[f] ^= 1 << n + k
    order = rng.sample(range(c.n_cells(c.dim)), c.n_cells(c.dim)) if shuffled else None
    assert_sweep_matches_table_sweep(c, cols, n + 4, order)


def test_sweep_errors_match_the_table_sweep(torus2):
    c = torus2
    cols, n = sector_sweep_input(c)
    not_cycle = list(cols)
    not_cycle[0] ^= 1 << n
    n_top = c.n_cells(c.dim)
    cases = [(not_cycle, n + 1, None, "sweep must start from a cycle")]
    cases += [(cols, n, order, "order must visit every top cell exactly once")
              for order in ([0] * n_top, list(range(n_top - 1)), list(range(n_top + 1)))]
    for args_cols, args_n, order, message in cases:
        for sweep in (_sweep, reference_sweep):
            with pytest.raises(ValueError, match=f"^{message}$"):
                sweep(c, list(args_cols), args_n, order)


@pytest.mark.parametrize("argv", [
    ["gsd", "--model", "gds"], ["gsd", "--model", "gtc"],
    ["verify", "--suite", "sweep-order", "--seed", "1"],
])
@pytest.mark.parametrize("spec", ["tP:3", "torus:3:3"])
def test_sweeps_build_no_chi_tables(monkeypatch, capsys, argv, spec):
    from gdslab import cli

    c = build_manifold(spec, None, None)
    monkeypatch.setattr(cli, "build_manifold", lambda spec, points, seed: c)
    assert cli.dispatch(argv + ["--manifold", spec]) == cli.EXIT_OK
    capsys.readouterr()
    assert c._chi_tables == {}


def test_table_thm_a_reads_no_chi_table(monkeypatch, capsys):
    import gdslab.model as model_mod
    from gdslab import cli

    def refused(c, cell):
        raise AssertionError("a sweep read a chi_up table")

    monkeypatch.setattr(model_mod, "_chi_table", refused)
    assert cli.dispatch(["table-thm-a", "--tmax", "4"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


# the small complexes and the larger ones up to the sector guard (b = 12)
GENERATOR_SWEEP_COMPLEXES = SMALL_COMPLEXES + [
    (spec, None, None)
    for spec in [f"tP:{t}" for t in range(7, 13)] + ["torus:4:3"] + [f"genus:{g}" for g in range(3, 7)]
]


@pytest.mark.parametrize("spec,points,seed", GENERATOR_SWEEP_COMPLEXES,
                         ids=[spec for spec, _, _ in GENERATOR_SWEEP_COMPLEXES])
def test_generator_sweep_matches_the_sweep_of_listed_reps(spec, points, seed):
    c = build_manifold(spec, points, seed)
    signs = sweep_signs(c, sector_reps(c).reps)
    assert [r.sweep_sign for r in sector_reports(c, GDS)] == signs
    assert ground_degeneracy(c, GDS) == signs.count(1)
    assert ground_degeneracy(c, GTC) == len(signs)
    for model in MODELS:
        assert sector_reports(c, model) == reference_sector_reports(c, model)


@pytest.mark.parametrize("spec", ["tP:2", "tP:5", "klein"])
def test_walsh_columns_follow_the_span_numbering(spec):
    # generators whose sweep signs are not a symmetric function of the
    # class index: g_0, then g_0 + g_k, each plus the boundary of a top cell
    from gdslab.f2 import _span
    from gdslab.homology import SectorSet
    from gdslab.model import _negative_sectors

    c = build_manifold(spec, None, None)
    g = sector_reps(c).generators
    mixed = [g[0]] + [g[0] ^ x for x in g[1:]]
    mixed = tuple(x ^ c.boundary_bits(c.dim, k % c.n_cells(c.dim)) for k, x in enumerate(mixed))
    span = _span(mixed)
    expected = sweep_signs(c, [Chain(c, c.dim - 1, x) for x in span])
    negative = _negative_sectors(c, SectorSet(c, c.dim - 1, mixed))
    assert [-1 if (negative >> j) & 1 else 1 for j in range(len(span))] == expected


def test_order_dependent_sectors_name_sectors_in_listing_order(monkeypatch):
    # on the Klein bottle the second listed sector is class 3 of the span
    # numbering, which the sweeps index
    import gdslab.model as model_mod

    c = build_manifold("klein", None, None)
    assert sector_reps(c).listing()[1][1] == 3
    real = model_mod._sweeps
    calls = []

    def recorded(orders):
        for order in orders:
            calls.append(order)
            yield order

    def flaky(c, cols, n, orders):
        for negative in real(c, cols, n, recorded(orders)):
            yield negative ^ (1 << 3 if len(calls) == 2 else 0)

    monkeypatch.setattr(model_mod, "_sweeps", flaky)
    n_top = c.n_cells(c.dim)
    orders = [list(range(n_top))[::-1], list(range(n_top))]
    assert list(order_dependent_sectors(c, orders)) == [1, None]
    assert calls == [None] + orders


@pytest.mark.parametrize("spec", ["tP:3", "klein", "torus:3:3"])
def test_order_dependent_sectors_match_the_sweep_of_listed_reps(monkeypatch, spec):
    # a chi_up that forgets one vertex of top cell 1 makes the signs depend
    # on the order: the first changed sector is the first listed
    # representative whose `sweep_signs` sign changes
    import gdslab.model as model_mod

    monkeypatch.setattr(model_mod, "_flip_columns", forgetful_flip(model_mod._flip_columns))
    c = build_manifold(spec, None, None)
    reps = sector_reps(c).reps
    base = sweep_signs(c, reps)
    rng = random.Random(4)
    orders = [rng.sample(range(c.n_cells(c.dim)), c.n_cells(c.dim)) for _ in range(8)]
    expected = []
    for order in orders:
        got = sweep_signs(c, reps, order)
        expected.append(next((j for j, (a, b) in enumerate(zip(got, base)) if a != b), None))
    assert list(order_dependent_sectors(c, orders)) == expected
    assert any(x is not None for x in expected)


def disjoint_union(*triangulations):
    """The dual of the disjoint union of triangulations of one dimension."""
    from gdslab.complexes import Triangulation, dual_of_triangulation

    simplices, shift = [], 0
    for t in triangulations:
        simplices += [tuple(v + shift for v in s) for s in t.simplices]
        shift += t.n_vertices
    return dual_of_triangulation(Triangulation(triangulations[0].dim, simplices))


def test_generator_sweep_matches_the_reference_on_disconnected_complexes():
    from gdslab.manifolds import freudenthal_torus, klein_bottle, nonorientable_surface

    for parts in (
        (freudenthal_torus(2, 3), nonorientable_surface(1)),
        (nonorientable_surface(1), nonorientable_surface(1)),
        (nonorientable_surface(3), klein_bottle(), freudenthal_torus(2, 3)),
    ):
        c = disjoint_union(*parts)
        pieces = _components(c)
        assert len(pieces) == len(parts)
        for model in MODELS:
            reports = sector_reports(c, model)
            assert reports == reference_sector_reports(c, model)
            assert [r.rep.complex.cell_counts for r in reports] == [
                p.cell_counts for p in pieces for _ in range(sector_reps(p).class_count)
            ]
            expected = 1
            for p in pieces:
                expected *= sum(r.survives for r in reference_sector_reports(p, model))
            assert ground_degeneracy(c, model) == expected


def test_sweep_signs_error_messages(torus2):
    reps = sector_reps(torus2).reps
    bad = Chain.from_cells(torus2, 1, [0])
    with pytest.raises(ValueError, match="^sweep must start from a cycle$"):
        sweep_signs(torus2, reps + [bad])
    with pytest.raises(ValueError, match="^state must be a \\(d-1\\)-chain on this complex$"):
        sweep_signs(torus2, [Chain.empty(torus2, 2)])
    n = torus2.n_cells(2)
    for order in ([0] * n, list(range(n - 1)), list(range(n + 1))):
        with pytest.raises(ValueError, match="^order must visit every top cell exactly once$"):
            sweep_signs(torus2, reps, order)


def test_sweep_signs_rejects_disconnected():
    from gdslab.complexes import Triangulation, dual_of_triangulation
    from gdslab.manifolds import nonorientable_surface
    from gdslab.model import _sector_columns

    t_rp2 = nonorientable_surface(1)
    shift = t_rp2.n_vertices
    c = dual_of_triangulation(Triangulation(
        2, t_rp2.simplices + [tuple(v + shift for v in s) for s in t_rp2.simplices]
    ))
    for sweep_entry in (
        lambda: sweep_signs(c, [Chain.empty(c, 1)]),
        lambda: _sector_columns(c, sector_reps(c)),
        lambda: next(order_dependent_sectors(c, [None])),
    ):
        with pytest.raises(ValueError, match="^sweep is defined per connected component$"):
            sweep_entry()


def test_sweep_that_does_not_return_is_an_internal_error(monkeypatch, capsys):
    from gdslab import cli
    import gdslab.model as model_mod

    # A sweep whose flip of cell 0 flips the boundaries of cells 0 and 1:
    # the boundary space and the sectors are unchanged, but the flips of all
    # top cells no longer cancel, so no sweep comes back.
    c = builtin_manifold("torus", 2, 3)
    ensure_validated(c)
    monkeypatch.setattr(model_mod, "_flip_columns", widened_flip(model_mod._flip_columns))
    with pytest.raises(AssertionError, match="^sweep did not return to its starting cycle$"):
        sweep_signs(c, [Chain.empty(c, 1)])
    monkeypatch.setattr(cli, "build_manifold", lambda spec, points, seed: c)
    assert cli.dispatch(["gsd", "--manifold", "torus:2:3"]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err == (
        "internal error: sweep did not return to its starting cycle\n"
    )
    # the same fault in the table that the table sweep flips by
    monkeypatch.setattr(conftest, "mask_table", widened_table(conftest.mask_table))
    with pytest.raises(AssertionError, match="^sweep did not return to its starting cycle$"):
        reference_sweep(c, [0] * c.n_cells(1), 1)
