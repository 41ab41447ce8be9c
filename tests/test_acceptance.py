"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one pass line so `pytest -s tests/test_acceptance.py` reads
as a checklist.  All comparisons are exact (integer or rational); the only
timing requirement is the dimension table under sixty seconds.
"""

import random
import time

import pytest

from gdslab.cli import EXIT_OK, dispatch
from gdslab.complexes import (
    Chain,
    subset_boundary_manifold_check,
    validate_generic,
)
from gdslab.ed import ground_degeneracy_ed, verify_full_commutation
from gdslab.f2 import (
    enumerate_max_isotropics,
    exists_nonsingular_alternating,
    hyperbolic_form,
    no_twist_holds,
    triple_intersection_parity,
)
from gdslab.homology import betti, two_sidedness_d2, _loop_components
from gdslab.manifolds import (
    barycentric_subdivision,
    builtin_manifold,
    simplex_boundary,
    square_grid_torus,
    torus_diagonal_cycles,
)
from gdslab.complexes import dual_of_triangulation
from gdslab.circuit import build_gates, schedule, verify_conjugation
from gdslab.model import (
    GDS,
    GTC,
    ground_degeneracy,
    random_cycle,
    sector_reports,
    sector_reps,
    sweep_sign,
    verify_commutation,
    verify_projector,
)
from gdslab.operators import (
    Balloon,
    ds2_wilson_data,
    open_balloon_apply,
    random_sparse_cycle,
    sample_clean_pair,
    semichar_delta_check,
    TangentialOverlapError,
    apply_balloon,
)
from gdslab.model import hplus_violations
from gdslab.voronoi import GeneralPositionError, PointSet, torus_voronoi, SCALE
from gdslab.wavefunction import (
    EVEN_SEMICHAR,
    ODD_CHI,
    PhaseFn,
    transported_phase,
    verify_flip_consistency,
)


def shipped_small_complexes():
    """Every shipped complex with at most 20 qubits, spanning d = 2, 3, 4."""
    return [
        ("sphere:2", builtin_manifold("sphere", 2)),
        ("tP:1", builtin_manifold("tP", 1)),
        ("voronoi2-n4", torus_voronoi(2, PointSet.random(2, 4, seed=2))),
        ("voronoi2-n5", torus_voronoi(2, PointSet.random(2, 5, seed=11))),
        ("voronoi2-n6", torus_voronoi(2, PointSet.random(2, 6, seed=4))),
        ("sphere:3", builtin_manifold("sphere", 3)),
        ("sphere:4", builtin_manifold("sphere", 4)),
    ]


def test_criterion_01_dimension_table(capsys):
    start = time.time()
    rc = dispatch(["table-thm-a", "--tmax", "4", "--format", "csv"])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    ds = [int(r[1]) for r in rows]
    tc = [int(r[2]) for r in rows]
    assert ds == [1, 2, 4, 8]
    assert tc == [2, 4, 8, 16]
    assert elapsed < 60.0
    print(f"\nPASS criterion 1: table dims DS={ds} TC={tc} in {elapsed:.1f}s")


def test_criterion_02_surface_sector_identity():
    surfaces = [
        ("tP:1", builtin_manifold("tP", 1)),
        ("tP:2", builtin_manifold("tP", 2)),
        ("tP:3", builtin_manifold("tP", 3)),
        ("tP:4", builtin_manifold("tP", 4)),
        ("torus:2", builtin_manifold("torus", 2, 3)),
        ("genus:2", builtin_manifold("genus", 2)),
    ]
    checked = 0
    for name, c in surfaces:
        chi = c.euler_characteristic()
        reports = sector_reports(c, GDS)
        for rep in reports:
            w1 = two_sidedness_d2(c, rep.rep).w1_eval
            assert rep.survives == ((w1 + chi) % 2 == 0), (name, rep.sector)
            checked += 1
    print(f"\nPASS criterion 2: survival = orientation parity on {checked} sectors")


def test_criterion_03_odd_dimension_equivalence():
    cases = [("torus:3", builtin_manifold("torus", 3, 3), 8),
             ("sphere:3", builtin_manifold("sphere", 3), 1)]
    for seed in range(5):
        c = torus_voronoi(3, PointSet.random(3, 14, seed=seed))
        assert c.meta["generic_validated"], seed
        cases.append((f"voronoi3-seed{seed}", c, 2 ** betti(c)[2]))
    for name, c, expected in cases:
        gds = ground_degeneracy(c, GDS)
        gtc = ground_degeneracy(c, GTC)
        b = betti(c)[c.dim - 1]
        assert gds == gtc == 2**b == expected, name
        res = verify_flip_consistency(PhaseFn(ODD_CHI, c), 1000, seed=101)
        assert res.ok, name
    print(f"\nPASS criterion 3: GDS = GTC = 2^b on {len(cases)} odd-d complexes, "
          "flip consistency 1000 steps each")


def test_criterion_04_even_sphere():
    c = builtin_manifold("sphere", 4)
    gds_sweep = ground_degeneracy(c, GDS)
    energy, gds_ed = ground_degeneracy_ed(c, GDS, "projected")
    assert gds_sweep == gds_ed == 1 and energy == 0.0
    res = verify_flip_consistency(PhaseFn(EVEN_SEMICHAR, c), 1000, seed=7)
    assert res.ok
    print("\nPASS criterion 4: sphere(4) degeneracy 1 by sweep and exact ED; "
          "semicharacteristic flip consistency 1000 steps")


def test_criterion_05_projective_plane_obstruction():
    c = builtin_manifold("tP", 1)
    assert sweep_sign(c, Chain.empty(c, 1)) == -1
    print("\nPASS criterion 5: empty-sector sweep sign -1 on the projective plane")


def test_criterion_06_torus_winding_sign():
    c = builtin_manifold("torus", 2, 3)
    e11, e1m1 = torus_diagonal_cycles(c)
    assert transported_phase(c, e11, e1m1) == -1
    print("\nPASS criterion 6: transported phase between opposite windings is -1")


def test_criterion_07_oracle_equivalence():
    complexes = shipped_small_complexes()
    dims = set()
    for name, c in complexes:
        assert c.n_cells(c.dim - 1) <= 20
        dims.add(c.dim)
        for model in (GDS, GTC):
            _, deg = ground_degeneracy_ed(c, model, "projected")
            sweep_deg = ground_degeneracy(c, model)
            assert deg == sweep_deg, (name, model)
    assert dims == {2, 3, 4}
    assert len(complexes) >= 6
    print(f"\nPASS criterion 7: exact ED degeneracy equals sweep on "
          f"{len(complexes)} complexes, both models, dims {sorted(dims)}")


def test_criterion_08_commuting_projector_suites():
    complexes = shipped_small_complexes() + [
        ("torus:2", builtin_manifold("torus", 2, 3)),
        ("torus:3", builtin_manifold("torus", 3, 3)),
        ("tP:2", builtin_manifold("tP", 2)),
        ("tP:3", builtin_manifold("tP", 3)),
        ("tP:4", builtin_manifold("tP", 4)),
        ("genus:2", builtin_manifold("genus", 2)),
        ("klein", builtin_manifold("klein")),
        ("voronoi2-n25", torus_voronoi(2, PointSet.random(2, 25, seed=7))),
        ("voronoi3-n14", torus_voronoi(3, PointSet.random(3, 14, seed=0))),
    ]
    rng = random.Random(42)
    for name, c in complexes:
        n = c.n_cells(c.dim)
        for _ in range(1000):
            s = random_cycle(c, rng)
            c1, c2 = rng.randrange(n), rng.randrange(n)
            assert verify_projector(c, c1, s), name
            assert verify_commutation(c, c1, c2, s), name
    checked = []
    for name, c in complexes:
        if c.n_cells(c.dim - 1) <= 18:
            assert verify_full_commutation(c, "projected"), name
            checked.append(name)
    assert len(checked) == len(shipped_small_complexes())
    print(f"\nPASS criterion 8: projector and commutation on 1000 draws on each "
          f"of {len(complexes)} complexes; full-space commutators vanish "
          f"exactly on {len(checked)}")


def test_criterion_09_intersection_parity():
    for j in (1, 2):
        q = hyperbolic_form(j)
        iso = enumerate_max_isotropics(q, j)
        total = 0
        for a in iso:
            for b in iso:
                for c in iso:
                    if no_twist_holds(q, a, b, c):
                        assert triple_intersection_parity(q, a, b, c).identity_holds
                        total += 1
        assert total > 0
    rng = random.Random(5)
    for j in (3, 4):
        q = hyperbolic_form(j)
        iso = enumerate_max_isotropics(q, j)
        accepted = 0
        while accepted < 10_000:
            a, b, c = (rng.choice(iso) for _ in range(3))
            if no_twist_holds(q, a, b, c):
                assert triple_intersection_parity(q, a, b, c).identity_holds
                accepted += 1
    for n in (1, 3, 5):
        assert not exists_nonsingular_alternating(n)
    for n in (2, 4):
        assert exists_nonsingular_alternating(n)
    print("\nPASS criterion 9: parity identity exhaustive in ambient dims 2, 4 "
          "and on 10000 random no-twist triples in dims 6, 8; evenness fact "
          "exhaustive for n <= 5")


def test_criterion_10_wilson_and_balloon_signs():
    fine = dual_of_triangulation(barycentric_subdivision(simplex_boundary(2)))
    fine.meta["generic_validated"] = True
    rng = random.Random(3)
    figure = None
    for _ in range(3000):
        l = random_sparse_cycle(fine, rng, max_cells=4)
        alpha = random_sparse_cycle(fine, rng, max_cells=4)
        if l.bits == 0 or len(_loop_components(fine, l)) != 1:
            continue
        data = ds2_wilson_data(fine, l, alpha)
        if data.endpoint_count == 4 and data.link == 1:
            figure = data
            break
    assert figure is not None and figure.phase.sign() == 1

    for name, c, kind in (
        ("torus:3", builtin_manifold("torus", 3, 3), ODD_CHI),
        ("sphere:4", builtin_manifold("sphere", 4), EVEN_SEMICHAR),
    ):
        reps = sector_reps(c).reps
        f = PhaseFn(kind, c)
        rng2 = random.Random(17)
        for _ in range(100):
            balloon, alpha = sample_clean_pair(c, rng2, reps)
            assert semichar_delta_check(c, balloon, alpha).holds, name
            out, phase = apply_balloon(c, balloon, alpha)
            assert not hplus_violations(c, out), name
            from gdslab.wavefunction import reference_phase

            assert reference_phase(f, out) == phase * reference_phase(f, alpha)

    s4 = builtin_manifold("sphere", 4)
    rng3 = random.Random(7)
    count = 0
    while count < 100:
        cell = rng3.randrange(s4.n_cells(4))
        cells = list(Chain(s4, 3, s4.boundary_bits(4, cell)).cells())
        rng3.shuffle(cells)
        open_support = Chain.from_cells(s4, 3, cells[:-1])
        alpha = random_sparse_cycle(s4, rng3)
        try:
            _, p1, _ = open_balloon_apply(s4, Balloon(open_support, False), alpha)
            _, p2, _ = open_balloon_apply(
                s4, Balloon(open_support, False), alpha, conjugate=True
            )
        except TangentialOverlapError:
            continue
        assert p1 == p2
        count += 1
    print("\nPASS criterion 10: figure instance sign +1; balloon identities on "
          "100 clean trials per complex; open-balloon conjugation invariance "
          "on 100 trials")


def test_criterion_11_appendix():
    for seed in range(50):
        c = torus_voronoi(2, PointSet.random(2, 25, seed=seed))
        assert c.meta["generic_validated"], ("d2", seed)
    last3 = None
    for seed in range(10):
        last3 = torus_voronoi(3, PointSet.random(3, 14, seed=seed))
        assert last3.meta["generic_validated"], ("d3", seed)
    rng = random.Random(13)
    c2 = torus_voronoi(2, PointSet.random(2, 25, seed=0))
    for c in (c2, last3):
        n = c.n_cells(c.dim)
        for _ in range(50):
            subset = rng.sample(range(n), rng.randint(1, n - 1))
            assert subset_boundary_manifold_check(c, subset)
    q = SCALE // 4
    degenerate = PointSet(2, ((q, q), (q, 3 * q), (3 * q, q), (3 * q, 3 * q)))
    with pytest.raises(GeneralPositionError):
        torus_voronoi(2, degenerate)
    grid = square_grid_torus(2)
    assert not subset_boundary_manifold_check(grid, [0, 3])
    assert not validate_generic(grid).passed
    print("\nPASS criterion 11: genericity on 50 + 10 seeds; 100 subset "
          "boundaries are manifolds; the grid counterexample is detected")


def test_criterion_12_circuit():
    t3 = builtin_manifold("torus", 3, 3)
    s3 = builtin_manifold("sphere", 3)
    assert verify_conjugation(t3, build_gates(t3), n_states=20, seed=0)
    assert verify_conjugation(s3, build_gates(s3), n_states=50, seed=0)
    d4 = schedule(build_gates(builtin_manifold("torus", 3, 4))).depth
    d8 = schedule(build_gates(builtin_manifold("torus", 3, 8))).depth
    assert d4 == d8
    print(f"\nPASS criterion 12: conjugation exact; schedule depth {d4} at "
          "both torus resolutions 4 and 8")
