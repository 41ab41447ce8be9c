"""Reference phase functions and the ground-space dimension table."""

import pytest

from gdslab import homology
from gdslab.complexes import Chain
from gdslab.manifolds import torus_diagonal_cycles
from gdslab.phases import MINUS_ONE, ONE
from gdslab.wavefunction import (
    EVEN_SEMICHAR,
    ODD_CHI,
    PhaseFn,
    ds_tc_dimension_table,
    reference_phase,
    transported_phase,
    verify_flip_consistency,
)


def test_reference_phase_odd_dimension(torus3):
    f = PhaseFn(ODD_CHI, torus3)
    assert reference_phase(f, Chain.empty(torus3, 2)) == ONE
    bubble = Chain(torus3, 2, torus3.boundary_bits(3, 0))
    assert reference_phase(f, bubble) == MINUS_ONE  # i^chi(S2) = i^2


def test_reference_phase_even_sphere(sphere4):
    f = PhaseFn(EVEN_SEMICHAR, sphere4)
    assert reference_phase(f, Chain.empty(sphere4, 3)) == ONE
    bubble = Chain(sphere4, 3, sphere4.boundary_bits(4, 0))
    # an embedded 3-sphere has semicharacteristic b0 = 1
    assert reference_phase(f, bubble) == MINUS_ONE


def test_phase_fn_guards(rp2, torus3, torus2):
    with pytest.raises(ValueError):
        PhaseFn(ODD_CHI, rp2)
    with pytest.raises(ValueError):
        PhaseFn(EVEN_SEMICHAR, rp2)  # first Betti number nonzero
    with pytest.raises(ValueError):
        PhaseFn(EVEN_SEMICHAR, torus3)
    with pytest.raises(ValueError):
        PhaseFn(EVEN_SEMICHAR, torus2)
    with pytest.raises(ValueError):
        PhaseFn("bogus", torus3)


def test_reference_phase_rejects_noncycle(torus3):
    f = PhaseFn(ODD_CHI, torus3)
    with pytest.raises(ValueError):
        reference_phase(f, Chain.from_cells(torus3, 2, [0]))


def test_flip_consistency_odd(torus3, sphere3):
    for c in (torus3, sphere3):
        res = verify_flip_consistency(PhaseFn(ODD_CHI, c), 1000, seed=17)
        assert res.ok, res


def test_flip_consistency_even_sphere(sphere4, sphere2):
    for c in (sphere4, sphere2):
        res = verify_flip_consistency(PhaseFn(EVEN_SEMICHAR, c), 1000, seed=23)
        assert res.ok, res


def test_transported_phase_between_windings(torus2):
    e11, e1m1 = torus_diagonal_cycles(torus2)
    assert transported_phase(torus2, e11, e1m1) == -1
    assert transported_phase(torus2, e1m1, e11) == -1
    assert transported_phase(torus2, e11, e11) == 1


def test_transported_phase_guards(torus2):
    e11, _ = torus_diagonal_cycles(torus2)
    with pytest.raises(ValueError):
        transported_phase(torus2, e11, Chain.empty(torus2, 1))  # not homologous
    with pytest.raises(ValueError):
        transported_phase(torus2, Chain.from_cells(torus2, 1, [0]), e11)


def test_transported_phase_needs_no_boundary_space(monkeypatch, torus2):
    # bounding_cells alone decides whether the endpoints are homologous
    def never(c, p):
        raise AssertionError("boundary_space ran")

    monkeypatch.setattr(homology, "boundary_space", never)
    e11, e1m1 = torus_diagonal_cycles(torus2)
    assert transported_phase(torus2, e11, e1m1) == -1
    assert transported_phase(torus2, e1m1, e11) == -1
    assert transported_phase(torus2, e11, e11) == 1
    with pytest.raises(ValueError, match="^cycles are not homologous$"):
        transported_phase(torus2, e11, Chain.empty(torus2, 1))


def test_dimension_table():
    rows = ds_tc_dimension_table(4)
    assert [(r.t, r.dim_ds, r.dim_tc) for r in rows] == [
        (1, 1, 2),
        (2, 2, 4),
        (3, 4, 8),
        (4, 8, 16),
    ]
    assert all(r.ratio == "1/2" for r in rows)
    with pytest.raises(ValueError):
        ds_tc_dimension_table(7)


def test_odd_d_phases_cohere_within_sectors(torus3):
    # within one homology sector every cycle's phase is the same power of i
    # times a sign, so a single global rotation makes the sector real
    import random

    from gdslab.f2 import reduce_by_rref
    from gdslab.model import random_cycle, sector_reps

    f = PhaseFn(ODD_CHI, torus3)
    sectors = sector_reps(torus3)
    bounds = homology.boundary_space(torus3, 2)
    parity = {}
    rng = random.Random(9)
    for _ in range(60):
        z = random_cycle(torus3, rng)
        idx = [r.bits for r in sectors.reps].index(reduce_by_rref(z.bits, bounds))
        exp = reference_phase(f, z).exp
        assert parity.setdefault(idx, exp % 2) == exp % 2


def test_klein_survivors_are_orientation_preserving(klein):
    from gdslab.homology import two_sidedness_d2
    from gdslab.model import GDS, ground_degeneracy

    _, reports = ground_degeneracy(klein, GDS)
    for r in reports:
        w1 = two_sidedness_d2(klein, r.rep).w1_eval
        assert r.survives == (w1 == 0)
