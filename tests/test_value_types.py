"""The small value types: validation on construction, what equality and
hashing read, truthiness of the reports and immutability."""

import copy
import pickle

import pytest

from gdslab.circuit import ConjugationReport
from gdslab.cli import build_manifold
from gdslab.complexes import Chain, GenericityReport, validate_generic
from gdslab.f2 import Subspace
from gdslab.homology import BettiVector, betti
from gdslab.model import GDS, GTC, SignedFlip
from gdslab.operators import Balloon
from gdslab.phases import I, MINUS_ONE, ONE, Phase
from gdslab.voronoi import PointSet
from gdslab.wavefunction import EVEN_SEMICHAR, ODD_CHI, PhaseFn


@pytest.fixture(scope="module")
def sphere2():
    return build_manifold("sphere:2", None, None)


def test_chain_with_bits_beyond_the_cell_count_raises(sphere2):
    n = sphere2.n_cells(1)
    Chain(sphere2, 1, (1 << n) - 1)
    with pytest.raises(ValueError, match="bits beyond the cell count"):
        Chain(sphere2, 1, 1 << n)


def test_chain_equality_and_hash_ignore_the_complex(sphere2):
    other = build_manifold("sphere:2", None, None)
    assert other is not sphere2
    a, b = Chain(sphere2, 1, 0b101), Chain(other, 1, 0b101)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != Chain(sphere2, 1, 0b100) and a != Chain(sphere2, 0, 0b101)
    assert a != (sphere2, 1, 0b101)
    assert len({a, b, Chain(sphere2, 1, 0b100)}) == 2


def test_phase_exponent_is_reduced_mod_4():
    assert Phase(5) == I and hash(Phase(5)) == hash(I)
    assert Phase(-2) == MINUS_ONE and Phase(8) == ONE
    assert repr(Phase(7)) == "Phase(exp=3)" and str(Phase(7)) == "-i"
    assert I * I == MINUS_ONE and I ** 4 == ONE and I.conj() == Phase(3)


def test_signed_flip_with_an_inconsistent_phase_raises():
    assert SignedFlip(0, 2, -1, GDS).phase == -1
    assert SignedFlip(0, 3, 1, GDS).phase == 1
    assert SignedFlip(0, 2, 1, GTC).phase == 1
    for chi_up, phase, model in ((2, 1, GDS), (3, -1, GDS), (2, -1, GTC)):
        with pytest.raises(ValueError, match="inconsistent with chi_up"):
            SignedFlip(0, chi_up, phase, model)


def test_reports_are_falsy_on_failure(sphere2):
    assert not GenericityReport(False, ["a violation"])
    assert GenericityReport(True, [])
    assert validate_generic(sphere2)
    assert not validate_generic(build_manifold("square-grid:2", None, None))
    assert not ConjugationReport(False, 1, 0b11, 4)
    assert ConjugationReport(True) == ConjugationReport(True, 0, 0, 0)
    assert ConjugationReport(True)


def test_betti_vector_reads_zero_past_the_top_dimension(sphere2):
    b = betti(sphere2)
    assert b == BettiVector((1, 0, 1))
    assert list(b) == [1, 0, 1] and len(b) == 3
    assert b[2] == 1 and b[3] == 0 and b[-1] == 0
    assert b.chi == 2
    assert copy.copy(b) == b and pickle.loads(pickle.dumps(b)) == b


def test_subspace_validates_and_compares_its_basis():
    s = Subspace(3, (0b011, 0b100))
    t = Subspace.from_vectors(3, [0b111, 0b011])
    assert s == t and hash(s) == hash(t) and repr(s) == repr(t)
    assert repr(s) == "Subspace(ambient_dim=3, basis=(3, 4))"
    assert s.contains(0b111) and not s.contains(0b001)
    with pytest.raises(ValueError, match="not in RREF"):
        Subspace(3, (0b011, 0b010))


def test_validating_types_raise_on_bad_fields(sphere2):
    with pytest.raises(ValueError, match="must be a cycle"):
        Balloon(Chain(sphere2, 1, 0b1))
    with pytest.raises(ValueError, match="must have boundary"):
        Balloon(Chain.empty(sphere2, 1), closed=False)
    with pytest.raises(ValueError, match="odd ambient dimension"):
        PhaseFn(ODD_CHI, sphere2)
    assert PhaseFn(EVEN_SEMICHAR, sphere2).kind == EVEN_SEMICHAR
    with pytest.raises(ValueError, match="duplicate point"):
        PointSet(2, ((0, 0), (0, 0)))
    assert PointSet(2, ((0, 0),)).seed is None


def test_frozen_types_are_immutable(sphere2):
    for value, field in ((Phase(1), "exp"), (Chain.empty(sphere2, 1), "bits"),
                         (SignedFlip(0, 2, -1, GDS), "phase"),
                         (Subspace(2, (1,)), "basis"), (betti(sphere2), "b")):
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
