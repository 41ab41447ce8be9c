"""Built-in manifold library: counts, characteristics, validation."""

import pytest

from gdslab.complexes import validate_generic
from gdslab.homology import betti
from gdslab.manifolds import (
    SPECS,
    barycentric_subdivision,
    builtin_manifold,
    freudenthal_torus,
    nonorientable_surface,
    projective_plane,
    simplex_boundary,
    surface_from_word,
    torus_diagonal_cycles,
)


def test_minimal_projective_plane_is_valid():
    t = projective_plane()
    assert not t.validate()
    assert t.euler_characteristic() == 1
    faces = t.faces_by_dim()
    assert (len(faces[0]), len(faces[1]), len(faces[2])) == (6, 15, 10)


def test_sphere_builtin_is_simplex_dual(sphere2):
    assert sphere2.cell_counts == (4, 6, 4)
    assert betti(sphere2).b == (1, 0, 1)


@pytest.mark.parametrize("t,chi", [(1, 1), (2, 0), (3, -1), (4, -2)])
def test_tp_euler_characteristics(t, chi):
    c = builtin_manifold("tP", t)
    assert c.euler_characteristic() == chi
    assert betti(c)[1] == t


def test_genus_two_surface():
    c = builtin_manifold("genus", 2)
    assert c.euler_characteristic() == -2
    assert betti(c).b == (1, 4, 1)


def test_klein_is_tp2(klein):
    assert klein.euler_characteristic() == 0
    assert betti(klein).b == (1, 2, 1)


def test_all_builtins_validate():
    names = [
        ("sphere", 2), ("sphere", 3), ("sphere", 4),
        ("torus", 2, 3), ("torus", 3, 3),
        ("tP", 1), ("tP", 3), ("genus", 2), ("klein",),
    ]
    for name, *params in names:
        c = builtin_manifold(name, *params)
        assert validate_generic(c).passed, name


def test_freudenthal_counts():
    t = freudenthal_torus(3, 3)
    faces = t.faces_by_dim()
    n = 27
    assert len(faces[0]) == n
    assert len(faces[1]) == 7 * n
    assert len(faces[2]) == 12 * n
    assert len(faces[3]) == 6 * n
    assert t.euler_characteristic() == 0


def test_freudenthal_resolution_guard():
    with pytest.raises(ValueError):
        freudenthal_torus(2, 2)


def test_surface_word_guards():
    with pytest.raises(ValueError):
        surface_from_word([(0, 1), (0, 1), (1, 1)])  # letter count mismatch


def test_nonorientable_surface_polygon_route():
    t = nonorientable_surface(2)
    assert not t.validate()
    assert t.euler_characteristic() == 0


def test_torus_resolution_variants():
    c4 = builtin_manifold("torus", 2, 4)
    assert c4.euler_characteristic() == 0
    assert betti(c4).b == (1, 2, 1)


def test_unknown_name():
    with pytest.raises(ValueError):
        builtin_manifold("mobius")


def test_barycentric_subdivision_counts():
    t = barycentric_subdivision(simplex_boundary(2))
    faces = t.faces_by_dim()
    assert len(faces[0]) == 4 + 6 + 4
    assert len(faces[2]) == 4 * 6
    assert t.euler_characteristic() == 2
    assert not t.validate()


def test_diagonal_cycles_are_homologous_cycles(torus2):
    from gdslab.homology import is_boundary, is_homologous

    e11, e1m1 = torus_diagonal_cycles(torus2)
    assert e11.is_cycle() and e1m1.is_cycle()
    assert e11.count() == 2 * 3 and e1m1.count() == 4 * 3
    assert is_homologous(torus2, e11, e1m1)
    assert not is_boundary(torus2, e11)


@pytest.mark.parametrize("name,params", [
    ("sphere", (1,)), ("sphere", (2,)), ("sphere", (3,)), ("sphere", (4,)),
    ("tP", (1,)), ("tP", (2,)), ("tP", (3,)), ("tP", (7,)),
    ("genus", (1,)), ("genus", (2,)), ("genus", (3,)), ("klein", ()),
    ("square-grid", ()), ("square-grid", (2,)), ("square-grid", (5,)),
])
def test_spec_cell_count_is_exact(name, params):
    c = builtin_manifold(name, *params)
    assert round(10 ** SPECS[name].cells(*SPECS[name].complete(params))) == sum(c.cell_counts)


@pytest.mark.parametrize("params", [(2, 3), (3, 3), (3, 4), (4, 3)])
def test_torus_spec_counts_its_top_cells(params):
    c = builtin_manifold("torus", *params)
    assert round(10 ** SPECS["torus"].cells(*params)) == c.n_cells(0)


def test_spec_defaults_are_filled_in():
    assert builtin_manifold("torus", 2).meta["torus_grid"] == (2, 3)
    assert builtin_manifold("torus", 2).meta["name"] == "torus:2:3"
    assert builtin_manifold("square-grid").cell_counts == (4, 8, 4)
    with pytest.raises(ValueError, match="torus:d\\[:n\\] needs"):
        builtin_manifold("torus", 3, 3, 3)
