"""Built-in manifold library: counts, characteristics, validation."""

import hashlib

import pytest

from gdslab.complexes import validate_generic
from gdslab.homology import betti
from gdslab.manifolds import (
    SPECS,
    barycentric_subdivision,
    builtin_manifold,
    freudenthal_torus,
    genus_surface,
    klein_bottle,
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
    with pytest.raises(ValueError, match="^letter 1 appears 1 times$"):
        surface_from_word([(0, 1), (0, 1), (1, 1)])  # letter count mismatch
    with pytest.raises(ValueError, match="^need at least two sides$"):
        surface_from_word([(0, 1)])


# sha256 of repr(t.simplices) for every polygon surface in use, recorded from
# the two-ring builder that the one-pass builder replaced
POLYGON_SURFACE_SHA256 = [
    ("tP:2", "a70ee15ad06b6cf6f41ad3cf561cc69e7b8727accd84b1cd1f6b97f1a07fd7b1"),
    ("tP:3", "457985a11d91be2392a3c1b50acad083304242ef35147d9aab0ca287b4c1c76a"),
    ("tP:4", "bd18beeae9f98e9e99c300e65fc00d8b7051b1a59a6e86f3cb55697c044806eb"),
    ("tP:5", "4757ba53e0b7096f101cd97952211e31d0edb5c1220de9ffe99f193b85667d9b"),
    ("tP:6", "c7b137055ec9fe9d90f919e045e4fcc6e1b04f61f64eb8dfbbd4ced96402810d"),
    ("tP:7", "7c75ca5ce2f48c20117319546c24d92c84c297ef83c6c08a62f081120710d70e"),
    ("tP:8", "fe5a5493b6f840c105d86b5a23d41f3999e04c2c70e30287dcde3a3f810d1e1a"),
    ("tP:9", "9684d9c326cee09ab93508b32c7cdbff41e209dc46404e7063dd3fe5dd000637"),
    ("tP:10", "4d6392e0eff04aa84e6ff7292857e4e140122f8dcbadda59f366930a7b9e1fca"),
    ("tP:11", "42189814d617017d429e6b78e631538b1788d4dbc2525a615f2fdbd944b2dbd8"),
    ("tP:12", "5f6b91e5ea7dd0142b498cd66fe0c81f1404040486dfee40d53e0c2e467d8f77"),
    ("genus:1", "e0e50cb433adc095a95f4565bf12b2d7f0bb9c3cc7c4749080aeb23f30876b66"),
    ("genus:2", "6443477a400c1032f18400873a85c03173a9c4c33bf4239333fde48594837313"),
    ("genus:3", "55583630929e224f356658cd73843ea305ecf234cbaae693921f3406b72c9dd5"),
    ("genus:4", "b138dce63c03dfe74f0333bcec49a6e3c3111bf02063a8aa5b5ac74ec051039f"),
    ("genus:5", "016310d341c55cf926a716c9fd51e826a6161214c51de7bc96456dc988bf2a58"),
    ("klein", "5762ec5ad4b74696b75cb470c6063e622e5b5bf0efd345176229764a35aff036"),
]


@pytest.mark.parametrize("spec,digest", POLYGON_SURFACE_SHA256)
def test_polygon_surfaces_are_unchanged(spec, digest):
    name, *param = spec.split(":")
    build = {"tP": nonorientable_surface, "genus": genus_surface, "klein": klein_bottle}[name]
    t = build(*map(int, param))
    assert hashlib.sha256(repr(t.simplices).encode()).hexdigest() == digest


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
    from gdslab.f2 import in_span
    from conftest import boundary_space

    e11, e1m1 = torus_diagonal_cycles(torus2)
    assert e11.is_cycle() and e1m1.is_cycle()
    assert e11.count() == 2 * 3 and e1m1.count() == 4 * 3
    assert in_span((e11 ^ e1m1).bits, boundary_space(torus2, 1))
    assert not in_span(e11.bits, boundary_space(torus2, 1))


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
