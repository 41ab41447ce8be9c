import pytest

from gdslab.f2 import F2Matrix
from gdslab.manifolds import builtin_manifold
from gdslab.voronoi import PointSet, torus_voronoi


def dense_incidence(c, k):
    """Oracle for the boundary map: one row per k-cell, bit j set iff
    (k-1)-cell j appears an odd number of times among its faces."""
    rows = []
    for fl in c._faces[k] if 0 <= k <= c.dim else []:
        bits = 0
        for f in set(fl):
            if fl.count(f) & 1:
                bits |= 1 << f
        rows.append(bits)
    return F2Matrix(c.n_cells(k), c.n_cells(k - 1) if k >= 1 else 0, rows)


@pytest.fixture(scope="session")
def sphere2():
    return builtin_manifold("sphere", 2)


@pytest.fixture(scope="session")
def sphere3():
    return builtin_manifold("sphere", 3)


@pytest.fixture(scope="session")
def sphere4():
    return builtin_manifold("sphere", 4)


@pytest.fixture(scope="session")
def rp2():
    return builtin_manifold("tP", 1)


@pytest.fixture(scope="session")
def torus2():
    return builtin_manifold("torus", 2, 3)


@pytest.fixture(scope="session")
def torus3():
    return builtin_manifold("torus", 3, 3)


@pytest.fixture(scope="session")
def klein():
    return builtin_manifold("klein")


@pytest.fixture(scope="session")
def voronoi2():
    return torus_voronoi(2, PointSet.random(2, 25, seed=7))


@pytest.fixture(scope="session")
def voronoi3():
    return torus_voronoi(3, PointSet.random(3, 14, seed=0))


@pytest.fixture(scope="session")
def small_voronoi2():
    return torus_voronoi(2, PointSet.random(2, 5, seed=11))
