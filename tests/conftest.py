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


# -- dense reference eliminator ---------------------------------------------
# The column-by-column dense elimination the sparse core replaced. It is
# O(rows x cols) but obviously right, so the sparse methods must match it bit
# for bit.


def reference_rref(m: F2Matrix):
    work = list(m.data)
    pivots = []
    r = 0
    for c in range(m.cols):
        sel = None
        for i in range(r, len(work)):
            if (work[i] >> c) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and ((work[i] >> c) & 1):
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return F2Matrix(m.rows, m.cols, work), pivots


def reference_nullspace(m: F2Matrix):
    red, pivots = reference_rref(m)
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = 1 << f
        for i, p in enumerate(pivots):
            if (red.data[i] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def reference_betti(c):
    """The RREF Betti numbers that the union-find and forward-pass routine
    replaced: rank boundary_k is the pivot count of the full RREF of the
    dense incidence rows."""
    ranks = [0] + [len(dense_incidence(c, k).rref()[1]) for k in range(1, c.dim + 1)] + [0]
    return tuple(c.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(c.dim + 1))


def reference_closure(c, cells):
    """Oracle for `CellComplex.closure`: the recursive per-cell closure that
    the one downward pass replaced, memoized per cell."""
    memo = {}

    def of_cell(k, i):
        key = (k, i)
        if key not in memo:
            out = {key}
            for f in set(c.faces(k, i)) if k > 0 else ():
                out |= of_cell(k - 1, f)
            memo[key] = frozenset(out)
        return memo[key]

    out = set()
    for k, i in cells:
        out |= of_cell(k, i)
    return frozenset(out)


# built-in specs small enough for the dense oracles (Voronoi: 60 points, seed 1)
SHIPPED_COMPLEXES = [
    "sphere:1", "sphere:2", "sphere:3", "sphere:4", "torus:2:3", "torus:3:3",
    "tP:1", "tP:2", "tP:3", "tP:4", "tP:5", "tP:6", "genus:2", "klein",
    "torus-voronoi:2",
]

# the shipped complexes plus two larger tori, for the oracles of the flat
# passes over face tuples (build with build_manifold(spec, 60, 1))
ORACLE_SPECS = SHIPPED_COMPLEXES + ["torus:3:5", "torus:4:3"]


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
