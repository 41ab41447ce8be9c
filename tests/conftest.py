import pytest

from gdslab.complexes import Chain
from gdslab.f2 import F2Matrix, Subspace
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


def boundary_space(c, p):
    """Oracle for the boundaries inside the p-chains: the RREF of the rows of
    boundary_{p+1}, as a Subspace; the top-cell forest of `homology`
    replaced it."""
    rows = [c.boundary_bits(p + 1, i) for i in range(c.n_cells(p + 1))]
    return Subspace(c.n_cells(p), tuple(F2Matrix(len(rows), c.n_cells(p), rows).row_space_basis()))


def reference_bounding_cells(c, chain):
    """Oracle for `homology.bounding_cells`: the filler that the RREF of the
    coboundary rows, augmented by the chain's bits, picks with every free
    column 0."""
    k, n = chain.dim, c.n_cells(chain.dim + 1)
    aug = [c.coboundary_bits(k, r) | ((chain.bits >> r) & 1) << n for r in range(c.n_cells(k))]
    red, pivots = F2Matrix(len(aug), n + 1, aug).rref()
    x = 0
    for r, p in enumerate(pivots):
        if p == n:
            raise ValueError("chain is not a boundary")
        if (red.data[r] >> n) & 1:
            x |= 1 << p
    return Chain(c, k + 1, x)


def masked_kernel_generators(c, p):
    """Oracle for the class generators of the ridge propagation: the masked
    kernel it replaced. It is the kernel of the coboundary rows with the
    boundary pivot columns masked out, less the unit vectors of the masked
    columns, one vector per free column in increasing order."""
    mask = boundary_space(c, p)._pivot_mask
    rows = [c.coboundary_bits(p - 1, j) & ~mask for j in range(c.n_cells(p - 1))]
    kernel = F2Matrix(len(rows), c.n_cells(p), rows).nullspace()
    return tuple(v for v in kernel if not v & mask)


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


def reference_sector_reports(c, model):
    """Oracle for `model.sector_reports`: the reports that built every class
    representative as a Chain, sorted by weight then bits, and swept them as
    explicit chains through the transposing `sweep_signs`; a disconnected
    complex's are listed per component."""
    from gdslab import homology
    from gdslab import model as model_mod
    from gdslab.f2 import _span

    if not c.is_connected():
        return [r for piece in model_mod._components(c)
                for r in reference_sector_reports(piece, model)]
    p = c.dim - 1
    sweep = homology._propagate(c, p)
    rep_bits = _span(homology._expand(sweep, homology._solutions(sweep)))
    reps = [Chain(c, p, bits) for bits in sorted(rep_bits, key=lambda b: (b.bit_count(), b))]
    signs = [1] * len(reps) if model == model_mod.GTC else model_mod.sweep_signs(c, reps)
    chi = c.euler_characteristic()
    reports = []
    for idx, (rep, sign) in enumerate(zip(reps, signs)):
        survives = sign == 1
        eps = None
        if c.dim % 2 == 0:
            eps = (chi % 2) if survives else (chi + 1) % 2
        reports.append(model_mod.SectorReport(idx, rep, sign, survives, eps))
    return reports


# -- the table sweep ------------------------------------------------------------
# The bit-sliced sweep as it read the per-top-cell chi_up tables in their
# first form: for every closure cell sigma, the OR of the columns of the face
# positions in mask_sigma, one set bit at a time. The sweep from the columns'
# downward OR pass replaced it, and must match it on every input.


def mask_table(c, cell):
    """The chi_up table of one top cell in its first form, built from the
    recursive closure oracle: its face tuple and, per dimension, the mask of
    the face positions whose closure holds each cell of the closure."""
    faces = c.faces(c.dim, cell)
    masks = {}
    for pos, f in enumerate(faces):
        for key in reference_closure(c, [(c.dim - 1, f)]):
            masks[key] = masks.get(key, 0) | (1 << pos)
    by_dim = [[] for _ in range(c.dim)]
    for (k, _), m in masks.items():
        by_dim[k].append(m)
    return faces, by_dim


def widened_table(real):
    """`mask_table` whose table of top cell 0 also lists the faces of top
    cell 1, so that the table sweep flips both boundaries there."""

    def widened(c, cell):
        faces, masks = real(c, cell)
        return (faces + c.faces(c.dim, 1) if cell == 0 else faces), masks

    return widened


def reference_sweep(c, cols, n, order=None):
    """Oracle for `model._sweep`, with its checks and messages; leaves
    `cols` as it found them. Reads `mask_table` by name, once per top
    cell."""
    d = c.dim
    ridge_sums = [0] * c.n_cells(d - 2)
    for f, col in enumerate(cols):
        if col:
            for r in c.faces(d - 1, f):
                ridge_sums[r] ^= col
    if any(ridge_sums):
        raise ValueError("sweep must start from a cycle")
    n_top = c.n_cells(d)
    cells = list(order) if order is not None else list(range(n_top))
    if sorted(cells) != list(range(n_top)):
        raise ValueError("order must visit every top cell exactly once")
    start = list(cols)
    full = (1 << n) - 1
    negative = 0
    for cell in cells:
        faces, masks = mask_table(c, cell)
        face_cols = [cols[f] for f in faces]
        parity = 0
        for ms in masks:
            for m in ms:
                up = 0
                while m:
                    low = m & -m
                    up |= face_cols[low.bit_length() - 1]
                    m ^= low
                parity ^= up
        negative ^= parity ^ full
        for f in faces:
            cols[f] ^= full
    if cols != start:
        raise AssertionError("sweep did not return to its starting cycle")
    return negative


# -- faults at the sweep's read point (`model._flip_columns`) -------------------


def forgetful_flip(real):
    """`_flip_columns` with a chi_up that forgets one vertex of top cell 1:
    the first vertex of its closure, in the order of the table's masks."""
    from gdslab.complexes import _closure_masks

    def forgetful(c, cell, cols, full):
        forgotten = 0
        if cell == 1:
            seeds = {(c.dim - 1, f): cols[f] for f in c.faces(c.dim, cell)}
            forgotten = next(iter(_closure_masks(c, seeds)[0].values()))
        return real(c, cell, cols, full) ^ forgotten

    return forgetful


def widened_flip(real):
    """`_flip_columns` whose flip of top cell 0 also flips the boundary of
    top cell 1: the sectors are unchanged, but no sweep comes back."""

    def widened(c, cell, cols, full):
        parity = real(c, cell, cols, full)
        if cell == 0:
            for f in c.faces(c.dim, 1):
                cols[f] ^= full
        return parity

    return widened
