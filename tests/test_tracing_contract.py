"""The benchmark tracer names gdslab functions; a rename must fail here."""

import importlib.util
from pathlib import Path

from gdslab import cli, homology

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists():
    tracing = _load_tracing()
    found = tracing.targets()  # raises LookupError naming any missing one
    assert tracing.HOT <= set(found)
    assert {"f2.reduce_by_rref", "f2.in_span"} <= set(found)


def test_lazy_voronoi_import_reaches_the_traced_functions():
    # `cli` imports `voronoi` inside `build_manifold`, so it must pick up the
    # wrapped bindings; `installed` raises if any binding escaped the wrapping.
    tracing = _load_tracing()
    tr = tracing.Tracer()
    with tracing.installed(tr):
        cli.build_manifold("torus-voronoi:2", 25, 7)
    names = {s.name for s in tr.spans}
    assert {"voronoi.torus_voronoi", "voronoi.Delaunay"} <= names


def test_spec_table_builders_reach_the_traced_functions():
    # The rows of `manifolds.SPECS` call their builders by module-global
    # name; a row holding the function object itself would bypass the wrapper
    # and leave these spans and the cell counter empty.
    tracing = _load_tracing()
    tr = tracing.Tracer()
    with tracing.installed(tr):
        built = [cli.build_manifold(spec, None, None) for spec in ("square-grid:3", "torus:2:3")]
    names = {s.name for s in tr.spans}
    assert {"manifolds.square_grid_torus", "complexes.dual_of_triangulation",
            "manifolds.freudenthal_torus"} <= names
    assert tr.counters["complexes.cells_built"] == sum(sum(c.cell_counts) for c in built)


def test_cycle_basis_hook_binds_its_parameters_by_name():
    # the hook reads the complex and the dimension as `c` and `p`; a repeat
    # call on the same complex counts once
    tracing = _load_tracing()
    tr = tracing.Tracer()
    c = cli.build_manifold("torus:2:3", None, None)
    with tracing.installed(tr):
        first = homology.cycle_space_basis(c, 1)
        assert homology.cycle_space_basis(c, p=1) is first
    assert tr.counters["homology.cycle_basis_repeats"] == 1
