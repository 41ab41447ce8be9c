"""The benchmark tracer names gdslab functions; a rename must fail here."""

import importlib.util
from pathlib import Path

from gdslab import cli

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
