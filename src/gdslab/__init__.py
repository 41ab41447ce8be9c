"""Generalized toric-code and double-semion models on generic cellulations,
with exact desk-scale verification of their ground-space structure."""

# Every package-level name and the module that defines it. Importing gdslab
# loads none of these modules: a name resolves on first access (PEP 562), so
# a command pays only for the layers it runs, and only the `voronoi` names
# load scipy.
_MODULE_OF = {
    "CellComplex": "complexes",
    "Chain": "complexes",
    "Triangulation": "complexes",
    "closed_subcomplex": "complexes",
    "dual_of_triangulation": "complexes",
    "subset_boundary_manifold_check": "complexes",
    "validate_generic": "complexes",
    "betti": "homology",
    "homology_sector_reps": "homology",
    "semicharacteristic": "homology",
    "two_sidedness_d2": "homology",
    "builtin_manifold": "manifolds",
    "square_grid_torus": "manifolds",
    "GDS": "model",
    "GTC": "model",
    "flip": "model",
    "ground_degeneracy": "model",
    "sweep_sign": "model",
    "Phase": "phases",
    "GeneralPositionError": "voronoi",
    "PointSet": "voronoi",
    "torus_voronoi": "voronoi",
}


def __getattr__(name):
    # Not cached in these globals: every access returns what the defining
    # module binds at that moment, also while perfbench/tracing.py wraps it.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


__all__ = list(_MODULE_OF)

__version__ = "0.1.0"
