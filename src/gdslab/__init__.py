"""Generalized toric-code and double-semion models on generic cellulations,
with exact desk-scale verification of their ground-space structure."""

from .complexes import (
    CellComplex,
    Chain,
    Triangulation,
    closed_subcomplex,
    dual_of_triangulation,
    subset_boundary_manifold_check,
    validate_generic,
)
from .homology import betti, homology_sector_reps, semicharacteristic, two_sidedness_d2
from .manifolds import builtin_manifold, square_grid_torus
from .model import GDS, GTC, flip, ground_degeneracy, sweep_sign
from .phases import Phase
from .voronoi import GeneralPositionError, PointSet, torus_voronoi

__all__ = [
    "CellComplex",
    "Chain",
    "Triangulation",
    "Phase",
    "PointSet",
    "GeneralPositionError",
    "GDS",
    "GTC",
    "betti",
    "builtin_manifold",
    "closed_subcomplex",
    "dual_of_triangulation",
    "flip",
    "ground_degeneracy",
    "homology_sector_reps",
    "semicharacteristic",
    "square_grid_torus",
    "subset_boundary_manifold_check",
    "sweep_sign",
    "torus_voronoi",
    "two_sidedness_d2",
    "validate_generic",
]

__version__ = "0.1.0"
