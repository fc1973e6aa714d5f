"""Lower-bound eigenvalue laboratory for 2D linear elasticity.

Weak Galerkin and Crouzeix-Raviart discretizations of the elastic
eigenvalue problem on triangulated square and L-shaped domains, with the
vanishing stabilization weight that makes the discrete eigenvalues
asymptotic lower bounds of the exact ones.
"""

from .mesh import (
    Mesh,
    bottom_dirichlet,
    build_lshape_mesh,
    build_square_mesh,
    classify_boundary,
    dump_mesh,
    full_dirichlet,
    refine_uniform,
)
from .wg import (
    AssembledSystem,
    EigenResult,
    ElasticParams,
    StabilizationConfig,
    WgFunction,
    WgSpace,
    assemble_forms,
    solve_eigen,
    solve_source,
)
from .cr import CrFunction, CrSpace, assemble_cr, interpolate
from .lab import ExperimentConfig, RateTable, locking_sweep, run_experiment

__all__ = [
    "Mesh",
    "bottom_dirichlet",
    "build_lshape_mesh",
    "build_square_mesh",
    "classify_boundary",
    "dump_mesh",
    "full_dirichlet",
    "refine_uniform",
    "AssembledSystem",
    "EigenResult",
    "ElasticParams",
    "StabilizationConfig",
    "WgFunction",
    "WgSpace",
    "assemble_forms",
    "solve_eigen",
    "solve_source",
    "CrFunction",
    "CrSpace",
    "assemble_cr",
    "interpolate",
    "ExperimentConfig",
    "RateTable",
    "locking_sweep",
    "run_experiment",
]

__version__ = "0.1.0"
