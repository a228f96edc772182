"""Convolution-quadrature / local-DG solver for a fractional kinetic equation.

The model is a phase-space (position x, velocity v) diffusion problem on the
unit square whose time derivative is fractional of order alpha in (0, 1);
time stepping uses backward-Euler convolution quadrature and space is
discretized with a local discontinuous Galerkin method on tensor meshes.
"""

from .cq import CQWeights, cq_weights
from .errors import ConfigError, PreconditionError, SolverFailure
from .ldg import (
    DGField,
    LDGSystem,
    Trajectory,
    assemble_spatial,
    assemble_system,
    build_system,
    field_to_csv,
    project_initial,
    run,
)
from .mesh import (
    Basis,
    Mesh2D,
    build_mesh,
    gauss_rule,
    modal_evaluate,
    modal_project,
)
from .problems import (
    PROBLEM_IDS,
    ProblemSpec,
    get_problem,
    load_vector,
    require_mesh_aligned,
)
from .projections import Projection1D, lemma_identity_residuals
from .study import (
    ConvergenceTable,
    RegularityFit,
    l2_error,
    nodal_reconstruction_error,
    nodal_values,
    rates_from_errors,
    regularity_diagnostic,
    spatial_study,
    stability_probe,
    temporal_study,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CQWeights",
    "ConfigError",
    "ConvergenceTable",
    "DGField",
    "LDGSystem",
    "Mesh2D",
    "PreconditionError",
    "PROBLEM_IDS",
    "ProblemSpec",
    "Projection1D",
    "RegularityFit",
    "SolverFailure",
    "Trajectory",
    "assemble_spatial",
    "assemble_system",
    "build_mesh",
    "build_system",
    "cq_weights",
    "field_to_csv",
    "gauss_rule",
    "get_problem",
    "l2_error",
    "lemma_identity_residuals",
    "load_vector",
    "modal_evaluate",
    "modal_project",
    "nodal_reconstruction_error",
    "nodal_values",
    "project_initial",
    "rates_from_errors",
    "regularity_diagnostic",
    "run",
    "spatial_study",
    "stability_probe",
    "temporal_study",
]
