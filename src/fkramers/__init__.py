"""Convolution-quadrature / local-DG solver for a fractional kinetic equation.

The model is a phase-space (position x, velocity v) diffusion problem on the
unit square whose time derivative is fractional of order alpha in (0, 1);
time stepping uses backward-Euler convolution quadrature and space is
discretized with a local discontinuous Galerkin method on tensor meshes.
"""

from .cq import CQWeights, cq_weights
from .errors import ConfigError, PreconditionError, SolverFailure
from .ldg import DGField, Trajectory, assemble_spatial, run
from .mesh import Basis, Mesh2D, build_mesh, modal_evaluate
from .problems import PROBLEM_IDS, ProblemSpec, get_problem
from .projections import lemma_identity_residuals
from .study import (
    ConvergenceTable,
    RegularityFit,
    l2_error,
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
    "Mesh2D",
    "PreconditionError",
    "PROBLEM_IDS",
    "ProblemSpec",
    "RegularityFit",
    "SolverFailure",
    "Trajectory",
    "assemble_spatial",
    "build_mesh",
    "cq_weights",
    "get_problem",
    "l2_error",
    "lemma_identity_residuals",
    "modal_evaluate",
    "regularity_diagnostic",
    "run",
    "spatial_study",
    "stability_probe",
    "temporal_study",
]
