"""Flux-corrected P1 finite elements for steady convection-diffusion-reaction
problems on triangulations of the unit square."""

from .assembly import assemble, galerkin_residual
from .benchmarks import (PROBLEMS, ErrorRecord, ProblemSpec, convergence_study,
                         eoc, error_norms)
from .mesh import (BOTTOM, LEFT, RIGHT, TOP, Mesh, build_level0,
                   classify_and_order, prolong, refine)
from .solver import AuditCheck, SolveOptions, SolveReport, audit_dmp, solve

__all__ = [
    "PROBLEMS", "ProblemSpec", "ErrorRecord", "convergence_study", "eoc",
    "error_norms",
    "BOTTOM", "RIGHT", "TOP", "LEFT", "Mesh", "build_level0", "refine",
    "classify_and_order", "prolong",
    "assemble", "galerkin_residual",
    "SolveOptions", "SolveReport", "solve", "AuditCheck", "audit_dmp",
]
