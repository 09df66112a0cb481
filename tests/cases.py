"""Builders of the meshes, problems and iterates that the tests run on.

Reference implementations live in ``oracles``; this module only sets up
cases.
"""

import numpy as np

from cdrfem import (ProblemSpec, assemble, build_level0, classify_and_order,
                    refine)
from cdrfem.benchmarks import _constant, _uniform_flow
from cdrfem.limiter import LimiterContext


def refined(grid_id, level):
    """The level-0 mesh of grid ``grid_id`` refined ``level`` times."""
    mesh = build_level0(grid_id)
    for _ in range(level):
        mesh = refine(mesh)
    return mesh


def classified(problem, grid_id, level):
    """``refined`` with the nodes of ``problem`` classified and ordered."""
    return classify_and_order(refined(grid_id, level), problem)


def limiter_case(problem, grid_id, level):
    """(mesh, ops, ctx): a classified mesh, its operators and the limiter
    context of ``problem`` on it."""
    mesh = classified(problem, grid_id, level)
    ops = assemble(mesh, problem)
    return mesh, ops, LimiterContext(ops, problem)


def random_iterate(mesh, problem, rng, spread=1.0):
    """Normal random unknowns scaled by ``spread``, Dirichlet rows pinned."""
    u = spread * rng.standard_normal(mesh.num_vertices)
    xd = mesh.vertices[mesh.num_free:]
    u[mesh.num_free:] = problem.dirichlet(xd[:, 0], xd[:, 1])
    return u


def row_scale(ops, state, u):
    """Per unknown row, 1 plus the magnitudes of the terms the residual
    sums: the scale of its round-off."""
    et = ops.mesh.edges
    m = ops.num_free
    mags = np.add.reduceat(np.abs(state.wflux) + np.abs(ops.diff_e * u[et.j]),
                           et.indptr[:-1])
    return 1.0 + mags[:m] + np.abs(state.rhs[:m])


def constant_problem(epsilon, velocity, reaction, source, dirichlet=0.0):
    """A ``ProblemSpec`` with constant coefficients and boundary data;
    ``velocity`` is the pair (vx, vy)."""
    return ProblemSpec(name="constant", epsilon=epsilon,
                       velocity=_uniform_flow(*velocity),
                       reaction=_constant(reaction), source=_constant(source),
                       dirichlet=_constant(dirichlet))
