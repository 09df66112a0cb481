"""Builders of the meshes, problems and iterates that the tests run on.

Reference implementations live in ``oracles``; this module only sets up
cases.
"""

import dataclasses

import numpy as np

from cdrfem import (ProblemSpec, assemble, build_level0, classify_and_order,
                    refine)
from cdrfem.benchmarks import _constant, _uniform_flow
from cdrfem.limiter import LimiterContext
from oracles import wb_bar_state, wb_target_flux


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
    return mesh, ops, LimiterContext(ops)


def free_edges(ctx):
    """Mask of the edges out of free rows, the prefix of
    ``ctx.num_free_edges`` edges."""
    return np.arange(len(ctx.et.i)) < ctx.num_free_edges


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
    m = ops.mesh.num_free
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


def unclipped(ctx, state, u, alphaP=None):
    """``state`` with the flux clip undone: its ``wflux`` and ``rowsum``
    rebuilt from the unclipped target flux, ``ftarget`` (mc, Galerkin) or
    ``fs`` (wmc).  With ``alphaP`` given, the balanced flux is rebuilt at
    that limited balancing flux instead."""
    ops, et = ctx.ops, ctx.et
    if alphaP is not None:
        ui, uj = u[et.i], u[et.j]
        ubar_s = wb_bar_state(state.ubar, alphaP, ops.b[et.i],
                              ops.art_row[et.i])
        w = ctx.two_d * ubar_s + wb_target_flux(ui, uj, ops.d_e, ops.reac_e,
                                                alphaP)
    elif state.fs is not None:
        w = ctx.two_d * state.ubar_s + state.fs
    else:
        w = ctx.two_d * state.ubar + state.ftarget
    return dataclasses.replace(state, wflux=w, rowsum=ctx.row_sums(w, u[et.j]))
