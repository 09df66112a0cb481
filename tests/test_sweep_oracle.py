"""The limiter sweep against the composition of the reference helpers.

``edge_state`` evaluates the limiters in one lean pass; these tests rebuild
every flux from the per-edge helpers of ``oracles`` and ``cdrfem.limiter``,
written as the limiters are defined, and require the same bits.
"""

from dataclasses import replace

import numpy as np
import pytest

from cdrfem import PROBLEMS
from cdrfem.limiter import edge_state, mc_limit
from cases import free_edges, limiter_case, random_iterate
from oracles import (bar_state, limit_balancing, limiting_factor,
                     mc_target_flux, wb_bar_state, wb_limit, wb_target_flux)


def interior_sink():
    """interior-layers with its source negated, so that b < 0 on the box."""
    base = PROBLEMS["interior-layers"]()
    return replace(base, name="interior-sink",
                   source=lambda x, y: -base.source(x, y))


# the five benchmarks cover b > 0 and b == 0; the sink adds b < 0
CASES = dict(PROBLEMS, **{"interior-sink": interior_sink})


def balanced_reference(ctx, u, variant):
    """wflux, P, Qp and Qm of the balanced limiter, helper by helper."""
    ops, et = ctx.ops, ctx.et
    i, j, rev = et.i, et.j, et.rev
    m = ctx.mesh.num_free
    free, j_free = i < m, j < m
    d = ops.d_e
    ui, uj = u[i], u[j]
    ubar = bar_state(ui, uj, ops.conv_e, d)
    s = ctx.f_node - ctx.c_node * u
    P = 0.25 * (s[i] + s[j]) * ctx.geom_e
    bac = ops.b[i] / ops.art_row[i]
    Qp = np.maximum(ui, uj) - ubar - bac
    Qm = np.minimum(ui, uj) - ubar - bac
    if variant == "full":
        fict = ctx.fictitious_increment(u)
        Qp = np.maximum(0.5 * fict, Qp)
        Qm = np.minimum(0.5 * fict, Qm)
    b_e = ops.b[i]
    alphaP = limit_balancing(P, P[rev], Qp, Qm, Qp[rev], Qm[rev], b_e,
                             b_e[rev], free, j_free)
    ubar_s = wb_bar_state(ubar, alphaP, ops.b[i], ops.art_row[i])
    fs = wb_target_flux(ui, uj, d, ops.reac_e, alphaP)
    bmin = np.minimum.reduceat(ubar_s, et.indptr[:-1])
    bmax = np.maximum.reduceat(ubar_s, et.indptr[:-1])
    fs_star = wb_limit(fs, d, ubar_s, ubar_s[rev], bmin[i], bmax[i], bmin[j],
                       bmax[j], ~j_free)
    fs_star = np.where(free, fs_star, 0.0)
    return 2.0 * d * ubar_s + fs_star, P, Qp, Qm


def mc_reference(ctx, u, limiter):
    """wflux, ubar and ftarget of the plain limiters, helper by helper."""
    ops, et = ctx.ops, ctx.et
    i, j = et.i, et.j
    d = ops.d_e
    ubar = bar_state(u[i], u[j], ops.conv_e, d)
    f = mc_target_flux(u[i], u[j], d, ops.reac_e)
    fstar = f
    if limiter == "mc":
        umin = np.minimum(np.minimum.reduceat(u[j], et.indptr[:-1]), u)
        umax = np.maximum(np.maximum.reduceat(u[j], et.indptr[:-1]), u)
        fstar = mc_limit(f, d, ubar, ubar[et.rev], umin[i], umax[i], umin[j],
                         umax[j])
    return 2.0 * d * ubar + fstar, ubar, f


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_matches_reference_helpers(name, grid_id):
    _, _, ctx = limiter_case(CASES[name](), grid_id, 3)
    et = ctx.et
    b_e = ctx.ops.b[et.i]
    for seed in (3, 4):
        u = random_iterate(ctx.mesh, ctx.ops.problem, np.random.default_rng(seed))
        for variant in ("full", "simplified"):
            st = edge_state(ctx, u, variant=variant)
            wflux, P, Qp, Qm = balanced_reference(ctx, u, variant)
            assert np.array_equal(st.wflux, wflux)
            R = limiting_factor(P, Qp, Qm, b_e, free_edges(ctx))
            assert np.array_equal(st.alpha, np.minimum(R, R[et.rev]))
        for limiter in ("galerkin", "mc"):
            st = edge_state(ctx, u, limiter=limiter)
            wflux, ubar, f = mc_reference(ctx, u, limiter)
            for got, want in ((st.wflux, wflux), (st.ubar, ubar),
                              (st.ftarget, f)):
                # bit for bit, signed zeros included
                assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_reference_cases_are_covered():
    # grid 2 has free nodes next to Dirichlet corners and sides, and the
    # cases give both signs and zeros of the source functional
    for name, sign in (("interior-layers", 1.0), ("interior-sink", -1.0)):
        _, _, ctx = limiter_case(CASES[name](), 2, 3)
        et, m = ctx.et, ctx.mesh.num_free
        assert np.any((et.i < m) & (et.j >= m))
        assert ctx.num_free_edges < len(et.i)
        b_e = ctx.ops.b[et.i[:ctx.num_free_edges]]
        assert np.any(b_e == 0.0) and np.any(sign * b_e > 0.0)
