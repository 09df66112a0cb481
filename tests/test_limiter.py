import itertools
import tracemalloc

import numpy as np
import pytest

from cdrfem import PROBLEMS, assemble, galerkin_residual
from cdrfem.limiter import (VARIANTS, LimiterContext, SweepWorkspace,
                            edge_state, mc_limit)
from cdrfem.solver import residual
from cases import (classified, constant_problem, free_edges, limiter_case,
                   random_iterate, row_scale, unclipped)
from oracles import (_r_abs_p, balancing_flux, bar_state, einsum_grad_incr,
                     fictitious_value, limit_balancing, limiting_factor,
                     mc_target_flux, mirror_cell, net_source,
                     table_row_bounds, wb_bar_state, wb_limit, wb_target_flux)


def all_benchmarks():
    return [factory() for factory in PROBLEMS.values()]


def test_bar_state_values():
    assert bar_state(3.0, 3.0, 0.7, 1.2) == 3.0
    assert bar_state(1.0, 5.0, 0.0, 2.0) == 3.0
    assert bar_state(0.0, 1.0, 1.0, 1.0) == 0.0


def test_bar_state_between_endpoints():
    rng = np.random.default_rng(0)
    ui, uj = rng.standard_normal(2000), rng.standard_normal(2000)
    d = rng.uniform(0.1, 2.0, 2000)
    conv = rng.uniform(-1.0, 1.0, 2000) * d      # |a^C| <= d
    ub = bar_state(ui, uj, conv, d)
    assert np.all(ub >= np.minimum(ui, uj) - 1e-14)
    assert np.all(ub <= np.maximum(ui, uj) + 1e-14)


def test_mc_target_flux():
    assert mc_target_flux(2.0, 2.0, 1.0, 0.3) == 0.0
    assert mc_target_flux(3.0, 1.0, 1.0, 0.5) == 3.0
    assert mc_target_flux(1.0, 3.0, 1.0, 0.5) == -3.0


def test_mc_limit_cases():
    big = 1e12
    assert mc_limit(0.0, 1.0, 0.0, 0.0, -big, big, -big, big) == 0.0
    assert mc_limit(2.5, 1.0, 0.0, 0.0, -big, big, -big, big) == 2.5
    # saturated owner bound forces the positive flux to zero
    assert mc_limit(2.5, 1.0, 1.0, 0.5, -big, 1.0, 0.0, big) == 0.0


def test_net_source():
    prob = PROBLEMS["interior-layers"]()
    assert net_source(prob, 0.3, 0.5, 0.0) == 10.0
    assert net_source(prob, 0.8, 0.5, 0.2) == -5.0
    assert net_source(prob, 0.95, 0.1, 0.0) == 0.0


def test_balancing_flux_values():
    x_i, x_j = np.array([0.25, 0.5]), np.array([0.5, 0.5])
    v = np.array([1.0, 0.0])
    # constant net source 1 with v=(1,0) gives (uhat_i - uhat_j)/2
    P = balancing_flux(1.0, 1.0, x_i, x_j, v, v)
    assert P == pytest.approx(0.5 * (0.25 - 0.5), abs=1e-15)
    assert balancing_flux(0.0, 0.0, x_i, x_j, v, v) == 0.0
    perp = np.array([0.0, 2.0])
    assert balancing_flux(1.0, 2.0, x_i, x_j, perp, perp) == 0.0
    P_ji = balancing_flux(1.0, 1.0, x_j, x_i, v, v)
    assert P_ji == -P


def test_balancing_flux_degenerate():
    z = np.zeros(2)
    with pytest.raises(ValueError):
        balancing_flux(1.0, 1.0, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                       z, z)


def test_fictitious_value_linear():
    mesh = classified(PROBLEMS["interior-layers"](), 1, 2)
    x = mesh.vertices
    u = 0.3 + 1.7 * x[:, 0] - 0.9 * x[:, 1]
    et = mesh.edges
    for k in range(0, len(et.i), 7):
        i, j = int(et.i[k]), int(et.j[k])
        assert fictitious_value(mesh, u, i, j) == pytest.approx(
            2.0 * u[i] - u[j], abs=1e-13)
    uconst = np.full(mesh.num_vertices, 2.5)
    assert fictitious_value(mesh, uconst, int(et.i[0]), int(et.j[0])) == 2.5


def test_fictitious_value_barycentric_oracle():
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 2, 2)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.num_vertices)
    et = mesh.edges
    hits = 0
    for k in range(len(et.i)):
        i, j = int(et.i[k]), int(et.j[k])
        tri = mesh.cells[mirror_cell(mesh, i, j)]
        p = mesh.vertices[tri]
        T = np.column_stack([p[1] - p[0], p[2] - p[0]])
        point = 2.0 * mesh.vertices[i] - mesh.vertices[j]
        lam12 = np.linalg.solve(T, point - p[0])
        lam = np.array([1.0 - lam12.sum(), *lam12])
        if np.all(lam >= -1e-12):      # mirror point inside the owner cell
            hits += 1
            assert fictitious_value(mesh, u, i, j) == pytest.approx(
                float(lam @ u[tri]), abs=1e-13)
    assert hits > 50


def test_limit_balancing_cases():
    assert limit_balancing(0.0, 0.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0) == 0.0
    # owner window clips to Q+ when the opposite side has slack
    got = limit_balancing(0.5, -0.5, 0.2, -9.0, 9.0, -9.0, -1.0, -1.0)
    assert got == pytest.approx(0.2, abs=1e-15)
    # unconstrained both sides passes P through
    got = limit_balancing(0.3, -0.3, 9.0, -9.0, 9.0, -9.0, 1.0, 1.0)
    assert got == pytest.approx(0.3, abs=1e-15)


def test_limiting_factor_matches_flux_route():
    # the division route and the flux route of the oracles agree on the P,
    # Qp and Qm of production states (every benchmark, both grids, random
    # iterates), and so does the alpha that edge_state reads off its
    # applied balancing flux
    rng = np.random.default_rng(11)
    for prob, grid_id in itertools.product(all_benchmarks(), (1, 2)):
        mesh, ops, ctx = limiter_case(prob, grid_id, 2)
        b, free = ops.b[mesh.edges.i], free_edges(ctx)
        for variant in ("full", "simplified"):
            st = edge_state(ctx, random_iterate(mesh, prob, rng),
                            variant=variant)
            R = limiting_factor(st.P, st.Qp, st.Qm, b, free)
            assert np.all((R >= 0.0) & (R <= 1.0))
            assert np.all(R[~free] == 1.0)
            rp = _r_abs_p(st.P, st.Qp, st.Qm, b, free)
            assert np.allclose(R * np.abs(st.P), rp, atol=1e-12)
            # the production clip gives the bits of the oracle's R|P|
            alphaP = np.minimum(rp, rp[mesh.edges.rev]) * np.sign(st.P)
            assert np.array_equal(alphaP.view(np.int64),
                                  st.alphaP.view(np.int64))
            assert np.allclose(st.alpha * np.abs(st.P), np.abs(st.alphaP),
                               atol=1e-12)


def test_wb_bar_state_values():
    assert wb_bar_state(1.5, 0.0, 0.0, 2.0) == 1.5
    assert wb_bar_state(1.5, 0.25, 2.0, 2.0) == 1.5 + 0.25 + 1.0


def test_wb_bar_state_distributes_source():
    prob = PROBLEMS["interior-layers"]()
    mesh, ops, _ = limiter_case(prob, 2, 2)
    et = mesh.edges
    share = 2.0 * ops.d_e * (ops.b[et.i] / ops.art_row[et.i])
    per_node = np.add.reduceat(share, et.indptr[:-1])
    assert np.allclose(per_node, ops.b, atol=1e-15)


def test_wb_target_flux_values():
    assert wb_target_flux(2.0, 1.0, 1.5, 0.0, 0.0) == 1.5
    assert wb_target_flux(1.0, 1.0, 1.0, 1.0, 0.5) == -1.0


def test_wb_target_flux_identity():
    # f^s equals 2d(u_i - ubar^s) + (a^C + a^R)(u_i - u_j) + 2d b_i/a_i^C
    rng = np.random.default_rng(5)
    for _ in range(200):
        ui, uj, alphaP, b_over = rng.standard_normal(4)
        d = rng.uniform(0.1, 2.0)
        conv = rng.uniform(-1.0, 1.0) * d
        reac = rng.uniform(0.0, 1.0)
        ubar = bar_state(ui, uj, conv, d)
        ubar_s = wb_bar_state(ubar, alphaP, b_over, 1.0)
        fs = wb_target_flux(ui, uj, d, reac, alphaP)
        other = (2.0 * d * (ui - ubar_s) + (conv + reac) * (ui - uj)
                 + 2.0 * d * b_over)
        assert fs == pytest.approx(other, abs=1e-13)


def test_wb_limit_cases():
    big = 1e12
    assert wb_limit(0.0, 1.0, 0.0, 0.0, -big, big, -big, big, False) == 0.0
    assert wb_limit(1.5, 1.0, 0.0, 0.0, -big, big, -big, big, False) == 1.5
    # saturated lower owner bound zeroes a negative flux into a Dirichlet node
    assert wb_limit(-2.0, 1.0, 0.7, 0.0, 0.7, big, 0.0, 0.0, True) == 0.0
    # one-sided form ignores the opposite-side window
    assert wb_limit(1.0, 1.0, 0.0, -big, -big, big, -1.0, 1.0, True) == 1.0


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_flux_form_matches_galerkin(name):
    prob = PROBLEMS[name]()
    mesh, ops, ctx = limiter_case(prob, 2, 2)
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = random_iterate(mesh, prob, rng)
        gal = galerkin_residual(ops, u)
        st = unclipped(ctx, edge_state(ctx, u, limiter="mc"), u)
        diff = residual(ops, st, u) - gal
        assert np.all(np.abs(diff) <= 1e-12 * row_scale(ops, st, u))


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_wb_flux_form_matches_galerkin(name):
    prob = PROBLEMS[name]()
    mesh, ops, ctx = limiter_case(prob, 2, 2)
    rng = np.random.default_rng(19)
    for _ in range(5):
        u = random_iterate(mesh, prob, rng)
        gal = galerkin_residual(ops, u)
        # the balancing fluxes cancel in the row sums for any alpha
        wmc = edge_state(ctx, u, limiter="wmc")
        for st in (unclipped(ctx, wmc, u, alphaP=wmc.P),
                   unclipped(ctx, wmc, u)):
            diff = residual(ops, st, u) - gal
            assert np.all(np.abs(diff) <= 1e-12 * row_scale(ops, st, u))


def test_antisymmetry_and_alpha():
    rng = np.random.default_rng(23)
    for name in ("interior-layers", "circular-layers", "equilibrium"):
        prob = PROBLEMS[name]()
        mesh, ops, ctx = limiter_case(prob, 2, 2)
        et = mesh.edges
        free = free_edges(ctx)
        both_free = free & free[et.rev]
        for _ in range(3):
            u = random_iterate(mesh, prob, rng)
            st = edge_state(ctx, u)
            scale = 1e-14 * (1.0 + np.abs(u).max())
            assert np.max(np.abs(st.P + st.P[et.rev])) <= scale
            assert np.max(np.abs(st.fs + st.fs[et.rev])) <= scale
            assert np.max(np.abs((st.fs_star
                                  + st.fs_star[et.rev])[both_free])) <= scale
            assert np.array_equal(st.alpha, st.alpha[et.rev])
            assert np.all((st.alpha >= 0.0) & (st.alpha <= 1.0))
            assert np.all(np.abs(st.fs_star) <= np.abs(st.fs) + 1e-15)
            assert np.all(st.fs_star * st.fs >= 0.0)
            mc = edge_state(ctx, u, limiter="mc")
            assert np.max(np.abs(mc.ftarget + mc.ftarget[et.rev])) <= scale
            assert np.all(np.abs(mc.fstar) <= np.abs(mc.ftarget) + 1e-15)
            # the balanced diagnostics exist only for the balanced limiter
            for other in (mc, edge_state(ctx, u, limiter="galerkin")):
                assert other.alpha is None and other.ubar_s_star is None


def test_local_bounds_definition():
    prob = PROBLEMS["interior-layers"]()
    mesh, ops, ctx = limiter_case(prob, 1, 1)
    rng = np.random.default_rng(29)
    u = random_iterate(mesh, prob, rng)
    st = edge_state(ctx, u, limiter="mc")
    et = mesh.edges
    for i in range(mesh.num_vertices):
        nbrs = et.j[et.indptr[i]:et.indptr[i + 1]]
        assert st.umin[i] == min(u[i], u[nbrs].min())
        assert st.umax[i] == max(u[i], u[nbrs].max())
    ws = edge_state(ctx, u)
    for i in range(mesh.num_vertices):
        lo, hi = et.indptr[i], et.indptr[i + 1]
        assert ws.bar_min[i] == ws.ubar_s[lo:hi].min()
        assert ws.bar_max[i] == ws.ubar_s[lo:hi].max()


@pytest.mark.parametrize("variant", ["full", "simplified"])
def test_shifted_bar_state_bounds(variant):
    # every limited shifted bar state stays inside its row's bounds
    rng = np.random.default_rng(31)
    for name in sorted(PROBLEMS):
        prob = PROBLEMS[name]()
        mesh, ops, ctx = limiter_case(prob, 2, 2)
        for _ in range(4):
            u = random_iterate(mesh, prob, rng, spread=2.0)
            st = edge_state(ctx, u, variant=variant)
            free = free_edges(ctx)
            lo = st.bar_min[st.ei[free]] - 1e-12
            hi = st.bar_max[st.ei[free]] + 1e-12
            val = st.ubar_s_star[free]
            assert np.all(val >= lo) and np.all(val <= hi)


def test_flux_difference_bounds():
    # 2d(u_i - bmax_i) <= (a^C+a^R)(u_j-u_i) - 2d b_i/a^C + f^s - f^{s,*}
    #                  <= 2d(u_i - bmin_i) for arbitrary iterates
    rng = np.random.default_rng(37)
    for name in sorted(PROBLEMS):
        prob = PROBLEMS[name]()
        mesh, ops, ctx = limiter_case(prob, 2, 2)
        et = mesh.edges
        for _ in range(3):
            u = random_iterate(mesh, prob, rng, spread=3.0)
            st = edge_state(ctx, u)
            free = free_edges(ctx)
            two_d = 2.0 * ops.d_e
            mid = ((ops.conv_e + ops.reac_e) * (u[et.j] - u[et.i])
                   - two_d * ctx.bac_e + st.fs - st.fs_star)
            lo = two_d * (u[et.i] - st.bar_max[et.i]) - 1e-12
            hi = two_d * (u[et.i] - st.bar_min[et.i]) + 1e-12
            assert np.all(mid[free] >= lo[free])
            assert np.all(mid[free] <= hi[free])


def test_local_extremum_precondition():
    # bump interior nodes to local extrema and check the shifted bar states
    prob = PROBLEMS["interior-layers"]()
    mesh, ops, ctx = limiter_case(prob, 1, 3)
    et, free = mesh.edges, free_edges(ctx)
    rng = np.random.default_rng(41)
    for _ in range(5):
        u = random_iterate(mesh, prob, rng)
        for i in rng.choice(mesh.num_free, size=6, replace=False):
            nbrs = et.j[et.indptr[i]:et.indptr[i + 1]]
            if i % 2 == 0:
                u[i] = u[nbrs].max() + abs(u[i]) + 0.1
            else:
                u[i] = u[nbrs].min() - abs(u[i]) - 0.1
        st = edge_state(ctx, u)
        umax = np.maximum(np.maximum.reduceat(u[et.j], et.indptr[:-1]), u)
        umin = np.minimum(np.minimum.reduceat(u[et.j], et.indptr[:-1]), u)
        b_e = ops.b[et.i]
        at_max = free & (u[et.i] == umax[et.i]) & (b_e <= 0.0)
        at_min = free & (u[et.i] == umin[et.i]) & (b_e >= 0.0)
        pair_hi = np.maximum(u[et.i], u[et.j])
        pair_lo = np.minimum(u[et.i], u[et.j])
        assert np.all(st.ubar_s[at_max] <= pair_hi[at_max] + 1e-13)
        assert np.all(st.ubar_s[at_min] >= pair_lo[at_min] - 1e-13)


def test_q_sign_facts():
    rng = np.random.default_rng(43)
    prob = PROBLEMS["interior-layers"]()
    mesh, ops, ctx = limiter_case(prob, 2, 2)
    for _ in range(5):
        u = random_iterate(mesh, prob, rng)
        st = edge_state(ctx, u)
        b_e = ops.b[st.ei]
        free = free_edges(ctx)
        assert np.all(st.Qp[free & (b_e <= 0.0)] >= -1e-15)
        assert np.all(st.Qm[free & (b_e >= 0.0)] <= 1e-15)


@pytest.mark.parametrize("grid_id", [1, 2])
def test_equilibrium_balance(grid_id):
    prob = PROBLEMS["equilibrium"]()
    mesh, ops, ctx = limiter_case(prob, grid_id, 2)
    uhat = prob.exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    st = edge_state(ctx, uhat)
    assert np.all(np.abs(st.alpha - 1.0) <= 1e-13)
    scale = 1e-13 * (1.0 + np.abs(st.fs).max() + 1.0)
    assert np.all(np.abs(st.fs) <= scale)
    assert np.all(np.abs(st.fs_star) <= scale)
    # balancing fluxes reproduce half the solution differences
    want = 0.5 * (uhat[st.ei] - uhat[st.ej])
    assert np.allclose(st.P, want, atol=1e-13)


def test_simplified_loses_balance():
    prob = PROBLEMS["equilibrium"]()
    mesh, ops, ctx = limiter_case(prob, 1, 2)
    uhat = prob.exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    st = edge_state(ctx, uhat, variant="simplified")
    assert np.all((st.alpha >= 0.0) & (st.alpha <= 1.0))
    # the one-sided windows without the fictitious term clip some edges
    assert np.any(st.alpha < 1.0 - 1e-10)


def test_dirichlet_rows_carry_no_flux():
    prob = PROBLEMS["interior-layers"]()
    mesh, ops, ctx = limiter_case(prob, 2, 2)
    rng = np.random.default_rng(47)
    u = random_iterate(mesh, prob, rng)
    st = edge_state(ctx, u)
    assert np.all(st.fs_star[~free_edges(ctx)] == 0.0)


def test_edge_state_rejects_unknown_names():
    prob = PROBLEMS["interior-layers"]()
    _, _, ctx = limiter_case(prob, 2, 1)
    u = np.zeros(ctx.mesh.num_vertices)
    with pytest.raises(ValueError):
        edge_state(ctx, u, limiter="upwind")
    with pytest.raises(ValueError):
        edge_state(ctx, u, variant="other")


def test_degenerate_velocity_rejected():
    still = constant_problem(1.0, (0.0, 0.0), 0.0, 0.0)
    mesh, ops, ctx = limiter_case(still, 2, 1)
    with pytest.raises(ValueError):
        edge_state(ctx, np.zeros(mesh.num_vertices))



@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_balancing_flux_oracle(name, grid_id):
    # the sweep's P is the balancing flux of the nodal net source
    prob = PROBLEMS[name]()
    mesh, ops, ctx = limiter_case(prob, grid_id, 3)
    et = mesh.edges
    u = random_iterate(mesh, prob, np.random.default_rng(59))
    x = mesh.vertices
    v = np.column_stack(np.broadcast_arrays(*prob.velocity(x[:, 0], x[:, 1])))
    s = net_source(prob, x[:, 0], x[:, 1], u)
    want = balancing_flux(s[et.i], s[et.j], x[et.i], x[et.j], v[et.i], v[et.j])
    got = edge_state(ctx, u).P
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(want).max())


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_grad_incr_oracle(name, grid_id):
    # the mirror-cell increment is the fictitious value minus u_i per edge
    prob = PROBLEMS[name]()
    mesh, ops, ctx = limiter_case(prob, grid_id, 3)
    et = mesh.edges
    u = random_iterate(mesh, prob, np.random.default_rng(61))
    want = np.array([fictitious_value(mesh, u, i, j) - u[i]
                     for i, j in zip(et.i.tolist(), et.j.tolist())])
    got = ctx.fictitious_increment(u)
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14 * np.abs(u).max())


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_grad_incr_matches_einsum_oracle(name, grid_id):
    # the per-corner sums from +0 give the einsum's bits, zero signs included
    prob = PROBLEMS[name]()
    for level in range(1, 6):
        _, _, ctx = limiter_case(prob, grid_id, level)
        for got, want in zip(ctx.grad_incr, einsum_grad_incr(ctx)):
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                level


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", ["equilibrium", "boundary-layers"])
def test_reaction_free_balancing_flux_built_once(name, grid_id):
    # without reaction P does not depend on u: every sweep shares one
    # read-only array, (s_i + s_j) / 4 * geom_ij bit for bit
    prob = PROBLEMS[name]()
    mesh, ops, ctx = limiter_case(prob, grid_id, 3)
    et = mesh.edges
    rng = np.random.default_rng(67)
    u1, u2 = (random_iterate(mesh, prob, rng) for _ in range(2))
    first, second = edge_state(ctx, u1), edge_state(ctx, u2)
    assert first.P is second.P
    for u in (u1, u2):
        s = ctx.f_node - ctx.c_node * u
        want = 0.25 * (s[et.i] + s[et.j]) * ctx.geom_e
        assert first.P.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        first.P[0] = 1.0


def test_reactive_balancing_flux_follows_iterate():
    prob = PROBLEMS["circular-convection"]()
    mesh, ops, ctx = limiter_case(prob, 1, 3)
    et = mesh.edges
    rng = np.random.default_rng(71)
    u1, u2 = (random_iterate(mesh, prob, rng) for _ in range(2))
    first, second = edge_state(ctx, u1), edge_state(ctx, u2)
    assert not np.array_equal(first.P, second.P)
    for st, u in ((first, u1), (second, u2)):
        s = ctx.f_node - ctx.c_node * u
        want = 0.25 * (s[et.i] + s[et.j]) * ctx.geom_e
        assert st.P.tobytes() == want.tobytes()


def test_negative_zero_source_keeps_per_sweep_balancing_flux():
    # with f = -0 the net source -0 - 0 u is +0 or -0 by the sign of u, so
    # P is rebuilt from each iterate, down to the sign of its zeros
    prob = constant_problem(1.0, (1.0, 0.5), 0.0, -0.0)
    mesh, ops, ctx = limiter_case(prob, 2, 2)
    et = mesh.edges
    u = random_iterate(mesh, prob, np.random.default_rng(73))
    assert ctx.fixed_balancing is None
    s = ctx.f_node - ctx.c_node * u
    assert np.any(np.signbit(s)) and not np.all(np.signbit(s))
    want = 0.25 * (s[et.i] + s[et.j]) * ctx.geom_e
    assert edge_state(ctx, u).P.tobytes() == want.tobytes()


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_workspace_state_matches_fresh_call(name, grid_id):
    # the fields a workspace state keeps have the bytes of a call without
    # one, down to the signs of zeros; the second call of each variant
    # reuses the buffers the first wrote, and so pins that its views are
    # rewritten, not stale, at the next call
    prob = PROBLEMS[name]()
    mesh, ops, ctx = limiter_case(prob, grid_id, 3)
    rng = np.random.default_rng(83 + grid_id)
    kept = ("rowsum", "ubar_s", "fs_star", "bar_min", "bar_max")
    for variant in VARIANTS:
        workspace = SweepWorkspace(ctx, variant)
        for _ in range(2):
            u = random_iterate(mesh, prob, rng)
            pick = rng.random(mesh.num_free)
            u[:mesh.num_free][pick < 0.1] = 0.0
            u[:mesh.num_free][pick > 0.9] = -0.0
            got = edge_state(ctx, u, variant=variant, workspace=workspace)
            want = edge_state(ctx, u, variant=variant)
            for field in kept:
                assert (getattr(got, field).tobytes()
                        == getattr(want, field).tobytes()), field
            assert got.rhs is ctx.zero_rhs
            assert got.wflux is None and got.P is None and got.ctx is None


def test_workspace_serves_its_own_balanced_context():
    prob = PROBLEMS["interior-layers"]()
    _, _, ctx = limiter_case(prob, 2, 1)
    _, _, other = limiter_case(prob, 2, 1)
    u = np.zeros(ctx.mesh.num_vertices)
    workspace = SweepWorkspace(ctx)
    with pytest.raises(ValueError):
        edge_state(other, u, workspace=workspace)
    with pytest.raises(ValueError):
        edge_state(ctx, u, limiter="mc", workspace=workspace)


@pytest.mark.parametrize("level", [1, 3])
def test_row_bounds_match_table_oracle(level):
    # pass k folds in the k-th edge of every row, as the axis-0 reduction
    # of the gathered table folds its rows: ties of +0 and -0 and NaNs come
    # out the same, with buffers given or not
    _, _, ctx = limiter_case(PROBLEMS["interior-layers"](), 2, level)
    rng = np.random.default_rng(97)
    size, n = ctx.et.i.size, ctx.mesh.num_vertices
    for values in (rng.choice([0.0, -0.0], size),
                   rng.choice([-1.0, -0.0, 0.0, 1.0], size),
                   rng.choice([-0.0, 0.0, 2.0, np.nan], size),
                   rng.standard_normal(size)):
        want = table_row_bounds(ctx, values)
        buffers = np.empty(n), np.empty(n), np.empty(n)
        for got in (ctx.row_bounds(values), ctx.row_bounds(values, *buffers)):
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()
        assert got[0] is buffers[1] and got[1] is buffers[2]


def test_workspace_context_keeps_geom_e_only_for_its_sweeps():
    # once the read-only P is built no sweep reads geom_e, so the context
    # drops it; a reactive context rebuilds P from it at every sweep
    for name, fixed in (("equilibrium", True), ("circular-convection", False)):
        prob = PROBLEMS[name]()
        mesh, _, ctx = limiter_case(prob, 2, 2)
        workspace = SweepWorkspace(ctx)
        assert "geom_e" not in vars(ctx)
        u = random_iterate(mesh, prob, np.random.default_rng(101))
        edge_state(ctx, u, workspace=workspace)
        assert (ctx.fixed_balancing is not None) == fixed
        assert ("geom_e" in vars(ctx)) != fixed


@pytest.mark.parametrize("grid_id", [1, 2])
def test_context_and_workspace_hold_twenty_edge_arrays(grid_id):
    # a reaction-free context holds two_d, bac_e, the fixed P and sign(P)
    # and the six rows of grad_incr, its workspace seven edge buffers: 17
    # arrays of 8 E bytes.  The row table, the int32 mirror cells, the sign
    # masks and six node arrays add about three more.  The hat gradients,
    # geom_e and a (D, n) gathered table are not held
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, grid_id, 5)
    ops = assemble(mesh, prob)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ctx = LimiterContext(ops)
        workspace = SweepWorkspace(ctx)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert workspace.ctx is ctx
    assert held < 20.5 * 8 * mesh.edges.i.size
