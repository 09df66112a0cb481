"""Acceptance gate: one test per numbered criterion, one pass/fail line each.

Each test prints ``criterion N: PASS/FAIL -- detail`` (visible with -s or on
failure) and the test outcome itself mirrors that line under plain ``-v``.
The convergence-table criteria share one pair of command-line runs through a
module-scoped fixture, so the suite performs the expensive ladder exactly
twice, as the determinism criterion demands.
"""

import numpy as np
import pytest

from cdrfem import (PROBLEMS, SolveOptions, assemble, audit_dmp,
                    galerkin_residual, solve)
from cdrfem.cli import run
from cdrfem.limiter import edge_state
from cdrfem.solver import _initial_iterate, fixed_point_step, residual
from cases import (classified, free_edges, limiter_case, random_iterate,
                   row_scale, unclipped)
from oracles import galerkin_row_residual

# iteration setup for the circular-convection ladder (criteria 8 and 10).
# The damping acts only on steps without mixing history, and every level
# converges outright (level 7 in about 1300 sweeps) before the tail window,
# the last 9216 of 16384 sweeps, opens.  The window was sized to span one
# orbital period (~9000 sweeps) of the limit cycle that plain damped sweeps
# fell into at level 7.
C8_ARGS = ["convergence", "--problem", "circular-convection", "--grid", "1",
           "--levels", "3:7", "--damping", "0.0625", "--max-iter", "16384",
           "--tail-average", "9216", "--warm-start"]


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} -- {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def interior_l5():
    # the damping-0.5 solve: criteria 5-7 read that one of the two fixed
    # points (test_interior_layers_two_fixed_points)
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 5)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(damping=0.5, max_iter=20000),
                ops=ops)
    return prob, mesh, ops, rep


@pytest.fixture(scope="module")
def ladder_runs(tmp_path_factory):
    outs = []
    for tag in ("first", "second"):
        outdir = tmp_path_factory.mktemp(f"c8-{tag}")
        code = run(C8_ARGS + ["--outdir", str(outdir)])
        assert code == 0
        outs.append(outdir / "report.csv")
    header, *rows = outs[0].read_text().splitlines()
    cols = header.split(",")
    table = {}
    for rowtext in rows:
        vals = dict(zip(cols, rowtext.split(",")))
        table[int(vals["level"])] = vals
    return outs, table


def test_criterion_01_flux_form_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in sorted(PROBLEMS):
        prob = PROBLEMS[name]()
        mesh, ops, ctx = limiter_case(prob, 2, 2)
        for _ in range(100):
            u = random_iterate(mesh, prob, rng)
            gal = galerkin_residual(ops, u)
            wmc = edge_state(ctx, u, limiter="wmc")
            for state in (edge_state(ctx, u, limiter="galerkin"),
                          unclipped(ctx, wmc, u, alphaP=wmc.P)):
                rel = np.abs(residual(ops, state, u) - gal) / row_scale(
                    ops, state, u)
                worst = max(worst, float(rel.max()))
            for i in rng.integers(0, mesh.num_free, size=3):
                rowvals = galerkin_row_residual(ops, u, int(i))
                assert gal[i] == pytest.approx(rowvals, abs=1e-11)
    report(1, worst <= 1e-12,
           f"both flux decompositions match the assembled rows; worst "
           f"relative deviation {worst:.2e} (bound 1e-12)")


def test_criterion_02_well_balance():
    prob = PROBLEMS["equilibrium"]()
    worst_u = worst_alpha = worst_flux = 0.0
    for grid in (1, 2):
        mesh, ops, ctx = limiter_case(prob, grid, 4)
        rep = solve(mesh, prob, SolveOptions(tol=1e-10), ops=ops)
        assert rep.converged
        uhat = prob.exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
        worst_u = max(worst_u, float(np.abs(rep.u - uhat).max()))
        st = edge_state(ctx, uhat)
        worst_alpha = max(worst_alpha, float(np.abs(st.alpha - 1.0).max()))
        worst_flux = max(worst_flux, float(np.abs(st.fs_star).max()))
    ok = worst_u <= 1e-7 and worst_alpha <= 1e-13 and worst_flux <= 1e-13
    report(2, ok,
           f"ramp reproduced on both grids: max|u-x| {worst_u:.2e} "
           f"(bound 1e-7), max|alpha-1| {worst_alpha:.2e}, "
           f"max|f*| {worst_flux:.2e} (bounds 1e-13)")


def test_criterion_03_bar_state_bounds_every_iterate():
    worst = 0.0
    total = 0
    for name in sorted(PROBLEMS):
        prob = PROBLEMS[name]()
        mesh = classified(prob, 1, 4)
        rep = solve(mesh, prob,
                    SolveOptions(max_iter=20000, check_bounds=True))
        worst = max(worst, rep.bound_check["max_violation"])
        total += rep.bound_check["violations"]
    report(3, total == 0 and worst <= 1e-12,
           f"limited bar states stayed inside their local bounds on every "
           f"sweep of all five benchmarks; {total} violations, worst "
           f"overshoot {worst:.2e} (slack 1e-12)")


def test_criterion_04_limiter_algebra():
    rng = np.random.default_rng(104)
    configs = 0
    worst_anti = worst_gap = 0.0
    for name, grid in (("interior-layers", 2), ("circular-layers", 1)):
        prob = PROBLEMS[name]()
        mesh, ops, ctx = limiter_case(prob, grid, 4)
        et = mesh.edges
        free = free_edges(ctx)
        both_free = free & free[et.rev]
        for _ in range(3):
            u = random_iterate(mesh, prob, rng, spread=2.0)
            st = edge_state(ctx, u)
            mc = edge_state(ctx, u, limiter="mc")
            configs += len(st.ei)
            assert np.all((st.alpha >= 0.0) & (st.alpha <= 1.0))
            assert np.array_equal(st.alpha, st.alpha[et.rev])
            scale = 1e-14 * (1.0 + np.abs(u).max())
            anti = max(np.abs(st.P + st.P[et.rev]).max(),
                       np.abs(mc.ftarget + mc.ftarget[et.rev]).max(),
                       np.abs(st.fs + st.fs[et.rev]).max(),
                       np.abs((st.fs_star + st.fs_star[et.rev])[both_free]).max())
            worst_anti = max(worst_anti, float(anti / scale * 1e-14))
            assert anti <= scale
            assert np.all(np.abs(st.fs_star) <= np.abs(st.fs) + 1e-15)
            two_d = 2.0 * ops.d_e
            mid = ((ops.conv_e + ops.reac_e) * (u[et.j] - u[et.i])
                   - two_d * ctx.bac_e + st.fs - st.fs_star)
            lo = two_d * (u[et.i] - st.bar_max[et.i])
            hi = two_d * (u[et.i] - st.bar_min[et.i])
            gap = max(float((lo - mid)[free].max()),
                      float((mid - hi)[free].max()))
            worst_gap = max(worst_gap, gap)
            assert gap <= 1e-12
    report(4, configs >= 10 ** 4,
           f"{configs} randomized edge configurations: alpha symmetric in "
           f"[0,1], antisymmetry within 1e-14*scale (worst {worst_anti:.2e}),"
           f" |f*|<=|f^s|, flux-difference bounds within 1e-12 "
           f"(worst slack {worst_gap:.2e})")


def test_criterion_05_positivity(interior_l5):
    prob, mesh, ops, rep = interior_l5
    umin = float(rep.u.min())
    report(5, rep.converged and umin >= -1e-12,
           f"nonnegative data kept the solution nonnegative: min u "
           f"{umin:.3e} (bound -1e-12), converged {rep.converged}")


def test_criterion_06_local_dmp_audit(interior_l5):
    local = ("local_max_truncated", "local_min_truncated",
             "local_max_zero_reaction", "local_min_zero_reaction")
    details = []
    total = 0
    prob, mesh, ops, rep = interior_l5
    cases = [(prob, mesh, ops, rep)]
    layers = PROBLEMS["circular-layers"]()
    lmesh = classified(layers, 1, 5)
    lops = assemble(lmesh, layers)
    lrep = solve(lmesh, layers,
                 SolveOptions(damping=0.25, max_iter=12000, tail_average=2048),
                 ops=lops)
    cases.append((layers, lmesh, lops, lrep))
    for p, m, o, r in cases:
        checks = {c.name: c for c in audit_dmp(r, m, o, p, slack=1e-10)}
        viol = sum(checks[k].violations for k in local)
        total += viol
        details.append(f"{p.name}: {viol} violations "
                       f"(residual {r.residual_history[-1]:.1e})")
    report(6, total == 0,
           "local extremum bounds hold at slack 1e-10 on level 5; "
           + "; ".join(details))


def test_criterion_07_plateau(interior_l5):
    prob, mesh, ops, rep = interior_l5
    umax = float(rep.u.max())
    mc = solve(mesh, prob, SolveOptions(limiter="mc", damping=0.5,
                                        max_iter=8000), ops=ops)
    report(7, umax <= 5.05,
           f"downstream plateau respected: max u {umax:.4f} (bound 5.05); "
           f"unbalanced limiter for comparison: max u {float(mc.u.max()):.4f}"
           f" (reported only)")


def test_interior_layers_two_fixed_points(interior_l5):
    """interior-layers at grid 1, level 5 has two fixed points.

    The default solve (damping 1, 292 sweeps) and the damping-0.5 solve of
    the ``interior_l5`` fixture (539 sweeps) both converge; re-solved from
    their results to a residual of 1e-12 (42 and 126 sweeps), they stay
    1.84e-2 apart in the max norm, and both pass every applicable
    ``audit_dmp`` check with max u 5.013532.
    Criteria 5-7 read the damping-0.5 fixed point: the fixture's solve lies
    within 1e-6 of it.
    """
    prob, mesh, ops, half = interior_l5
    default = solve(mesh, prob, SolveOptions(max_iter=20000), ops=ops)
    points = []
    for first, damping in ((default, 1.0), (half, 0.5)):
        assert first.converged
        tight = solve(mesh, prob,
                      SolveOptions(damping=damping, tol=1e-12,
                                   max_iter=20000, initial_guess=first.u),
                      ops=ops)
        assert tight.converged
        checks = audit_dmp(tight, mesh, ops, prob)
        assert sum(c.applicable for c in checks) == 6
        assert all(c.violations == 0 for c in checks)
        assert abs(tight.u.max() - 5.013532) < 1e-6
        points.append(tight.u)
    gap = np.abs(points[0] - points[1]).max()
    assert 1.8e-2 < gap < 1.9e-2, gap
    assert np.abs(half.u - points[1]).max() < 1e-6
    assert np.abs(half.u - points[0]).max() > 1.8e-2


def test_criterion_08_convergence_table(ladder_runs):
    _, table = ladder_runs
    eoc1 = float(table[7]["eoc_l1"])
    eoc2 = float(table[7]["eoc_l2"])
    l2_fine = float(table[7]["l2_error"])
    window = l2_fine / 1.2726e-3
    ok = eoc1 >= 1.9 and eoc2 >= 1.7 and window <= 3.0
    report(8, ok,
           f"levels 3-7 ladder: EOC_L1(6->7) {eoc1:.4f} (>=1.9), "
           f"EOC_L2 {eoc2:.4f} (>=1.7), finest L2 {l2_fine:.4e} = "
           f"{window:.2f}x reference (<=3x)")


def test_criterion_09_bound_preserving_sweeps():
    worst = 0.0
    for name in ("boundary-layers", "equilibrium"):
        prob = PROBLEMS[name]()
        mesh, ops, ctx = limiter_case(prob, 1, 3)
        assert np.all(ops.reaction_lumped == 0.0)
        et = mesh.edges
        m = mesh.num_free
        u = _initial_iterate(mesh, prob, "zero")
        for _ in range(50):
            st = edge_state(ctx, u)
            unew = fixed_point_step(ops, st, u)
            hi = np.maximum(np.maximum.reduceat(st.ubar_s_star, et.indptr[:-1]),
                            np.maximum.reduceat(u[et.j], et.indptr[:-1]))
            lo = np.minimum(np.minimum.reduceat(st.ubar_s_star, et.indptr[:-1]),
                            np.minimum.reduceat(u[et.j], et.indptr[:-1]))
            worst = max(worst, float((unew - hi)[:m].max()),
                        float((lo - unew)[:m].max()))
            assert worst <= 1e-13
            u = unew
    report(9, worst <= 1e-13,
           f"undamped sweeps stay convex combinations of their inputs on the "
           f"reaction-free benchmarks; worst excursion {worst:.2e} "
           f"(bound 1e-13)")


def test_criterion_10_determinism(ladder_runs):
    (first, second), _ = ladder_runs
    same = first.read_bytes() == second.read_bytes()
    report(10, same,
           "two consecutive ladder runs wrote byte-identical report.csv"
           if same else "ladder runs differ between invocations")
