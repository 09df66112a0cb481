import re

import numpy as np
import pytest

import cdrfem.solver
from cdrfem import (PROBLEMS, ProblemSpec, SolveOptions, assemble,
                    audit_dmp, classify_and_order, solve)
from cdrfem.benchmarks import _constant, problem_equilibrium
from cdrfem.limiter import LimiterContext, edge_state
from cdrfem.solver import (ANDERSON_RESTART, _Anderson, _GaussSeidel,
                           _initial_iterate, residual)
from cases import classified, constant_problem, limiter_case, refined
from oracles import (dense_operators, level_gauss_seidel, low_order_matrix,
                     row_residual, untrimmed_correction)


# diffusion-dominated; the plain update contracts fast
SMOOTH = constant_problem(1.0, (0.4, 0.3), 0.5, 1.0)


def test_galerkin_matches_sparse_direct():
    prob = SMOOTH
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(limiter="galerkin", tol=1e-12),
                ops=ops)
    assert rep.converged
    m = mesh.num_free
    D, C, R, b = dense_operators(mesh, prob)
    A = D + C + R
    rhs = b[:m] - A[:m, m:] @ rep.u[m:]
    u_direct = np.linalg.solve(A[:m, :m], rhs)
    assert np.allclose(rep.u[:m], u_direct, atol=1e-10)


def test_single_unknown_solved_exactly():
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 1)
    assert mesh.num_free == 1
    rep = solve(mesh, prob, SolveOptions(tol=1e-13))
    assert rep.converged and rep.iterations <= 500
    assert rep.residual_history[-1] <= 1e-13


def test_exact_guess_converges_without_sweeps():
    prob = SMOOTH
    mesh = classified(prob, 1, 2)
    first = solve(mesh, prob, SolveOptions(limiter="galerkin", tol=1e-12))
    again = solve(mesh, prob, SolveOptions(limiter="galerkin", tol=1e-10,
                                           initial_guess=first.u))
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.u, first.u)


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("vhat", [(1.0, 0.5), (0.6, -0.8)])
def test_tilted_ramp_is_a_fixed_point(vhat, grid_id):
    # well balance off the axis: the ramp itself is the fixed point of the
    # full balanced limiter; how the iteration reaches it is not pinned here
    prob = problem_equilibrium(vhat=vhat)
    mesh, ops, ctx = limiter_case(prob, grid_id, 4)
    ramp = prob.exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    st = edge_state(ctx, ramp, variant="full")
    assert np.abs(residual(ops, st, ramp)).max() <= 1e-15
    assert np.abs(st.alpha - 1.0).max() <= 1e-13
    assert np.abs(st.fs_star).max() <= 1e-13
    rep = solve(mesh, prob, SolveOptions(wb_variant="full",
                                         initial_guess=ramp), ops=ops)
    assert rep.converged and rep.iterations == 0


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("vhat", [(1.0, 0.5), (0.6, -0.8)])
def test_tilted_ramp_reached_from_zero(vhat, grid_id):
    # the default options reach the ramp on both grids; plain Jacobi sweeps
    # stall near 7e-3 on grid 2
    prob = problem_equilibrium(vhat=vhat)
    mesh = classified(prob, grid_id, 4)
    rep = solve(mesh, prob, SolveOptions(max_iter=2000))
    assert rep.converged
    ramp = prob.exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.abs(rep.u - ramp).max() <= 1e-5


def test_ladder_options_sweep_count():
    # the criterion-8 ladder options on one cold level: guards the strength
    # of the iteration, which takes 40 sweeps here (621 with every Anderson
    # step damped, and 3640 for plain damped Jacobi sweeps)
    prob = PROBLEMS["circular-convection"]()
    mesh = classified(prob, 1, 4)
    rep = solve(mesh, prob, SolveOptions(damping=0.0625, max_iter=16384,
                                         tail_average=9216))
    assert rep.converged
    assert rep.iterations < 100


@pytest.mark.parametrize("grid_id", [1, 2])
def test_equilibrium_sweep_count(grid_id):
    # the upwind Gauss-Seidel correction takes 35 / 34 sweeps here
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, grid_id, 4)
    rep = solve(mesh, prob)
    assert rep.converged
    assert rep.iterations < 100


@pytest.mark.parametrize("grid_id", [1, 2])
def test_correction_matches_dense_gauss_seidel(grid_id):
    # circular-layers has diffusion, convection and reaction
    prob = PROBLEMS["circular-layers"]()
    mesh = classified(prob, grid_id, 3)
    ops = assemble(mesh, prob)
    m = mesh.num_free
    L = low_order_matrix(mesh, prob)
    off = L - np.diag(np.diag(L))
    assert np.all(np.diag(L)[:m] > 0.0) and np.all(off[:m] <= 0.0)
    assert np.any(ops.reaction_lumped[:m] > 0.0)
    np.testing.assert_allclose(L[:m].sum(axis=1), ops.reaction_lumped[:m],
                               rtol=0.0, atol=1e-13 * np.abs(L).max())

    # every row leaning on a column (|L_ij| > |L_ji|) sits above it, and
    # rows that share a level are coupled only through ties, which the dense
    # L decides to round-off
    gs = _GaussSeidel(ops)
    level, A = gs.level, L[:m, :m]
    gap = np.abs(A) - np.abs(A.T)
    tie = np.abs(gap) <= 1e-13 * np.abs(A).max()
    rows, cols = np.nonzero((gap > 0.0) & ~tie)
    assert np.all(level[cols] < level[rows])
    same = (level[:, None] == level[None, :]) & (A != 0.0)
    np.fill_diagonal(same, False)
    assert np.all(tie[same])
    r = np.random.default_rng(3).standard_normal(m)
    want = level_gauss_seidel(A, level, -r)
    assert np.abs(gs.correction(r) - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("name, grid_id, level", [
    ("circular-layers", 1, 4), ("circular-layers", 2, 4),
    ("equilibrium", 1, 4), ("equilibrium", 2, 4), ("interior-layers", 1, 1)])
def test_correction_bits_match_untrimmed_sweep(name, grid_id, level):
    # each level skips the columns still at zero; that changes no bit of f,
    # signed zeros of r included (circular-layers is reactive, equilibrium
    # reaction-free; the single unknown of interior-layers at level 1 is
    # level 0, whose update is the result)
    prob = PROBLEMS[name]()
    mesh = classified(prob, grid_id, level)
    ops = assemble(mesh, prob)
    gs = _GaussSeidel(ops)
    rng = np.random.default_rng(11)
    r = rng.standard_normal(mesh.num_free)
    pick = rng.random(r.size)
    r[pick < 0.1] = 0.0
    r[pick > 0.9] = -0.0
    for rhs in (r, -r, np.zeros_like(r), np.full_like(r, -0.0)):
        want = untrimmed_correction(ops, gs.level, rhs)
        assert gs.correction(rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("grid_id", [1, 2])
def test_correction_levels_cut_closed_streamlines(grid_id):
    # a flow rotating about the centre has closed streamlines, so the rows
    # lean on each other in cycles: each cycle is cut at the unplaced row of
    # smallest index, alone on its level, once no unplaced row is ready
    prob = ProblemSpec(name="vortex", epsilon=1e-3,
                       velocity=lambda x, y: (0.5 - y, x - 0.5),
                       reaction=_constant(0.0), source=_constant(1.0),
                       dirichlet=_constant(0.0))
    mesh = classified(prob, grid_id, 3)
    ops = assemble(mesh, prob)
    m, et = mesh.num_free, mesh.edges
    e = np.flatnonzero((et.i < m) & (et.j < m))
    e = e[ops.conv_e[e] < ops.conv_e[et.rev[e]]]
    lean = np.zeros((m, m), dtype=bool)
    lean[et.i[e], et.j[e]] = True
    gs = _GaussSeidel(ops)
    level = gs.level
    assert level.shape == (m,) and np.all(np.bincount(level) > 0)
    assert np.array_equal(np.sort(gs.order), np.arange(m))
    cuts = 0
    for k in range(int(level.max()) + 1):
        unplaced = level >= k
        ready = np.flatnonzero(unplaced & ~np.any(lean[:, unplaced], axis=1))
        if not ready.size:
            cuts += 1
            ready = np.flatnonzero(unplaced)[:1]
        assert np.array_equal(np.flatnonzero(level == k), ready)
    assert cuts > 0
    again = _GaussSeidel(ops)
    assert np.array_equal(again.level, level)
    assert np.array_equal(again.order, gs.order)
    r = np.random.default_rng(5).standard_normal(m)
    want = level_gauss_seidel(low_order_matrix(mesh, prob)[:m, :m], level, -r)
    assert np.abs(gs.correction(r) - want).max() <= 1e-13 * np.abs(want).max()
    assert (gs.correction(r).tobytes()
            == untrimmed_correction(ops, level, r).tobytes())


def test_zero_sweep_solve_builds_no_preconditioner(monkeypatch):
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, 1, 3)

    def no_preconditioner(ops):
        raise AssertionError("preconditioner built")

    monkeypatch.setattr(cdrfem.solver, "_GaussSeidel", no_preconditioner)
    x = mesh.vertices
    rep = solve(mesh, prob,
                SolveOptions(initial_guess=prob.exact(x[:, 0], x[:, 1])))
    assert rep.converged and rep.iterations == 0
    with pytest.raises(AssertionError, match="preconditioner built"):
        solve(mesh, prob, SolveOptions(max_iter=1))


def test_max_iter_reports_nonconvergence():
    prob = PROBLEMS["circular-convection"]()
    mesh = classified(prob, 1, 3)
    rep = solve(mesh, prob, SolveOptions(max_iter=5, damping=0.5))
    assert not rep.converged
    assert rep.iterations == 5
    assert len(rep.residual_history) == 6
    assert np.all(np.isfinite(rep.u))


def dense_correction(mesh, prob, ops):
    """u -> the correction f = -P^-1 r(u) of the unknowns, P^-1 the
    forward Gauss-Seidel sweep on the dense low-order matrix over the
    production levels."""
    m = mesh.num_free
    L = low_order_matrix(mesh, prob)[:m, :m]
    level = _GaussSeidel(ops).level
    ctx = LimiterContext(ops)
    return lambda u: level_gauss_seidel(
        L, level, -residual(ops, edge_state(ctx, u), u))


@pytest.mark.parametrize("damping", [1.0, 0.25])
def test_first_step_is_damped_correction(damping):
    # with no history to mix, the step is u0 + beta f0
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    correction = dense_correction(mesh, prob, ops)
    u0 = _initial_iterate(mesh, prob, "zero")
    u1 = u0.copy()
    u1[:mesh.num_free] += damping * correction(u0)
    rep = solve(mesh, prob, SolveOptions(damping=damping, max_iter=1),
                ops=ops)
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.u, u1, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("damping", [1.0, 0.25])
def test_mixing_step_is_undamped(damping):
    # once a history exists, damping no longer scales the step: the second
    # iterate is u1 + f1 - (dU + dF) gamma for any damping
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    correction = dense_correction(mesh, prob, ops)
    m = mesh.num_free

    u0 = _initial_iterate(mesh, prob, "zero")
    f0 = correction(u0)
    u1 = u0.copy()
    u1[:m] += damping * f0
    f1 = correction(u1)
    du, dfv = u1[:m] - u0[:m], f1 - f0
    gamma = (dfv @ f1) / (dfv @ dfv)
    u2 = u1.copy()
    u2[:m] = u1[:m] + f1 - (du + dfv) * gamma

    rep = solve(mesh, prob, SolveOptions(damping=damping, max_iter=2),
                ops=ops)
    assert rep.iterations == 2
    np.testing.assert_allclose(rep.u, u2, rtol=0.0, atol=1e-14)


def test_initial_iterate_variants():
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 2)
    m, n = mesh.num_free, mesh.num_vertices
    xd = mesh.vertices[m:]
    ud = prob.dirichlet(xd[:, 0], xd[:, 1])

    u0 = _initial_iterate(mesh, prob, "zero")
    assert np.all(u0[:m] == 0.0) and np.allclose(u0[m:], ud)

    arr = np.linspace(0.0, 1.0, n)
    ua = _initial_iterate(mesh, prob, arr)
    assert np.array_equal(ua[:m], arr[:m])
    assert np.allclose(ua[m:], ud)       # Dirichlet rows are always pinned
    assert ua is not arr


def test_wrong_length_guess_rejected_before_assembly(monkeypatch):
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 2)

    def no_assembly(*args, **kwargs):
        raise AssertionError("assemble called before the guess was checked")

    monkeypatch.setattr(cdrfem.solver, "assemble", no_assembly)
    with pytest.raises(ValueError, match="shape"):
        solve(mesh, prob, SolveOptions(initial_guess=np.zeros(3)))


def foreign_operators_case():
    """(mesh, problem, ops): the interior-layers classification of one
    level-3 grid and the circular-layers operators of the same grid."""
    base = refined(1, 3)
    circ, inner = PROBLEMS["circular-layers"](), PROBLEMS["interior-layers"]()
    ops = assemble(classify_and_order(base, circ), circ)
    return classify_and_order(base, inner), inner, ops


def test_foreign_operators_rejected_before_limiter_context(monkeypatch):
    mesh, prob, ops = foreign_operators_case()

    def no_context(*args, **kwargs):
        raise AssertionError("limiter context built before the operators "
                             "were checked")

    monkeypatch.setattr(cdrfem.solver, "LimiterContext", no_context)
    with pytest.raises(ValueError, match="another mesh"):
        solve(mesh, prob, SolveOptions(), ops=ops)


def test_audit_rejects_foreign_operators():
    mesh, prob, ops = foreign_operators_case()
    rep = solve(ops.mesh, ops.problem, SolveOptions(max_iter=0), ops=ops)
    with pytest.raises(ValueError, match="another mesh"):
        audit_dmp(rep, mesh, ops, prob)


def test_operators_of_another_problem_rejected(monkeypatch):
    # operators assembled for one problem object are refused, before any
    # work, by a solve or an audit handed another one, even an equal copy
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(max_iter=0), ops=ops)

    def no_context(*args, **kwargs):
        raise AssertionError("limiter context built before the operators "
                             "were checked")

    monkeypatch.setattr(cdrfem.solver, "LimiterContext", no_context)
    for other in (PROBLEMS["equilibrium"](), PROBLEMS["interior-layers"]()):
        with pytest.raises(ValueError, match="another problem"):
            solve(mesh, other, SolveOptions(max_iter=5), ops=ops)
        with pytest.raises(ValueError, match="another problem"):
            audit_dmp(rep, mesh, ops, other)


AUDIT_MISFITS = {"longer u": (208, 1e-10), "shorter u": (-3, 1e-10),
                 "nan slack": (0, float("nan")),
                 "inf slack": (0, float("inf")), "negative slack": (0, -1.0)}


@pytest.mark.parametrize("case", sorted(AUDIT_MISFITS))
def test_audit_rejects_misfit_report_and_slack(case):
    # a report of another mesh size (289 values on 81 nodes, or 3 short)
    # and a slack that is not finite and nonnegative are refused
    extra, slack = AUDIT_MISFITS[case]
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(max_iter=0), ops=ops)
    rep.u = np.resize(rep.u, mesh.num_vertices + extra)
    with pytest.raises(ValueError, match="report.u|slack"):
        audit_dmp(rep, mesh, ops, prob, slack=slack)


def test_solve_rejects_bad_names_and_unclassified_mesh():
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 1)
    with pytest.raises(ValueError):
        solve(mesh, prob, SolveOptions(limiter="upwind"))
    with pytest.raises(ValueError):
        solve(mesh, prob, SolveOptions(wb_variant="other"))
    raw = refined(1, 1)
    with pytest.raises(ValueError):
        solve(raw, prob)
    # options that are no SolveOptions are refused before the mesh check
    for options in ({"tol": 1e-8}, "fast"):
        with pytest.raises(TypeError, match=type(options).__name__):
            solve(raw, prob, options)


INVALID_OPTIONS = [
    {"damping": 0.0}, {"damping": -0.5}, {"damping": 1.5},
    {"damping": float("nan")}, {"max_iter": -1}, {"tol": 0.0},
    {"tol": -1e-8}, {"tol": float("inf")}, {"tail_average": -1},
    {"max_iter": 10, "tail_average": 11},
    {"initial_guess": "random"}, {"initial_guess": "dirichlet-extension"},
    {"initial_guess": np.array([0.0, np.nan])},
    {"initial_guess": np.array(["0", "1"])},
    {"limiter": "mc", "check_bounds": True},
    {"limiter": "galerkin", "check_bounds": True},
    {"max_iter": 2.5}, {"max_iter": 10.0}, {"max_iter": True},
    {"tail_average": 1.5}, {"tail_average": True}, {"tail_average": "2"},
    {"check_bounds": "no"}, {"check_bounds": 1},
    {"tol": True}, {"tol": None}, {"tol": "1e-8"}, {"tol": np.True_},
    {"damping": True}, {"damping": None}, {"damping": "0.5"},
]


@pytest.mark.parametrize("kwargs", INVALID_OPTIONS,
                         ids=[repr(k) for k in INVALID_OPTIONS])
def test_invalid_options_rejected(kwargs):
    with pytest.raises(ValueError):
        SolveOptions(**kwargs)
    # options changed after construction are checked again by solve
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, 1, 1)
    opts = SolveOptions()
    for name, value in kwargs.items():
        setattr(opts, name, value)
    with pytest.raises(ValueError):
        solve(mesh, prob, opts)


def test_numpy_counts_accepted():
    # NumPy integers, floats and bools are valid counts, numbers and flags,
    # and give the run that the Python values give
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, 1, 2)
    plain = solve(mesh, prob, SolveOptions(max_iter=3, tail_average=2,
                                           check_bounds=True, damping=0.5))
    counted = solve(mesh, prob, SolveOptions(max_iter=np.int64(3),
                                             tail_average=np.int32(2),
                                             check_bounds=np.True_,
                                             damping=np.float32(0.5),
                                             tol=np.float64(1e-8)))
    assert counted.iterations == plain.iterations == 3
    assert counted.u.tobytes() == plain.u.tobytes()
    assert counted.bound_check == plain.bound_check


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_raises(growing_map):
    # the growth guard stops the run long before the residual norm overflows
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, 1, 3)
    with pytest.raises(RuntimeError, match="diverged") as err:
        solve(mesh, prob, SolveOptions(limiter="galerkin", max_iter=20000))
    sweeps = int(re.search(r"after (\d+) sweeps", str(err.value)).group(1))
    assert sweeps < 1000


def test_galerkin_equilibrium_stays_bounded():
    # the plain central scheme on this convection-dominated case diverged
    # under the Jacobi correction; under the Gauss-Seidel correction its
    # residual never exceeds the first one and the iterate stays finite
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, 1, 3)
    rep = solve(mesh, prob, SolveOptions(limiter="galerkin", max_iter=2000))
    assert np.all(np.isfinite(rep.u))
    assert rep.residual_history.max() <= rep.residual_history[0]
    assert np.abs(rep.u).max() <= 1.01


def test_row_weights_positive_on_benchmarks():
    for factory in PROBLEMS.values():
        prob = factory()
        mesh = classified(prob, 1, 2)
        ops = assemble(mesh, prob)
        assert np.all(ops.row_weight[:mesh.num_free] > 0.0)


@pytest.mark.parametrize("limiter", ["galerkin", "mc", "wmc"])
def test_row_residual_matches_vector(limiter):
    # the row sums that edge_state stores, for every unknown row
    prob = PROBLEMS["interior-layers"]()
    mesh, ops, ctx = limiter_case(prob, 1, 2)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.num_vertices)
    st = edge_state(ctx, u, limiter)
    vec = residual(ops, st, u)
    assert vec.shape == (mesh.num_free,)
    for i in range(mesh.num_free):
        assert row_residual(ops, st, u, i) == pytest.approx(vec[i], abs=1e-13)
    with pytest.raises(ValueError):
        row_residual(ops, st, u, mesh.num_free)


def test_solve_is_deterministic():
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 3)
    opts = SolveOptions(damping=0.5, max_iter=2000)
    rep1 = solve(mesh, prob, opts)
    rep2 = solve(mesh, prob, opts)
    assert np.array_equal(rep1.u, rep2.u)
    assert np.array_equal(rep1.residual_history, rep2.residual_history)


def test_restarts_count_cleared_histories():
    # the default solve of the equilibrium problem overshoots its best
    # residual and clears the mixing history; a run that starts at the
    # exact ramp takes no sweep and so never restarts
    prob = PROBLEMS["equilibrium"]()
    mesh = classified(prob, 1, 2)
    rep = solve(mesh, prob, SolveOptions())
    assert rep.converged
    assert rep.restarts >= 1
    x = mesh.vertices
    ramp = solve(mesh, prob,
                 SolveOptions(initial_guess=prob.exact(x[:, 0], x[:, 1])))
    assert ramp.converged and ramp.iterations == 0
    assert ramp.restarts == 0


def test_mixer_restart_takes_the_damped_update():
    # a residual jump above ANDERSON_RESTART times the best one clears a
    # non-empty history and counts as a restart; with an empty history the
    # same jump counts nothing.  Either way the step is the damped update
    rng = np.random.default_rng(7)
    m, beta = 5, 0.5

    def correction(u):
        return 1.0 - 0.5 * u[:m]

    def damped(u):
        unew = u.copy()
        unew[:m] += beta * correction(u)
        return unew

    u0 = rng.standard_normal(m + 2)
    mixer = _Anderson(m, beta)
    u1 = mixer.step(u0, correction(u0), 1.0)
    assert np.array_equal(u1, damped(u0))
    u2 = mixer.step(u1, correction(u1), 0.5)
    assert mixer.stored == 1 and not np.array_equal(u2, damped(u1))
    jump = 1.01 * ANDERSON_RESTART * 0.5
    assert np.array_equal(mixer.step(u2, correction(u2), jump), damped(u2))
    assert mixer.restarts == 1 and mixer.stored == 0

    fresh = _Anderson(m, beta)
    fresh.step(u0, correction(u0), 1.0)
    jump = 1.01 * ANDERSON_RESTART * 1.0
    assert np.array_equal(fresh.step(u1, correction(u1), jump), damped(u1))
    assert fresh.restarts == 0 and fresh.stored == 0


def test_check_bounds_instrumentation():
    prob = PROBLEMS["interior-layers"]()
    mesh = classified(prob, 1, 3)
    rep = solve(mesh, prob, SolveOptions(damping=0.5, check_bounds=True,
                                         max_iter=4000))
    assert rep.bound_check is not None
    assert rep.bound_check["violations"] == 0
    assert rep.bound_check["max_violation"] <= 1e-12


def test_audit_not_applicable_without_diffusion():
    prob = PROBLEMS["circular-convection"]()
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(damping=0.5, max_iter=3000))
    checks = audit_dmp(rep, mesh, ops, prob)
    assert len(checks) == 9
    assert all(not c.applicable for c in checks)
    assert all(c.violations == 0 for c in checks)


def test_audit_constant_state():
    # zero source and constant boundary data: solution is that constant and
    # every applicable principle holds with zero violations
    kappa = 2.5
    prob = constant_problem(1.0, (1.0, 0.0), 0.0, 0.0, kappa)
    mesh = classified(prob, 1, 3)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(tol=1e-12), ops=ops)
    assert rep.converged
    assert np.allclose(rep.u, kappa, atol=1e-10)
    checks = audit_dmp(rep, mesh, ops, prob)
    assert all(c.applicable for c in checks)
    assert all(c.violations == 0 for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["global_max_zero_reaction"].max_violation <= 1e-10


def test_audit_flags_planted_overshoot():
    prob = constant_problem(1.0, (1.0, 0.0), 0.0, 0.0, 1.0)
    mesh = classified(prob, 1, 2)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(tol=1e-12), ops=ops)
    rep.u[0] = 1.7      # synthetic spike above every neighbour
    checks = {c.name: c for c in audit_dmp(rep, mesh, ops, prob)}
    assert checks["local_max_truncated"].violations >= 1
    assert checks["local_max_truncated"].max_violation == pytest.approx(0.7,
                                                                        abs=1e-9)
    assert checks["global_max_truncated"].violations >= 1


def test_audit_flags_planted_undershoot():
    prob = constant_problem(1.0, (1.0, 0.0), 0.0, 0.0, -1.0)
    mesh = classified(prob, 1, 2)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(tol=1e-12), ops=ops)
    rep.u[0] = -1.7     # synthetic dip below every neighbour
    checks = {c.name: c for c in audit_dmp(rep, mesh, ops, prob)}
    for name in ("local_min_truncated", "global_min_truncated"):
        assert checks[name].violations >= 1
        assert checks[name].max_violation == pytest.approx(0.7, abs=1e-9)
