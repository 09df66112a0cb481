import re

import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from cdrfem import (PROBLEMS, ProblemSpec, SolveOptions, assemble, audit_dmp,
                    build_level0, classify_and_order, refine, solve)
from cdrfem.limiter import LimiterContext, edge_state
from cdrfem.solver import (_initial_iterate, fixed_point_step, residual,
                           row_residual, row_weights)


def const(val):
    return lambda x, y: np.full_like(np.asarray(x, dtype=float), val)


def smooth_problem():
    # diffusion-dominated; the plain update contracts fast
    return ProblemSpec(name="smooth", epsilon=1.0,
                       velocity=lambda x, y: (const(0.4)(x, y),
                                              const(0.3)(x, y)),
                       reaction=const(0.5), source=const(1.0),
                       dirichlet=const(0.0))


def meshed(problem, grid_id=1, level=3):
    mesh = build_level0(grid_id)
    for _ in range(level):
        mesh = refine(mesh)
    return classify_and_order(mesh, problem)


def test_galerkin_matches_sparse_direct():
    prob = smooth_problem()
    mesh = meshed(prob)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(limiter="galerkin", tol=1e-12),
                ops=ops)
    assert rep.converged
    m = mesh.num_free
    A = ops.galerkin_matrix.tocsr()
    rhs = ops.b[:m] - A[:m, m:] @ rep.u[m:]
    u_direct = spsolve(A[:m, :m].tocsc(), rhs)
    assert np.allclose(rep.u[:m], u_direct, atol=1e-10)


def test_single_unknown_solved_exactly():
    prob = PROBLEMS["interior-layers"]()
    mesh = meshed(prob, level=1)
    assert mesh.num_free == 1
    rep = solve(mesh, prob, SolveOptions(tol=1e-13))
    assert rep.converged and rep.iterations <= 500
    assert rep.residual_history[-1] <= 1e-13


def test_exact_guess_converges_without_sweeps():
    prob = smooth_problem()
    mesh = meshed(prob, level=2)
    first = solve(mesh, prob, SolveOptions(limiter="galerkin", tol=1e-12))
    again = solve(mesh, prob, SolveOptions(limiter="galerkin", tol=1e-10,
                                           initial_guess=first.u))
    assert again.converged
    assert again.iterations == 0
    assert np.array_equal(again.u, first.u)


def test_max_iter_reports_nonconvergence():
    prob = PROBLEMS["circular-convection"]()
    mesh = meshed(prob, level=3)
    rep = solve(mesh, prob, SolveOptions(max_iter=5, damping=0.5))
    assert not rep.converged
    assert rep.iterations == 5
    assert len(rep.residual_history) == 6
    assert np.all(np.isfinite(rep.u))


def test_initial_iterate_variants():
    prob = PROBLEMS["interior-layers"]()
    mesh = meshed(prob, level=2)
    m, n = mesh.num_free, mesh.num_vertices
    xd = mesh.vertices[m:]
    ud = prob.dirichlet(xd[:, 0], xd[:, 1])

    u0 = _initial_iterate(mesh, prob, "zero")
    assert np.all(u0[:m] == 0.0) and np.allclose(u0[m:], ud)

    ue = _initial_iterate(mesh, prob, "dirichlet-extension")
    assert np.all(ue[:m] == ud.mean()) and np.allclose(ue[m:], ud)

    arr = np.linspace(0.0, 1.0, n)
    ua = _initial_iterate(mesh, prob, arr)
    assert np.array_equal(ua[:m], arr[:m])
    assert np.allclose(ua[m:], ud)       # Dirichlet rows are always pinned
    assert ua is not arr

    with pytest.raises(ValueError):
        _initial_iterate(mesh, prob, np.zeros(3))
    with pytest.raises(ValueError):
        _initial_iterate(mesh, prob, "random")


def test_solve_rejects_bad_names_and_unclassified_mesh():
    prob = PROBLEMS["interior-layers"]()
    mesh = meshed(prob, level=1)
    with pytest.raises(ValueError):
        solve(mesh, prob, SolveOptions(limiter="upwind"))
    with pytest.raises(ValueError):
        solve(mesh, prob, SolveOptions(wb_variant="other"))
    raw = refine(build_level0(1))
    with pytest.raises(ValueError):
        solve(raw, prob)


INVALID_OPTIONS = [
    {"damping": 0.0}, {"damping": -0.5}, {"damping": 1.5},
    {"damping": float("nan")}, {"max_iter": -1}, {"tol": 0.0},
    {"tol": -1e-8}, {"tail_average": -1},
    {"max_iter": 10, "tail_average": 11},
]


@pytest.mark.parametrize("kwargs", INVALID_OPTIONS,
                         ids=[repr(k) for k in INVALID_OPTIONS])
def test_invalid_options_rejected(kwargs):
    with pytest.raises(ValueError):
        SolveOptions(**kwargs)
    # options changed after construction are checked again by solve
    prob = PROBLEMS["equilibrium"]()
    mesh = meshed(prob, level=1)
    opts = SolveOptions()
    for name, value in kwargs.items():
        setattr(opts, name, value)
    with pytest.raises(ValueError):
        solve(mesh, prob, opts)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_raises():
    # the growth guard stops the run long before the residual norm overflows
    prob = PROBLEMS["boundary-layers"]()
    mesh = meshed(prob, level=3)
    with pytest.raises(RuntimeError, match="diverged") as err:
        solve(mesh, prob, SolveOptions(limiter="galerkin", max_iter=20000))
    sweeps = int(re.search(r"after (\d+) sweeps", str(err.value)).group(1))
    assert sweeps < 1000


@pytest.mark.parametrize("name", ["boundary-layers", "equilibrium"])
def test_sweeps_form_convex_combinations(name):
    # with no reaction each undamped update averages its row's inputs
    prob = PROBLEMS[name]()
    mesh = meshed(prob, grid_id=1, level=3)
    ops = assemble(mesh, prob)
    assert np.all(ops.reaction_lumped == 0.0)
    ctx = LimiterContext(mesh, ops, prob)
    et = mesh.edges
    m = mesh.num_free
    u = _initial_iterate(mesh, prob, "zero")
    for _ in range(50):
        st = edge_state(ctx, u)
        unew = fixed_point_step(ops, st, u)
        inputs_hi = np.maximum(np.maximum.reduceat(st.ubar_s_star,
                                                   et.indptr[:-1]),
                               np.maximum.reduceat(u[et.j], et.indptr[:-1]))
        inputs_lo = np.minimum(np.minimum.reduceat(st.ubar_s_star,
                                                   et.indptr[:-1]),
                               np.minimum.reduceat(u[et.j], et.indptr[:-1]))
        assert np.all(unew[:m] <= inputs_hi[:m] + 1e-13)
        assert np.all(unew[:m] >= inputs_lo[:m] - 1e-13)
        u = unew


def test_row_weights_positive_on_benchmarks():
    for factory in PROBLEMS.values():
        prob = factory()
        mesh = meshed(prob, level=2)
        ops = assemble(mesh, prob)
        assert np.all(row_weights(ops)[:mesh.num_free] > 0.0)


def test_row_residual_matches_vector():
    prob = PROBLEMS["interior-layers"]()
    mesh = meshed(prob, level=2)
    ops = assemble(mesh, prob)
    ctx = LimiterContext(mesh, ops, prob)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(mesh.num_vertices)
    st = edge_state(ctx, u)
    vec = residual(ops, st, u)
    for i in (0, 3, mesh.num_free - 1):
        assert row_residual(ops, st, u, i) == pytest.approx(vec[i], abs=1e-13)
    with pytest.raises(ValueError):
        row_residual(ops, st, u, mesh.num_free)


def test_solve_is_deterministic():
    prob = PROBLEMS["interior-layers"]()
    mesh = meshed(prob, level=3)
    opts = SolveOptions(damping=0.5, max_iter=2000)
    rep1 = solve(mesh, prob, opts)
    rep2 = solve(mesh, prob, opts)
    assert np.array_equal(rep1.u, rep2.u)
    assert np.array_equal(rep1.residual_history, rep2.residual_history)


def test_report_meta():
    prob = PROBLEMS["equilibrium"]()
    mesh = meshed(prob, level=2)
    rep = solve(mesh, prob, SolveOptions(max_iter=4000, damping=0.9))
    for key in ("problem", "limiter", "wb_variant", "tol", "damping",
                "epsilon", "level", "ndof", "num_free", "h"):
        assert key in rep.meta
    assert rep.meta["level"] == 2
    assert rep.meta["ndof"] == mesh.num_vertices


def test_check_bounds_instrumentation():
    prob = PROBLEMS["interior-layers"]()
    mesh = meshed(prob, level=3)
    rep = solve(mesh, prob, SolveOptions(damping=0.5, check_bounds=True,
                                         max_iter=4000))
    assert rep.bound_check is not None
    assert rep.bound_check["violations"] == 0
    assert rep.bound_check["max_violation"] <= 1e-12


def test_audit_not_applicable_without_diffusion():
    prob = PROBLEMS["circular-convection"]()
    mesh = meshed(prob, level=3)
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
    prob = ProblemSpec(name="const", epsilon=1.0,
                       velocity=lambda x, y: (const(1.0)(x, y),
                                              const(0.0)(x, y)),
                       reaction=const(0.0), source=const(0.0),
                       dirichlet=const(kappa))
    mesh = meshed(prob, level=3)
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
    prob = ProblemSpec(name="const", epsilon=1.0,
                       velocity=lambda x, y: (const(1.0)(x, y),
                                              const(0.0)(x, y)),
                       reaction=const(0.0), source=const(0.0),
                       dirichlet=const(1.0))
    mesh = meshed(prob, level=2)
    ops = assemble(mesh, prob)
    rep = solve(mesh, prob, SolveOptions(tol=1e-12), ops=ops)
    rep.u[0] = 1.7      # synthetic spike above every neighbour
    checks = {c.name: c for c in audit_dmp(rep, mesh, ops, prob)}
    assert checks["local_max_truncated"].violations >= 1
    assert checks["local_max_truncated"].max_violation == pytest.approx(0.7,
                                                                        abs=1e-9)
    assert checks["global_max_truncated"].violations >= 1
