import numpy as np
import pytest

import cdrfem.benchmarks
from cdrfem import (PROBLEMS, SolveOptions, assemble, audit_dmp,
                    convergence_study, eoc, error_norms, solve)
from cdrfem.benchmarks import problem_boundary_layers, problem_equilibrium
from cases import classified, refined
from oracles import gathered_error_norms


def test_interior_layers_coefficients():
    p = PROBLEMS["interior-layers"]()
    assert p.epsilon == 1e-8
    assert p.source(0.3, 0.5) == 10.0
    assert p.source(0.05, 0.5) == 0.0
    assert p.source(0.1, 0.25) == 10.0       # closed box includes its edge
    assert p.reaction(0.8, 0.1) == 25.0
    assert p.reaction(0.5, 0.5) == 0.0
    assert p.reaction(0.75, 0.5) == 0.0      # strip is open at x = 0.75
    vx, vy = p.velocity(0.3, 0.9)
    assert vx == 1.0 and vy == 0.0
    assert p.dirichlet(0.0, 0.4) == 0.0


FIELD_INPUTS = [
    (0.3, 0.7),
    (np.linspace(0.0, 1.0, 5), np.linspace(1.0, 0.0, 5)),
    tuple(np.meshgrid(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3))),
]


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_fields_are_float_arrays_of_the_broadcast_shape(name):
    # a 0-d result may be a NumPy float scalar, as ufuncs return it
    p = PROBLEMS[name]()
    for x, y in FIELD_INPUTS:
        velocity = p.velocity(x, y)
        assert len(velocity) == 2
        values = [*velocity, p.reaction(x, y), p.source(x, y),
                  p.dirichlet(x, y)]
        if p.exact is not None:
            values.append(p.exact(x, y))
        for v in values:
            assert isinstance(v, (np.ndarray, np.floating))
            assert v.dtype == np.float64
            assert v.shape == np.broadcast(x, y).shape


def test_boundary_layers_values():
    p = PROBLEMS["boundary-layers"]()
    assert p.epsilon == 1e-3
    assert p.exact(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # away from the layers the solution is essentially x*y^2
    assert p.exact(0.2, 0.5) == pytest.approx(0.2 * 0.25, abs=1e-12)
    vx, vy = p.velocity(0.5, 0.5)
    assert vx == 2.0 and vy == 3.0
    assert p.reaction(0.3, 0.3) == 0.0
    with pytest.raises(ValueError):
        problem_boundary_layers(epsilon=0.0)
    with pytest.raises(ValueError):
        problem_boundary_layers(epsilon=-1e-3)
    # ProblemSpec itself rejects a non-finite diffusion coefficient
    with pytest.raises(ValueError, match="finite"):
        problem_equilibrium(epsilon=float("nan"))
    with pytest.raises(ValueError, match="vhat must be nonzero"):
        problem_equilibrium(vhat=(0.0, 0.0))


def test_boundary_layers_source_against_finite_differences():
    # the closed-form forcing must equal -eps*lap(u) + v.grad(u)
    p = PROBLEMS["boundary-layers"]()
    eps, (x0, y0), h = p.epsilon, (0.5, 0.5), 1e-6
    u = p.exact
    ux = (u(x0 + h, y0) - u(x0 - h, y0)) / (2 * h)
    uy = (u(x0, y0 + h) - u(x0, y0 - h)) / (2 * h)
    uxx = (u(x0 + h, y0) - 2 * u(x0, y0) + u(x0 - h, y0)) / h ** 2
    uyy = (u(x0, y0 + h) - 2 * u(x0, y0) + u(x0, y0 - h)) / h ** 2
    want = -eps * (uxx + uyy) + 2.0 * ux + 3.0 * uy
    got = p.source(x0, y0)
    assert got == pytest.approx(want, rel=1e-4)


def test_circular_layers_coefficients():
    p = PROBLEMS["circular-layers"]()
    assert p.epsilon == 1e-4
    assert p.source(0.5, 0.0) == 1.0
    assert p.reaction(0.5, 0.0) == 0.0
    assert p.source(0.9, 0.9) == 0.0
    assert p.reaction(0.9, 0.9) == 1.0
    assert p.source(0.25, 0.0) == 1.0        # closed annulus boundary
    vx, vy = p.velocity(1.0, 0.0)
    assert vx == 0.0 and vy == -1.0
    assert p.neumann_sides == (0,)           # open bottom side
    assert p.exact is None


def test_circular_convection_values():
    p = PROBLEMS["circular-convection"]()
    assert p.epsilon == 0.0
    assert p.boundary == "inflow"
    assert p.exact(0.7, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert p.exact(0.0, 0.0) == pytest.approx(np.exp(-49.0), rel=1e-12)
    # the source balances the reaction so the ring is stationary: f = c*u
    x = np.linspace(0.0, 1.0, 23)
    X, Y = np.meshgrid(x, x)
    assert np.array_equal(p.source(X, Y), p.exact(X, Y))
    assert np.all(p.reaction(X, Y) == 1.0)


def test_problem_purity():
    for factory in PROBLEMS.values():
        p = factory()
        pts = np.array([[0.1, 0.25], [0.75, 0.0], [0.6, 0.75]])
        for fn in (p.source, p.reaction, p.dirichlet):
            a = fn(pts[:, 0], pts[:, 1])
            b = fn(pts[:, 0], pts[:, 1])
            assert np.array_equal(a, b)


def test_error_norms_interpolated_linear():
    p = PROBLEMS["equilibrium"]()
    mesh = classified(p, 1, 3)
    exact = lambda x, y: 0.25 + 0.5 * x - 1.5 * y
    u = exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    l1, l2 = error_norms(mesh, u, exact)
    assert l1 <= 1e-14 and l2 <= 1e-14


def test_error_norms_constant_and_ramp():
    p = PROBLEMS["equilibrium"]()
    mesh = classified(p, 1, 3)
    zero = np.zeros(mesh.num_vertices)
    l1, l2 = error_norms(mesh, zero, lambda x, y: np.ones_like(x))
    assert l1 == pytest.approx(1.0, abs=1e-13)
    assert l2 == pytest.approx(1.0, abs=1e-13)
    l1, l2 = error_norms(mesh, zero, lambda x, y: x)
    assert l1 == pytest.approx(0.5, abs=1e-13)
    assert l2 == pytest.approx(1.0 / np.sqrt(3.0), abs=1e-13)


def test_error_norms_rejects_wrong_shape():
    p = PROBLEMS["equilibrium"]()
    mesh = classified(p, 1, 2)
    n = mesh.num_vertices
    for u in (np.zeros(n + 50), np.zeros(n - 1), np.zeros((n, 1))):
        with pytest.raises(ValueError, match=f"expected {n} nodal values"):
            error_norms(mesh, u, p.exact)


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("grid_id", [1, 2])
def test_error_norms_match_gathered_oracle(monkeypatch, grid_id, block):
    # bit for bit, at the exact solution's interpolant and at a noisy u with
    # +0 and -0 entries; a block of 7 cells leaves a partial last block
    if block is not None:
        monkeypatch.setattr("cdrfem.mesh._BLOCK_ROWS", block)
    rng = np.random.default_rng(grid_id)
    for name in ("boundary-layers", "circular-convection", "equilibrium"):
        exact = PROBLEMS[name]().exact
        for level in range(7 if block is None else 4):
            mesh = refined(grid_id, level)
            x = mesh.vertices
            u = exact(x[:, 0], x[:, 1])
            noisy = u + 1e-3 * rng.standard_normal(u.size)
            pick = rng.random(u.size)
            noisy[pick < 0.1] = 0.0
            noisy[pick > 0.9] = -0.0
            for v in (u, noisy):
                got = error_norms(mesh, v, exact)
                want = gathered_error_norms(mesh, v, exact)
                assert [e.hex() for e in got] == [e.hex() for e in want], \
                    (name, level)


def test_eoc_values():
    assert eoc(0.4, 0.1) == pytest.approx(2.0, abs=1e-14)
    assert eoc(1.2726041914149e-3, 2.9652705261797e-4) == pytest.approx(
        2.101548143161334, rel=1e-12)
    assert eoc(0.3, 0.3) == 0.0


def test_convergence_study_smoke():
    p = PROBLEMS["circular-convection"]()
    opts = SolveOptions(damping=0.25, max_iter=6000)
    recs = convergence_study(p, 1, range(1, 4), opts)
    assert [r.level for r in recs] == [1, 2, 3]
    assert recs[0].eoc_l1 is None and recs[0].eoc_l2 is None
    for a, b in zip(recs, recs[1:]):
        assert b.h == pytest.approx(a.h / 2.0, rel=1e-14)
        assert b.eoc_l1 is not None
    assert all(r.converged for r in recs)
    assert all(r.l1_error > 0 and r.l2_error > 0 for r in recs)


def test_convergence_study_warm_start_matches(monkeypatch):
    reports = []

    def recording_solve(*args, **kwargs):
        reports.append(solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cdrfem.benchmarks, "solve", recording_solve)
    p = PROBLEMS["circular-convection"]()
    opts = SolveOptions(damping=0.25, max_iter=6000)
    cold = convergence_study(p, 1, range(1, 4), opts)
    warm = convergence_study(p, 1, range(1, 4), opts, warm_start=True)
    assert all(r.converged for r in warm)
    for a, b in zip(cold, warm):
        assert b.l1_error == pytest.approx(a.l1_error, rel=1e-5)
    # the prolonged coarse solution starts the finest level closer to its
    # fixed point than zero does; fewer sweeps do not follow from that
    assert len(reports) == 6
    assert reports[5].residual_history[0] < reports[2].residual_history[0]


def test_convergence_study_single_level_and_no_exact():
    p = PROBLEMS["circular-convection"]()
    recs = convergence_study(p, 1, [2], SolveOptions(damping=0.25,
                                                     max_iter=4000))
    assert len(recs) == 1 and recs[0].eoc_l1 is None

    layers = PROBLEMS["circular-layers"]()
    recs = convergence_study(layers, 1, [1, 2],
                             SolveOptions(damping=0.5, max_iter=4000))
    assert all(r.l1_error is None and r.eoc_l1 is None for r in recs)


def test_convergence_study_rejects_bad_levels(monkeypatch):
    p = PROBLEMS["circular-convection"]()
    with pytest.raises(ValueError):
        convergence_study(p, 1, [3, 5], SolveOptions())
    with pytest.raises(ValueError):
        convergence_study(p, 1, [4, 3], SolveOptions())
    with pytest.raises(ValueError):
        convergence_study(p, 1, [-1, 0], SolveOptions())
    with pytest.raises(ValueError):
        convergence_study(p, 1, [], SolveOptions())
    [rec] = convergence_study(PROBLEMS["equilibrium"](), 1, [np.int64(1)])
    assert rec.level == 1 and rec.converged

    # bools and non-integers are rejected before any mesh is built, by the
    # rule of SolveOptions.max_iter
    def no_mesh(*args, **kwargs):
        raise AssertionError("mesh built before the levels were checked")

    monkeypatch.setattr(cdrfem.benchmarks, "build_level0", no_mesh)
    # the guard is reached: valid levels build a mesh and trip it
    with pytest.raises(AssertionError, match="mesh built"):
        convergence_study(p, 1, [0])
    for levels in ([True], [2.5], [1, 2.0], [np.int64(0), np.bool_(True)]):
        with pytest.raises(ValueError, match="integers"):
            convergence_study(p, 1, levels)
    # options are checked before any mesh too: one changed after
    # construction, and options that are no SolveOptions
    opts = SolveOptions()
    opts.tol = -1.0
    with pytest.raises(ValueError, match="tol"):
        convergence_study(p, 1, [0], opts)
    for options in ({"tol": 1e-8}, "fast"):
        with pytest.raises(TypeError, match=type(options).__name__):
            convergence_study(p, 1, [0], options)


def test_level_record_carries_its_solve():
    # the record's operators and report are those of a direct solve on the
    # same classified mesh, byte for byte, and audit the same way
    p = PROBLEMS["interior-layers"]()
    opts = SolveOptions(damping=0.5)
    [rec] = convergence_study(p, 2, [3], opts)
    mesh = classified(p, 2, 3)
    assert np.array_equal(rec.ops.mesh.vertices, mesh.vertices)
    rep = solve(mesh, p, opts)
    assert rec.report.u.tobytes() == rep.u.tobytes()
    assert (rec.report.residual_history.tobytes()
            == rep.residual_history.tobytes())
    assert rec.iterations == rep.iterations
    assert rec.converged == rep.converged
    assert (audit_dmp(rec.report, rec.ops.mesh, rec.ops, p)
            == audit_dmp(rep, mesh, assemble(mesh, p), p))


def test_equilibrium_ramp_is_reproduced():
    p = PROBLEMS["equilibrium"]()
    mesh = classified(p, 2, 2)
    rep = solve(mesh, p, SolveOptions(tol=1e-10))
    assert rep.converged
    want = p.exact(mesh.vertices[:, 0], mesh.vertices[:, 1])
    assert np.max(np.abs(rep.u - want)) <= 1e-9


def test_tail_average_takes_over_at_max_iter():
    # the run would converge at sweep 27, so it stops at max_iter unconverged
    p = PROBLEMS["circular-convection"]()
    mesh = classified(p, 1, 3)
    rep = solve(mesh, p, SolveOptions(damping=0.5, max_iter=20,
                                      tail_average=20))
    assert not rep.converged
    assert rep.iterations == 20
    # one residual per visited iterate plus one for the returned mean
    assert len(rep.residual_history) == 22
    assert np.isfinite(rep.residual_history[-1])


def test_tail_mean_is_mean_of_last_iterates():
    # the returned mean is the running sum of the iterates after sweeps
    # 9..12, divided by 4, byte for byte
    p = PROBLEMS["circular-layers"]()
    mesh = classified(p, 1, 3)
    rep = solve(mesh, p, SolveOptions(damping=0.5, max_iter=12,
                                      tail_average=4))
    assert not rep.converged and rep.iterations == 12
    acc = None
    for k in range(9, 13):
        u = solve(mesh, p, SolveOptions(damping=0.5, max_iter=k)).u
        acc = u.copy() if acc is None else acc + u
    assert np.array_equal((acc / 4).view(np.int64), rep.u.view(np.int64))
