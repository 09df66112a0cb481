"""Fixed-point solution of the limited systems and maximum-principle audits.

Every limiter (plain Galerkin, bar-state limiting, balanced limiting) is
driven through the same map: freeze the edge states at the current iterate,
then update each unknown from the weighted average

    u_i <- ( sum_j [ 2 d_ij ubar*_ij - a_ij^D u_j ] + rhs_i ) / a_i ,

whose weights are nonnegative on weakly acute meshes.  ``solve`` reaches the
fixed point of this map by type-II Anderson mixing (Walker & Ni, SINUM 49,
2011) over the last ``ANDERSON_DEPTH`` differences of iterates and
corrections, with ``damping`` as the mixing parameter; with no history the
step is the damped update above.  Dirichlet values are pinned throughout.
Convergence is declared on the Euclidean norm of the row residuals over the
unknown rows.

A single update is a convex combination of its inputs, so it keeps the
bar-state bounds; a mixed iterate is not, and nothing guarantees that it or
a tail average of mixed iterates does.  The maximum-principle audit of a
returned solution is the check: the tail-averaged circular-layers run of
criterion 6 (level 5, damping 0.25) passes it with residual 6.9e-7, against
4.3e-6 for plain damped sweeps.
"""

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .assembly import assemble
from .limiter import LimiterContext, edge_state

LIMITERS = ("galerkin", "mc", "wmc")
VARIANTS = ("full", "simplified")

# a residual norm this many times max(first norm, 1) counts as divergence
DIVERGENCE_GROWTH = 1e8
# Anderson mixing keeps this many differences of past iterates and
# corrections ...
ANDERSON_DEPTH = 6
# ... and forgets them once the residual norm exceeds this many times its
# best value so far
ANDERSON_RESTART = 2.0


@dataclass
class SolveOptions:
    limiter: str = "wmc"
    wb_variant: str = "full"
    tol: float = 1e-8
    max_iter: int = 30000
    # the mixing parameter beta of the Anderson step u + beta f - (dU +
    # beta dF) gamma, where f is the correction of one undamped update; with
    # no history this is the damped update (1 - beta) u + beta G(u)
    damping: float = 1.0
    initial_guess: Union[str, np.ndarray] = "zero"
    check_bounds: bool = False
    # On convection-dominated problems the limiter switching can trap the
    # iteration on a small bounded orbit around the fixed point instead of
    # converging.  With tail_average = k > 0 a run that exhausts max_iter
    # returns the mean of its last k iterates, which cancels the rotating
    # component and typically sits orders of magnitude closer to the fixed
    # point.  Mixed iterates are no convex combinations, so the mean has no
    # bound guarantee (see the module docstring).
    tail_average: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Reject settings no solve can honour, before any work is done."""
        if self.limiter not in LIMITERS:
            raise ValueError(f"unknown limiter {self.limiter!r}")
        if self.wb_variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.wb_variant!r}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if not 0 <= self.tail_average <= self.max_iter:
            raise ValueError(f"tail_average must lie in [0, max_iter], got "
                             f"{self.tail_average}")
        if self.check_bounds and self.limiter != "wmc":
            raise ValueError("check_bounds needs the balanced limiter 'wmc'; "
                             f"{self.limiter!r} has no limited bar states")
        guess = self.initial_guess
        if not (isinstance(guess, np.ndarray)
                or (isinstance(guess, str) and guess == "zero")):
            raise ValueError(f"initial_guess must be 'zero' or an array, "
                             f"got {guess!r}")


@dataclass
class SolveReport:
    u: np.ndarray
    converged: bool
    iterations: int
    residual_history: np.ndarray
    meta: dict = field(default_factory=dict)
    bound_check: Optional[dict] = None


def _gather(ops, state, u):
    """Row sums of 2 d_ij ubar*_ij - a_ij^D u_j over the unknown rows.

    Unknowns come first and edges are sorted by row, so the rows of the
    unknowns own the leading ``indptr[num_free]`` edges.
    """
    et = ops.mesh.edges
    m = ops.num_free
    nf = et.indptr[m]
    terms = ops.diff_e[:nf] * u[et.j[:nf]]
    np.subtract(state.wflux[:nf], terms, out=terms)
    return np.add.reduceat(terms, et.indptr[:m])


def _norm(r):
    """Euclidean norm of r, summed by einsum: np.linalg.norm sums through
    BLAS dot, whose summation order depends on the BLAS thread count."""
    return float(np.sqrt(np.einsum("i,i->", r, r)))


def residual(ops, state, u, gather=None):
    """Row residuals of the frozen-state system over the unknown rows.

    ``gather`` is ``_gather(ops, state, u)``; a solve passes it in, so the
    gather is reduced once per sweep.
    """
    m = ops.num_free
    g = _gather(ops, state, u) if gather is None else gather
    return ops.row_weight[:m] * u[:m] - g - state.rhs[:m]


def fixed_point_step(ops, state, u, gather=None):
    """One undamped update of all unknowns; Dirichlet entries pass through.

    ``gather`` is as in ``residual``.
    """
    m = ops.num_free
    g = _gather(ops, state, u) if gather is None else gather
    unew = u.copy()
    unew[:m] = (g + state.rhs[:m]) / ops.row_weight[:m]
    return unew


def _initial_iterate(mesh, problem, guess):
    """The guess ("zero" or an array of nodal values) with the Dirichlet
    values pinned."""
    m = mesh.num_free
    xd = mesh.vertices[m:]
    if isinstance(guess, str):
        u = np.zeros(mesh.num_vertices)
    else:
        u = guess.astype(float)
    u[m:] = np.asarray(problem.dirichlet(xd[:, 0], xd[:, 1]), dtype=float)
    return u


def solve(mesh, problem, options=None, ops=None):
    """Solve one problem on a classified mesh.

    Returns a SolveReport whose ``u`` lives in mesh ordering (unknowns
    first).  Raises once the residual norm is not finite or exceeds
    ``DIVERGENCE_GROWTH`` times the larger of its first value and 1, which
    catches a blowup before the norm overflows; plain non-convergence inside
    ``max_iter`` is reported, not raised.  With ``tail_average`` set, a run
    that hits ``max_iter`` returns the mean over its final sweeps instead of
    the last iterate and appends that mean's residual to the history; the
    converged flag then refers to the returned mean.  ``meta["restarts"]``
    counts how often a residual norm above ``ANDERSON_RESTART`` times its
    best value cleared the mixing history.
    """
    if options is None:
        options = SolveOptions()
    options.validate()
    if mesh.num_free is None:
        raise ValueError("mesh must be classified before solving")
    n = mesh.num_vertices
    guess = options.initial_guess
    if isinstance(guess, np.ndarray) and guess.shape != (n,):
        raise ValueError(f"initial guess must have shape ({n},)")
    if ops is None:
        ops = assemble(mesh, problem)

    ctx = LimiterContext(mesh, ops, problem)
    u = _initial_iterate(mesh, problem, guess)
    beta = float(options.damping)
    tail = options.tail_average

    m = mesh.num_free
    history = []
    bound_max = 0.0
    bound_count = 0
    iterations = 0
    converged = False
    acc, acc_n = None, 0
    # Anderson state, allocated at the first step: ring buffers of the last
    # ANDERSON_DEPTH iterate and correction differences, the Gram matrix of
    # the correction differences, and the previous iterate and correction.
    # Their products are einsums, not BLAS calls, so their summation order
    # does not depend on the BLAS thread count
    dx = df = gram = None
    stored = restarts = 0
    best = np.inf
    while True:
        state = edge_state(ctx, u, options.limiter, options.wb_variant)
        gather = _gather(ops, state, u)
        rnorm = _norm(residual(ops, state, u, gather))
        history.append(rnorm)
        limit = DIVERGENCE_GROWTH * max(history[0], 1.0)
        if not (np.isfinite(rnorm) and rnorm <= limit):
            raise RuntimeError(
                f"fixed-point iteration diverged after {iterations} sweeps")
        if options.check_bounds:
            free = ctx.free_row
            over = state.ubar_s_star[free] - state.bar_max[state.ei[free]]
            under = state.bar_min[state.ei[free]] - state.ubar_s_star[free]
            worst = max(float(over.max()), float(under.max()))
            bound_max = max(bound_max, worst)
            bound_count += int(np.sum(over > 1e-12) + np.sum(under > 1e-12))
        if rnorm <= options.tol:
            converged = True
            break
        if iterations >= options.max_iter:
            break
        unew = fixed_point_step(ops, state, u, gather)
        f = unew[:m] - u[:m]
        if dx is None:
            dx = np.empty((ANDERSON_DEPTH, m))
            df = np.empty((ANDERSON_DEPTH, m))
            gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
        elif rnorm > ANDERSON_RESTART * best:
            restarts += stored > 0
            stored = 0
        else:
            s = stored % ANDERSON_DEPTH
            np.subtract(u[:m], u_prev, out=dx[s])
            np.subtract(f, f_prev, out=df[s])
            stored += 1
            k = min(stored, ANDERSON_DEPTH)
            gram[s, :k] = gram[:k, s] = np.einsum("km,m->k", df[:k], df[s])
        best = min(best, rnorm)
        u_prev, f_prev = u[:m], f
        if beta != 1.0:
            unew[:m] = (1.0 - beta) * u[:m] + beta * unew[:m]
        if stored:
            # gamma minimises |f - dF gamma|; the step is u + beta f
            # - (dU + beta dF) gamma
            k = min(stored, ANDERSON_DEPTH)
            rhs = np.einsum("km,m->k", df[:k], f)
            gamma = np.linalg.lstsq(gram[:k, :k], rhs, rcond=None)[0]
            unew[:m] -= np.einsum("k,km->m", gamma, dx[:k])
            unew[:m] -= np.einsum("k,km->m", beta * gamma, df[:k])
        u = unew
        iterations += 1
        if tail > 0 and iterations > options.max_iter - tail:
            acc = u.copy() if acc is None else acc + u
            acc_n += 1

    if not converged and acc is not None:
        u = acc / acc_n
        state = edge_state(ctx, u, options.limiter, options.wb_variant)
        rnorm = _norm(residual(ops, state, u))
        history.append(rnorm)
        converged = rnorm <= options.tol

    report = SolveReport(
        u=u, converged=converged, iterations=iterations,
        residual_history=np.asarray(history),
        meta={"problem": problem.name, "limiter": options.limiter,
              "wb_variant": options.wb_variant if options.limiter == "wmc" else None,
              "tol": options.tol, "max_iter": options.max_iter,
              "damping": options.damping, "tail_average": tail,
              "epsilon": problem.epsilon, "restarts": restarts,
              "level": mesh.level, "ndof": mesh.num_vertices,
              "num_free": mesh.num_free, "h": mesh.h})
    if options.check_bounds:
        report.bound_check = {"max_violation": bound_max,
                              "violations": bound_count}
    return report


@dataclass
class AuditCheck:
    """Outcome of one discrete-maximum-principle check."""
    name: str
    applicable: bool
    violations: int
    max_violation: float


def _check(name, applicable, viol, slack):
    if not applicable or viol.size == 0:
        return AuditCheck(name, bool(applicable), 0, 0.0)
    worst = abs(float(max(viol.max(), 0.0)))
    return AuditCheck(name, True, int(np.sum(viol > slack)), worst)


def audit_dmp(report, mesh, ops, problem, slack=1e-10):
    """Audit a solution against the maximum-principle bounds.

    The bounds require an elliptic part, so with zero diffusion every check
    reports not-applicable.  ``violations`` counts nodes beyond ``slack``;
    ``max_violation`` is the raw worst overshoot.
    """
    u = report.u
    m = mesh.num_free
    et = mesh.edges
    elliptic = problem.epsilon > 0.0

    nb_max = np.maximum.reduceat(u[et.j], et.indptr[:-1])[:m]
    nb_min = np.minimum.reduceat(u[et.j], et.indptr[:-1])[:m]
    nb_max_pos = np.maximum(nb_max, 0.0)
    nb_min_neg = np.minimum(nb_min, 0.0)

    b = ops.b[:m]
    no_reac = ops.reaction_lumped[:m] == 0.0
    sink = b <= 0.0
    rise = b >= 0.0

    checks = [
        _check("local_max_truncated", elliptic,
               (u[:m] - nb_max_pos)[sink], slack),
        _check("local_min_truncated", elliptic,
               (nb_min_neg - u[:m])[rise], slack),
        _check("local_max_zero_reaction", elliptic,
               (u[:m] - nb_max)[sink & no_reac], slack),
        _check("local_min_zero_reaction", elliptic,
               (nb_min - u[:m])[rise & no_reac], slack),
    ]

    ud = u[m:]
    ud_max_pos = float(np.maximum(ud, 0.0).max()) if ud.size else 0.0
    ud_min_neg = float(np.minimum(ud, 0.0).min()) if ud.size else 0.0
    all_reac_zero = bool(np.all(no_reac))
    checks += [
        _check("global_max_truncated", elliptic and bool(np.all(sink)),
               u[:m] - ud_max_pos, slack),
        _check("global_min_truncated", elliptic and bool(np.all(rise)),
               ud_min_neg - u[:m], slack),
        _check("global_max_zero_reaction",
               elliptic and bool(np.all(sink)) and all_reac_zero and ud.size > 0,
               u[:m] - (float(ud.max()) if ud.size else 0.0), slack),
        _check("global_min_zero_reaction",
               elliptic and bool(np.all(rise)) and all_reac_zero and ud.size > 0,
               (float(ud.min()) if ud.size else 0.0) - u[:m], slack),
    ]

    # positivity needs nonnegative data: sample the source where the
    # assembly sampled it and the boundary values at the Dirichlet nodes
    p = mesh.vertices[mesh.cells]
    qpts = 0.5 * (p + np.roll(p, -1, axis=1))
    fq = np.asarray(problem.source(qpts[:, :, 0], qpts[:, :, 1]))
    x = mesh.vertices
    fn = np.asarray(problem.source(x[:, 0], x[:, 1]))
    data_ok = bool(np.all(fq >= 0.0) and np.all(fn >= 0.0)
                   and (ud.size == 0 or np.all(ud >= 0.0)))
    checks.append(_check("positivity", elliptic and data_ok, -u, slack))
    return checks
