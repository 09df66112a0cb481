"""Fixed-point solution of the limited systems and maximum-principle audits.

Every limiter (plain Galerkin, bar-state limiting, balanced limiting) is
driven through the same fixed point: freeze the edge states at the current
iterate, then ask each unknown to equal the weighted average

    u_i = ( sum_j [ 2 d_ij ubar*_ij - a_ij^D u_j ] + rhs_i ) / a_i ,

whose weights are nonnegative on weakly acute meshes.  ``fixed_point_step``
is this update: a single one is a convex combination of its inputs, so it
keeps the bar-state bounds (criterion 9).  ``solve`` evaluates the row
residuals r(u) of the same equations and decides when to stop; its
correction is f = -P^-1 r(u), P^-1 one forward Gauss-Seidel sweep from zero
over the upwind levels of the constant low-order M-matrix L of the free rows
(``_GaussSeidel``: the "fixed_point_rhs" iteration of Jha & John, CAMWA 78,
2019, in the downwind order of Bey & Wittum, Appl. Numer. Math. 23, 1997).
The private mixer ``_Anderson`` turns each correction into the next iterate
by type-II Anderson mixing (Walker & Ni, SINUM 49, 2011) over the last
``ANDERSON_DEPTH`` differences of iterates and corrections.  ``damping``
acts only on a step with an empty history (the first step and the step
after each restart), u + beta f; a step that mixes a history is undamped,
since a mixing parameter below 1 mostly slows a history that already
extrapolates (Evans, Pollock, Rebholz & Xiao, SINUM 58, 2020).  Dirichlet
values are pinned throughout.  Convergence is declared on the Euclidean
norm of the row residuals over the unknown rows.

Neither a preconditioned step nor a mixed iterate is a convex combination,
and nothing guarantees that it or a tail average of iterates keeps the
bar-state bounds.  ``check_bounds`` covers every evaluated iterate, a
returned tail mean included, and the maximum-principle audit of a returned
solution is the check: the circular-layers run of criterion 6 (level 5,
damping 0.25) does not converge in its 12 000 sweeps, and its tail average
passes the audit at residual 3.9e-6.
"""

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .assembly import assemble
from .limiter import LIMITERS, VARIANTS, LimiterContext, edge_state

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
    # beta of the steps taken with an empty mixing history (the first step
    # and each step after a restart): the damped step u + beta f, f the
    # preconditioned correction.  A step with history is the undamped
    # Anderson step u + f - (dU + dF) gamma
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
        reals = (int, float, np.integer, np.floating), "a real number"
        ints = (int, np.integer), "an integer"
        for name, (kinds, what) in (("tol", reals), ("damping", reals),
                                    ("max_iter", ints), ("tail_average", ints)):
            value = getattr(self, name)
            if not isinstance(value, kinds) or isinstance(value, bool):
                raise ValueError(f"{name} must be {what}, got {value!r}")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if not isinstance(self.check_bounds, (bool, np.bool_)):
            raise ValueError(f"check_bounds must be a bool, got "
                             f"{self.check_bounds!r}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be nonnegative, got {self.max_iter}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, "
                             f"got {self.tol}")
        if not 0 <= self.tail_average <= self.max_iter:
            raise ValueError(f"tail_average must lie in [0, max_iter], got "
                             f"{self.tail_average}")
        if self.check_bounds and self.limiter != "wmc":
            raise ValueError("check_bounds needs the balanced limiter 'wmc'; "
                             f"{self.limiter!r} has no limited bar states")
        guess = self.initial_guess
        if isinstance(guess, np.ndarray):
            if guess.dtype.kind not in "biuf" or not np.isfinite(guess).all():
                raise ValueError("initial_guess must be a finite real array")
        elif not (isinstance(guess, str) and guess == "zero"):
            raise ValueError(f"initial_guess must be 'zero' or an array, "
                             f"got {guess!r}")


@dataclass
class SolveReport:
    u: np.ndarray
    converged: bool
    iterations: int
    residual_history: np.ndarray
    restarts: int
    bound_check: Optional[dict] = None


def _validated(options):
    """``options``, or the defaults for None, checked before any work."""
    if options is None:
        return SolveOptions()
    if not isinstance(options, SolveOptions):
        raise TypeError(f"options must be SolveOptions, got {type(options)}")
    options.validate()
    return options


def residual(ops, state, u):
    """Row residuals of the frozen-state system over the unknown rows."""
    m = ops.mesh.num_free
    return ops.row_weight[:m] * u[:m] - state.rowsum - state.rhs[:m]


def fixed_point_step(ops, state, u):
    """One undamped update of all unknowns; Dirichlet entries pass through.
    ``solve`` corrects by the residual instead; this is the update whose
    convex-combination property criterion 9 checks."""
    m = ops.mesh.num_free
    unew = u.copy()
    unew[:m] = (state.rowsum + state.rhs[:m]) / ops.row_weight[:m]
    return unew


def _initial_iterate(mesh, problem, guess):
    """The guess ("zero" or an array of nodal values) with the Dirichlet
    values pinned."""
    m = mesh.num_free
    xd = mesh.vertices[m:]
    u = (np.zeros(mesh.num_vertices) if isinstance(guess, str)
         else guess.astype(float))
    u[m:] = np.asarray(problem.dirichlet(xd[:, 0], xd[:, 1]), dtype=float)
    return u


def _upwind_levels(i, j, m):
    """Kahn levels of m rows, row i[e] leaning on row j[e]: a row waits
    until the rows it leans on are placed and goes one level above the
    last.  If none is ready, the unplaced row of smallest index starts the
    next level, so a cyclic flow gets a fixed order too."""
    leaners = i[np.argsort(j, kind="stable")]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(j, minlength=m))))
    wait = np.bincount(i, minlength=m)     # negative once placed
    level = np.full(m, -1, dtype=np.int32)
    k = 0
    while ((ready := np.flatnonzero(wait == 0)).size
           or (ready := np.flatnonzero(wait > 0)[:1]).size):
        wait[ready] = -1
        level[ready], k = k, k + 1
        lo, hi = ptr[ready], ptr[ready + 1]
        n = hi - lo
        wait -= np.bincount(leaners[np.repeat(hi - n.cumsum(), n)
                                    + np.arange(n.sum())], minlength=m)
    return level


class _GaussSeidel:
    """One forward Gauss-Seidel sweep, started from zero, over the upwind
    levels of the low-order operator L of the free rows and free columns:

        L_ii = a_i - sum_j (d_ij + conv_ij),
        L_ij = -(d_ij - conv_ij - diff_ij)  (j a free neighbour of i).

    L_ii > 0 >= L_ij.  Row i leans on column j when conv_ij < conv_ji, that
    is |L_ij| > |L_ji| (d and diff are symmetric); ``level`` puts each row
    above the rows it leans on, so one sweep follows the flow.  Each level,
    a slice of the rows in level order (``order``), is updated at once from
    the columns of lower levels (``passes``); the others still hold the zero
    start, and their products, +0 or -0, would change no bit of a sum from
    +0, so ties (conv_ij == conv_ji) are not followed."""

    def __init__(self, ops):
        m, et = ops.mesh.num_free, ops.mesh.edges
        nf = int(et.indptr[m])
        i, j = et.i[:nf], et.j[:nf]
        d, conv, diff = ops.d_e[:nf], ops.conv_e[:nf], ops.diff_e[:nf]
        diag = ops.row_weight[:m] - np.add.reduceat(d + conv, et.indptr[:m])
        lean = (j < m) & (conv < ops.conv_e[et.rev[:nf]])
        self.level = level = _upwind_levels(i[lean], j[lean], m)
        self.order = np.argsort(level, kind="stable").astype(np.int32)
        self.where = np.argsort(self.order).astype(np.int32)
        # the edges into lower levels by permuted row, in edge-table order
        e = np.flatnonzero(j < m)
        e = e[level[j[e]] < level[i[e]]]
        e = e[np.argsort(self.where[i[e]], kind="stable")]
        rows, cols = self.where[i[e]], self.where[j[e]]
        off = -(d[e] - conv[e] - diff[e])
        # no zeroing: a level reads only the columns this sweep has written
        rp, fp, neg_diag = np.empty(m), np.empty(m), -diag[self.order]
        bounds = [0, *np.cumsum(np.bincount(level)).tolist()]
        edges = np.searchsorted(rows, bounds).tolist()
        self.rp, self.fp, self.passes = rp, fp, [
            (cols[a:b], rows[a:b] - lo, off[a:b], hi - lo, rp[lo:hi],
             neg_diag[lo:hi], fp[lo:hi])
            for lo, hi, a, b in zip(bounds, bounds[1:], edges, edges[1:])]

    def correction(self, r):
        """f = -P^-1 r: the sweep applied to L f = -r from f = 0."""
        fp = self.fp
        np.take(r, self.order, out=self.rp)
        for cols, pos, off, n, rv, neg_diag, fv in self.passes:
            s = np.bincount(pos, off * fp.take(cols), minlength=n)
            np.divide(rv + s, neg_diag, out=fv)
        return fp.take(self.where)


class _Anderson:
    """The Anderson state of one solve: ring buffers of the last
    ``ANDERSON_DEPTH`` iterate and correction differences, the Gram matrix
    of the latter, and the previous iterate and correction, allocated at the
    first step.  Its products are einsums, not BLAS calls, so their
    summation order does not depend on the BLAS thread count."""

    def __init__(self, m, beta):
        self.m, self.beta = m, beta
        self.dx = self.df = self.gram = self.u_prev = self.f_prev = None
        self.stored = self.restarts = 0
        self.best = np.inf

    def step(self, u, f, rnorm):
        """The next iterate from u, its correction f over the unknowns and
        the residual norm at u; f must not change afterwards."""
        m, depth = self.m, ANDERSON_DEPTH
        if self.dx is None:
            self.dx = np.empty((depth, m))
            self.df = np.empty((depth, m))
            self.gram = np.empty((depth, depth))
        elif rnorm > ANDERSON_RESTART * self.best:
            self.restarts += self.stored > 0
            self.stored = 0
        else:
            s = self.stored % depth
            np.subtract(u[:m], self.u_prev, out=self.dx[s])
            np.subtract(f, self.f_prev, out=self.df[s])
            self.stored += 1
            k = min(self.stored, depth)
            self.gram[s, :k] = self.gram[:k, s] = np.einsum(
                "km,m->k", self.df[:k], self.df[s])
        self.best = min(self.best, rnorm)
        self.u_prev, self.f_prev = u[:m], f
        unew = u.copy()
        if self.stored:
            # gamma = argmin |f - dF gamma|, step u + f - (dU + dF) gamma
            k = min(self.stored, depth)
            rhs = np.einsum("km,m->k", self.df[:k], f)
            gamma = np.linalg.lstsq(self.gram[:k, :k], rhs, rcond=None)[0]
            unew[:m] += f
            unew[:m] -= np.einsum("k,km->m", gamma, self.dx[:k])
            unew[:m] -= np.einsum("k,km->m", gamma, self.df[:k])
        else:
            unew[:m] += self.beta * f
        return unew


def solve(mesh, problem, options=None, ops=None):
    """Solve one problem on a classified mesh.

    Returns a SolveReport whose ``u`` lives in mesh ordering (unknowns
    first).  Raises once the residual norm is not finite or exceeds
    ``DIVERGENCE_GROWTH`` times the larger of its first value and 1, which
    catches a blowup before the norm overflows; plain non-convergence inside
    ``max_iter`` is reported, not raised.  With ``tail_average`` set, a run
    that hits ``max_iter`` returns the mean over its final sweeps instead of
    the last iterate, evaluated by the loop like an iterate: its residual
    ends the history, the converged flag refers to it and ``check_bounds``
    covers it.  ``restarts`` is read off the mixer: how often a residual
    norm above ``ANDERSON_RESTART`` times its best cleared the history.
    The levels of the correction are built at its first use, so a solve
    that stops at sweep 0 builds none.
    """
    options = _validated(options)
    if ops is not None and ops.mesh is not mesh:
        raise ValueError("ops were assembled on another mesh")
    if ops is not None and ops.problem is not problem:
        raise ValueError("ops were assembled for another problem")
    n = mesh.num_vertices
    guess = options.initial_guess
    if isinstance(guess, np.ndarray) and guess.shape != (n,):
        raise ValueError(f"initial guess must have shape ({n},)")
    if ops is None:
        ops = assemble(mesh, problem)

    ctx = LimiterContext(ops)
    u = _initial_iterate(mesh, problem, guess)
    tail = options.tail_average
    mixer = _Anderson(mesh.num_free, float(options.damping))
    precond = None
    history, acc, iterations = [], None, 0
    bound_max, bound_count = 0.0, 0
    while True:
        state = edge_state(ctx, u, options.limiter, options.wb_variant)
        r = residual(ops, state, u)
        # einsum: np.linalg.norm's BLAS dot sums in a thread-dependent order
        rnorm = float(np.sqrt(np.einsum("i,i->", r, r)))
        history.append(rnorm)
        limit = DIVERGENCE_GROWTH * max(history[0], 1.0)
        if not (np.isfinite(rnorm) and rnorm <= limit):
            raise RuntimeError(
                f"fixed-point iteration diverged after {iterations} sweeps")
        if options.check_bounds:
            nf = ctx.num_free_edges
            star, owner = state.ubar_s_star[:nf], state.ei[:nf]
            over = star - state.bar_max[owner]
            under = state.bar_min[owner] - star
            worst = max(float(over.max()), float(under.max()))
            bound_max = max(bound_max, worst)
            bound_count += int(np.sum(over > 1e-12) + np.sum(under > 1e-12))
        converged = rnorm <= options.tol
        if converged or iterations >= options.max_iter:
            if converged or acc is None:
                break
            # the mean of the last tail iterates replaces the last one and
            # is evaluated like any iterate
            u, acc = acc / tail, None
            continue
        if precond is None:
            precond = _GaussSeidel(ops)
        u = mixer.step(u, precond.correction(r), rnorm)
        iterations += 1
        if tail > 0 and iterations > options.max_iter - tail:
            acc = u.copy() if acc is None else acc + u

    bounds = {"max_violation": bound_max, "violations": bound_count}
    return SolveReport(
        u=u, converged=converged, iterations=iterations,
        residual_history=np.asarray(history), restarts=mixer.restarts,
        bound_check=bounds if options.check_bounds else None)


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
    if ops.mesh is not mesh:
        raise ValueError("ops were assembled on another mesh")
    if ops.problem is not problem:
        raise ValueError("ops were assembled for another problem")
    u = report.u
    if u.shape != (mesh.num_vertices,):
        raise ValueError(f"report.u must have shape ({mesh.num_vertices},)")
    if not 0.0 <= slack < np.inf:
        raise ValueError(f"slack must be finite and nonnegative, got {slack}")
    m, et = mesh.num_free, mesh.edges
    elliptic = problem.epsilon > 0.0
    uf, ud = u[:m], u[m:]
    no_reac = ops.reaction_lumped[:m] == 0.0

    # one rule for both sides: sign +1 bounds u from above where b <= 0,
    # sign -1 from below where b >= 0; negating u - bound is exact
    sides = []
    for side, sign, extreme in (("max", 1.0, np.maximum),
                                ("min", -1.0, np.minimum)):
        ok = sign * ops.b[:m] <= 0.0
        nb = extreme.reduceat(u[et.j], et.indptr[:-1])[:m]
        bd = float(extreme.reduce(ud)) if ud.size else 0.0
        glob = elliptic and bool(np.all(ok))
        sides.append([
            _check(f"local_{side}_truncated", elliptic,
                   sign * (uf - extreme(nb, 0.0))[ok], slack),
            _check(f"local_{side}_zero_reaction", elliptic,
                   sign * (uf - nb)[ok & no_reac], slack),
            _check(f"global_{side}_truncated", glob,
                   sign * (uf - extreme(bd, 0.0)), slack),
            _check(f"global_{side}_zero_reaction",
                   glob and bool(np.all(no_reac)) and ud.size > 0,
                   sign * (uf - bd), slack),
        ])
    # each check is reported for the max side, then for the min side
    checks = [c for pair in zip(*sides) for c in pair]

    # positivity needs nonnegative source samples and boundary values
    fn = np.asarray(problem.source(*mesh.vertices.T))
    data_ok = ops.source_nonnegative and np.all(fn >= 0.0) and np.all(ud >= 0.0)
    checks.append(_check("positivity", elliptic and data_ok, -u, slack))
    return checks
