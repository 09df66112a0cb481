"""Edgewise flux limiting: convex bar-state limiting and its balanced variant.

The plain limiter clips the target flux of every edge so that the limited
bar states stay inside the local solution bounds.  The balanced variant
first redistributes the nodal net source over the edges through balancing
fluxes, limits those with a symmetric one-sided factor, and then clips the
resulting fluxes against bounds built from the shifted bar states.  All
per-edge quantities live on the directed edge table of the mesh; functions
accept scalars or aligned arrays.

Division by the artificial diffusion is safe everywhere (it has a positive
floor), and the limited fluxes are assembled from products of the form
2*d_ij*(...) exactly as written, so antisymmetry holds to the last bit.

``tests/oracles.py`` states the steps of both limiters as defined: the bar
state and target flux of the plain limiter (``bar_state``,
``mc_target_flux``) and the steps of the balanced one (``limit_balancing``,
``wb_bar_state``, ``wb_target_flux``, ``wb_limit``).  Only ``mc_limit``
stays here, because ``edge_state`` calls it.  ``edge_state`` evaluates the
same arithmetic for all edges at once; where it regroups a step, the
regrouping is exact (a negation, or a factor that is symmetric in i and j),
so its fluxes agree with the helpers bit for bit.  All three limiters share
one prefix, u_i, u_j, u_i - u_j and the bar state, computed by one rule.
The pass over the edges relies on these invariants:

* Unknowns come first and edges are sorted by their row, so the rows of
  free nodes own the prefix ``et.indptr[num_free]`` of the edge table.
  Dirichlet rows are handled by slicing, not by masks.
* The bar-state bounds of a row contain every shifted bar state of that
  row, so the clip window [lo, hi] of every edge satisfies lo <= 0 <= hi.
  Clipping ``min(max(fs, lo), hi)`` then equals the sign-wise selection of
  ``wb_limit``.
* d_ij is symmetric, so the opposite-side bounds of edge ij are the negated
  owner-side bounds of edge ji.
* Edges into Dirichlet nodes have no opposite-side bound.  Infinite bounds
  on Dirichlet rows make that side drop out of the clip without a branch.
* Sweep-invariant edge data live in ``LimiterContext``.  The diagnostics
  ``alpha`` and ``ubar_s_star`` feed no iterate and are computed when
  read; ``alpha`` is read off ``alphaP``, the balancing flux the sweep
  applied.
* Without reaction (c = 0 at every node, and no -0 in f) the net source
  f - c u is f at every iterate, so P, sign(P) and the sink mask of the
  balancing limiter are built once per context, as read-only arrays that
  every state shares (``LimiterContext.fixed_balancing``).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

LIMITERS = ("galerkin", "mc", "wmc")
VARIANTS = ("full", "simplified")


def mc_limit(f, d_ij, ubar_ij, ubar_ji, umin_i, umax_i, umin_j, umax_j):
    """Clip a target flux so both limited bar states stay in local bounds."""
    two_d = 2.0 * d_ij
    pos = np.minimum(f, np.minimum(two_d * (umax_i - ubar_ij),
                                   two_d * (ubar_ji - umin_j)))
    neg = np.maximum(f, np.maximum(two_d * (umin_i - ubar_ij),
                                   two_d * (ubar_ji - umax_j)))
    return np.where(f > 0.0, pos, np.where(f < 0.0, neg, 0.0))


@dataclass
class EdgeState:
    """All per-sweep edge quantities of one limiter evaluation.

    Per-edge arrays follow the directed edge table; per-node arrays are
    marked as such.  ``wflux`` is the product 2*d_ij*(limited bar state)
    that drives the row residuals, ``rhs`` the per-node right-hand side
    that remains after the limiter absorbed its share of the source, and
    ``rowsum`` the sums over j of wflux_ij - a_ij^D u_j, per unknown row.
    The balanced limiter's diagnostics ``alpha`` and ``ubar_s_star`` feed
    no iterate; they are computed on first read.  ``alpha`` is the factor
    the state applied, ``alphaP / P``.
    """

    ei: np.ndarray
    ej: np.ndarray
    ubar: np.ndarray
    wflux: np.ndarray
    rhs: np.ndarray
    rowsum: np.ndarray                         # per unknown row
    ftarget: Optional[np.ndarray] = None
    fstar: Optional[np.ndarray] = None
    umin: Optional[np.ndarray] = None          # per node
    umax: Optional[np.ndarray] = None          # per node
    P: Optional[np.ndarray] = None
    Qp: Optional[np.ndarray] = None
    Qm: Optional[np.ndarray] = None
    alphaP: Optional[np.ndarray] = None
    ubar_s: Optional[np.ndarray] = None
    fs: Optional[np.ndarray] = None
    fs_star: Optional[np.ndarray] = None
    bar_min: Optional[np.ndarray] = None       # per node
    bar_max: Optional[np.ndarray] = None       # per node
    ctx: Optional["LimiterContext"] = field(default=None, repr=False)

    @cached_property
    def alpha(self):
        """Symmetric factors alpha_ij = alphaP_ij / P_ij of the balancing
        fluxes, 1 where P_ij = 0.  The clip removes the sign flips of
        alphaP at roundoff level where Q is one ulp past zero."""
        if self.P is None:
            return None
        ratio = np.divide(self.alphaP, self.P, out=np.ones_like(self.P),
                          where=self.P != 0.0)
        return np.clip(ratio, 0.0, 1.0, out=ratio)

    @cached_property
    def ubar_s_star(self):
        """Limited shifted bar states of the balanced limiter."""
        if self.fs_star is None:
            return None
        return self.ubar_s + self.fs_star / self.ctx.two_d


class LimiterContext:
    """Per-solve cache of edge geometry, nodal coefficient samples and the
    sweep-invariant edge constants of the limiters.

    ``num_free_edges`` edges lead out of free rows; ``b_neg`` and ``b_zero``
    hold the sign of b_i on those edges.  ``two_d`` is 2*d_ij and ``bac_e``
    is b_i / a_i^C of the owner row, per edge; ``degree`` counts the edges of
    each row, and ``zero_rhs`` is the read-only right-hand side of the
    balanced limiter.  ``LimiterContext(ops)`` reads the mesh and the
    problem off the operators.
    """

    def __init__(self, ops):
        mesh = self.mesh = ops.mesh
        self.ops = ops
        et = self.et = mesh.edges
        self.num_free_edges = int(et.indptr[mesh.num_free])
        self.degree = np.diff(et.indptr)
        self.two_d = 2.0 * ops.d_e
        self.bac_e = (ops.b / ops.art_row)[et.i]
        b_free = ops.b[et.i[:self.num_free_edges]]
        self.b_neg = b_free < 0.0
        self.b_zero = b_free == 0.0
        # column r lists the edges of row r, the last one repeated on short
        # rows, so row extrema are reductions over the first axis
        k = np.arange(self.degree.max(initial=1))[:, None]
        self.row_table = et.indptr[:-1] + np.minimum(k, self.degree - 1)
        self.zero_rhs = np.zeros(mesh.num_vertices)
        self.zero_rhs.flags.writeable = False

    def row_bounds(self, values):
        """Per-node minimum and maximum of an edge array over each row."""
        table = values[self.row_table]
        return np.min(table, axis=0), np.max(table, axis=0)

    def row_sums(self, wflux, uj):
        """Sums over j of wflux_ij - a_ij^D u_j, per unknown row."""
        nf = self.num_free_edges
        terms = self.ops.diff_e[:nf] * uj[:nf]
        np.subtract(wflux[:nf], terms, out=terms)
        return np.add.reduceat(terms, self.et.indptr[:self.mesh.num_free])

    @cached_property
    def f_node(self):
        x = self.mesh.vertices
        return np.asarray(self.ops.problem.source(*x.T), dtype=float)

    @cached_property
    def c_node(self):
        x = self.mesh.vertices
        return np.asarray(self.ops.problem.reaction(*x.T), dtype=float)

    @cached_property
    def geom_e(self):
        """Velocity projection factor of the balancing flux, per edge."""
        xs, ys = (np.ascontiguousarray(v) for v in self.mesh.vertices.T)
        vx, vy = self.ops.problem.velocity(xs, ys)
        vx, vy = np.asarray(vx, dtype=float), np.asarray(vy, dtype=float)
        spd2 = vx ** 2 + vy ** 2
        i, j = self.et.i, self.et.j
        m2 = np.maximum(spd2[i], spd2[j])
        if np.any(m2 <= 0.0):
            raise ValueError("velocity vanishes at both endpoints of a mesh "
                             "edge; balancing flux undefined")
        proj = ((xs[i] - xs[j]) * (vx[i] + vx[j])
                + (ys[i] - ys[j]) * (vy[i] + vy[j]))
        return proj / (2.0 * m2)

    def balancing_flux(self, s):
        """P_ij = (s_i + s_j) / 4 * geom_ij of the nodal net source s."""
        P = np.repeat(s, self.degree)
        P += s[self.et.j]
        P *= 0.25
        P *= self.geom_e
        return P

    def sink(self, P):
        """The free edges whose limited balancing flux is capped by Q+:
        b_i < 0, or b_i = 0 and P_ij >= 0."""
        sink = P[:self.num_free_edges] >= 0.0
        sink &= self.b_zero
        sink |= self.b_neg
        return sink

    @cached_property
    def fixed_balancing(self):
        """(P, sign(P), sink) as read-only arrays when the net source
        s = f - c u does not depend on u, else None.  That holds when c
        vanishes and f has no -0: c u is then +0 or -0 at every finite
        iterate, and f_i - (+-0) is f_i."""
        f = self.f_node
        if np.any(self.c_node) or np.any(np.signbit(f[f == 0.0])):
            return None
        P = self.balancing_flux(f)
        fixed = P, np.sign(P), self.sink(P)
        for a in fixed:
            a.flags.writeable = False
        return fixed

    @cached_property
    def grad_incr(self):
        """Mirror-cell vertex ids and weights of every edge, two (3, E)
        arrays, such that u^i_j - u_i = sum_k weight[k] * u[vertex[k]].

        weight[k] is the hat gradient of corner k dotted with x_i - x_j,
        summed from +0 in coordinate order."""
        mesh = self.mesh
        kcell = mesh.mirror_cells
        vertex = np.take(np.ascontiguousarray(mesh.cells.T), kcell, axis=1)
        weight = np.zeros((3, len(kcell)))
        for d, x in enumerate(mesh.vertices.T):
            x = np.ascontiguousarray(x)
            dx = x[self.et.i] - x[self.et.j]
            for k in range(3):
                weight[k] += mesh.cell_grads[k, d][kcell] * dx
        return vertex, weight

    def fictitious_increment(self, u):
        """Mirror-cell gradient increments u^i_j - u_i of the iterate u,
        the three products summed in vertex order."""
        vertex, weight = self.grad_incr
        out = weight[0] * u[vertex[0]]
        out += weight[1] * u[vertex[1]]
        out += weight[2] * u[vertex[2]]
        return out


def edge_state(ctx, u, limiter="wmc", variant="full"):
    """Evaluate one limiter sweep at the iterate u; ``variant`` applies to
    ``wmc`` only."""
    if limiter not in LIMITERS:
        raise ValueError(f"unknown limiter {limiter!r}")
    balanced = limiter == "wmc"
    if balanced and variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")

    # the first access of grad_incr builds the mirror cells, before any
    # per-edge temporary of this sweep exists
    fict = (ctx.fictitious_increment(u) if balanced and variant == "full"
            else None)
    ops, et = ctx.ops, ctx.et
    nf, two_d = ctx.num_free_edges, ctx.two_d
    ui, uj = np.repeat(u, ctx.degree), u[et.j]
    du = ui - uj
    # bar_state(ui, uj, conv, d), with conv*(uj - ui) = -conv*(ui - uj)
    ubar = ui + uj
    ubar *= 0.5
    tmp = ops.conv_e * du
    tmp /= two_d
    ubar += tmp

    if not balanced:
        # mc_target_flux, then for mc the clip against the local bounds
        f = ops.d_e + ops.reac_e
        f *= du
        fstar = umin = umax = None
        if limiter == "mc":
            umin, umax = ctx.row_bounds(uj)
            np.minimum(umin, u, out=umin)
            np.maximum(umax, u, out=umax)
            fstar = mc_limit(f, ops.d_e, ubar, ubar[et.rev], umin[et.i],
                             umax[et.i], umin[et.j], umax[et.j])
        wflux = two_d * ubar
        wflux += f if fstar is None else fstar
        return EdgeState(ei=et.i, ej=et.j, ubar=ubar, ftarget=f, fstar=fstar,
                         umin=umin, umax=umax, wflux=wflux, rhs=ops.b,
                         rowsum=ctx.row_sums(wflux, uj))

    fixed = ctx.fixed_balancing
    if fixed is None:
        P = ctx.balancing_flux(ctx.f_node - ctx.c_node * u)
        sgn, sink = np.sign(P), ctx.sink(P)
    else:
        P, sgn, sink = fixed

    # one-sided windows around the bar state; the full variant widens them
    # by half the fictitious-value increment
    Qp = np.maximum(ui, uj)
    Qp -= ubar
    Qp -= ctx.bac_e
    Qm = np.minimum(ui, uj)
    Qm -= ubar
    Qm -= ctx.bac_e
    if fict is not None:
        fict *= 0.5
        np.maximum(fict, Qp, out=Qp)
        np.minimum(fict, Qm, out=Qm)

    # limit_balancing: R|P| of the owner row (|P| on Dirichlet rows), then
    # the smaller magnitude of both orientations
    rp = np.empty_like(P)
    np.maximum(P[:nf], Qm[:nf], out=rp[:nf])
    np.minimum(P[:nf], Qp[:nf], out=rp[:nf], where=sink)
    rp[:nf] *= sgn[:nf]
    np.abs(P[nf:], out=rp[nf:])
    alphaP = np.minimum(rp, rp[et.rev])
    alphaP *= sgn

    ubar_s = ubar + alphaP
    ubar_s += ctx.bac_e
    # wb_target_flux
    fs = 0.5 * du
    fs -= alphaP
    fs *= two_d
    np.multiply(ops.reac_e, du, out=tmp)
    fs += tmp
    bar_min, bar_max = ctx.row_bounds(ubar_s)

    # rows of Dirichlet nodes carry no fluxes in the final system
    fs_star = np.zeros_like(fs)
    # wb_limit on the free rows.  d is symmetric, so the opposite-side
    # bounds of edge ij are the negated own-side bounds of edge ji; on
    # Dirichlet rows they are infinite, so edges into Dirichlet nodes
    # keep only their owner-side constraint
    hi = np.repeat(bar_max, ctx.degree)
    hi -= ubar_s
    hi *= two_d
    hi[nf:] = np.inf
    lo = np.repeat(bar_min, ctx.degree)
    lo -= ubar_s
    lo *= two_d
    lo[nf:] = -np.inf
    rev = et.rev[:nf]
    cap = lo[rev]
    np.negative(cap, out=cap)
    np.minimum(hi[:nf], cap, out=cap)
    floor = hi[rev]
    np.negative(floor, out=floor)
    np.maximum(lo[:nf], floor, out=floor)
    # floor <= 0 <= cap, so clipping equals the sign-wise selection
    np.maximum(fs[:nf], floor, out=fs_star[:nf])
    np.minimum(fs_star[:nf], cap, out=fs_star[:nf])

    wflux = two_d * ubar_s
    wflux += fs_star
    return EdgeState(ei=et.i, ej=et.j, ubar=ubar, P=P, Qp=Qp, Qm=Qm,
                     alphaP=alphaP, ubar_s=ubar_s, fs=fs, fs_star=fs_star,
                     bar_min=bar_min, bar_max=bar_max, wflux=wflux,
                     rhs=ctx.zero_rhs, rowsum=ctx.row_sums(wflux, uj),
                     ctx=ctx)

