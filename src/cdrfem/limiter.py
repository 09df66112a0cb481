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
* Sweep-invariant edge data live in ``LimiterContext``, which keeps only
  what the sweeps read: the hat gradients behind the mirror-cell weights
  are not kept, and the balancing-flux factor ``geom_e`` is dropped once
  the fixed P below is built from it.  The diagnostics
  ``alpha`` and ``ubar_s_star`` feed no iterate and are computed when
  read; ``alpha`` is read off ``alphaP``, the balancing flux the sweep
  applied.
* Without reaction (c = 0 at every node, and no -0 in f) the net source
  f - c u is f at every iterate, so P, sign(P) and the sink mask of the
  balancing limiter are built once per context, as read-only arrays that
  every state shares (``LimiterContext.fixed_balancing``).
* A ``SweepWorkspace`` holds the buffers of the balanced sweeps of one
  solve.  Its seven edge buffers are shared by the named intermediates as
  ``_EDGE_BUFFERS`` lists them: a name takes its buffer only after the name
  before it there was last read, or is computed from that name in place,
  element by element.  Gathers never write into their source.  Without a
  workspace every name gets a new array, so both policies run the same
  arithmetic and give the same bits.  A workspace state keeps ``rowsum``,
  ``rhs`` and views of ``ubar_s``, ``fs_star``, ``bar_min`` and
  ``bar_max``, valid until the next call with that workspace.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .mesh import _cell_grads

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


@dataclass(kw_only=True)
class EdgeState:
    """All per-sweep edge quantities of one limiter evaluation.

    Per-edge arrays follow the directed edge table; per-node arrays are
    marked as such.  ``wflux`` is the product 2*d_ij*(limited bar state)
    that drives the row residuals, ``rhs`` the per-node right-hand side
    that remains after the limiter absorbed its share of the source, and
    ``rowsum`` the sums over j of wflux_ij - a_ij^D u_j, per unknown row.
    The balanced limiter's diagnostics ``alpha`` and ``ubar_s_star`` feed
    no iterate; they are computed on first read.  ``alpha`` is the factor
    the state applied, ``alphaP / P``.  A state evaluated into a
    ``SweepWorkspace`` holds only ``rowsum``, ``rhs`` and views of
    ``ubar_s``, ``fs_star``, ``bar_min`` and ``bar_max``; its other fields,
    and with them both diagnostics, are None.
    """

    ei: Optional[np.ndarray] = None
    ej: Optional[np.ndarray] = None
    ubar: Optional[np.ndarray] = None
    wflux: Optional[np.ndarray] = None
    rhs: np.ndarray                            # per node
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
        if self.ctx is None:
            return None
        return self.ubar_s + self.fs_star / self.ctx.two_d


class LimiterContext:
    """Per-solve cache of edge geometry, nodal coefficient samples and the
    sweep-invariant edge constants of the limiters.

    ``num_free_edges`` edges lead out of free rows; ``b_neg`` and ``b_zero``
    hold the sign of b_i on those edges.  ``two_d`` is 2*d_ij and ``bac_e``
    is b_i / a_i^C of the owner row, per edge; row k of ``row_table`` holds
    the k-th edge of every row, and ``zero_rhs`` is the read-only right-hand
    side of the balanced limiter.  ``LimiterContext(ops)`` reads the mesh
    and the problem off the operators.

    On first read the context adds the nodal samples ``f_node`` and
    ``c_node``, the mirror-cell increments ``grad_incr`` and the balancing
    flux factor ``geom_e``.  ``fixed_balancing`` drops ``geom_e`` once it
    has built the read-only P, which no sweep then rebuilds; a context
    whose P follows the iterate keeps it for its sweeps.
    """

    def __init__(self, ops):
        mesh = self.mesh = ops.mesh
        self.ops = ops
        et = self.et = mesh.edges
        self.num_free_edges = int(et.indptr[mesh.num_free])
        self.two_d = 2.0 * ops.d_e
        self.bac_e = (ops.b / ops.art_row)[et.i]
        b_free = ops.b[et.i[:self.num_free_edges]]
        self.b_neg = b_free < 0.0
        self.b_zero = b_free == 0.0
        # column r lists the edges of row r, the last one repeated on short
        # rows; row_bounds folds in the rows of the table in order
        degree = np.diff(et.indptr)
        k = np.arange(degree.max(initial=1))[:, None]
        self.row_table = et.indptr[:-1] + np.minimum(k, degree - 1)
        self.zero_rhs = np.zeros(mesh.num_vertices)
        self.zero_rhs.flags.writeable = False

    def row_bounds(self, values, row=None, lo=None, hi=None):
        """Per-node minimum and maximum of an edge array over each row,
        written into ``lo`` and ``hi`` if given; ``row`` takes the values
        each pass gathers.  Pass k folds in the k-th edge of every row, the
        order of a reduction over the first axis of the gathered table, so
        signed zeros and NaNs come out as that reduction gives them."""
        table = self.row_table
        lo = np.take(values, table[0], out=lo, mode="wrap")
        hi = np.take(values, table[0], out=hi, mode="wrap")
        for edges in table[1:]:
            row = np.take(values, edges, out=row, mode="wrap")
            np.minimum(lo, row, out=lo)
            np.maximum(hi, row, out=hi)
        return lo, hi

    def row_sums(self, wflux, uj, terms=None):
        """Sums over j of wflux_ij - a_ij^D u_j, per unknown row; the
        per-edge terms go into the prefix of ``terms`` if given."""
        nf = self.num_free_edges
        terms = np.multiply(self.ops.diff_e[:nf], uj[:nf],
                            out=None if terms is None else terms[:nf])
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

    def balancing_flux(self, s, out=None, scratch=None):
        """P_ij = (s_i + s_j) / 4 * geom_ij of the nodal net source s,
        written into ``out`` if given; ``scratch`` takes s_j."""
        P = np.take(s, self.et.i, out=out, mode="wrap")
        P += np.take(s, self.et.j, out=scratch, mode="wrap")
        P *= 0.25
        P *= self.geom_e
        return P

    def sink(self, P, out=None):
        """The free edges whose limited balancing flux is capped by Q+:
        b_i < 0, or b_i = 0 and P_ij >= 0."""
        sink = np.greater_equal(P[:self.num_free_edges], 0.0, out=out)
        sink &= self.b_zero
        sink |= self.b_neg
        return sink

    @cached_property
    def fixed_balancing(self):
        """(P, sign(P), sink) as read-only arrays when the net source
        s = f - c u does not depend on u, else None.  That holds when c
        vanishes and f has no -0: c u is then +0 or -0 at every finite
        iterate, and f_i - (+-0) is f_i.  Once P is built, no sweep reads
        ``geom_e``, so it is dropped."""
        f = self.f_node
        if np.any(self.c_node) or np.any(np.signbit(f[f == 0.0])):
            return None
        P = self.balancing_flux(f)
        del self.geom_e
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
        # intp once: each gather would convert the int32 ids on its own
        kcell = mesh.mirror_cells.astype(np.intp)
        vertex = np.take(np.ascontiguousarray(mesh.cells.T), kcell, axis=1)
        grads = _cell_grads(mesh)
        weight = np.zeros((3, len(kcell)))
        for d, x in enumerate(mesh.vertices.T):
            x = np.ascontiguousarray(x)
            dx = x[self.et.i] - x[self.et.j]
            for k in range(3):
                weight[k] += grads[k, d][kcell] * dx
        return vertex, weight

    def fictitious_increment(self, u, out=None, scratch=None):
        """Mirror-cell gradient increments u^i_j - u_i of the iterate u,
        the three products summed in vertex order, written into ``out`` if
        given; ``scratch`` takes the gathered values."""
        vertex, weight = self.grad_incr
        out = np.multiply(weight[0],
                          np.take(u, vertex[0], out=scratch, mode="wrap"),
                          out=out)
        for k in (1, 2):
            term = np.take(u, vertex[k], out=scratch, mode="wrap")
            term *= weight[k]
            out += term
        return out


# The liveness table of the balanced sweep: one row per edge buffer of a
# ``SweepWorkspace``, the intermediates that take it in the order the sweep
# writes them.  Qm (from ui), sgn (from P), fs (from du), ubar_s (from
# ubar), terms (from uj) and fs_star (from floor) are computed in place;
# ubar_s and fs_star outlive the call.  "gather" holds the mirror-cell
# values of the fictitious increment, "source_j" s_j of the reactive
# balancing flux.
_EDGE_BUFFERS = (
    ("fict", "P", "sgn", "hi", "wflux"),
    ("gather", "ui", "Qm", "reac_du", "lo"),
    ("uj", "terms"),
    ("du", "fs"),
    ("ubar", "ubar_s"),
    ("conv_du", "Qp", "alphaP", "cap"),
    ("source_j", "rp", "floor", "fs_star"),
)


def _slot_array(ctx, name):
    """A new, uninitialised array of the shape and type of slot ``name``:
    a per-node array, the sink mask of the free edges or an edge array."""
    if name in ("row", "bar_min", "bar_max", "source"):
        return np.empty(ctx.mesh.num_vertices)
    if name == "sink":
        return np.empty(ctx.num_free_edges, dtype=bool)
    return np.empty(ctx.et.i.size)


class _Fresh:
    """The buffer policy of a call without a workspace: every slot is a new
    array."""

    def __init__(self, ctx):
        self.ctx = ctx

    def __getitem__(self, name):
        return _slot_array(self.ctx, name)


class SweepWorkspace:
    """The buffers that the balanced sweeps of one solve write into: the
    seven edge buffers of ``_EDGE_BUFFERS``, the per-node row of the
    row-bounds passes, the bar state bounds and, where the balancing flux
    follows the iterate, the net source and the sink mask.  Building it
    first builds the mirror-cell increments (``variant`` "full") and the
    fixed balancing flux, so the sweeps' buffers follow the context's
    arrays."""

    def __init__(self, ctx, variant="full"):
        if variant == "full":
            ctx.grad_incr
        names = ["row", "bar_min", "bar_max"]
        if ctx.fixed_balancing is None:
            names += ["source", "sink"]
        self.ctx = ctx
        self.slots = {name: _slot_array(ctx, name) for name in names}
        for row in _EDGE_BUFFERS:
            self.slots.update(dict.fromkeys(row, _slot_array(ctx, row[0])))

    def __getitem__(self, name):
        return self.slots[name]


def _bar_prefix(ctx, u, slot):
    """u_i, u_j, u_i - u_j and the bar state, the steps all limiters
    share."""
    ops, et = ctx.ops, ctx.et
    ui = np.take(u, et.i, out=slot["ui"], mode="wrap")
    uj = np.take(u, et.j, out=slot["uj"], mode="wrap")
    du = np.subtract(ui, uj, out=slot["du"])
    # bar_state(ui, uj, conv, d), with conv*(uj - ui) = -conv*(ui - uj)
    ubar = np.add(ui, uj, out=slot["ubar"])
    ubar *= 0.5
    tmp = np.multiply(ops.conv_e, du, out=slot["conv_du"])
    tmp /= ctx.two_d
    ubar += tmp
    return ui, uj, du, ubar


def edge_state(ctx, u, limiter="wmc", variant="full", *, workspace=None):
    """Evaluate one limiter sweep at the iterate u; ``variant`` applies to
    ``wmc`` only.  With a ``SweepWorkspace`` of ``ctx`` (``wmc`` only) the
    sweep allocates no edge array, and the state holds ``rowsum``, ``rhs``
    and views of ``ubar_s``, ``fs_star``, ``bar_min`` and ``bar_max`` that
    stay valid until the next call with that workspace."""
    if limiter not in LIMITERS:
        raise ValueError(f"unknown limiter {limiter!r}")
    balanced = limiter == "wmc"
    if balanced and variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if workspace is not None and not (balanced and workspace.ctx is ctx):
        raise ValueError("a workspace serves the balanced sweeps of the "
                         "context it was built for")
    if balanced:
        return _balanced_state(ctx, u, variant, workspace or _Fresh(ctx))

    ops, et = ctx.ops, ctx.et
    _, uj, du, ubar = _bar_prefix(ctx, u, _Fresh(ctx))
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
    wflux = ctx.two_d * ubar
    wflux += f if fstar is None else fstar
    return EdgeState(ei=et.i, ej=et.j, ubar=ubar, ftarget=f, fstar=fstar,
                     umin=umin, umax=umax, wflux=wflux, rhs=ops.b,
                     rowsum=ctx.row_sums(wflux, uj))


def _balanced_state(ctx, u, variant, slot):
    """The balanced sweep, each named intermediate written into
    ``slot[name]``: a new array each, or a buffer of a workspace."""
    fict = (ctx.fictitious_increment(u, out=slot["fict"],
                                     scratch=slot["gather"])
            if variant == "full" else None)
    ops, et = ctx.ops, ctx.et
    nf, two_d = ctx.num_free_edges, ctx.two_d
    ui, uj, du, ubar = _bar_prefix(ctx, u, slot)

    # one-sided windows around the bar state; the full variant widens them
    # by half the fictitious-value increment
    Qp = np.maximum(ui, uj, out=slot["Qp"])
    Qp -= ubar
    Qp -= ctx.bac_e
    Qm = np.minimum(ui, uj, out=slot["Qm"])
    Qm -= ubar
    Qm -= ctx.bac_e
    if fict is not None:
        fict *= 0.5
        np.maximum(fict, Qp, out=Qp)
        np.minimum(fict, Qm, out=Qm)

    fixed = ctx.fixed_balancing
    if fixed is None:
        s = np.multiply(ctx.c_node, u, out=slot["source"])
        np.subtract(ctx.f_node, s, out=s)
        P = ctx.balancing_flux(s, out=slot["P"], scratch=slot["source_j"])
        sink = ctx.sink(P, out=slot["sink"])
    else:
        P, sgn, sink = fixed

    # limit_balancing: R|P| of the owner row (|P| on Dirichlet rows), then
    # the smaller magnitude of both orientations
    rp = slot["rp"]
    np.maximum(P[:nf], Qm[:nf], out=rp[:nf])
    np.minimum(P[:nf], Qp[:nf], out=rp[:nf], where=sink)
    np.abs(P[nf:], out=rp[nf:])
    if fixed is None:
        sgn = np.sign(P, out=slot["sgn"])
    rp[:nf] *= sgn[:nf]
    alphaP = np.take(rp, et.rev, out=slot["alphaP"], mode="wrap")
    np.minimum(rp, alphaP, out=alphaP)
    alphaP *= sgn

    # wb_target_flux
    reac_du = np.multiply(ops.reac_e, du, out=slot["reac_du"])
    fs = np.multiply(0.5, du, out=slot["fs"])
    fs -= alphaP
    fs *= two_d
    fs += reac_du
    ubar_s = np.add(ubar, alphaP, out=slot["ubar_s"])
    ubar_s += ctx.bac_e
    bar_min, bar_max = ctx.row_bounds(ubar_s, slot["row"], slot["bar_min"],
                                      slot["bar_max"])

    # wb_limit on the free rows.  d is symmetric, so the opposite-side
    # bounds of edge ij are the negated own-side bounds of edge ji; on
    # Dirichlet rows they are infinite, so edges into Dirichlet nodes
    # keep only their owner-side constraint
    hi = np.take(bar_max, et.i, out=slot["hi"], mode="wrap")
    hi -= ubar_s
    hi *= two_d
    hi[nf:] = np.inf
    lo = np.take(bar_min, et.i, out=slot["lo"], mode="wrap")
    lo -= ubar_s
    lo *= two_d
    lo[nf:] = -np.inf
    rev = et.rev[:nf]
    cap = np.take(lo, rev, out=slot["cap"][:nf], mode="wrap")
    np.negative(cap, out=cap)
    np.minimum(hi[:nf], cap, out=cap)
    floor = np.take(hi, rev, out=slot["floor"][:nf], mode="wrap")
    np.negative(floor, out=floor)
    np.maximum(lo[:nf], floor, out=floor)
    # floor <= 0 <= cap, so clipping equals the sign-wise selection; rows
    # of Dirichlet nodes carry no fluxes in the final system
    fs_star = slot["fs_star"]
    np.maximum(fs[:nf], floor, out=fs_star[:nf])
    np.minimum(fs_star[:nf], cap, out=fs_star[:nf])
    fs_star[nf:] = 0.0

    wflux = np.multiply(two_d, ubar_s, out=slot["wflux"])
    wflux += fs_star
    kept = dict(ubar_s=ubar_s, fs_star=fs_star, bar_min=bar_min,
                bar_max=bar_max, rhs=ctx.zero_rhs,
                rowsum=ctx.row_sums(wflux, uj, terms=slot["terms"]))
    if isinstance(slot, SweepWorkspace):
        return EdgeState(**kept)
    return EdgeState(ei=et.i, ej=et.j, ubar=ubar, P=P, Qp=Qp, Qm=Qm,
                     alphaP=alphaP, fs=fs, wflux=wflux, ctx=ctx, **kept)
