"""Benchmark problems on the unit square and convergence-study helpers.

Each factory returns a ProblemSpec with vectorized coefficient callables.
All velocities used here are linear and all reaction fields are piecewise
constant, so the edge-midpoint quadrature in the assembly is exact away from
coefficient jumps.
"""

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .assembly import Operators, assemble
from .mesh import (BOTTOM, _corners, _row_blocks, build_level0,
                   classify_and_order, prolong, refine)
from .solver import SolveReport, _validated, solve


@dataclass
class ProblemSpec:
    """Coefficients and boundary data of one steady problem.

    ``velocity`` maps coordinate arrays (x, y) to component arrays (vx, vy);
    ``reaction``, ``source`` and ``dirichlet`` map (x, y) to value arrays.
    ``boundary`` selects the Dirichlet rule: "dirichlet" marks every side not
    in ``neumann_sides``, "inflow" marks edges where the velocity enters the
    domain.  ``exact`` is an optional reference solution for error norms.
    """

    name: str
    epsilon: float
    velocity: Callable
    reaction: Callable
    source: Callable
    dirichlet: Callable
    boundary: str = "dirichlet"
    neumann_sides: tuple = ()
    exact: Optional[Callable] = None

    def __post_init__(self):
        if not 0.0 <= self.epsilon < np.inf:
            raise ValueError(f"epsilon must be finite and nonnegative, got "
                             f"{self.epsilon}")


def _constant(value):
    """The field (x, y) -> value, a float array of the broadcast shape."""
    value = float(value)
    return lambda x, y: np.full(np.broadcast(x, y).shape, value)


def _uniform_flow(vx, vy):
    """The constant velocity field (x, y) -> (vx, vy)."""
    fx, fy = _constant(vx), _constant(vy)
    return lambda x, y: (fx(x, y), fy(x, y))


def _rotation(x, y):
    """The rotating velocity field (x, y) -> (y, -x)."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    return y.copy(), -x


def problem_interior_layers(epsilon=1e-8):
    """Convection along x with a box source and a reactive strip.

    The source 10 acts on [0.1, 0.6] x [0.25, 0.75] (closed box), the
    reaction 25 on the strip x > 0.75, the boundary data vanish.  With the
    tiny diffusion the solution forms a plateau downstream of the source and
    decays inside the strip.
    """
    def source(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        box = (x >= 0.1) & (x <= 0.6) & (y >= 0.25) & (y <= 0.75)
        return np.where(box, 10.0, 0.0)

    def reaction(x, y):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.75, 25.0, 0.0) * np.ones_like(np.asarray(y, dtype=float))

    return ProblemSpec(name="interior-layers", epsilon=float(epsilon),
                       velocity=_uniform_flow(1.0, 0.0), reaction=reaction,
                       source=source, dirichlet=_constant(0.0))


def problem_boundary_layers(epsilon=1e-3):
    """Smooth manufactured solution with exponential boundary layers.

    The exact solution combines x*y**2 with layer terms at x=1 and y=1; the
    convection is (2, 3) and there is no reaction.  The forcing below is the
    closed form of -eps*lap(u) + v.grad(u); the layer exponents are
    nonpositive on the closed square, so the terms only underflow.
    """
    eps = float(epsilon)
    if eps <= 0.0:
        raise ValueError("boundary-layers requires a positive diffusion "
                         "coefficient")

    def parts(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        e1 = np.exp(2.0 * (x - 1.0) / eps)
        e2 = np.exp(3.0 * (y - 1.0) / eps)
        return x, y, e1, e2

    def exact(x, y):
        x, y, e1, e2 = parts(x, y)
        return x * y ** 2 - y ** 2 * e1 - x * e2 + e1 * e2

    def source(x, y):
        x, y, e1, e2 = parts(x, y)
        return (2.0 * y ** 2 + 6.0 * x * y - 2.0 * eps * x
                + (2.0 * eps - 6.0 * y) * e1 - 2.0 * e2)

    return ProblemSpec(name="boundary-layers", epsilon=eps,
                       velocity=_uniform_flow(2.0, 3.0),
                       reaction=_constant(0.0), source=source,
                       dirichlet=exact, exact=exact)


def problem_circular_layers(epsilon=1e-4):
    """Rotating convection with an annular source and open bottom boundary.

    The source is 1 on the closed annulus 0.25 <= r <= 0.75 and the reaction
    is its complement 1 - f, so net production is confined to the annulus.
    The bottom side is a do-nothing outflow; all other sides carry
    homogeneous Dirichlet data.
    """
    def annulus(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        r = np.sqrt(x ** 2 + y ** 2)
        return np.where((r >= 0.25) & (r <= 0.75), 1.0, 0.0)

    return ProblemSpec(name="circular-layers", epsilon=float(epsilon),
                       velocity=_rotation, source=annulus,
                       reaction=lambda x, y: 1.0 - annulus(x, y),
                       dirichlet=_constant(0.0), neumann_sides=(BOTTOM,))


def problem_circular_convection():
    """Pure transport of a Gaussian ring along quarter circles.

    With vanishing diffusion the profile prescribed on the inflow sides x=0
    and y=1 is carried along circular characteristics; the reaction and the
    matching source keep the exact profile stationary.
    """
    def exact(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        r = np.sqrt(x ** 2 + y ** 2)
        return np.exp(-100.0 * (r - 0.7) ** 2)

    return ProblemSpec(name="circular-convection", epsilon=0.0,
                       velocity=_rotation, reaction=_constant(1.0),
                       source=exact, dirichlet=exact, boundary="inflow",
                       exact=exact)


def problem_equilibrium(epsilon=1e-6, vhat=(1.0, 0.0), fhat=1.0):
    """Constant convection and source whose solution is an exact ramp.

    For constant velocity vhat and source fhat with zero reaction, the linear
    ramp fhat * (x . vhat) / |vhat|^2 solves the problem for every diffusion
    value, which makes it a sharp test of source-term balance.
    """
    vhat = np.asarray(vhat, dtype=float)
    speed2 = float(vhat @ vhat)
    if speed2 <= 0.0:
        raise ValueError("vhat must be nonzero")
    fhat = float(fhat)

    def exact(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return fhat * (x * vhat[0] + y * vhat[1]) / speed2

    return ProblemSpec(name="equilibrium", epsilon=float(epsilon),
                       velocity=_uniform_flow(*vhat),
                       reaction=_constant(0.0), source=_constant(fhat),
                       dirichlet=exact, exact=exact)


PROBLEMS = {
    "interior-layers": problem_interior_layers,
    "boundary-layers": problem_boundary_layers,
    "circular-layers": problem_circular_layers,
    "circular-convection": problem_circular_convection,
    "equilibrium": problem_equilibrium,
}


# degree-5 triangle quadrature (7 points, barycentric weights sum to 1)
_A1 = (6.0 - np.sqrt(15.0)) / 21.0
_A2 = (6.0 + np.sqrt(15.0)) / 21.0
_W1 = (155.0 - np.sqrt(15.0)) / 1200.0
_W2 = (155.0 + np.sqrt(15.0)) / 1200.0
_QUAD_BARY = np.array([
    [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
    [_A1, _A1, 1.0 - 2.0 * _A1],
    [_A1, 1.0 - 2.0 * _A1, _A1],
    [1.0 - 2.0 * _A1, _A1, _A1],
    [_A2, _A2, 1.0 - 2.0 * _A2],
    [_A2, 1.0 - 2.0 * _A2, _A2],
    [1.0 - 2.0 * _A2, _A2, _A2],
])
_QUAD_W = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])


def error_norms(mesh, u, exact):
    """Cellwise L1 and L2 norms of u_h - u with a degree-5 triangle rule.

    Parameters
    ----------
    mesh : Mesh
    u : (n,) array
        Nodal values of the piecewise-linear function.
    exact : callable
        Reference solution evaluated as exact(x, y).

    Returns
    -------
    (l1, l2) : floats
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (mesh.num_vertices,):
        raise ValueError(f"expected {mesh.num_vertices} nodal values")
    x, y = _corners(mesh)
    # per cell, the quadrature sums of |u_h - u| and of its square
    e1, e2 = np.empty((2, mesh.num_cells))
    for blk in _row_blocks(mesh.num_cells):
        # quadrature points (cells, q), summed over the corners k in the
        # order, and so with the bits, of np.einsum("qk,ckd->cqd",
        # _QUAD_BARY, p) over the (c, 3, 2) corner coordinates p
        qx = _QUAD_BARY[:, 0] * x[0, blk, None]
        qy = _QUAD_BARY[:, 0] * y[0, blk, None]
        for k in (1, 2):
            qx += _QUAD_BARY[:, k] * x[k, blk, None]
            qy += _QUAD_BARY[:, k] * y[k, blk, None]
        uh = np.einsum("qk,ck->cq", _QUAD_BARY, u[mesh.cells[blk]])
        diff = np.abs(uh - exact(qx, qy))
        e1[blk] = diff @ _QUAD_W
        e2[blk] = (diff ** 2) @ _QUAD_W
    area = mesh.cell_areas
    l1 = float(np.sum(area * e1))
    l2 = float(np.sqrt(np.sum(area * e2)))
    return l1, l2


def eoc(err_coarse, err_fine):
    """Experimental order of convergence between two half-spaced levels."""
    return float(np.log2(err_coarse / err_fine))


@dataclass
class ErrorRecord:
    """One row of a convergence table.

    When the row comes from ``convergence_study``, ``ops`` and ``report``
    hold the level's assembled operators, on its classified mesh
    ``ops.mesh``, and the ``SolveReport`` the row describes (``report.u`` in
    mesh ordering).
    """
    level: int
    ndof: int
    h: float
    l1_error: Optional[float]
    l2_error: Optional[float]
    eoc_l1: Optional[float]
    eoc_l2: Optional[float]
    iterations: int
    converged: bool
    ops: Optional[Operators] = field(default=None, repr=False, compare=False)
    report: Optional[SolveReport] = field(default=None, repr=False,
                                          compare=False)


def convergence_study(problem, grid_id, levels, options=None, warm_start=False):
    """Solve on a refinement ladder and collect errors and convergence orders.

    Parameters
    ----------
    problem : ProblemSpec
    grid_id : int
        Coarse layout, 1 or 2.
    levels : iterable of int
        Consecutive nonnegative refinement levels, ascending; at least one.
    options : SolveOptions, optional
    warm_start : bool
        Start each level from the previous level's solution, extended to the
        refined mesh; the coarsest level keeps ``options.initial_guess``.

    Returns
    -------
    list of ErrorRecord, one per level; orders are left empty on the first
    level and whenever the problem has no exact solution.
    """
    options = _validated(options)
    levels = list(levels)
    if any(not isinstance(lev, (int, np.integer)) or isinstance(lev, bool)
           for lev in levels):
        raise ValueError(f"levels must be integers, got {levels!r}")
    if not levels or levels[0] < 0 or any(
            b - a != 1 for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be nonnegative, consecutive and "
                         "ascending")

    base = build_level0(grid_id)
    for _ in range(levels[0]):
        base = refine(base)

    records = []
    prev = None
    carried = None                       # previous solution in base ordering
    for lev in levels:
        if lev != levels[0]:
            if carried is not None:
                carried = prolong(base, carried)
            base = refine(base)
        mesh = classify_and_order(base, problem)
        ops = assemble(mesh, problem)
        opts = options
        if carried is not None:
            opts = replace(options, initial_guess=carried[mesh.node_permutation])
        report = solve(mesh, problem, opts, ops=ops)
        if warm_start:
            carried = np.empty(mesh.num_vertices)
            carried[mesh.node_permutation] = report.u
        l1 = l2 = e1 = e2 = None
        if problem.exact is not None:
            l1, l2 = error_norms(mesh, report.u, problem.exact)
            # orders are undefined when an error vanishes; leave them empty
            if prev is not None and min(prev[0], prev[1], l1, l2) > 0.0:
                e1, e2 = eoc(prev[0], l1), eoc(prev[1], l2)
            prev = (l1, l2)
        records.append(ErrorRecord(level=lev, ndof=mesh.num_vertices,
                                   h=mesh.h, l1_error=l1, l2_error=l2,
                                   eoc_l1=e1, eoc_l2=e2,
                                   iterations=report.iterations,
                                   converged=report.converged,
                                   ops=ops, report=report))
    return records
