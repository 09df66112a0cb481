import numpy as np
import pytest

from cdrfem import (Mesh, ProblemSpec, assemble, build_level0,
                    classify_and_order, galerkin_residual, refine)
from cdrfem.assembly import DELTA, galerkin_row_residual
from cdrfem.benchmarks import PROBLEMS
from oracles import (adjacency_edges, csr_assemble, dense_operators,
                     node_cells)


def make_problem(epsilon=1.0, velocity=(0.0, 0.0), reaction=0.0, source=0.0):
    vx0, vy0 = velocity

    def shaped(x, value):
        return np.full_like(np.asarray(x, dtype=float), value)

    return ProblemSpec(
        name="probe", epsilon=epsilon,
        velocity=lambda x, y: (shaped(x, vx0), shaped(x, vy0)),
        reaction=lambda x, y: shaped(x, reaction),
        source=lambda x, y: shaped(x, source),
        dirichlet=lambda x, y: shaped(x, 0.0))


def classified(grid_id, level, problem):
    mesh = build_level0(grid_id)
    for _ in range(level):
        mesh = refine(mesh)
    return classify_and_order(mesh, problem)


def unit_triangle(num_free=0):
    return Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], [0, 1, 3], num_free=num_free)


def at_edges(mesh, dense):
    """Off-diagonal entries of a dense matrix in directed edge order."""
    return dense[mesh.edges.i, mesh.edges.j]


def test_unit_triangle_diffusion():
    ops = assemble(unit_triangle(), make_problem(epsilon=1.0))
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.array_equal(ops.diff_e, at_edges(ops.mesh, want))


def test_unit_triangle_mass():
    ops = assemble(unit_triangle(), make_problem(reaction=2.0))
    area = 0.5
    want = 2.0 * (area / 12.0) * (np.ones((3, 3)) + np.eye(3))
    assert np.allclose(ops.reac_e, at_edges(ops.mesh, want), atol=1e-15)
    assert np.allclose(ops.reaction_lumped, want.sum(axis=1), atol=1e-15)


def test_unit_triangle_convection():
    ops = assemble(unit_triangle(), make_problem(velocity=(1.0, 0.0)))
    gx = np.array([-1.0, 1.0, 0.0])
    want = np.tile(gx / 6.0, (3, 1))
    assert np.allclose(ops.conv_e, at_edges(ops.mesh, want), atol=1e-15)


def test_row_sums():
    prob = make_problem(epsilon=0.5, velocity=(2.0, 3.0), reaction=1.0)
    mesh = classified(2, 2, prob)
    ops = assemble(mesh, prob)
    _, _, R, _ = dense_operators(mesh, prob)
    # reaction row sums integrate c against each hat function
    assert np.allclose(ops.reaction_lumped, R.sum(axis=1), atol=1e-15)
    assert np.all(ops.reaction_lumped >= 0.0)


def test_symmetry():
    prob = make_problem(epsilon=1e-2, velocity=(1.0, -2.0), reaction=3.0)
    ops = assemble(classified(1, 2, prob), prob)
    rev = ops.mesh.edges.rev
    for values in (ops.diff_e, ops.reac_e, ops.d_e):
        assert np.array_equal(values, values[rev])


def test_offdiagonal_signs():
    prob = make_problem(epsilon=1.0, velocity=(1.0, 0.0))
    ops = assemble(classified(2, 2, prob), prob)
    assert np.all(ops.diff_e <= 1e-14)


def test_artificial_diffusion_definition():
    prob = make_problem(velocity=(1.0, 0.5))
    mesh = classified(2, 1, prob)
    ops = assemble(mesh, prob)
    et = mesh.edges
    want = np.maximum(np.maximum(np.abs(ops.conv_e), np.abs(ops.conv_e[et.rev])),
                      DELTA * mesh.h)
    assert np.array_equal(ops.d_e, want)
    assert np.all(ops.d_e >= DELTA * mesh.h)
    assert np.array_equal(ops.d_e, ops.d_e[et.rev])
    assert np.array_equal(ops.art_row,
                          2.0 * np.add.reduceat(ops.d_e, et.indptr[:-1]))
    assert np.all(ops.art_row > 0.0)


def test_artificial_diffusion_floor():
    prob = make_problem(velocity=(0.0, 0.0))
    mesh = classified(1, 1, prob)
    ops = assemble(mesh, prob)
    assert np.all(ops.d_e == DELTA * mesh.h)


def test_dense_oracle_agreement():
    prob = make_problem(epsilon=0.7, velocity=(2.0, 3.0), reaction=1.5,
                        source=2.0)
    mesh = classified(2, 1, prob)
    ops = assemble(mesh, prob)
    D, C, R, b = dense_operators(mesh, prob)
    assert np.allclose(ops.diff_e, at_edges(mesh, D), atol=1e-14)
    assert np.allclose(ops.conv_e, at_edges(mesh, C), atol=1e-14)
    assert np.allclose(ops.reac_e, at_edges(mesh, R), atol=1e-14)
    assert np.allclose(ops.reaction_lumped, R.sum(axis=1), atol=1e-14)
    assert np.allclose(ops.b, b, atol=1e-14)
    u = np.random.default_rng(5).standard_normal(mesh.num_vertices)
    want = ((D + C + R) @ u - b)[:mesh.num_free]
    assert np.allclose(galerkin_residual(ops, u), want, atol=1e-14)


@pytest.mark.parametrize("grid_id", [1, 2])
def test_edges_and_operators_match_csr_oracle(grid_id):
    # the edge table and the edge scatter reproduce the hashed adjacency and
    # the full-pattern np.add.at bit for bit
    base = build_level0(grid_id)
    for level in range(6):
        for name in sorted(PROBLEMS):
            prob = PROBLEMS[name]()
            mesh = classify_and_order(base, prob)
            et = mesh.edges
            _, want = adjacency_edges(mesh)
            for field, ref in zip(("i", "j", "rev", "indptr"), want):
                assert np.array_equal(getattr(et, field), ref), (level, name,
                                                                 field)
            assert et.cell_edges.dtype == np.int32
            c = mesh.cells
            local = et.cell_edges
            assert np.array_equal(et.i[local], c[:, [0, 0, 1, 1, 2, 2]])
            assert np.array_equal(et.j[local], c[:, [1, 2, 0, 2, 0, 1]])
            ops = assemble(mesh, prob)
            for field, ref in csr_assemble(mesh, prob).items():
                assert np.array_equal(getattr(ops, field), ref), (level, name,
                                                                  field)
        base = refine(base)


def test_row_residual_matches_dense():
    prob = make_problem(epsilon=0.3, velocity=(1.0, 2.0), reaction=0.5,
                        source=1.0)
    mesh = classified(2, 1, prob)
    ops = assemble(mesh, prob)
    D, C, R, _ = dense_operators(mesh, prob)
    A = D + C + R
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.standard_normal(mesh.num_vertices)
        want = A[:mesh.num_free] @ u - ops.b[:mesh.num_free]
        got = galerkin_residual(ops, u)
        assert np.allclose(got, want, atol=1e-13)
        for i in range(mesh.num_free):
            assert galerkin_row_residual(ops, u, i) == pytest.approx(
                want[i], abs=1e-13)


def test_row_residual_constant_state():
    prob = make_problem(epsilon=1.0, velocity=(1.0, 1.0))
    mesh = classified(1, 2, prob)
    ops = assemble(mesh, prob)
    u = np.full(mesh.num_vertices, 4.0)
    assert np.max(np.abs(galerkin_residual(ops, u))) < 1e-14


def test_row_residual_range():
    prob = make_problem()
    ops = assemble(classified(1, 1, prob), prob)
    u = np.zeros(ops.mesh.num_vertices)
    with pytest.raises(ValueError):
        galerkin_row_residual(ops, u, ops.num_free)


def test_source_vector():
    prob = make_problem(source=1.0)
    mesh = classified(1, 2, prob)
    ops = assemble(mesh, prob)
    # f = 1 gives one third of the support area per node
    cptr, cdata = node_cells(mesh)
    support = np.add.reduceat(mesh.cell_areas[cdata], cptr[:-1])
    assert np.allclose(ops.b[:mesh.num_free],
                       support[:mesh.num_free] / 3.0, atol=1e-15)
    assert np.all(ops.b[mesh.num_free:] == 0.0)


def test_negative_reaction_rejected():
    prob = make_problem(reaction=-1.0)
    mesh = classified(1, 1, prob)
    with pytest.raises(ValueError):
        assemble(mesh, prob)


def test_obtuse_mesh_rejected():
    mesh = Mesh([(0.0, 0.0), (4.0, 0.0), (2.0, 0.2)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], [0, 1, 3], num_free=0)
    with pytest.raises(ValueError, match="weakly acute"):
        assemble(mesh, make_problem(epsilon=1.0))


def test_unclassified_mesh_rejected():
    with pytest.raises(ValueError):
        assemble(build_level0(1), make_problem())

