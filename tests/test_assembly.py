import numpy as np
import pytest

from cdrfem import (Mesh, assemble, build_level0, classify_and_order,
                    galerkin_residual, refine)
from cdrfem.assembly import DELTA
from cdrfem.benchmarks import PROBLEMS
from cases import classified, constant_problem
from oracles import (adjacency_edges, csr_assemble, dense_operators,
                     einsum_local_blocks, galerkin_row_residual, node_cells)


DIFFUSION = constant_problem(1.0, (0.0, 0.0), 0.0, 0.0)


def unit_triangle(num_free=0):
    return Mesh([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], [0, 1, 3], num_free=num_free)


def at_edges(mesh, dense):
    """Off-diagonal entries of a dense matrix in directed edge order."""
    return dense[mesh.edges.i, mesh.edges.j]


def test_unit_triangle_diffusion():
    ops = assemble(unit_triangle(), DIFFUSION)
    want = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.array_equal(ops.diff_e, at_edges(ops.mesh, want))


def test_unit_triangle_mass():
    prob = constant_problem(1.0, (0.0, 0.0), 2.0, 0.0)
    ops = assemble(unit_triangle(), prob)
    area = 0.5
    want = 2.0 * (area / 12.0) * (np.ones((3, 3)) + np.eye(3))
    assert np.allclose(ops.reac_e, at_edges(ops.mesh, want), atol=1e-15)
    assert np.allclose(ops.reaction_lumped, want.sum(axis=1), atol=1e-15)


def test_unit_triangle_convection():
    prob = constant_problem(1.0, (1.0, 0.0), 0.0, 0.0)
    ops = assemble(unit_triangle(), prob)
    gx = np.array([-1.0, 1.0, 0.0])
    want = np.tile(gx / 6.0, (3, 1))
    assert np.allclose(ops.conv_e, at_edges(ops.mesh, want), atol=1e-15)


def test_row_sums():
    prob = constant_problem(0.5, (2.0, 3.0), 1.0, 0.0)
    mesh = classified(prob, 2, 2)
    ops = assemble(mesh, prob)
    _, _, R, _ = dense_operators(mesh, prob)
    # reaction row sums integrate c against each hat function
    assert np.allclose(ops.reaction_lumped, R.sum(axis=1), atol=1e-15)
    assert np.all(ops.reaction_lumped >= 0.0)


def test_symmetry():
    prob = constant_problem(1e-2, (1.0, -2.0), 3.0, 0.0)
    ops = assemble(classified(prob, 1, 2), prob)
    rev = ops.mesh.edges.rev
    for values in (ops.diff_e, ops.reac_e, ops.d_e):
        assert np.array_equal(values, values[rev])


def test_offdiagonal_signs():
    prob = constant_problem(1.0, (1.0, 0.0), 0.0, 0.0)
    ops = assemble(classified(prob, 2, 2), prob)
    assert np.all(ops.diff_e <= 1e-14)


def test_artificial_diffusion_definition():
    prob = constant_problem(1.0, (1.0, 0.5), 0.0, 0.0)
    mesh = classified(prob, 2, 1)
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
    prob = DIFFUSION
    mesh = classified(prob, 1, 1)
    ops = assemble(mesh, prob)
    assert np.all(ops.d_e == DELTA * mesh.h)


def test_dense_oracle_agreement():
    prob = constant_problem(0.7, (2.0, 3.0), 1.5, 2.0)
    mesh = classified(prob, 2, 1)
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
            local = et.cell_edges.T
            assert np.array_equal(et.i[local], c[:, [0, 0, 1, 1, 2, 2]])
            assert np.array_equal(et.j[local], c[:, [1, 2, 0, 2, 0, 1]])
            ops = assemble(mesh, prob)
            for field, ref in csr_assemble(mesh, prob).items():
                assert np.array_equal(getattr(ops, field), ref), (level, name,
                                                                  field)
        base = refine(base)


def test_operators_record_their_problem():
    # the operators keep the problem object they were built from and
    # whether every source sample of the assembly was nonnegative; only the
    # boundary-layers forcing is negative somewhere
    for name in sorted(PROBLEMS):
        prob = PROBLEMS[name]()
        ops = assemble(classified(prob, 2, 3), prob)
        assert ops.problem is prob
        assert ops.source_nonnegative is (name != "boundary-layers")


@pytest.mark.parametrize("grid_id", [1, 2])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_assembly_bits_match_einsum_blocks(monkeypatch, name, grid_id):
    # the loop forms of the cell blocks give the bits of their einsums
    prob = PROBLEMS[name]()
    mesh = classified(prob, grid_id, 3)
    ops = assemble(mesh, prob)
    monkeypatch.setattr("cdrfem.assembly._local_blocks", einsum_local_blocks)
    ref = assemble(mesh, prob)
    for field in ("diff_e", "conv_e", "reac_e", "d_e", "b",
                  "reaction_lumped", "row_weight"):
        assert np.array_equal(getattr(ops, field).view(np.int64),
                              getattr(ref, field).view(np.int64)), field
    assert ops.source_nonnegative is ref.source_nonnegative


def test_row_residual_matches_dense():
    prob = constant_problem(0.3, (1.0, 2.0), 0.5, 1.0)
    mesh = classified(prob, 2, 1)
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
    prob = constant_problem(1.0, (1.0, 1.0), 0.0, 0.0)
    mesh = classified(prob, 1, 2)
    ops = assemble(mesh, prob)
    u = np.full(mesh.num_vertices, 4.0)
    assert np.max(np.abs(galerkin_residual(ops, u))) < 1e-14


def test_row_residual_range():
    prob = DIFFUSION
    ops = assemble(classified(prob, 1, 1), prob)
    u = np.zeros(ops.mesh.num_vertices)
    with pytest.raises(ValueError):
        galerkin_row_residual(ops, u, ops.mesh.num_free)


def test_source_vector():
    prob = constant_problem(1.0, (0.0, 0.0), 0.0, 1.0)
    mesh = classified(prob, 1, 2)
    ops = assemble(mesh, prob)
    # f = 1 gives one third of the support area per node
    cptr, cdata = node_cells(mesh)
    support = np.add.reduceat(mesh.cell_areas[cdata], cptr[:-1])
    assert np.allclose(ops.b[:mesh.num_free],
                       support[:mesh.num_free] / 3.0, atol=1e-15)
    assert np.all(ops.b[mesh.num_free:] == 0.0)


def test_negative_reaction_rejected():
    prob = constant_problem(1.0, (0.0, 0.0), -1.0, 0.0)
    mesh = classified(prob, 1, 1)
    with pytest.raises(ValueError):
        assemble(mesh, prob)


def test_obtuse_mesh_rejected():
    mesh = Mesh([(0.0, 0.0), (4.0, 0.0), (2.0, 0.2)], [(0, 1, 2)],
                [(0, 1), (1, 2), (2, 0)], [0, 1, 3], num_free=0)
    with pytest.raises(ValueError, match="weakly acute"):
        assemble(mesh, DIFFUSION)


def test_unclassified_mesh_rejected():
    with pytest.raises(ValueError):
        assemble(build_level0(1), DIFFUSION)

