import numpy as np
import pytest

from cdrfem import (BOTTOM, LEFT, RIGHT, TOP, Mesh, build_level0,
                    classify_and_order, prolong, refine)
from cdrfem.benchmarks import (PROBLEMS, problem_circular_convection,
                               problem_circular_layers,
                               problem_interior_layers)
from cdrfem.mesh import _edge_keys
from cases import refined
from oracles import (gathered_cell_geometry, lexsort_mirror_cells,
                     mirror_cell, node_cells, roll_h, stack_sort_edge_keys)


def bits(a):
    """The 64-bit patterns of a float or int64 array (or a float), so that
    +0 and -0 differ."""
    return np.asarray(a).view(np.int64)


def jittered(grid_id, level):
    """``refined`` with every interior vertex moved by up to 0.2 h / sqrt(2)
    per coordinate, so that the reflected point 2 x_i - x_j of an edge off
    the boundary is no vertex."""
    mesh = refined(grid_id, level)
    x = mesh.vertices.copy()
    interior = np.ones(len(x), dtype=bool)
    interior[mesh.boundary_edges.ravel()] = False
    rng = np.random.default_rng(grid_id)
    x[interior] += (rng.uniform(-0.2, 0.2, (interior.sum(), 2))
                    * mesh.h / np.sqrt(2))
    return Mesh(x, mesh.cells, mesh.boundary_edges, mesh.boundary_tags)


def irrational(grid_id, level):
    """``refined`` under an affine map with irrational coefficients and a
    positive determinant, on which refinement need not halve h exactly."""
    mesh = refined(grid_id, level)
    a = np.array([[np.pi / 3.0, np.sqrt(2.0) / 7.0],
                  [np.e / 9.0, np.sqrt(3.0) / 2.0]])
    shift = np.array([np.sqrt(5.0), 1.0 / np.pi])
    return Mesh(mesh.vertices @ a.T + shift, mesh.cells, mesh.boundary_edges,
                mesh.boundary_tags)


def undirected_edges(mesh):
    c = mesh.cells
    pairs = np.concatenate([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]])
    return np.unique(np.sort(pairs, axis=1), axis=0)


def mirror_cell_reference(mesh, i, j, cells_at_i):
    """Slow search for the extrapolation cell of the directed edge (i, j)
    among ``cells_at_i``, the cells at x_i in ascending order.

    Containment beats wedge membership beats smallest angle between the
    direction x_i - x_j and the corner rays; ties fall to the smallest cell
    index, so the first containing cell wins.  Uses barycentric coordinates
    and arccos, unlike the production code, which has no containment level.
    """
    xi, xj = mesh.vertices[i], mesh.vertices[j]
    point = 2.0 * xi - xj
    w = xi - xj
    best = None
    for k in cells_at_i:
        tri = mesh.cells[k]
        p = mesh.vertices[tri]
        T = np.column_stack([p[1] - p[0], p[2] - p[0]])
        lam12 = np.linalg.solve(T, point - p[0])
        lam = np.array([1.0 - lam12.sum(), lam12[0], lam12[1]])
        if np.all(lam >= -1e-12):
            return k
        rays = [p[v] - xi for v in range(3) if tri[v] != i]
        ab = np.linalg.solve(np.column_stack(rays), w)
        if np.all(ab >= -1e-12):
            key = (1, 0.0, k)
        else:
            ang = min(np.arccos(np.clip(w @ r / (np.linalg.norm(w)
                                                 * np.linalg.norm(r)),
                                        -1.0, 1.0)) for r in rays)
            key = (2, ang, k)
        if best is None or key < best:
            best = key
    return best[2]


def test_level0_grid1():
    mesh = build_level0(1)
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 2
    assert np.all(mesh.cell_areas > 0.0)
    assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-15)
    assert sorted(mesh.boundary_tags) == [BOTTOM, RIGHT, TOP, LEFT]


def test_level0_grid2():
    mesh = build_level0(2)
    assert mesh.num_vertices == 5
    assert mesh.num_cells == 4
    assert np.allclose(mesh.vertices[4], [0.5, 0.5])
    assert mesh.cell_areas.sum() == pytest.approx(1.0, abs=1e-15)


def test_level0_bad_grid():
    with pytest.raises(ValueError):
        build_level0(3)


def test_refine_counts_grid1():
    mesh = refine(build_level0(1))
    assert mesh.num_cells == 8
    assert mesh.num_vertices == 9


def test_refine_twice_grid2():
    assert refined(2, 2).num_cells == 64


def test_refine_halves_h():
    # midpoints of dyadic coordinates are exact, so h halves exactly
    for gid in (1, 2):
        mesh = build_level0(gid)
        for _ in range(5):
            child = refine(mesh)
            assert child.h == 0.5 * mesh.h
            mesh = child


@pytest.mark.parametrize("grid_id", [1, 2])
def test_geometry_matches_gathered_oracles(grid_id):
    # the per-coordinate columns give the bits of the (c, 3, 2) gathers,
    # and the min/max edge keys those of stack and sort
    for level in range(6):
        mesh = refined(grid_id, level)
        for m in [mesh] + [classify_and_order(mesh, PROBLEMS[name]())
                           for name in sorted(PROBLEMS)]:
            area, grads = gathered_cell_geometry(m)
            assert np.array_equal(bits(m.h), bits(roll_h(m))), level
            assert np.array_equal(bits(m.cell_areas), bits(area)), level
            assert np.array_equal(bits(m.cell_grads),
                                  bits(np.moveaxis(grads, 0, -1))), level
            for got, want in zip(_edge_keys(m), stack_sort_edge_keys(m)):
                assert np.array_equal(bits(got), bits(want)), level


def test_h_matches_roll_oracle_on_irrational_meshes():
    inexact = 0
    for gid in (1, 2):
        mesh = irrational(gid, 1)
        for _ in range(4):
            child = refine(mesh)
            inexact += child.h != 0.5 * mesh.h
            assert np.array_equal(bits(mesh.h), bits(roll_h(mesh)))
            mesh = child
    assert inexact


def test_classify_keeps_geometry_bits():
    for gid in (1, 2):
        for mesh in (refined(gid, 4), jittered(gid, 3), irrational(gid, 3)):
            for name in sorted(PROBLEMS):
                ordered = classify_and_order(mesh, PROBLEMS[name]())
                assert np.array_equal(bits(ordered.h), bits(mesh.h))
                assert np.array_equal(bits(ordered.cell_areas),
                                      bits(mesh.cell_areas))
                assert np.array_equal(bits(ordered.cell_grads),
                                      bits(mesh.cell_grads))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mesh_rejects_non_finite_vertices(bad):
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, bad)]
    with pytest.raises(ValueError, match="finite"):
        Mesh(vertices, [(0, 1, 2), (0, 2, 3)],
             [(0, 1), (1, 2), (2, 3), (3, 0)], [BOTTOM, RIGHT, TOP, LEFT])


@pytest.mark.parametrize("cells", [[(0, 1, 2), (0, 2, -1)],
                                   [(0, 1, 2), (0, 2, 4)]])
def test_mesh_rejects_cell_index_out_of_range(cells):
    # -1 would wrap to vertex 3 and build a valid-looking square
    vertices = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    with pytest.raises(ValueError, match=r"\[0, 4\)"):
        Mesh(vertices, cells, [(0, 1), (1, 2), (2, 3), (3, 0)],
             [BOTTOM, RIGHT, TOP, LEFT])


SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
SQUARE_CELLS = [(0, 1, 2), (0, 2, 3)]
SQUARE_TAGS = [BOTTOM, RIGHT, TOP, LEFT]


@pytest.mark.parametrize("cells", [[0, 1, 2], [(0, 1, 2, 3)],
                                   [(0, 1), (1, 2)],
                                   np.empty((0, 3), dtype=int)],
                         ids=["1-d", "4 corners", "2 corners", "no cells"])
def test_mesh_rejects_cells_of_wrong_shape(cells):
    # a flat triple built a mesh of three "cells"; wider or narrower rows
    # and an empty array failed inside the geometry with NumPy's messages
    with pytest.raises(ValueError, match=r"shape \(c, 3\) with c >= 1"):
        Mesh(SQUARE, cells, [(0, 1), (1, 2), (2, 3), (3, 0)], SQUARE_TAGS)


@pytest.mark.parametrize("edges", [[0, 1, 2, 3],
                                   [(0, 1, 2), (1, 2, 3), (2, 3, 0),
                                    (3, 0, 1)]])
def test_mesh_rejects_boundary_edges_of_wrong_shape(edges):
    with pytest.raises(ValueError, match=r"shape \(b, 2\)"):
        Mesh(SQUARE, SQUARE_CELLS, edges, SQUARE_TAGS)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2), (2, 3), (3, -1)],
                                   [(0, 1), (1, 2), (2, 9), (9, 0)]])
def test_mesh_rejects_boundary_index_out_of_range(edges):
    # -1 would wrap to vertex 3, which classify_and_order turns into the
    # edge (3, 3); 9 raised IndexError there
    with pytest.raises(ValueError, match=r"boundary vertex indices.*\[0, 4\)"):
        Mesh(SQUARE, SQUARE_CELLS, edges, SQUARE_TAGS)


@pytest.mark.parametrize("cells", [[(0, 2, 1), (0, 2, 3)],
                                   [(0, 1, 2), (0, 2, 3), (0, 2, 2)]],
                         ids=["clockwise", "zero area"])
def test_mesh_rejects_clockwise_and_flat_cells(cells):
    with pytest.raises(ValueError, match="counterclockwise with positive"):
        Mesh(SQUARE, cells, [(0, 1), (1, 2), (2, 3), (3, 0)], SQUARE_TAGS)


@pytest.mark.parametrize("base", [build_level0(1), refined(1, 2)],
                         ids=["square", "g1 L2"])
def test_mesh_rejects_vertex_of_no_cell(base):
    # an unused vertex became a free node without edges: assembly gave it
    # a neighbour's artificial diffusion and solve raised IndexError
    vertices = np.vstack([base.vertices, [(0.5, 0.501)]])
    with pytest.raises(ValueError, match="corner of a cell"):
        Mesh(vertices, base.cells, base.boundary_edges, base.boundary_tags)


@pytest.mark.parametrize("tags", [SQUARE_TAGS[:3], SQUARE_TAGS + [BOTTOM],
                                  [SQUARE_TAGS]])
def test_mesh_rejects_boundary_tags_of_wrong_shape(tags):
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        Mesh(SQUARE, SQUARE_CELLS, [(0, 1), (1, 2), (2, 3), (3, 0)], tags)


def test_refine_euler_and_counts():
    # V - E + C = 1 for a triangulated disk; cells grow by factor 4
    for gid in (1, 2):
        base = build_level0(gid)
        mesh = base
        for lev in range(4):
            assert mesh.num_cells == base.num_cells * 4 ** lev
            ne = len(undirected_edges(mesh))
            assert mesh.num_vertices - ne + mesh.num_cells == 1
            mesh = refine(mesh)


def test_refine_conformity():
    mesh = refined(2, 3)
    c = mesh.cells
    pairs = np.sort(np.concatenate([c[:, [0, 1]], c[:, [1, 2]], c[:, [2, 0]]]),
                    axis=1)
    uniq, counts = np.unique(pairs, axis=0, return_counts=True)
    assert set(counts) <= {1, 2}
    # edges used once are exactly the boundary edges
    interior = uniq[counts == 2]
    boundary = uniq[counts == 1]
    assert len(boundary) == len(mesh.boundary_edges)
    declared = np.unique(np.sort(mesh.boundary_edges, axis=1), axis=0)
    assert np.array_equal(boundary, declared)
    assert len(interior) + len(boundary) == len(uniq)


def test_boundary_tags_inherited():
    mesh = refined(1, 3)
    sides = {BOTTOM: (1, 0.0), RIGHT: (0, 1.0), TOP: (1, 1.0), LEFT: (0, 0.0)}
    mids = 0.5 * (mesh.vertices[mesh.boundary_edges[:, 0]]
                  + mesh.vertices[mesh.boundary_edges[:, 1]])
    for tag, (axis, value) in sides.items():
        sel = mesh.boundary_tags == tag
        assert sel.sum() == 2 ** 3
        assert np.allclose(mids[sel, axis], value, atol=1e-15)


def test_weakly_acute_angles():
    for gid in (1, 2):
        mesh = refined(gid, 2)
        p = mesh.vertices[mesh.cells]
        for k in range(3):
            a = p[:, (k + 1) % 3] - p[:, k]
            b = p[:, (k + 2) % 3] - p[:, k]
            cosang = (a * b).sum(axis=1) / (
                np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
            assert np.all(np.arccos(np.clip(cosang, -1, 1))
                          <= 0.5 * np.pi + 1e-12)


def test_classify_all_dirichlet_grid1():
    mesh = classify_and_order(refined(1, 1), problem_interior_layers())
    assert mesh.num_free == 1
    assert np.allclose(mesh.vertices[0], [0.5, 0.5])


def test_classify_neumann_bottom():
    prob = problem_circular_layers()
    mesh = classify_and_order(refined(1, 2), prob)
    x = mesh.vertices
    on_bottom = np.isclose(x[:, 1], 0.0)
    interior_bottom = on_bottom & (x[:, 0] > 0.0) & (x[:, 0] < 1.0)
    free = np.arange(mesh.num_vertices) < mesh.num_free
    assert np.all(free[interior_bottom])
    # corners sit on the closure of Dirichlet sides
    for corner in ([0.0, 0.0], [1.0, 0.0]):
        k = np.flatnonzero(np.all(np.isclose(x, corner), axis=1))[0]
        assert not free[k]


def test_classify_inflow():
    prob = problem_circular_convection()
    mesh = classify_and_order(refined(1, 2), prob)
    x = mesh.vertices
    free = np.arange(mesh.num_vertices) < mesh.num_free
    inflow = np.isclose(x[:, 0], 0.0) | np.isclose(x[:, 1], 1.0)
    assert np.all(~free[inflow])
    assert np.all(free[~inflow])
    # outflow corner (1, 0) stays an unknown
    k = np.flatnonzero(np.all(np.isclose(x, [1.0, 0.0]), axis=1))[0]
    assert free[k]


def test_classify_requires_dirichlet():
    prob = problem_circular_layers()
    prob.neumann_sides = (BOTTOM, RIGHT, TOP, LEFT)
    with pytest.raises(ValueError):
        classify_and_order(refined(1, 1), prob)


def test_classify_rejects_unknown_boundary_rule():
    prob = problem_circular_layers()
    prob.boundary = "outflow"
    with pytest.raises(ValueError, match="unknown boundary rule 'outflow'"):
        classify_and_order(refined(1, 1), prob)


def test_classify_permutation():
    base = refined(2, 2)
    mesh = classify_and_order(base, problem_interior_layers())
    perm = mesh.node_permutation
    assert np.array_equal(np.sort(perm), np.arange(mesh.num_vertices))
    assert np.allclose(mesh.vertices, base.vertices[perm])
    # connectivity is relabeled consistently
    assert np.array_equal(np.sort(perm[mesh.cells], axis=None),
                          np.sort(base.cells, axis=None))


def test_classify_partition():
    mesh = classify_and_order(refined(1, 2), problem_interior_layers())
    m = mesh.num_free
    on_boundary = np.zeros(mesh.num_vertices, dtype=bool)
    on_boundary[mesh.boundary_edges.ravel()] = True
    assert np.all(on_boundary[m:])
    assert not np.any(on_boundary[:m])


def test_mirror_interior_symmetric():
    mesh = refined(1, 2)
    x = mesh.vertices
    i = int(np.flatnonzero(np.all(np.isclose(x, [0.5, 0.5]), axis=1))[0])
    j = int(np.flatnonzero(np.all(np.isclose(x, [0.75, 0.5]), axis=1))[0])
    point = 2.0 * x[i] - x[j]
    assert np.allclose(point, [0.25, 0.5])
    tri = mesh.cells[mirror_cell(mesh, i, j)]
    assert i in tri
    p = x[tri]
    T = np.column_stack([p[1] - p[0], p[2] - p[0]])
    lam12 = np.linalg.solve(T, point - p[0])
    lam = np.array([1.0 - lam12.sum(), *lam12])
    assert np.all(lam >= -1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mirror_cells_match_reference():
    meshes = [refined(gid, lev) for gid, lev in ((1, 2), (2, 1), (2, 2))]
    meshes += [classify_and_order(refined(gid, 3), PROBLEMS[name]())
               for gid in (1, 2) for name in sorted(PROBLEMS)]
    meshes += [jittered(gid, 3) for gid in (1, 2)]
    for mesh in meshes:
        et = mesh.edges
        got = mesh.mirror_cells
        ptr, cells = node_cells(mesh)
        for k in range(len(et.i)):
            i, j = int(et.i[k]), int(et.j[k])
            want = mirror_cell_reference(mesh, i, j, cells[ptr[i]:ptr[i + 1]])
            assert got[k] == want, (mesh.num_vertices, i, j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid_id", [1, 2])
def test_mirror_cells_match_lexsort_oracle(grid_id):
    base = build_level0(grid_id)
    for level in range(6):
        for name in sorted(PROBLEMS):
            mesh = classify_and_order(base, PROBLEMS[name]())
            assert np.array_equal(mesh.mirror_cells,
                                  lexsort_mirror_cells(mesh)), (level, name)
        base = refine(base)
    for mesh in (jittered(grid_id, 3), irrational(grid_id, 3)):
        assert np.array_equal(mesh.mirror_cells, lexsort_mirror_cells(mesh))


@pytest.mark.parametrize("grid_id", [1, 2])
def test_mirror_cells_across_row_blocks(monkeypatch, grid_id):
    # a block holds block // D rows of degree D (at least one): some degree
    # groups end on a partial block, and some are smaller than one block
    partial = small = False
    for block in (7, 50):
        monkeypatch.setattr("cdrfem.mesh._BLOCK_ROWS", block)
        for mesh in (refined(grid_id, 3), jittered(grid_id, 3),
                     irrational(grid_id, 2)):
            sizes = np.bincount(np.diff(mesh.edges.indptr))
            for deg in np.flatnonzero(sizes):
                step = max(block // deg, 1)
                partial |= sizes[deg] % step != 0
                small |= sizes[deg] < step
            assert np.array_equal(mesh.mirror_cells,
                                  lexsort_mirror_cells(mesh)), block
    assert partial and small


def test_mirror_cells_contain_owner():
    mesh = refined(2, 2)
    et = mesh.edges
    owner = mesh.cells[mesh.mirror_cells]
    assert np.all(np.any(owner == et.i[:, None], axis=1))


def test_mirror_cell_rejects_non_edge():
    mesh = refined(1, 1)
    x = mesh.vertices
    i = int(np.flatnonzero(np.all(np.isclose(x, [0.0, 0.0]), axis=1))[0])
    j = int(np.flatnonzero(np.all(np.isclose(x, [1.0, 1.0]), axis=1))[0])
    with pytest.raises(ValueError):
        mirror_cell(mesh, i, j)


def test_edge_table_structure():
    bases = [build_level0(1), build_level0(2)]
    for level in range(5):
        meshes = [classify_and_order(base, PROBLEMS[name]())
                  for base in bases for name in sorted(PROBLEMS)]
        for mesh in bases + meshes:
            et = mesh.edges
            assert np.all(et.i != et.j)
            assert len(et.i) == 2 * len(undirected_edges(mesh))
            # rev is an involution mapping (i, j) to (j, i)
            assert np.array_equal(et.i, et.j[et.rev])
            assert np.array_equal(et.j, et.i[et.rev])
            assert np.array_equal(et.rev[et.rev], np.arange(len(et.i)))
            counts = np.diff(et.indptr)
            assert np.array_equal(np.repeat(np.arange(mesh.num_vertices),
                                            counts), et.i)
            # columns strictly ascending within each row
            same_row = et.i[1:] == et.i[:-1]
            assert np.all(et.j[1:][same_row] > et.j[:-1][same_row])
            if mesh.num_free is not None:
                # the edges of the unknown rows form the leading block
                m = mesh.num_free
                assert et.indptr[m] == np.count_nonzero(et.i < m), level
        bases = [refine(base) for base in bases]


def test_prolong_preserves_linear_functions():
    for grid_id in (1, 2):
        mesh = refined(grid_id, 2)
        fine = refine(mesh)
        f = lambda x, y: 0.7 - 1.3 * x + 0.4 * y
        coarse_vals = f(mesh.vertices[:, 0], mesh.vertices[:, 1])
        got = prolong(mesh, coarse_vals)
        want = f(fine.vertices[:, 0], fine.vertices[:, 1])
        assert got.shape == (fine.num_vertices,)
        assert np.allclose(got, want, atol=1e-14)
        # parent vertices keep their values exactly
        assert np.array_equal(got[:mesh.num_vertices], coarse_vals)
    with pytest.raises(ValueError):
        prolong(refined(1, 1), np.zeros(4))
