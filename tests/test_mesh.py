import dataclasses
import re

import numpy as np
import pytest

import cdii
from cdii.mesh import (
    Mesh,
    _gradient_norm,
    _grid_index,
    build_uniform_mesh,
    centroids,
    locate_electrodes,
    triangle_gradients,
)
from helpers import basis_gradients, centroids_reference


def signed_area(nodes, tri):
    a, b, c = nodes[tri[0]], nodes[tri[1]], nodes[tri[2]]
    return 0.5 * ((b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1]))


def test_counts_small_grids():
    m = build_uniform_mesh(4)
    assert m.node_count == 16
    assert m.triangle_count == 18
    m = build_uniform_mesh(2)
    assert m.node_count == 4
    assert m.triangle_count == 2
    assert m.h == 1.0


@pytest.mark.parametrize("n", range(2, 13))
def test_triangle_count_formula(n):
    m = build_uniform_mesh(n)
    assert m.triangle_count == 2 * (n - 1) ** 2


def test_rejects_degenerate_grid():
    for bad in (1, 0, -3, 2.0, "4", None):
        message = f"^side_nodes must be an integer >= 2, got {re.escape(repr(bad))}$"
        for make in (Mesh, build_uniform_mesh):
            with pytest.raises(ValueError, match=message):
                make(bad)


def test_mesh_is_defined_by_its_side_count():
    m = Mesh(np.int64(5))
    assert [f.name for f in dataclasses.fields(Mesh) if f.init] == ["side_nodes"]
    assert type(m.side_nodes) is int and m.h == 0.25
    assert m == build_uniform_mesh(5) and m != Mesh(6)
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.h = 0.5


def test_corner_and_interior_adjacency():
    # 4x4 grid, ids 0-based: the southwest corner touches one triangle, the
    # southeast/northwest corners two, and the interior node (1/3, 2/3)
    # (0-based id 9) six.  Counted by brute-force membership scan.
    m = build_uniform_mesh(4)

    def adjacent(node):
        return int(np.sum(np.any(m.triangles == node, axis=1)))

    assert adjacent(0) == 1
    assert adjacent(3) == 2
    assert adjacent(12) == 2
    assert adjacent(9) == 6


def test_areas():
    m = build_uniform_mesh(5)
    areas = np.array([abs(signed_area(m.nodes, t)) for t in m.triangles])
    assert np.allclose(areas, m.h ** 2 / 2, rtol=1e-13)
    assert abs(areas.sum() - 1.0) < 1e-12


def test_basis_gradients_unit_cell():
    m = build_uniform_mesh(2)  # h = 1
    assert np.array_equal(basis_gradients(m, 0),
                          np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(basis_gradients(m, 1),
                          np.array([[1.0, 1.0], [0.0, -1.0], [-1.0, 0.0]]))


def test_basis_gradients_sum_to_zero():
    m = build_uniform_mesh(6)
    for tid in range(m.triangle_count):
        assert np.allclose(basis_gradients(m, tid).sum(axis=0), 0.0, atol=1e-12)


def test_basis_gradients_index_checked():
    m = build_uniform_mesh(3)
    with pytest.raises(ValueError):
        basis_gradients(m, m.triangle_count)
    with pytest.raises(ValueError):
        basis_gradients(m, -1)


def test_partition_of_unity():
    # The three plane functions of a triangle are 1 at their own vertex and
    # sum to 1 everywhere on the triangle.
    m = build_uniform_mesh(5)
    cent = centroids(m)
    for tid in (0, 1, 7, 12, m.triangle_count - 1):
        grads = basis_gradients(m, tid)
        verts = m.nodes[m.triangles[tid]]

        def plane_values(point):
            return np.array([1.0 + grads[i] @ (point - verts[i]) for i in range(3)])

        assert abs(plane_values(cent[tid]).sum() - 1.0) < 1e-12
        for j in range(3):
            vals = plane_values(verts[j])
            assert np.allclose(vals, np.eye(3)[j], atol=1e-12)


@pytest.mark.parametrize("side_nodes", [2, 3, 4, 7, 60, 180])
def test_centroids_are_bitwise_the_mean_of_the_vertices(side_nodes):
    m = build_uniform_mesh(side_nodes)
    assert centroids(m).tobytes() == centroids_reference(m, m.nodes).tobytes()


@pytest.mark.parametrize("side_nodes", [2, 3, 7, 60])
def test_triangle_gradients_match_the_basis_sum(side_nodes):
    m = build_uniform_mesh(side_nodes)
    values = np.random.default_rng(side_nodes).normal(size=m.node_count)
    reference = np.array([values[m.triangles[t]] @ basis_gradients(m, t)
                          for t in range(m.triangle_count)])
    grads = triangle_gradients(m, values)
    assert grads.shape == (m.triangle_count, 2)
    assert np.max(np.abs(grads - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("side_nodes", [2, 3, 7, 60])
def test_triangle_gradients_of_an_affine_function_are_its_slope(side_nodes):
    m = build_uniform_mesh(side_nodes)
    slope = np.array([0.7, -1.3])
    grads = triangle_gradients(m, 2.5 + m.nodes @ slope)
    assert np.max(np.abs(grads - slope)) <= 1e-12


def test_triangle_gradients_reject_wrong_count():
    m = build_uniform_mesh(4)
    with pytest.raises(ValueError, match="expected 16 nodal values"):
        triangle_gradients(m, np.zeros(15))


def test_gradient_norm_is_the_square_root_kernel_within_2_ulp_of_hypot():
    # Components of either sign, zeros included, with magnitudes across the
    # kernel's documented range [1e-150, 1e150]: drawn apart in the first
    # half, within a factor of 100 of each other in the second.
    rng = np.random.default_rng(11)
    exponents = rng.uniform(-150, 150, (20000, 2))
    exponents[10000:] = rng.uniform(-149, 149, (10000, 1)) + rng.uniform(-1, 1, (10000, 2))
    g = np.sign(rng.normal(size=(20000, 2))) * 10.0 ** exponents
    g[:100, 0] = 0.0
    g[100:200, 1] = 0.0
    g[200:300] = [1e-150, 1e150]
    norm = _gradient_norm(g)
    gx, gy = g[:, 0], g[:, 1]
    assert norm.tobytes() == np.sqrt(gx * gx + gy * gy).tobytes()
    ulps = np.abs(norm.view(np.int64) - np.hypot(gx, gy).view(np.int64))
    assert ulps.max() <= 2


def test_boundary_edges():
    m = build_uniform_mesh(6)
    n = m.side_nodes
    assert len(m.boundary_edges) == 4 * (n - 1)
    for side in cdii.SIDES:
        s = m.nodes_on_side(side)
        assert np.array_equal(m.boundary_edges[m.edges_on_side(side)],
                              np.column_stack([s[:-1], s[1:]]))
    # each boundary edge has length h and belongs to exactly one triangle
    tri_edge_sets = [
        {frozenset((t[0], t[1])), frozenset((t[1], t[2])), frozenset((t[0], t[2]))}
        for t in m.triangles
    ]
    for p, q in m.boundary_edges:
        assert abs(np.linalg.norm(m.nodes[p] - m.nodes[q]) - m.h) < 1e-14
        owners = sum(frozenset((p, q)) in s for s in tri_edge_sets)
        assert owners == 1


def test_arrays_immutable():
    m = build_uniform_mesh(3)
    with pytest.raises(ValueError):
        m.nodes[0, 0] = 2.0
    with pytest.raises(ValueError):
        m.triangles[0, 0] = 5


def test_locate_full_bottom():
    m = build_uniform_mesh(4)
    setup = locate_electrodes(m, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))],
                              [0.1, 0.1])
    assert len(setup.electrodes[0].edge_ids) == 3
    assert np.array_equal(m.nodes[setup.electrodes[0].nodes()][[0, -1], 0], [0.0, 1.0])


def test_locate_two_full_sides():
    m = build_uniform_mesh(10)
    setup = locate_electrodes(m, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))],
                              [8.3e-3, 8.3e-3])
    assert setup.count == 2
    for e, y in zip(setup.electrodes, (0.0, 1.0)):
        assert np.array_equal(m.nodes[e.nodes()][[0, -1]], [[0.0, y], [1.0, y]])
    assert np.allclose(setup.impedances, 8.3e-3)


def test_locate_partial_spans():
    m = build_uniform_mesh(5)  # h = 0.25
    setup = locate_electrodes(m, [("left", (0.25, 0.75)), ("right", (0.0, 0.5))],
                              [1.0, 2.0])
    assert len(setup.electrodes[0].edge_ids) == 2
    assert np.array_equal(m.nodes[setup.electrodes[0].nodes()][[0, -1], 1], [0.25, 0.75])
    assert len(setup.electrodes[1].edge_ids) == 2


def test_locate_rejects_overlap():
    m = build_uniform_mesh(5)
    with pytest.raises(ValueError, match="shares"):
        locate_electrodes(m, [("bottom", (0.0, 0.5)), ("bottom", (0.25, 1.0))],
                          [1.0, 1.0])


def test_locate_rejects_misaligned():
    m = build_uniform_mesh(4)
    with pytest.raises(ValueError, match="align"):
        locate_electrodes(m, [("bottom", (0.0, 0.5)), ("top", (0.0, 1.0))],
                          [1.0, 1.0])


def test_locate_accepts_endpoints_within_align_tol():
    # 1e-10 off a node is within ALIGN_TOL (1e-9); the edges come from the
    # node's index, so the electrode is the exact full side.
    m = build_uniform_mesh(12)
    setup = locate_electrodes(m, [("bottom", (1e-10, 1.0 - 1e-10)), ("top", (0.0, 1.0))],
                              [1.0, 1.0])
    assert np.array_equal(setup.electrodes[0].edge_ids, m.edges_on_side("bottom"))


def test_grid_index_matches_nodes_within_align_tol():
    m = build_uniform_mesh(12)  # h = 1/11
    coords = [0.0, -1e-10, 3 / 11 + 1e-10, 1.0 + 1e-10, 3 / 11 + 2e-9, 0.5,
              -1 / 11, 2.0, 1e308, np.inf, np.nan]
    assert _grid_index(m, coords).tolist() == [0, 0, 3, 11] + [-1] * 7


def test_locate_rejects_bad_impedance():
    m = build_uniform_mesh(4)
    with pytest.raises(ValueError, match="impedance"):
        locate_electrodes(m, [("bottom", (0.0, 1.0)), ("top", (0.0, 1.0))],
                          [1.0, 0.0])


def test_locate_rejects_empty_span():
    m = build_uniform_mesh(4)
    with pytest.raises(ValueError):
        locate_electrodes(m, [("bottom", (0.5, 0.5)), ("top", (0.0, 1.0))],
                          [1.0, 1.0])


def test_nodes_on_side_order():
    m = build_uniform_mesh(3)
    assert np.array_equal(m.nodes_on_side("bottom"), [0, 1, 2])
    assert np.array_equal(m.nodes_on_side("right"), [2, 5, 8])
    assert np.array_equal(m.nodes_on_side("top"), [6, 7, 8])
    assert np.array_equal(m.nodes_on_side("left"), [0, 3, 6])
