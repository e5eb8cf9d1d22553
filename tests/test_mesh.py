import dataclasses

import numpy as np
import pytest

from dynbc import (
    assemble,
    build_disk_mesh,
    build_eta,
    build_interval_mesh,
    build_rect_mesh,
    validate_mesh,
)
from dynbc.assembly import _p1_cell_gradients
from dynbc.mesh import _max_cell_diameter


def test_interval_basic():
    m = build_interval_mesh(0, 1, 2)
    np.testing.assert_allclose(m.bulk_nodes.ravel(), [0.0, 0.5, 1.0])
    assert m.h == 0.5
    assert m.boundary_nodes.tolist() == [0, 2]
    assert m.boundary_edges.size == 0
    validate_mesh(m)


def test_interval_h():
    assert build_interval_mesh(0, 1, 4).h == 0.25


def test_interval_normal_orientation():
    m = build_interval_mesh(-1, 1, 2)
    left = np.where(m.bulk_nodes[m.boundary_nodes, 0] == -1.0)[0][0]
    right = np.where(m.bulk_nodes[m.boundary_nodes, 0] == 1.0)[0][0]
    assert m.outward_normals[left, 0] == -1.0
    assert m.outward_normals[right, 0] == 1.0


@pytest.mark.parametrize(
    "args", [(0, 1, 1), (0, 1, 0), (1, 0, 4), (1, 1, 4)]
)
def test_interval_rejects_bad_input(args):
    with pytest.raises(ValueError):
        build_interval_mesh(*args)


def test_rect_counts():
    m = build_rect_mesh(1, 1, 2, 2)
    assert m.n_nodes == 9
    assert m.n_boundary == 8
    assert m.boundary_edges.shape[0] == 8
    validate_mesh(m)


def test_rect_perimeter():
    m = build_rect_mesh(2, 1, 4, 2)
    pts = m.bulk_nodes
    total = sum(
        np.linalg.norm(pts[j] - pts[i]) for i, j in m.boundary_edges
    )
    assert total == pytest.approx(6.0, abs=1e-14)


def test_rect_rejects_degenerate():
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1, 2, 2)
    with pytest.raises(ValueError):
        build_rect_mesh(1, 1, 1, 2)


def test_disk_chord_lengths():
    m = build_disk_mesh(1, 2, 8)
    pts = m.bulk_nodes
    chords = [np.linalg.norm(pts[j] - pts[i]) for i, j in m.boundary_edges]
    np.testing.assert_allclose(chords, 2 * np.sin(np.pi / 8), rtol=1e-12)
    validate_mesh(m)


def test_disk_rejects_degenerate():
    with pytest.raises(ValueError):
        build_disk_mesh(-1, 2, 8)
    with pytest.raises(ValueError):
        build_disk_mesh(1, 1, 8)
    with pytest.raises(ValueError):
        build_disk_mesh(1, 2, 7)


def test_normals_unit_everywhere():
    for m in (
        build_interval_mesh(0, 2, 5),
        build_rect_mesh(2, 1, 4, 3),
        build_disk_mesh(1.5, 3, 12),
    ):
        lengths = np.linalg.norm(m.outward_normals, axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-12)


def test_eta_interval_closed_form():
    # the lumped P1 torsion function is nodally exact in 1D: x(1 - x)/2
    m = build_interval_mesh(0, 1, 16)
    eta = build_eta(m)
    x = m.bulk_nodes[:, 0]
    np.testing.assert_allclose(eta.values, x * (1 - x) / 2, rtol=0, atol=1e-14)
    assert eta.sup_norm == pytest.approx(0.125, abs=1e-14)
    i_right = np.where(m.bulk_nodes[m.boundary_nodes, 0] == 1.0)[0][0]
    # one-sided difference of x(1 - x)/2 at x = 1 over the last cell
    assert eta.boundary_normal_derivative[i_right] == pytest.approx(-(1 - 1 / 16) / 2)


def test_eta_disk_closed_form():
    # the torsion function of the unit disk is (1 - |x|^2)/4
    m = build_disk_mesh(1, 8, 32)
    eta = build_eta(m)
    exact = (1 - np.sum(m.bulk_nodes**2, axis=1)) / 4
    assert np.abs(eta.values - exact).max() <= 1.5e-3
    np.testing.assert_allclose(eta.boundary_normal_derivative, -0.5, rtol=0.1)


def test_eta_rect_corner_and_center():
    # the split squares are symmetric about the center, so eta is too: the
    # center node is the max and its recovered gradient is roundoff
    m = build_rect_mesh(1, 1, 8, 8)
    eta = build_eta(m)
    corners = m.corner_boundary_indices
    assert corners.size == 4
    assert np.all(eta.boundary_normal_derivative[corners] <= 0.0)
    center = np.where(
        (m.bulk_nodes[:, 0] == 0.5) & (m.bulk_nodes[:, 1] == 0.5)
    )[0][0]
    assert eta.values[center] == eta.sup_norm
    gmax = np.linalg.norm(eta.gradient, axis=1).max()
    assert np.linalg.norm(eta.gradient[center]) <= 1e-12 * gmax


@pytest.mark.parametrize(
    "mesh",
    [
        build_interval_mesh(0, 1, 8),
        build_rect_mesh(1.5, 1, 4, 4),
        build_disk_mesh(1, 3, 12),
    ],
)
def test_eta_invariants(mesh):
    eta = build_eta(mesh)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    assert eta.values[interior].min() > 0
    assert np.abs(eta.values[mesh.boundary_nodes]).max() <= 1e-14
    assert eta.sup_norm == eta.values.max()
    smooth = np.setdiff1d(
        np.arange(mesh.n_boundary), mesh.corner_boundary_indices
    )
    assert np.all(eta.boundary_normal_derivative[smooth] < 0)


def test_eta_gradient_vanishes_only_at_center():
    # interval and disk: the single interior critical point is the center
    # node, where the recovered gradient is roundoff (at most 1e-12 of its max)
    for m in (build_interval_mesh(0, 1, 8), build_disk_mesh(1, 3, 12)):
        eta = build_eta(m)
        gn = np.linalg.norm(eta.gradient, axis=1)
        small = np.flatnonzero(gn <= 1e-12 * gn.max())
        center = np.argmin(np.linalg.norm(m.bulk_nodes - m.bulk_nodes.mean(axis=0), axis=1))
        assert small.tolist() == [center]


def _loop_rect_arrays(lx, ly, nx, ny):
    """Per-node loop construction of the rectangle: the reference for the array code."""

    def nid(i, j):
        # the shorter side is numbered fastest
        return j * (nx + 1) + i if nx <= ny else i * (ny + 1) + j

    xs, ys = np.linspace(0.0, lx, nx + 1), np.linspace(0.0, ly, ny + 1)
    nodes = np.zeros(((nx + 1) * (ny + 1), 2))
    for j in range(ny + 1):
        for i in range(nx + 1):
            nodes[nid(i, j)] = (xs[i], ys[j])
    cells = []
    for j in range(ny):
        for i in range(nx):
            p00, p10 = nid(i, j), nid(i + 1, j)
            p01, p11 = nid(i, j + 1), nid(i + 1, j + 1)
            cells.append((p00, p10, p11))
            cells.append((p00, p11, p01))
    bottom = [nid(i, 0) for i in range(nx + 1)]
    right = [nid(nx, j) for j in range(1, ny + 1)]
    top = [nid(i, ny) for i in range(nx - 1, -1, -1)]
    left = [nid(0, j) for j in range(ny - 1, 0, -1)]
    boundary = np.array(bottom + right + top + left, dtype=int)
    side_normal = {}
    for i in range(nx + 1):
        side_normal.setdefault(nid(i, 0), []).append((0.0, -1.0))
        side_normal.setdefault(nid(i, ny), []).append((0.0, 1.0))
    for j in range(ny + 1):
        side_normal.setdefault(nid(0, j), []).append((-1.0, 0.0))
        side_normal.setdefault(nid(nx, j), []).append((1.0, 0.0))
    normals = np.zeros((boundary.size, 2))
    corners = []
    for k, node in enumerate(boundary):
        contribs = np.array(side_normal[node])
        if contribs.shape[0] > 1:
            corners.append(k)
        v = contribs.sum(axis=0)
        normals[k] = v / np.linalg.norm(v)
    return {
        "bulk_nodes": nodes,
        "bulk_cells": np.array(cells, dtype=int),
        "boundary_nodes": boundary,
        "boundary_edges": np.column_stack([boundary, np.roll(boundary, -1)]),
        "outward_normals": normals,
        "corner_boundary_indices": np.array(corners, dtype=int),
    }


@pytest.mark.parametrize("args", [(1, 1, 2, 2), (1.3, 0.7, 7, 5), (2, 1, 3, 9)])
def test_rect_arrays_equal_loop_oracle(args):
    m = build_rect_mesh(*args)
    for name, want in _loop_rect_arrays(*args).items():
        got = getattr(m, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def _loop_disk_arrays(rho, nr, ntheta):
    """Per-ring loop construction of the disk: the reference for the array code."""
    angles = 2.0 * np.pi * np.arange(ntheta) / ntheta
    nodes = [np.zeros((1, 2))]
    for i in range(1, nr + 1):
        r = rho * i / nr
        nodes.append(np.column_stack([r * np.cos(angles), r * np.sin(angles)]))
    nodes = np.vstack(nodes)

    def rid(ring: int, j: int) -> int:
        # ring >= 1
        return 1 + (ring - 1) * ntheta + j % ntheta

    cells = []
    for j in range(ntheta):
        cells.append((0, rid(1, j), rid(1, j + 1)))
    for ring in range(1, nr):
        for j in range(ntheta):
            a0, a1 = rid(ring, j), rid(ring, j + 1)
            b0, b1 = rid(ring + 1, j), rid(ring + 1, j + 1)
            cells.append((a0, b0, b1))
            cells.append((a0, b1, a1))
    cells = np.array(cells, dtype=int)

    boundary = np.array([rid(nr, j) for j in range(ntheta)], dtype=int)
    edges = np.column_stack([boundary, np.roll(boundary, -1)])
    coords = nodes[boundary]
    normals = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    return {
        "bulk_nodes": nodes,
        "bulk_cells": cells,
        "boundary_nodes": boundary,
        "boundary_edges": edges,
        "outward_normals": normals,
        "h": np.float64(_max_cell_diameter(nodes, cells)),
    }


@pytest.mark.parametrize(
    "args", [(1, 2, 8), (1.0, 16, 64), (1.5, 3, 12), (0.7, 7, 17), (2, 8, 32)]
)
def test_disk_arrays_equal_loop_oracle(args):
    m = build_disk_mesh(*args)
    for name, want in _loop_disk_arrays(*args).items():
        got = np.asarray(getattr(m, name))
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


def test_validate_mesh_rejects_wrong_boundary_edges():
    m = build_rect_mesh(1, 1, 3, 3)
    edges = m.boundary_edges.copy()
    edges[0] = (m.boundary_nodes[0], m.n_nodes // 2)
    with pytest.raises(AssertionError):
        validate_mesh(dataclasses.replace(m, boundary_edges=edges))
    # one clockwise cell, with the cell complex and boundary unchanged
    cells = m.bulk_cells.copy()
    cells[4] = cells[4, [0, 2, 1]]
    with pytest.raises(AssertionError):
        validate_mesh(dataclasses.replace(m, bulk_cells=cells))


def test_eta_laplacian_matches_second_differences():
    # on the structured rectangle the lumped P1 Laplacian is the 5-point
    # stencil, so centered second differences of eta equal its Laplacian, -1
    nx, ny, lx, ly = 8, 6, 1.3, 0.7
    m = build_rect_mesh(lx, ly, nx, ny)
    eta = build_eta(m)
    # nodes on the (ny + 1, nx + 1) grid, whatever order the builder numbers them in
    grid = np.lexsort((m.bulk_nodes[:, 0], m.bulk_nodes[:, 1])).reshape(ny + 1, nx + 1)
    v = eta.values[grid]
    hx, hy = lx / nx, ly / ny
    lap = (v[1:-1, 2:] - 2 * v[1:-1, 1:-1] + v[1:-1, :-2]) / hx**2 + (
        v[2:, 1:-1] - 2 * v[1:-1, 1:-1] + v[:-2, 1:-1]
    ) / hy**2
    got = eta.laplacian[grid][1:-1, 1:-1]
    np.testing.assert_allclose(got, lap, rtol=1e-9)

    m = build_interval_mesh(-0.5, 1.5, 10)
    eta = build_eta(m)
    h = 2.0 / 10
    lap = (eta.values[2:] - 2 * eta.values[1:-1] + eta.values[:-2]) / h**2
    np.testing.assert_allclose(eta.laplacian[1:-1], lap, rtol=1e-9)

    np.testing.assert_array_equal(build_eta(build_disk_mesh(1.5, 3, 12)).laplacian, -1.0)


def _jittered_rect_mesh():
    """A rect mesh with its interior nodes moved by a seeded jitter: no builder makes it."""
    m = build_rect_mesh(1.2, 1.0, 9, 7)
    interior = np.setdiff1d(np.arange(m.n_nodes), m.boundary_nodes)
    nodes = m.bulk_nodes.copy()
    jitter = np.random.default_rng(11).uniform(-1.0, 1.0, (interior.size, 2))
    nodes[interior] += 0.25 * min(1.2 / 9, 1.0 / 7) * jitter
    jittered = dataclasses.replace(
        m, bulk_nodes=nodes, h=_max_cell_diameter(nodes, m.bulk_cells)
    )
    validate_mesh(jittered)
    return jittered


@pytest.mark.parametrize(
    "mesh",
    [
        build_interval_mesh(0, 1, 12),
        build_rect_mesh(1, 2, 5, 9),
        build_rect_mesh(2, 1, 9, 5),
        build_disk_mesh(1, 6, 24),
        _jittered_rect_mesh(),
    ],
    ids=["interval12", "rect5x9", "rect9x5", "disk6x24", "jittered-rect9x7"],
)
def test_eta_is_the_discrete_torsion_function(mesh):
    """On any mesh: eta > 0 inside, eta = 0 on Gamma, the interior discrete
    Laplacian -K eta / m is -1, and d_nu eta < 0 off the corners."""
    eta = build_eta(mesh)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    assert eta.values[interior].min() > 0
    assert np.all(eta.values[mesh.boundary_nodes] == 0.0)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    lap = -(s.K_bulk @ eta.values)[interior] / s.m_bulk[interior]
    np.testing.assert_allclose(lap, -1.0, rtol=1e-9)
    np.testing.assert_array_equal(eta.laplacian, -1.0)
    smooth = np.setdiff1d(np.arange(mesh.n_boundary), mesh.corner_boundary_indices)
    assert np.all(eta.boundary_normal_derivative[smooth] < 0)


def _norm_max_cell_diameter(nodes, cells):
    """Longest cell edge as the max of the row norms of each node pair's differences."""
    hmax = 0.0
    for i in range(cells.shape[1]):
        for j in range(i + 1, cells.shape[1]):
            d = np.linalg.norm(nodes[cells[:, i]] - nodes[cells[:, j]], axis=1)
            hmax = max(hmax, float(d.max()))
    return hmax


def _stacked_p1_cell_gradients(mesh):
    """Cell volumes and P1 gradients from column_stack'ed rows of node coordinates."""
    cells = mesh.bulk_cells
    if mesh.dim == 1:
        x = mesh.bulk_nodes[:, 0]
        hc = x[cells[:, 1]] - x[cells[:, 0]]
        return hc, np.column_stack([-1.0 / hc, 1.0 / hc])[:, :, None]
    pts = mesh.bulk_nodes
    a, b, c = pts[cells[:, 0]], pts[cells[:, 1]], pts[cells[:, 2]]
    area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    G = np.stack(
        [
            np.column_stack([b[:, 1] - c[:, 1], c[:, 0] - b[:, 0]]),
            np.column_stack([c[:, 1] - a[:, 1], a[:, 0] - c[:, 0]]),
            np.column_stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]]),
        ],
        axis=1,
    ) / area2[:, None, None]
    return 0.5 * area2, G


@pytest.mark.parametrize(
    "mesh",
    [
        build_interval_mesh(0, 1, 12),
        build_rect_mesh(1, 2, 9, 13),
        build_rect_mesh(2, 1, 13, 9),
        build_disk_mesh(1, 6, 24),
        _jittered_rect_mesh(),
    ],
    ids=["interval12", "rect9x13", "rect13x9", "disk6x24", "jittered-rect9x7"],
)
def test_cell_geometry_kernels_bitwise_equal_row_oracles(mesh):
    # the flat coordinate passes make the same floating-point operations in
    # the same order as the row-wise forms they replaced, so no bit moves
    want = _norm_max_cell_diameter(mesh.bulk_nodes, mesh.bulk_cells)
    assert _max_cell_diameter(mesh.bulk_nodes, mesh.bulk_cells) == want
    if mesh.dim == 2:
        assert mesh.h == want
    vol, G = _p1_cell_gradients(mesh)
    want_vol, want_G = _stacked_p1_cell_gradients(mesh)
    assert G.shape == want_G.shape and G.flags.c_contiguous
    assert np.array_equal(vol, want_vol)
    assert np.array_equal(G, want_G)
