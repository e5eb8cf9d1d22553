import dataclasses

import numpy as np
import pytest

from dynbc import (
    build_disk_mesh,
    build_eta,
    build_interval_mesh,
    build_rect_mesh,
    validate_mesh,
)
from dynbc.mesh import _max_cell_diameter, _orient_ccw


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
    m = build_interval_mesh(0, 1, 2)
    eta = build_eta(m)
    assert eta.values[1] == pytest.approx(0.25)
    i_right = np.where(m.bulk_nodes[m.boundary_nodes, 0] == 1.0)[0][0]
    assert eta.boundary_normal_derivative[i_right] == pytest.approx(-1.0)


def test_eta_disk_closed_form():
    m = build_disk_mesh(1, 2, 8)
    eta = build_eta(m)
    assert eta.values[0] == pytest.approx(1.0)
    np.testing.assert_allclose(eta.boundary_normal_derivative, -2.0, rtol=1e-12)


def test_eta_rect_corner_and_center():
    m = build_rect_mesh(1, 1, 2, 2)
    eta = build_eta(m)
    corners = m.corner_boundary_indices
    assert corners.size == 4
    np.testing.assert_allclose(
        eta.boundary_normal_derivative[corners], 0.0, atol=1e-14
    )
    center = np.where(
        (m.bulk_nodes[:, 0] == 0.5) & (m.bulk_nodes[:, 1] == 0.5)
    )[0][0]
    np.testing.assert_allclose(eta.gradient[center], 0.0, atol=1e-14)
    assert eta.sup_norm == pytest.approx(1.0)


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
    # interval and disk: the single interior critical point is the center node
    m = build_interval_mesh(0, 1, 8)
    eta = build_eta(m)
    gn = np.linalg.norm(eta.gradient, axis=1)
    assert np.sum(gn == 0) == 1

    md = build_disk_mesh(1, 3, 12)
    etad = build_eta(md)
    gnd = np.linalg.norm(etad.gradient, axis=1)
    assert np.sum(gnd == 0) == 1 and gnd[0] == 0


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
        "bulk_cells": _orient_ccw(nodes, cells),
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


def test_eta_laplacian_matches_second_differences():
    # eta is quadratic in each coordinate, so centered second differences
    # of its nodal values are exact up to roundoff
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

    np.testing.assert_array_equal(build_eta(build_disk_mesh(1.5, 3, 12)).laplacian, -4.0)
