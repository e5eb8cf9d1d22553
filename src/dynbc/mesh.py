"""Computational domains with boundary structure.

Builds 1D intervals and 2D rectangles/disks as conforming simplicial meshes
that carry explicit boundary data: boundary node indices, boundary edges with
arclength, and outward unit normals.  Also constructs the auxiliary field
``eta`` used by the Carleman weights: eta > 0 inside the domain, eta = 0 on
the boundary, with strictly negative outward normal derivative away from
rectangle corners.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BulkSurfaceMesh",
    "EtaField",
    "build_interval_mesh",
    "build_rect_mesh",
    "build_disk_mesh",
    "build_eta",
    "mesh_to_json",
    "validate_mesh",
]


@dataclass(frozen=True)
class BulkSurfaceMesh:
    """Simplicial bulk mesh plus its boundary complex.

    Attributes
    ----------
    dim : 1 or 2.
    bulk_nodes : (n_nodes, dim) coordinates.
    bulk_cells : (n_cells, dim + 1) node indices, positively oriented in 2D.
    boundary_nodes : (n_boundary,) indices into ``bulk_nodes``.
    boundary_edges : (n_edges, 2) indices into ``bulk_nodes``; empty in 1D.
    outward_normals : (n_boundary, dim) unit outward normals at boundary nodes.
    h : max cell diameter.
    kind : construction tag ("interval" | "rect" | "disk"), used for the
        closed-form eta field.
    extents : geometry parameters of the constructor (kept for eta).
    corner_boundary_indices : positions within ``boundary_nodes`` where the
        boundary is not smooth (rectangle corners); empty otherwise.
    """

    dim: int
    bulk_nodes: np.ndarray
    bulk_cells: np.ndarray
    boundary_nodes: np.ndarray
    boundary_edges: np.ndarray
    outward_normals: np.ndarray
    h: float
    kind: str
    extents: dict = field(default_factory=dict)
    corner_boundary_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )

    @property
    def n_nodes(self) -> int:
        return self.bulk_nodes.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_nodes.shape[0]


@dataclass(frozen=True)
class EtaField:
    """Carleman auxiliary field on a mesh.

    Positive at interior nodes, zero at boundary nodes, with analytic
    gradient and Laplacian.  ``sup_norm`` is the max of the nodal values and
    is the value used inside the weight formulas.
    """

    values: np.ndarray
    gradient: np.ndarray
    laplacian: np.ndarray
    sup_norm: float
    boundary_normal_derivative: np.ndarray
    corner_boundary_indices: np.ndarray


def build_interval_mesh(a: float, b: float, n: int) -> BulkSurfaceMesh:
    """Equispaced mesh of [a, b] with n cells.

    The boundary is the two endpoints; the surface measure there is the
    counting measure (each endpoint carries mass 1).  Normals are -1 at a
    and +1 at b.
    """
    if n < 2:
        raise ValueError(f"need at least 2 cells, got n={n}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    nodes = np.linspace(a, b, n + 1).reshape(-1, 1)
    cells = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    boundary = np.array([0, n], dtype=int)
    normals = np.array([[-1.0], [1.0]])
    return BulkSurfaceMesh(
        dim=1,
        bulk_nodes=nodes,
        bulk_cells=cells,
        boundary_nodes=boundary,
        boundary_edges=np.empty((0, 2), dtype=int),
        outward_normals=normals,
        h=(b - a) / n,
        kind="interval",
        extents={"a": float(a), "b": float(b)},
    )


def build_rect_mesh(lx: float, ly: float, nx: int, ny: int) -> BulkSurfaceMesh:
    """Structured triangulation of [0, lx] x [0, ly]; squares split along one diagonal.

    Boundary nodes are ordered counterclockwise starting at the origin;
    corner normals are the normalized sum of the two adjacent side normals
    and the four corner positions are reported in
    ``corner_boundary_indices``.
    """
    if lx <= 0 or ly <= 0:
        raise ValueError(f"side lengths must be positive, got lx={lx}, ly={ly}")
    if nx < 2 or ny < 2:
        raise ValueError(f"cell counts must be >= 2, got nx={nx}, ny={ny}")
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    nid = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # nid[j, i]

    # Two triangles per square, squares row by row.
    p00, p10 = nid[:-1, :-1].ravel(), nid[:-1, 1:].ravel()
    p01, p11 = nid[1:, :-1].ravel(), nid[1:, 1:].ravel()
    cells = np.stack([p00, p10, p11, p00, p11, p01], axis=1).reshape(-1, 3)

    # Perimeter walk, counterclockwise from (0, 0): bottom, right, top, left.
    boundary = np.concatenate(
        [nid[0, :], nid[1:, nx], nid[ny, nx - 1 :: -1], nid[ny - 1 : 0 : -1, 0]]
    )
    edges = np.column_stack([boundary, np.roll(boundary, -1)])

    # Sum of the normals of the sides a node lies on; corners lie on two.
    i, j = boundary % (nx + 1), boundary // (nx + 1)
    side_sum = np.column_stack(
        [(i == nx).astype(float) - (i == 0), (j == ny).astype(float) - (j == 0)]
    )
    normals = side_sum / np.linalg.norm(side_sum, axis=1, keepdims=True)
    corners = np.flatnonzero(np.all(side_sum != 0.0, axis=1))

    h = _max_cell_diameter(nodes, cells)
    return BulkSurfaceMesh(
        dim=2,
        bulk_nodes=nodes,
        bulk_cells=_orient_ccw(nodes, cells),
        boundary_nodes=boundary,
        boundary_edges=edges,
        outward_normals=normals,
        h=h,
        kind="rect",
        extents={"lx": float(lx), "ly": float(ly)},
        corner_boundary_indices=corners,
    )


def build_disk_mesh(rho: float, nr: int, ntheta: int) -> BulkSurfaceMesh:
    """Disk of radius rho meshed by nr concentric rings of ntheta nodes plus a center node.

    The boundary is the outer ring; chords have equal length
    2 rho sin(pi / ntheta) and normals are radial.
    """
    if rho <= 0:
        raise ValueError(f"radius must be positive, got rho={rho}")
    if nr < 2:
        raise ValueError(f"need nr >= 2 rings, got nr={nr}")
    if ntheta < 8:
        raise ValueError(f"need ntheta >= 8, got ntheta={ntheta}")
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

    h = _max_cell_diameter(nodes, cells)
    return BulkSurfaceMesh(
        dim=2,
        bulk_nodes=nodes,
        bulk_cells=_orient_ccw(nodes, cells),
        boundary_nodes=boundary,
        boundary_edges=edges,
        outward_normals=normals,
        h=h,
        kind="disk",
        extents={"rho": float(rho)},
    )


def build_eta(mesh: BulkSurfaceMesh) -> EtaField:
    """Closed-form auxiliary field for the supported geometries.

    interval [a, b]:  eta(x) = (x - a)(b - x)
    disk of radius rho:  eta(x) = rho^2 - |x|^2
    rectangle [0,lx] x [0,ly]:  eta = x(lx - x) y(ly - y), scaled so the
        analytic max (at the center) is 1.

    Gradients and Laplacians are evaluated analytically at the nodes and
    the boundary normal derivative is grad(eta) . normal.  ``sup_norm`` is the discrete
    max of the nodal values.
    """
    x = mesh.bulk_nodes
    if mesh.kind == "interval":
        a, b = mesh.extents["a"], mesh.extents["b"]
        xv = x[:, 0]
        values = (xv - a) * (b - xv)
        grad = (a + b - 2.0 * xv).reshape(-1, 1)
        lap = np.full(mesh.n_nodes, -2.0)
    elif mesh.kind == "disk":
        rho = mesh.extents["rho"]
        r2 = np.sum(x**2, axis=1)
        values = rho**2 - r2
        grad = -2.0 * x
        lap = np.full(mesh.n_nodes, -4.0)
    elif mesh.kind == "rect":
        lx, ly = mesh.extents["lx"], mesh.extents["ly"]
        scale = (lx / 2.0) ** 2 * (ly / 2.0) ** 2
        xv, yv = x[:, 0], x[:, 1]
        values = xv * (lx - xv) * yv * (ly - yv) / scale
        gx = (lx - 2.0 * xv) * yv * (ly - yv) / scale
        gy = xv * (lx - xv) * (ly - 2.0 * yv) / scale
        grad = np.column_stack([gx, gy])
        lap = -2.0 * (yv * (ly - yv) + xv * (lx - xv)) / scale
    else:
        raise ValueError(f"unsupported mesh kind {mesh.kind!r}")

    # Boundary values are exact zeros of the closed forms; clip roundoff.
    values = values.copy()
    values[mesh.boundary_nodes] = 0.0
    normal_der = np.einsum(
        "ij,ij->i", grad[mesh.boundary_nodes], mesh.outward_normals
    )
    return EtaField(
        values=values,
        gradient=grad,
        laplacian=lap,
        sup_norm=float(values.max()),
        boundary_normal_derivative=normal_der,
        corner_boundary_indices=mesh.corner_boundary_indices.copy(),
    )


def validate_mesh(mesh: BulkSurfaceMesh) -> None:
    """Check structural invariants; raises AssertionError on violation.

    - boundary node indices are valid bulk indices,
    - the boundary of the cell complex equals the stored boundary set,
    - 1D meshes have exactly two boundary nodes and no edges,
    - normals have unit length within 1e-12.
    """
    nb = mesh.boundary_nodes
    assert nb.min() >= 0 and nb.max() < mesh.n_nodes
    lengths = np.linalg.norm(mesh.outward_normals, axis=1)
    assert np.all(np.abs(lengths - 1.0) <= 1e-12)
    if mesh.dim == 1:
        assert nb.size == 2 and mesh.boundary_edges.size == 0
        counts = np.bincount(mesh.bulk_cells.ravel(), minlength=mesh.n_nodes)
        assert set(np.flatnonzero(counts == 1)) == set(nb.tolist())
    else:
        cells = mesh.bulk_cells
        facets = np.sort(
            np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]),
            axis=1,
        )
        unique_facets, counts = np.unique(facets, axis=0, return_counts=True)
        complex_boundary = unique_facets[counts == 1]
        stored = np.unique(np.sort(mesh.boundary_edges, axis=1), axis=0)
        assert np.array_equal(complex_boundary, stored)
        assert set(np.unique(mesh.boundary_edges).tolist()) == set(nb.tolist())


def mesh_to_json(mesh: BulkSurfaceMesh) -> str:
    """Serialize the geometric content as JSON."""
    payload = {
        "dim": mesh.dim,
        "nodes": mesh.bulk_nodes.tolist(),
        "cells": mesh.bulk_cells.tolist(),
        "boundary_nodes": mesh.boundary_nodes.tolist(),
        "boundary_edges": mesh.boundary_edges.tolist(),
        "normals": mesh.outward_normals.tolist(),
    }
    return json.dumps(payload, sort_keys=True)


def _orient_ccw(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Flip triangles with negative signed area."""
    a = nodes[cells[:, 0]]
    b = nodes[cells[:, 1]]
    c = nodes[cells[:, 2]]
    area2 = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    out = cells.copy()
    flip = area2 < 0
    out[flip, 1], out[flip, 2] = cells[flip, 2], cells[flip, 1]
    return out


def _max_cell_diameter(nodes: np.ndarray, cells: np.ndarray) -> float:
    hmax = 0.0
    for i in range(cells.shape[1]):
        for j in range(i + 1, cells.shape[1]):
            d = np.linalg.norm(nodes[cells[:, i]] - nodes[cells[:, j]], axis=1)
            hmax = max(hmax, float(d.max()))
    return hmax
