"""Computational domains with boundary structure.

Builds 1D intervals and 2D rectangles/disks as conforming simplicial meshes
that carry explicit boundary data: boundary node indices, boundary edges with
arclength, and outward unit normals.  A mesh holds geometry only; every field
on it, the Carleman auxiliary field ``eta`` included (``carleman.build_eta``),
is computed from the mesh alone, so a new geometry needs only a builder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BulkSurfaceMesh",
    "build_interval_mesh",
    "build_rect_mesh",
    "build_disk_mesh",
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
    corner_boundary_indices: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=int)
    )

    @property
    def n_nodes(self) -> int:
        return self.bulk_nodes.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.boundary_nodes.shape[0]


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
    )


def build_rect_mesh(lx: float, ly: float, nx: int, ny: int) -> BulkSurfaceMesh:
    """Structured triangulation of [0, lx] x [0, ly]; squares split along one diagonal.

    Nodes are numbered along the shorter side fastest: x fastest when
    nx <= ny, y fastest when nx > ny.  The stiffness then couples a node
    only to nodes at most min(nx, ny) + 1 numbers away (across each
    square's diagonal it is exactly zero): the band factor's half-bandwidth.
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
    # Grid indices (i, j) of each node, in node order.
    J, I = np.indices((ny + 1, nx + 1))
    if nx > ny:
        J, I = J.T, I.T
    I, J = I.ravel(), J.ravel()
    nodes = np.column_stack([xs[I], ys[J]])
    nid = np.empty((ny + 1, nx + 1), dtype=int)  # nid[j, i]
    nid[J, I] = np.arange(I.size)

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
    i, j = I[boundary], J[boundary]
    side_sum = np.column_stack(
        [(i == nx).astype(float) - (i == 0), (j == ny).astype(float) - (j == 0)]
    )
    normals = side_sum / np.linalg.norm(side_sum, axis=1, keepdims=True)
    corners = np.flatnonzero(np.all(side_sum != 0.0, axis=1))

    h = _max_cell_diameter(nodes, cells)
    return BulkSurfaceMesh(
        dim=2,
        bulk_nodes=nodes,
        bulk_cells=cells,
        boundary_nodes=boundary,
        boundary_edges=edges,
        outward_normals=normals,
        h=h,
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
    r = rho * np.arange(1, nr + 1) / nr
    X, Y = np.outer(r, np.cos(angles)), np.outer(r, np.sin(angles))
    nodes = np.vstack([np.zeros((1, 2)), np.column_stack([X.ravel(), Y.ravel()])])

    # rid[ring - 1, j] is node j of ring `ring`; nxt is the next node on its ring.
    rid = 1 + np.arange(nr * ntheta).reshape(nr, ntheta)
    nxt = np.roll(rid, -1, axis=1)
    fan = np.column_stack([np.zeros(ntheta, dtype=int), rid[0], nxt[0]])
    # Two triangles per annular cell, rings outward, cells by angle.
    a0, a1, b0, b1 = rid[:-1], nxt[:-1], rid[1:], nxt[1:]
    quads = np.stack([a0, b0, b1, a0, b1, a1], axis=2).reshape(-1, 3)
    cells = np.vstack([fan, quads])

    boundary = rid[-1]
    edges = np.column_stack([boundary, np.roll(boundary, -1)])
    coords = nodes[boundary]
    normals = coords / np.linalg.norm(coords, axis=1, keepdims=True)

    h = _max_cell_diameter(nodes, cells)
    return BulkSurfaceMesh(
        dim=2,
        bulk_nodes=nodes,
        bulk_cells=cells,
        boundary_nodes=boundary,
        boundary_edges=edges,
        outward_normals=normals,
        h=h,
    )


def validate_mesh(mesh: BulkSurfaceMesh) -> None:
    """Check structural invariants; raises AssertionError on violation.

    - boundary node indices are valid bulk indices,
    - the boundary of the cell complex equals the stored boundary set,
    - 1D meshes have exactly two boundary nodes and no edges,
    - 2D cells are counterclockwise (positive signed area),
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
        a, b, c = (mesh.bulk_nodes[cells[:, k]] for k in range(3))
        ab, ac = b - a, c - a
        assert np.all(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0] > 0.0)
        facets = np.sort(
            np.concatenate([cells[:, [0, 1]], cells[:, [1, 2]], cells[:, [2, 0]]]),
            axis=1,
        )
        unique_facets, counts = np.unique(facets, axis=0, return_counts=True)
        complex_boundary = unique_facets[counts == 1]
        stored = np.unique(np.sort(mesh.boundary_edges, axis=1), axis=0)
        assert np.array_equal(complex_boundary, stored)
        assert set(np.unique(mesh.boundary_edges).tolist()) == set(nb.tolist())


def _max_cell_diameter(nodes: np.ndarray, cells: np.ndarray) -> float:
    """Longest cell edge: the sqrt of the largest squared length dx*dx + dy*dy.

    One flat pass per node pair over 1-D coordinate gathers.  The squares add
    in coordinate order, as ``np.linalg.norm(axis=1)`` adds them (the 0 that
    ``sum`` starts from changes no bit), and sqrt is monotone and correctly
    rounded, so this is the max of the row norms bit for bit.
    """
    coords = [np.ascontiguousarray(nodes[:, d]) for d in range(nodes.shape[1])]
    sq_max = max(
        float(sum((x[cells[:, i]] - x[cells[:, j]]) ** 2 for x in coords).max())
        for i, j in itertools.combinations(range(cells.shape[1]), 2)
    )
    return float(np.sqrt(sq_max))
