"""Discrete operators for the bulk-surface heat system.

Assembles, with linear Lagrange elements and lumped (diagonal) mass:

- M: the mass matrix of the product space L2(bulk) x L2(boundary), i.e. the
  bulk lumped mass plus the surface lumped mass added on the trace degrees
  of freedom (one dof per bulk node; boundary dofs carry both measures),
- K: the symmetric form  gamma * (grad u, grad v)_bulk
  + delta * (grad_S u, grad_S v)_boundary + (beta u, v)_boundary,
- B: the boundary injection carrying the surface mass weights, mapping a
  boundary signal to the right-hand side of the surface equation.

In 1D the surface measure is the counting measure (each endpoint has mass 1)
and the surface stiffness is empty; on closed 2D boundary curves the surface
operators are 1D linear elements in arclength on the boundary polygon, with
corner nodes receiving half of each adjacent edge weight.

Every symmetric positive definite system the library solves (the theta-step
matrix M + theta dt K and K itself) is factored once by ``BandCholesky``: a
LAPACK band Cholesky in the node order of the mesh.  The mesh builders own
that order and number nodes so that the half-bandwidth kd is 1 on the
interval, min(nx, ny) + 1 on the rectangle and ntheta + 1 on the disk.  The
band holds 8 (kd + 1) ndof bytes, which grows as ndof^1.5 on 2-D meshes.  No
order does much better on the disk: its centre node touches all ntheta nodes
of the first ring, so kd >= ntheta / 2 in any order: disk nr = 2,
ntheta = 2000 needs a 64 MB band, plus 96 MB of blocks once 32 or more
columns are solved as one block (``BandCholesky``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import as_strided
from scipy.linalg import lapack

from .mesh import BulkSurfaceMesh

__all__ = [
    "BandCholesky",
    "DiscreteSystem",
    "ConvergenceError",
    "assemble",
    "inner_X2",
    "norm_X2",
    "smallest_eigenpair",
]

_EIGEN_TOL = 1e-10
_EIGEN_MAXIT = 10_000
_WIDE = 32  # blocks this wide take the level-3 solve; also its least row block


class ConvergenceError(RuntimeError):
    """An iterative eigenvalue solve failed to reach its tolerance."""


class BandCholesky:
    """Cholesky factor of a sparse symmetric positive definite matrix.

    The upper band of A is stored densely as LAPACK band storage
    ``ab[kd + i - j, j] = A[i, j]`` (i <= j) and factored in place by
    ``dpbtrf`` into A = U^T U.  The band is taken in A's own ordering, so
    kd is the largest |i - j| over the nonzeros of A and the band holds
    8 (kd + 1) n bytes; the mesh builders number nodes to keep kd small.
    Duplicate COO entries are summed first.  Raises
    ``numpy.linalg.LinAlgError`` when A is not square and exactly
    symmetric, or when it is not positive definite.

    ``solve`` has two paths, chosen by the width of the right-hand side.
    A vector or a block of fewer than ``_WIDE`` (32) columns goes to
    ``dpbtrs``, one level-2 band sweep per column.  A wider block is solved
    with level-3 products on row blocks of kb = max(kd, 32) rows (Du Croz,
    Mayes and Radicati, LAPACK Working Note 21).  On them U is block upper
    bidiagonal with diagonal blocks D_p and off-diagonal blocks L_p, and
    U = diag(D_p) V with V unit block bidiagonal, its off-diagonal blocks
    H_p = D_p^{-1} L_p, so A^{-1} = V^{-1} S V^{-T} with
    S_p = D_p^{-1} D_p^{-T}.  The forward sweep is one product per block,
    z_p = b_p - H_{p-1}^T z_{p-1}, and so is the backward sweep,
    x_p = [S_p, -H_p] [z_p; x_{p+1}].  The blocks [S_p, -H_p], at most
    16 kb n bytes (1.1 MB on disk 16x64), are built on the first wide
    solve and live as long as the factor.

    Each path returns the layout it computes in: ``dpbtrs`` a Fortran
    block, the level-3 path a new row-major (C) block, in which every row
    block x_p is one contiguous (kb, k) array that the products read and
    write without a transposing copy.  Either path takes a right-hand side
    in either order and gives the same bits for both.  Both run in
    ``_solve_in_place``, which solves in a right-hand side already in its
    path's layout; ``solve`` first copies b into that layout, and the
    stepping loop (``Propagator._levels``) hands over the right-hand side
    it has just formed.
    """

    def __init__(self, A):
        A = sp.coo_matrix(A, copy=True)
        A.sum_duplicates()
        n = A.shape[0]
        if A.shape != (n, n) or (A != A.T).nnz:
            raise np.linalg.LinAlgError("band Cholesky needs a square symmetric matrix")
        i, j = A.row, A.col
        self.kd = int(np.abs(i - j).max(initial=0))
        upper = i <= j
        i, j = i[upper], j[upper]
        ab = np.zeros((self.kd + 1, n), order="F")
        ab[self.kd + i - j, j] = A.data[upper]
        self.ab, info = lapack.dpbtrf(ab, overwrite_ab=1)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"dpbtrf: matrix not positive definite (info={info})"
            )

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b for an (ndof,) vector or an (ndof, k) block; b is not modified."""
        wide = np.ndim(b) == 2 and np.shape(b)[1] >= _WIDE
        return self._solve_in_place(np.array(b, dtype=float, order="C" if wide else "F"))

    def _solve_in_place(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b, computed in b itself when b is a float array in its path's
        layout (Fortran for ``dpbtrs``, C for the level-3 path), else in a copy."""
        if b.ndim == 2 and b.shape[1] >= _WIDE:
            return self._solve_wide(b)
        x, info = lapack.dpbtrs(self.ab, b, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpbtrs failed (info={info})")
        return x

    def _solve_wide(self, b: np.ndarray) -> np.ndarray:
        """The blocked solve of the class docstring, in b when b is C-ordered."""
        x = np.asarray(b, dtype=float, order="C")
        if x.shape[0] != self.ab.shape[1]:
            raise ValueError(
                f"right-hand side must have {self.ab.shape[1]} rows, got {x.shape}"
            )
        W, kb = self._blocks, max(self.kd, _WIDE)
        for p in range(1, len(W)):
            x[p * kb : (p + 1) * kb] += W[p - 1][:, kb:].T @ x[(p - 1) * kb : p * kb]
        for p in reversed(range(len(W))):
            x[p * kb : (p + 1) * kb] = W[p] @ x[p * kb : (p + 2) * kb]
        return x

    @cached_property
    def _blocks(self) -> list[np.ndarray]:
        """[S_p, -H_p] for each row block p of kb rows ([S_p] for the last)."""
        kd, n = self.ab.shape[0] - 1, self.ab.shape[1]
        kb = max(kd, _WIDE)
        # U[i, j] = ab[kd + i - j, j] is element kd + i + j kd of ab's
        # column-major buffer; entries outside 0 <= j - i <= kd are masked
        flat = self.ab.ravel(order="F")
        step = flat.itemsize

        def dense(r0, c0, rows, cols):  # U[r0 : r0 + rows, c0 : c0 + cols]
            start = flat[kd + r0 + c0 * kd :]
            view = as_strided(start, (rows, cols), (step, step * kd), writeable=False)
            return np.tril(np.triu(view, r0 - c0), r0 - c0 + kd)

        blocks = []
        for lo in range(0, n, kb):
            m, hi = min(kb, n - lo), min(lo + 2 * kb, n)
            Dinv = lapack.dtrtri(dense(lo, lo, m, m))[0]
            # dlauum forms the upper triangle of Dinv Dinv^T; a plain matmul
            # moved estimate_CT's decayed energies 5x further from dpbtrs's.
            # It splits its sums by thread count, the one step of a wide solve
            # that does at kb = 65 or 129 (dtrtri does from 200 rows); dsyrk
            # does not, but moved those energies from 4.65e-14 to 1.29e-13
            S = lapack.dlauum(Dinv)[0]
            W = np.empty((m, hi - lo))
            W[:, :m] = S + np.triu(S, 1).T
            np.matmul(-Dinv, dense(lo, lo + m, m, hi - lo - m), out=W[:, m:])
            blocks.append(W)
        return blocks


@dataclass
class DiscreteSystem:
    """Matrices and coefficients of the discretized system.

    M, K, B are as in the module docstring.  ``m_bulk`` and ``m_surf`` are
    the lumped bulk and surface masses; ``K_bulk`` and ``K_surf`` are the
    coefficient-free bulk and surface stiffness matrices (K_surf is zero in
    1D).  ``beta0`` is the nodal minimum of beta.
    """

    mesh: BulkSurfaceMesh
    gamma: float
    delta: float
    beta: np.ndarray
    beta0: float
    M: sp.csr_matrix
    K: sp.csr_matrix
    B: sp.csr_matrix
    M_diag: np.ndarray
    m_bulk: np.ndarray
    m_surf: np.ndarray
    K_bulk: sp.csr_matrix
    K_surf: sp.csr_matrix

    @property
    def ndof(self) -> int:
        return self.mesh.n_nodes

    @property
    def n_boundary(self) -> int:
        return self.mesh.n_boundary

    @property
    def boundary_nodes(self) -> np.ndarray:
        return self.mesh.boundary_nodes


def assemble(
    mesh: BulkSurfaceMesh,
    gamma: float,
    delta: float,
    beta,
) -> DiscreteSystem:
    """Assemble the discrete system on a mesh.

    Parameters
    ----------
    gamma : bulk diffusivity, > 0.
    delta : surface diffusivity, >= 0.
    beta : boundary reaction, >= 0; a scalar or an array over boundary nodes.
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if delta < 0:
        raise ValueError(f"delta must be nonnegative, got {delta}")
    if np.isscalar(beta):
        beta = np.full(mesh.n_boundary, float(beta))
    beta_vals = np.asarray(beta, dtype=float)
    if beta_vals.shape != (mesh.n_boundary,):
        raise ValueError(
            f"beta must give one value per boundary node "
            f"({mesh.n_boundary}), got shape {beta_vals.shape}"
        )
    if np.any(beta_vals < 0):
        raise ValueError("beta must be nonnegative at every boundary node")

    m_bulk, K_bulk = _bulk_operators(mesh)
    m_surf, K_surf = _surface_operators(mesh)

    n = mesh.n_nodes
    bnodes = mesh.boundary_nodes
    M_diag = m_bulk.copy()
    M_diag[bnodes] += m_surf
    M = sp.diags(M_diag, format="csr")

    K_beta = sp.csr_matrix(
        (m_surf * beta_vals, (bnodes, bnodes)), shape=(n, n)
    )
    K = (gamma * K_bulk + delta * K_surf + K_beta).tocsr()
    K.sum_duplicates()

    B = sp.csr_matrix(
        (m_surf, (bnodes, np.arange(mesh.n_boundary))),
        shape=(n, mesh.n_boundary),
    )

    return DiscreteSystem(
        mesh=mesh,
        gamma=float(gamma),
        delta=float(delta),
        beta=beta_vals,
        beta0=float(beta_vals.min()),
        M=M,
        K=K,
        B=B,
        M_diag=M_diag,
        m_bulk=m_bulk,
        m_surf=m_surf,
        K_bulk=K_bulk,
        K_surf=K_surf,
    )


def inner_X2(sys: DiscreteSystem, U: np.ndarray, V: np.ndarray) -> float:
    """Mass inner product U^T M V of coupled state vectors.

    U is read contiguous: a strided column of a row-major block would take
    BLAS's strided dot product, whose bits differ from those of its copy.
    """
    U = np.ascontiguousarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != (sys.ndof,) or V.shape != (sys.ndof,):
        raise ValueError(
            f"state vectors must have shape ({sys.ndof},), "
            f"got {U.shape} and {V.shape}"
        )
    return float(U @ (sys.M_diag * V))


def norm_X2(sys: DiscreteSystem, U: np.ndarray) -> float:
    """Norm induced by the mass inner product."""
    return float(np.sqrt(max(inner_X2(sys, U, U), 0.0)))


def _unit_normal_draws(sys: DiscreteSystem, rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill each column of out, (ndof, k), with a standard normal state from
    rng scaled to unit M-norm, in column order.

    A draw of M-norm zero is rejected and drawn again.
    """
    for col in out.T:
        nv = 0.0
        while nv == 0.0:
            v = rng.standard_normal(sys.ndof)
            nv = norm_X2(sys, v)
        np.divide(v, nv, out=col)


def smallest_eigenpair(sys: DiscreteSystem) -> tuple[float, np.ndarray]:
    """Smallest generalized eigenvalue of (K, M) by inverse power iteration.

    Requires K positive definite (beta bounded below by a positive
    constant).  Returns (c, x) with K x = c M x and x of unit M-norm.
    Raises ConvergenceError after ``_EIGEN_MAXIT`` iterations without the
    relative eigenvalue change dropping below ``_EIGEN_TOL``.
    """
    if sys.beta0 <= 0:
        raise ValueError(
            "coercivity estimate requires beta >= beta0 > 0 on the boundary"
        )
    chol = BandCholesky(sys.K)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(sys.ndof)
    x /= norm_X2(sys, x)
    lam_old = np.inf
    for _ in range(_EIGEN_MAXIT):
        y = chol.solve(sys.M_diag * x)
        y /= norm_X2(sys, y)
        lam = float(y @ (sys.K @ y))  # Rayleigh quotient; y has unit M-norm
        x = y
        # eigenvalue settles quadratically, the vector only linearly; demand both
        resid = np.linalg.norm(sys.K @ x - lam * (sys.M_diag * x))
        if (
            abs(lam - lam_old) <= _EIGEN_TOL * max(1.0, abs(lam))
            and resid <= np.sqrt(_EIGEN_TOL) * max(1.0, abs(lam))
        ):
            return lam, x
        lam_old = lam
    raise ConvergenceError(
        f"inverse power iteration did not converge in {_EIGEN_MAXIT} iterations"
    )


def _p1_cell_gradients(mesh: BulkSurfaceMesh) -> tuple[np.ndarray, np.ndarray]:
    """Cell volumes and the gradients of the barycentric (P1) basis.

    Returns (vol, G) with vol of shape (ncells,) and G of shape
    (ncells, dim + 1, dim): G[c, l] is the gradient on cell c of the basis
    function of its l-th node.  Each entry is written from 1-D coordinate
    gathers into the one array G, which is then divided by the cell's
    doubled volume in place.
    """
    cells = mesh.bulk_cells
    G = np.empty((cells.shape[0], mesh.dim + 1, mesh.dim))
    if mesh.dim == 1:
        x = mesh.bulk_nodes[:, 0]
        hc = x[cells[:, 1]] - x[cells[:, 0]]
        np.divide(-1.0, hc, out=G[:, 0, 0])
        np.divide(1.0, hc, out=G[:, 1, 0])
        return hc, G
    x, y = (np.ascontiguousarray(mesh.bulk_nodes[:, d]) for d in range(2))
    (xa, ya), (xb, yb), (xc, yc) = ((x[i], y[i]) for i in cells.T)
    area2 = (xb - xa) * (yc - ya) - (yb - ya) * (xc - xa)
    np.subtract(yb, yc, out=G[:, 0, 0])
    np.subtract(xc, xb, out=G[:, 0, 1])
    np.subtract(yc, ya, out=G[:, 1, 0])
    np.subtract(xa, xc, out=G[:, 1, 1])
    np.subtract(ya, yb, out=G[:, 2, 0])
    np.subtract(xb, xa, out=G[:, 2, 1])
    G /= area2[:, None, None]
    return 0.5 * area2, G


def _bulk_operators(mesh: BulkSurfaceMesh) -> tuple[np.ndarray, sp.csr_matrix]:
    """Lumped bulk mass vector and bulk stiffness (coefficient-free).

    Entries are emitted cell by cell, then by local (row, column), so
    ``sum_duplicates`` adds each global entry's terms in a fixed order.
    """
    n = mesh.n_nodes
    cells = mesh.bulk_cells
    nloc = mesh.dim + 1
    vol, G = _p1_cell_gradients(mesh)
    if mesh.dim == 1:
        # closed form 1/h: h * (1/h)^2 would differ in the last bit
        local = (1.0 / vol)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    else:
        # per-cell matmul rounds like a dot product of two gradients; an
        # elementwise sum of products differs in the last bit on the disk
        local = vol[:, None, None] * (G @ G.transpose(0, 2, 1))
    m = np.bincount(
        cells.ravel(), weights=np.repeat(vol / nloc, nloc), minlength=n
    )
    rows = np.repeat(cells, nloc, axis=1).ravel()
    cols = np.tile(cells, (1, nloc)).ravel()
    K = sp.csr_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    return m, K


def _surface_operators(mesh: BulkSurfaceMesh) -> tuple[np.ndarray, sp.csr_matrix]:
    """Lumped surface mass per boundary node and surface stiffness.

    1D: counting measure, no stiffness.  2D: linear elements in arclength on
    the boundary polygon.
    """
    n = mesh.n_nodes
    nb = mesh.n_boundary
    if mesh.dim == 1:
        return np.ones(nb), sp.csr_matrix((n, n))
    edges = mesh.boundary_edges
    pos_in_boundary = np.empty(n, dtype=int)
    pos_in_boundary[mesh.boundary_nodes] = np.arange(nb)
    pts = mesh.bulk_nodes
    d = pts[edges[:, 1]] - pts[edges[:, 0]]
    # per-edge dot product, as the norm of one vector rounds; the row-wise
    # norm(d, axis=1) differs in the last bit on the disk
    ell = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    m = np.bincount(
        pos_in_boundary[edges].ravel(), weights=np.repeat(ell / 2.0, 2), minlength=nb
    )
    k = 1.0 / ell
    rows = np.repeat(edges, 2, axis=1).ravel()
    cols = np.tile(edges, (1, 2)).ravel()
    vals = np.column_stack([k, -k, -k, k]).ravel()
    K = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    K.sum_duplicates()
    return m, K
