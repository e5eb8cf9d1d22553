"""Carleman weights and empirical evaluation of the weighted inequality.

The inequality is a global Carleman estimate of Fursikov-Imanuvilov type
(Controllability of Evolution Equations, Seoul Nat. Univ. Lecture Notes 34,
1996) in the form for dynamic boundary conditions of Maniar, Meyries and
Schnaubelt (Evol. Equ. Control Theory 6, 2017).  For lambda > 0, m > 1 and
the auxiliary field eta, the torsion function -Laplace(eta) = 1 in Omega,
eta = 0 on Gamma (``build_eta``; eta > 0 inside, d_nu eta < 0 on Gamma),
the weights are

    theta(t) = 1 / (t (T - t)),
    xi(x)    = exp(lambda (m ||eta||_inf + eta(x))),
    p(x)     = exp(2 lambda m ||eta||_inf) - xi(x),
    alpha    = theta(t) p(x),

and the damping factor is exp(-2 R alpha), which vanishes faster than any
power of theta as t -> 0+ or t -> T-.  Both sides of the weighted inequality

    lambda^3 R^2 I_bulk(theta^3 xi^3 phi^2)
      + lambda I_bulk(theta xi |grad phi|^2)
      + lambda^2 R^2 I_surf(theta^3 xi^3 phi_G^2)
    <= C I_surf(theta xi |d_t phi_G + delta LB(phi_G) - gamma d_nu phi|^2)

are evaluated on discrete adjoint trajectories with mass-lumped space
quadrature and trapezoidal time quadrature; the weighted integrands are
taken to vanish at t in {0, T}, and the right side substitutes the boundary
equation, so its integrand is theta xi exp(-2 R alpha) (beta phi_G)^2.
One per-level reduction, made for every (lambda, R) cell at once by matrix
products, serves ``carleman_sweep``, which feeds it the levels of a block of
samples as they are solved, and ``carleman_lhs`` and ``carleman_rhs``, which
feed it one stored trajectory.

Known gap: the sources observe on an interior set off which |grad eta| > 0.
Here Gamma is observed, where eta = 0 and exp(-2 R alpha) is smallest, and
eta has an interior critical point, so the ratio LHS / RHS is recorded as
an empirical constant, not certified.  There the pointwise floor on lambda,
2 |Laplace(eta)| / |grad eta|^2, is unbounded; -Laplace(eta) = 1 is imposed,
so ``pointwise_lambda_floor`` is 2 / |grad eta|^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import (
    BandCholesky,
    DiscreteSystem,
    _bulk_operators,
    _p1_cell_gradients,
    _unit_normal_draws,
)
from .evolution import Propagator, Trajectory
from .mesh import BulkSurfaceMesh

__all__ = [
    "CarlemanParams",
    "EtaField",
    "SweepResult",
    "build_eta",
    "carleman_lhs",
    "carleman_rhs",
    "carleman_sweep",
    "weight_bounds",
    "pointwise_lambda_floor",
]


@dataclass(frozen=True)
class EtaField:
    """Carleman auxiliary field on a mesh (``build_eta``); ``sup_norm``, the
    max of the nodal values, is the value used inside the weight formulas."""

    values: np.ndarray
    gradient: np.ndarray
    sup_norm: float
    boundary_normal_derivative: np.ndarray


def build_eta(mesh: BulkSurfaceMesh) -> EtaField:
    """The torsion function of any mesh: -Laplace(eta) = 1 in Omega, eta = 0 on Gamma.

    One ``BandCholesky`` solves the lumped P1 system K_II eta_I = m_I on the
    interior nodes (coefficient-free bulk stiffness K, lumped mass m); the
    boundary values are exact zeros.  eta is not rescaled, so sup eta is
    (b - a)^2 / 8 on [a, b], about rho^2 / 4 on a disk and 0.0737 on the
    unit square.  The gradient is the volume-weighted nodal average of the
    cell gradients, and the boundary normal derivative is the gradient dotted
    with the outward normals: < 0 off corners, by Hopf's lemma
    (Gilbarg-Trudinger, Lemma 3.4).
    """
    m, K = _bulk_operators(mesh)
    interior = np.setdiff1d(np.arange(mesh.n_nodes), mesh.boundary_nodes)
    values = np.zeros(mesh.n_nodes)
    values[interior] = BandCholesky(K[interior][:, interior]).solve(m[interior])
    grad, scatter = _cell_gradient_ops(mesh)
    # rows of the stacked operator are d/dx_d on each cell, dimension-major
    gradient = (scatter @ (grad @ values).reshape(mesh.dim, -1).T) / m[:, None]
    return EtaField(
        values=values,
        gradient=gradient,
        sup_norm=float(values.max()),
        boundary_normal_derivative=np.sum(
            gradient[mesh.boundary_nodes] * mesh.outward_normals, axis=1
        ),
    )


@dataclass(frozen=True)
class CarlemanParams:
    """Weight parameters: lam (the lambda parameter), R, m > 1, horizon T, and eta."""

    lam: float
    R: float
    m: float
    T: float
    eta: EtaField

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError(f"lambda must be positive, got {self.lam}")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.m > 1:
            raise ValueError(f"m must exceed 1, got {self.m}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")


@dataclass
class SweepResult:
    """Rows (lam, R, sample_id, lhs, rhs, ratio) plus per-cell summaries.

    ``max_ratio`` is each cell's largest finite ratio, None when the cell has
    none; ``nonfinite`` counts each cell's samples whose ratio is not finite.
    """

    rows: list[tuple[float, float, int, float, float, float]]
    max_ratio: dict[tuple[float, float], float | None]
    nonfinite: dict[tuple[float, float], int]


def _space_weights(params: CarlemanParams) -> tuple[np.ndarray, np.ndarray]:
    """xi and p at the mesh nodes: the parts of the weights free of t."""
    s = params.eta.sup_norm
    xi = np.exp(params.lam * (params.m * s + params.eta.values))
    return xi, np.exp(2.0 * params.lam * params.m * s) - xi


def _level_weights(T, R, xi, xi3, p, t) -> tuple[np.ndarray, np.ndarray]:
    """theta^3 xi^3 exp(-2 R alpha) and theta xi exp(-2 R alpha) at one time.

    t is a 1-element array, T and R (cells, 1) columns, and xi, xi3 = xi**3
    and p (cells, ndof) blocks: only theta(t) and exp(-2 R alpha) are evaluated.
    exp is called only where its argument is not below -746, where it would
    underflow to exactly +0.0 on a path about 6 times slower; a nan argument
    still reaches exp.
    """
    theta = 1.0 / (t * (T - t))
    arg = -2.0 * R * (theta * p)
    ef = np.exp(arg, out=np.zeros_like(arg), where=~(arg < -746.0))
    t3x3e = theta**3 * xi3 * ef
    ef *= theta * xi  # theta xi exp(-2 R alpha), in place: one block fewer held
    return t3x3e, ef


def _level_sums(sys: DiscreteSystem, params_list, times, levels, samples: int) -> np.ndarray:
    """Per-(cell, sample) bulk, gradient, surface and rhs sums, shape (cells, 4, samples).

    levels yields (n, phi), phi the (ndof, samples) adjoint block at the
    interior time times[n] in either order, and each level is reduced for
    every cell as it comes, in column-major order: the cells' xi, xi^3 and
    p are stacked once, and per level phi^2, the nodal |grad phi|^2, one
    (cells, ndof) block of weights and four products of mass-weighted
    weights with the level, (cells, ndof) by (ndof, samples).  The sums are
    not yet multiplied by dt.
    """
    ops = _cell_gradient_ops(sys.mesh)
    bnodes, m_bulk, m_surf = sys.boundary_nodes, sys.m_bulk, sys.m_surf
    xi, p = map(np.array, zip(*map(_space_weights, params_list)))
    xi3 = xi**3
    T, R = np.array([(params.T, params.R) for params in params_list]).T[..., None]
    sums = np.zeros((len(params_list), 4, samples))
    for n, phi in levels:
        # the products' sums move their last bits with phi's layout
        phi = np.asfortranarray(phi)
        phi_sq = phi**2
        grad_sq = _nodal_grad_sq(sys, phi, ops)
        comb_sq = (sys.beta[:, None] * phi[bnodes]) ** 2
        t3x3e, txe = _level_weights(T, R, xi, xi3, p, times[n : n + 1])
        sums[:, 0] += (t3x3e * m_bulk) @ phi_sq
        sums[:, 1] += (txe * m_bulk) @ grad_sq
        sums[:, 2] += (t3x3e[:, bnodes] * m_surf) @ phi_sq[bnodes]
        sums[:, 3] += (txe[:, bnodes] * m_surf) @ comb_sq
    return sums


def _lhs(params: CarlemanParams, dt: float, bulk, grad, surf):
    """lambda^3 R^2 I_bulk + lambda I_grad + lambda^2 R^2 I_surf from the sums."""
    lam, R = params.lam, params.R
    return lam**3 * R**2 * (dt * bulk) + lam * (dt * grad) + lam**2 * R**2 * (dt * surf)


def _trajectory_sums(sys: DiscreteSystem, adj: Trajectory, params: CarlemanParams):
    """The four weighted sums of one stored adjoint trajectory, as one sample."""
    if adj.states.shape[1] != sys.ndof:
        raise ValueError("trajectory does not match the discrete system")
    if adj.times.shape[0] < 3:
        raise ValueError("trajectory has no interior time nodes")
    if abs(adj.times[-1] - params.T) > 1e-12 * max(1.0, params.T):
        raise ValueError("trajectory horizon differs from the weight horizon T")
    # the interior levels in the sweep's order, t_{N-1} down to t_1
    levels = ((n, adj.states[n][:, None]) for n in range(adj.nt - 1, 0, -1))
    return _level_sums(sys, [params], adj.times, levels, 1)[0, :, 0]


def carleman_lhs(sys: DiscreteSystem, adj: Trajectory, params: CarlemanParams) -> float:
    """Weighted left-hand side evaluated on an adjoint trajectory."""
    bulk, grad, surf, _ = _trajectory_sums(sys, adj, params)
    return float(_lhs(params, adj.dt, bulk, grad, surf))


def carleman_rhs(sys: DiscreteSystem, adj: Trajectory, params: CarlemanParams) -> float:
    """Weighted right-hand side evaluated on an adjoint trajectory.

    The boundary equation is substituted, so the integrand is
    theta xi exp(-2 R alpha) (beta phi_G)^2 exactly.
    """
    return float(adj.dt * _trajectory_sums(sys, adj, params)[3])


def carleman_sweep(
    sys: DiscreteSystem, params_grid, nt: int, theta: float, samples: int, seed: int
) -> SweepResult:
    """Evaluate both sides over a (lambda, R) grid and seeded random final data.

    The inequality is the module's Carleman estimate of Fursikov-Imanuvilov
    type for dynamic boundary conditions.  Its ratio is an empirical
    constant, not a certificate: Gamma is observed where eta = 0, and eta has
    an interior critical point, so the ratio need not stay bounded in R.

    Rows and max ratios are keyed by (lambda, R), so the cells must share one
    horizon T and not repeat a (lambda, R) pair (ValueError otherwise).
    Each sample is a standard normal final datum of unit M-norm (the zero
    draw is rejected).  The samples are stepped backward as the columns of
    one row-major block on one Propagator, and each interior level t_n is
    reduced as soon as it is solved, by the reduction that ``carleman_lhs``
    and ``carleman_rhs`` run on a stored trajectory; it reads the level in
    column-major order, a copy only for the row-major levels of 32 or more
    samples.  No trajectory is stored, and the solve to t_0, where the
    weights vanish, is not made.  The block solve moves each side in its
    last bits against a one-sample solve.
    Rows are in grid order: a fixed seed gives the same table bits.
    """
    params_list = list(params_grid)
    horizons = {params.T for params in params_list}
    if len(horizons) != 1:
        raise ValueError(f"need grid cells on one horizon T, got {sorted(horizons)}")
    keys = [(params.lam, params.R) for params in params_list]
    if len(set(keys)) < len(keys):
        raise ValueError(f"grid repeats a (lambda, R) cell: {keys}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if nt < 2:
        raise ValueError(f"need nt >= 2 for interior time nodes, got {nt}")
    block = np.empty((sys.ndof, samples))
    _unit_normal_draws(sys, np.random.default_rng(seed), block)
    prop = Propagator(sys, params_list[0].T, nt, theta)
    # t_{N-1} down to t_1: the weights vanish at t_N = T and t_0, and islice
    # never asks for the solve to t_0
    levels = itertools.islice(prop._backward_levels(block), 1, nt)
    del block  # the march holds it until its first step
    times = np.linspace(0.0, prop.T, nt + 1)
    sums = _level_sums(sys, params_list, times, levels, samples)

    result = SweepResult(rows=[], max_ratio={}, nonfinite={})
    for params, (bulk, grad, surf, rhs_sum) in zip(params_list, sums):
        lhs_all = _lhs(params, prop.dt, bulk, grad, surf)
        rhs_all = prop.dt * rhs_sum
        finite = []
        for sid, (lhs, rhs) in enumerate(zip(lhs_all.tolist(), rhs_all.tolist())):
            # rhs underflows to 0 when lam*m*sup(eta) pushes exp(-2 R alpha)
            # below double precision everywhere; record nan, don't raise
            ratio = lhs / rhs if rhs > 0.0 else float("nan")
            result.rows.append((params.lam, params.R, sid, lhs, rhs, ratio))
            if math.isfinite(ratio):
                finite.append(ratio)
        key = (params.lam, params.R)
        result.max_ratio[key] = max(finite, default=None)
        result.nonfinite[key] = samples - len(finite)
    return result


def weight_bounds(params: CarlemanParams, times: np.ndarray) -> dict:
    """Grid extrema of the weight combinations used by the estimates.

    Times must lie strictly inside (0, T); theta is singular at the
    endpoints.  Returns the min over the grid of theta (4/T^2 at T/2) and
    of theta xi, the min of theta^3 xi^3 exp(-2 R alpha) restricted to
    [T/4, 3T/4], the max of theta xi exp(-2 R alpha), and the empirical
    constant varsigma1 = max |alpha_t| / (theta^2 xi^2) with the analytic
    alpha_t = theta'(t) p(x).
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    T = params.T
    if np.any(times <= 0.0) or np.any(times >= T):
        raise ValueError("weight evaluation requires times strictly inside (0, T)")
    xi, p = _space_weights(params)
    theta = 1.0 / (times * (T - times))
    theta_xi = np.outer(theta, xi)
    ef = np.exp(-2.0 * params.R * np.outer(theta, p))
    mid = (times >= T / 4.0) & (times <= 3.0 * T / 4.0)
    alpha_t = np.outer((2.0 * times - T) / (times * (T - times)) ** 2, p)
    return {
        "min_theta": float(theta.min()),
        "min_theta_xi": float(theta_xi.min()),
        "min_theta3_xi3_exp_mid": float((theta_xi**3 * ef)[mid].min()) if mid.any() else np.inf,
        "max_theta_xi_exp": float((theta_xi * ef).max()),
        "varsigma1": float(np.max(np.abs(alpha_t) / theta_xi**2)),
        "theta_xi_floor_analytic": float(
            4.0 * np.exp(params.lam * params.m * params.eta.sup_norm) / T**2
        ),
    }


def pointwise_lambda_floor(eta: EtaField) -> np.ndarray:
    """Per-node value of 2 |Laplacian(eta)| / |grad eta|^2, which is 2 / |grad eta|^2
    since ``build_eta`` imposes -Laplace(eta) = 1.

    The pointwise lower bound on lambda blows up where grad eta vanishes
    (the interior critical point eta must have); such nodes report inf.
    There the recovered gradient is roundoff, not 0: a |grad eta|^2 at most
    machine epsilon times its max over the nodes counts as zero.
    A rectangle's corners (lx, 0) and (0, ly) also report inf: each lies in
    one cell whose nodes are all on Gamma, so its recovered gradient is
    exactly 0.  Only nodes with eta > 0 are interior critical points, and
    only they are counted as the summary's ``lambda_floor_unbounded_nodes``.
    The sweep only records this diagnostic, it does not enforce it.
    """
    grad_sq = np.sum(eta.gradient**2, axis=1)
    out = np.full(eta.values.size, np.inf)
    nz = grad_sq > np.finfo(float).eps * grad_sq.max()
    out[nz] = 2.0 / grad_sq[nz]
    return out


def _cell_gradient_ops(mesh: BulkSurfaceMesh):
    """Stacked sparse cell gradients and the volume-weighted scatter to nodes."""
    cells = mesh.bulk_cells
    ncells, nodes_per_cell = cells.shape
    vol, G = _p1_cell_gradients(mesh)
    cell_ids = np.repeat(np.arange(ncells), nodes_per_cell)
    node_ids = cells.ravel()
    grads = [
        sp.csr_matrix((G[:, :, d].ravel(), (cell_ids, node_ids)), shape=(ncells, mesh.n_nodes))
        for d in range(mesh.dim)
    ]
    vals = np.repeat(vol / nodes_per_cell, nodes_per_cell)
    scatter = sp.csr_matrix((vals, (node_ids, cell_ids)), shape=(mesh.n_nodes, ncells))
    # row d * ncells + c of the stacked operator is d/dx_d on cell c
    return sp.vstack(grads, format="csr"), scatter


def _nodal_grad_sq(sys: DiscreteSystem, states: np.ndarray, ops) -> np.ndarray:
    """Volume-weighted nodal recovery of |grad phi|^2 from cellwise gradients.

    states has shape (n_nodes, n_states), one state per column; the result
    matches it.  Each entry is accumulated in the same order as with one
    state, and the squares add in dimension order (0 + a^2 + b^2), so the
    values are the bits of a per-state loop.  ops is
    ``_cell_gradient_ops(sys.mesh)``.
    """
    grad, scatter = ops
    comp_sq = grad @ states
    comp_sq **= 2
    cell_sq = comp_sq.reshape(-1, scatter.shape[1], states.shape[1]).sum(axis=0)
    return (scatter @ cell_sq) / sys.m_bulk[:, None]
