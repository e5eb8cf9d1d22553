"""Carleman weights and empirical evaluation of the weighted inequality.

The inequality is a global Carleman estimate of Fursikov-Imanuvilov type
(Controllability of Evolution Equations, Seoul Nat. Univ. Lecture Notes 34,
1996) in the form for dynamic boundary conditions of Maniar, Meyries and
Schnaubelt (Evol. Equ. Control Theory 6, 2017).  For lambda > 0, m > 1 and
the auxiliary field eta (positive inside, zero on the boundary) the weights
are

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
One per-level reduction serves ``carleman_sweep``, which feeds it the
levels of a block of samples as they are solved, and ``carleman_lhs`` and
``carleman_rhs``, which feed it one stored trajectory.

Known gap: the sources observe on an interior set off which |grad eta| > 0.
Here Gamma is observed, where eta = 0 and exp(-2 R alpha) is smallest, and
eta has an interior critical point, so the ratio LHS / RHS is recorded as
an empirical constant, not certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import DiscreteSystem, _p1_cell_gradients, _unit_normal_draws
from .evolution import Propagator, Trajectory
from .mesh import BulkSurfaceMesh, EtaField

__all__ = [
    "CarlemanParams",
    "SweepResult",
    "carleman_lhs",
    "carleman_rhs",
    "carleman_sweep",
    "weight_bounds",
    "pointwise_lambda_floor",
]


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
    """Rows (lam, R, sample_id, lhs, rhs, ratio) plus per-cell max ratios."""

    rows: list[tuple[float, float, int, float, float, float]]
    max_ratio: dict[tuple[float, float], float]


def _space_weights(params: CarlemanParams) -> tuple[np.ndarray, np.ndarray]:
    """xi and p at the mesh nodes: the parts of the weights free of t."""
    s = params.eta.sup_norm
    xi = np.exp(params.lam * (params.m * s + params.eta.values))
    return xi, np.exp(2.0 * params.lam * params.m * s) - xi


def _level_weights(params: CarlemanParams, xi, xi3, p, t) -> tuple[np.ndarray, np.ndarray]:
    """theta^3 xi^3 exp(-2 R alpha) and theta xi exp(-2 R alpha) at one time.

    t is a 1-element array; xi and p are ``_space_weights(params)`` and xi3
    is xi**3, so only theta(t) and exp(-2 R alpha) are evaluated.
    """
    theta = 1.0 / (t * (params.T - t))
    ef = np.exp(-2.0 * params.R * (theta * p))
    return theta**3 * xi3 * ef, theta * xi * ef


def _level_sums(sys: DiscreteSystem, params_list, times, levels, samples: int) -> np.ndarray:
    """Per-(cell, sample) bulk, gradient, surface and rhs sums, shape (cells, 4, samples).

    levels yields (n, phi), phi the (ndof, samples) adjoint block at the
    interior time times[n], and each level is reduced as it comes: phi^2,
    the nodal |grad phi|^2 and the boundary rows once per block, each cell's
    xi, xi^3 and p once, and only theta(t_n) and exp(-2 R alpha) per level.
    The sums are not yet multiplied by dt.
    """
    ops = _cell_gradient_ops(sys.mesh)
    bnodes, m_bulk, m_surf = sys.boundary_nodes, sys.m_bulk, sys.m_surf
    space = [(xi, xi**3, p) for xi, p in map(_space_weights, params_list)]
    sums = np.zeros((len(params_list), 4, samples))
    for n, level in levels:
        phi = level.T  # (samples, ndof)
        phi_sq = phi**2
        grad_sq = _nodal_grad_sq(sys, phi, ops)
        phi_b_sq = phi[:, bnodes] ** 2
        comb_sq = (sys.beta * phi[:, bnodes]) ** 2
        for params, (xi, xi3, p), cell in zip(params_list, space, sums):
            t3x3e, txe = _level_weights(params, xi, xi3, p, times[n : n + 1])
            # each lumped mass is the vector of a matrix-vector reduction
            cell[0] += (t3x3e * phi_sq) @ m_bulk
            cell[1] += (txe * grad_sq) @ m_bulk
            cell[2] += (t3x3e[bnodes] * phi_b_sq) @ m_surf
            cell[3] += (txe[bnodes] * comb_sq) @ m_surf
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
    one block on one Propagator, and each interior level t_n is reduced as
    soon as it is solved, by the reduction that ``carleman_lhs`` and
    ``carleman_rhs`` run on a stored trajectory.  No trajectory is stored,
    and the solve to t_0, where the weights vanish, is not made.  The block
    solve moves each side in its last bits against a one-sample solve.
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
    data = _unit_normal_draws(sys, np.random.default_rng(seed), samples)

    prop = Propagator(sys, params_list[0].T, nt, theta)
    levels = prop._levels(np.column_stack(data))
    next(levels)  # Phi_T itself, at t_N = T where the weights vanish
    # zip asks the range first, so the solve to t_0 is never made
    times = np.linspace(0.0, prop.T, nt + 1)
    sums = _level_sums(sys, params_list, times, zip(range(nt - 1, 0, -1), levels), samples)

    rows = []
    max_ratio: dict[tuple[float, float], float] = {}
    for params, (bulk, grad, surf, rhs_sum) in zip(params_list, sums):
        lhs_all = _lhs(params, prop.dt, bulk, grad, surf)
        rhs_all = prop.dt * rhs_sum
        cell_max = 0.0
        for sid, (lhs, rhs) in enumerate(zip(lhs_all.tolist(), rhs_all.tolist())):
            # rhs underflows to 0 when lam*m*sup(eta) pushes exp(-2 R alpha)
            # below double precision everywhere; record nan, don't raise
            ratio = lhs / rhs if rhs > 0.0 else float("nan")
            rows.append((params.lam, params.R, sid, lhs, rhs, ratio))
            cell_max = max(cell_max, ratio)
        max_ratio[(params.lam, params.R)] = cell_max
    return SweepResult(rows=rows, max_ratio=max_ratio)


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
    """Per-node value of 2 |Laplacian(eta)| / |grad eta|^2.

    The pointwise lower bound on lambda blows up where grad eta vanishes
    (the interior critical point eta must have); such nodes report inf.
    The sweep only records this diagnostic, it does not enforce it.
    """
    grad_sq = np.sum(eta.gradient**2, axis=1)
    out = np.full(eta.values.size, np.inf)
    nz = grad_sq > 0
    out[nz] = 2.0 * np.abs(eta.laplacian[nz]) / grad_sq[nz]
    return out


def _cell_gradient_ops(mesh: BulkSurfaceMesh):
    """Sparse cell-gradient operators and the volume-weighted scatter to nodes."""
    cells = mesh.bulk_cells
    ncells = cells.shape[0]
    n = mesh.n_nodes
    nodes_per_cell = mesh.dim + 1
    vol, G = _p1_cell_gradients(mesh)
    cell_ids = np.repeat(np.arange(ncells), nodes_per_cell)
    node_ids = cells.ravel()
    grads = [
        sp.csr_matrix((G[:, :, d].ravel(), (cell_ids, node_ids)), shape=(ncells, n))
        for d in range(mesh.dim)
    ]
    vals = np.repeat(vol / nodes_per_cell, nodes_per_cell)
    scatter = sp.csr_matrix((vals, (node_ids, cell_ids)), shape=(n, ncells))
    return grads, scatter


def _nodal_grad_sq(sys: DiscreteSystem, states: np.ndarray, ops) -> np.ndarray:
    """Volume-weighted nodal recovery of |grad phi|^2 from cellwise gradients.

    states has shape (n_states, n_nodes); the result matches it.  The sparse
    products run on a contiguous (n_nodes, n_states) copy and keep the
    (cells, states) layout; each entry is accumulated in the same order as
    with one state per row, so the values are the same bits.  ops is
    ``_cell_gradient_ops(sys.mesh)``.
    """
    grads, scatter = ops
    by_node = np.ascontiguousarray(states.T)
    cell_sq = np.zeros((scatter.shape[1], by_node.shape[1]))
    for G in grads:
        cell_sq += (G @ by_node) ** 2
    return (scatter @ cell_sq).T / sys.m_bulk[None, :]
