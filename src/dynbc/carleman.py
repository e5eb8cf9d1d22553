"""Carleman weights and empirical evaluation of the weighted inequality.

The weights, for a parameter lambda > 0, an exponent shift m > 1 and the
auxiliary field eta (positive inside, zero on the boundary), are

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
taken to vanish at t in {0, T}.  ``carleman_lhs`` and ``carleman_rhs``
evaluate one stored trajectory and are the reference for the sweep.  The
sweep records the empirical ratio LHS / RHS over seeded random final data
for a grid of (lambda, R): it steps every sample backward as one block and
reduces each time level as soon as it is solved, evaluating the
time-independent part of each cell's weights once and the rest once per
level, so it stores no trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .assembly import DiscreteSystem, _p1_cell_gradients, _unit_normal_draws
from .evolution import Propagator, Trajectory, recover_normal_flux
from .mesh import BulkSurfaceMesh, EtaField

__all__ = [
    "CarlemanParams",
    "WeightEval",
    "SweepResult",
    "eval_weights",
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
class WeightEval:
    """Weights evaluated on a set of interior times and all mesh nodes."""

    times: np.ndarray
    theta: np.ndarray  # (n_times,)
    xi: np.ndarray  # (n_nodes,)
    alpha: np.ndarray  # (n_times, n_nodes)
    exp_factor: np.ndarray  # (n_times, n_nodes), exp(-2 R alpha)


@dataclass
class SweepResult:
    """Rows (lam, R, sample_id, lhs, rhs, ratio) plus per-cell max ratios."""

    rows: list[tuple[float, float, int, float, float, float]]
    max_ratio: dict[tuple[float, float], float]


def eval_weights(params: CarlemanParams, times: np.ndarray) -> WeightEval:
    """Evaluate theta, xi, alpha and exp(-2 R alpha) at the given times.

    Times must lie strictly inside (0, T); theta is singular at the
    endpoints.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times <= 0.0) or np.any(times >= params.T):
        raise ValueError("weight evaluation requires times strictly inside (0, T)")
    xi, p = _space_weights(params)
    theta = 1.0 / (times * (params.T - times))
    alpha = np.outer(theta, p)
    return WeightEval(
        times=times,
        theta=theta,
        xi=xi,
        alpha=alpha,
        exp_factor=np.exp(-2.0 * params.R * alpha),
    )


def _space_weights(params: CarlemanParams) -> tuple[np.ndarray, np.ndarray]:
    """xi and p at the mesh nodes: the parts of the weights free of t."""
    s = params.eta.sup_norm
    xi = np.exp(params.lam * (params.m * s + params.eta.values))
    return xi, np.exp(2.0 * params.lam * params.m * s) - xi


def _level_weights(
    params: CarlemanParams,
    xi: np.ndarray,
    xi3: np.ndarray,
    p: np.ndarray,
    t: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """theta^3 xi^3 exp(-2 R alpha) and theta xi exp(-2 R alpha) at one time.

    t is a 1-element array; xi and p are ``_space_weights(params)`` and xi3
    is xi**3, so only theta(t) and exp(-2 R alpha) are evaluated.  Each
    product is formed as from ``eval_weights(params, t)``, with the same bits.
    """
    theta = 1.0 / (t * (params.T - t))
    ef = np.exp(-2.0 * params.R * np.outer(theta, p))[0]
    return theta**3 * xi3 * ef, theta * xi * ef


def _interior_weights(
    params: CarlemanParams, sys: DiscreteSystem, traj: Trajectory
) -> WeightEval:
    if traj.states.shape[1] != sys.ndof:
        raise ValueError("trajectory does not match the discrete system")
    if traj.times.shape[0] < 3:
        raise ValueError("trajectory has no interior time nodes")
    if abs(traj.times[-1] - params.T) > 1e-12 * max(1.0, params.T):
        raise ValueError("trajectory horizon differs from the weight horizon T")
    return eval_weights(params, traj.times[1:-1])


def carleman_lhs(sys: DiscreteSystem, adj: Trajectory, params: CarlemanParams) -> float:
    """Weighted left-hand side evaluated on an adjoint trajectory."""
    w = _interior_weights(params, sys, adj)
    phi = adj.states[1:-1]
    dt = adj.dt
    bnodes = sys.boundary_nodes

    th3 = w.theta**3
    xi3 = w.xi**3
    bulk_sq = (
        th3[:, None] * xi3[None, :] * w.exp_factor * phi**2 * sys.m_bulk[None, :]
    )
    term_sq = dt * bulk_sq.sum()

    grad_sq = _nodal_grad_sq(sys, phi)
    bulk_gr = (
        w.theta[:, None]
        * w.xi[None, :]
        * w.exp_factor
        * grad_sq
        * sys.m_bulk[None, :]
    )
    term_gr = dt * bulk_gr.sum()

    surf = (
        th3[:, None]
        * xi3[None, bnodes]
        * w.exp_factor[:, bnodes]
        * phi[:, bnodes] ** 2
        * sys.m_surf[None, :]
    )
    term_surf = dt * surf.sum()

    lam, R = params.lam, params.R
    return float(lam**3 * R**2 * term_sq + lam * term_gr + lam**2 * R**2 * term_surf)


def carleman_rhs(
    sys: DiscreteSystem,
    adj: Trajectory,
    params: CarlemanParams,
    path: str = "equation",
) -> float:
    """Weighted right-hand side on an adjoint trajectory.

    path="equation" substitutes the boundary equation, so the integrand is
    theta xi exp(-2 R alpha) (beta phi_G)^2 exactly; path="direct" assembles
    d_t phi_G + delta LB(phi_G) - gamma d_nu phi from discrete time
    differences, the surface stiffness, and the variational flux recovery.
    The two agree up to discretization error.
    """
    w = _interior_weights(params, sys, adj)
    bnodes = sys.boundary_nodes
    phi_g = adj.states[1:-1][:, bnodes]
    dt = adj.dt

    if path == "equation":
        comb = sys.beta[None, :] * phi_g
    elif path == "direct":
        flux = recover_normal_flux(sys, adj)
        # equation recovery is d_t phi_G + delta LB(phi_G) - beta phi_G, so
        # adding beta phi_G back isolates d_t phi_G + delta LB(phi_G).
        comb = (flux.equation + sys.beta[None, :] * adj.states[:, bnodes])[1:-1]
        comb = comb - flux.variational[1:-1]
    else:
        raise ValueError(f"path must be 'equation' or 'direct', got {path!r}")

    surf = (
        w.theta[:, None]
        * w.xi[None, bnodes]
        * w.exp_factor[:, bnodes]
        * comb**2
        * sys.m_surf[None, :]
    )
    return float(dt * surf.sum())


def carleman_sweep(
    sys: DiscreteSystem,
    params_grid,
    nt: int,
    theta: float,
    samples: int,
    seed: int,
) -> SweepResult:
    """Evaluate both sides over a (lambda, R) grid and seeded random final data.

    Rows and max ratios are keyed by (lambda, R), so the cells must share one
    horizon T and not repeat a (lambda, R) pair (ValueError otherwise).
    Each sample is a standard normal final datum of unit M-norm (the zero
    draw is rejected).  The samples are stepped backward as the columns of
    one block on one Propagator, and each interior level t_n is reduced as
    soon as it is solved: phi^2, the nodal |grad phi|^2 (gradient operators
    built once per sweep) and the boundary rows are formed for the whole
    block, each cell's xi, xi^3 and p are evaluated once per sweep and only
    theta(t_n) and exp(-2 R alpha) at each level, and the four
    weighted sums (bulk, gradient, surface, rhs) are added into per-(cell,
    sample) accumulators.  No trajectory is stored, and the solve to t_0,
    where the weights vanish, is not made.  The weights have the bits of
    ``carleman_lhs`` and ``carleman_rhs``; the block solve and the order of
    the reductions move each side in its last bits.  Rows are in grid
    order: a fixed seed gives the same table bits.
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
    times = np.linspace(0.0, prop.T, nt + 1)
    ops = _cell_gradient_ops(sys.mesh)
    bnodes, m_bulk, m_surf = sys.boundary_nodes, sys.m_bulk, sys.m_surf
    space = [(xi, xi**3, p) for xi, p in map(_space_weights, params_list)]
    # sums[c] holds the bulk, gradient, surface and rhs sums of cell c, by sample
    sums = np.zeros((len(params_list), 4, samples))
    levels = prop._levels(np.column_stack(data))
    next(levels)  # Phi_T itself, at t_N = T where the weights vanish
    # zip asks the range first, so the solve to t_0 is never made
    for n, level in zip(range(nt - 1, 0, -1), levels):
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

    rows = []
    max_ratio: dict[tuple[float, float], float] = {}
    dt = prop.dt
    for params, (bulk, grad, surf, rhs_sum) in zip(params_list, sums):
        lam, R = params.lam, params.R
        lhs_all = (
            lam**3 * R**2 * (dt * bulk)
            + lam * (dt * grad)
            + lam**2 * R**2 * (dt * surf)
        )
        rhs_all = dt * rhs_sum
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

    Returns min over the grid of theta xi, the min of theta^3 xi^3
    exp(-2 R alpha) restricted to [T/4, 3T/4], the max of theta xi
    exp(-2 R alpha), and the empirical constant
    varsigma1 = max |alpha_t| / (theta^2 xi^2) with the analytic
    alpha_t = theta'(t) p(x).
    """
    w = eval_weights(params, times)
    theta_xi = w.theta[:, None] * w.xi[None, :]
    t3x3e = w.theta[:, None] ** 3 * w.xi[None, :] ** 3 * w.exp_factor
    txe = theta_xi * w.exp_factor

    mid = (w.times >= params.T / 4.0) & (w.times <= 3.0 * params.T / 4.0)
    s = params.eta.sup_norm
    _, p = _space_weights(params)
    theta_t = (2.0 * w.times - params.T) / (w.times * (params.T - w.times)) ** 2
    alpha_t = np.outer(theta_t, p)
    varsigma1 = float(np.max(np.abs(alpha_t) / theta_xi**2))

    return {
        "min_theta_xi": float(theta_xi.min()),
        "min_theta3_xi3_exp_mid": float(t3x3e[mid].min()) if mid.any() else np.inf,
        "max_theta_xi_exp": float(txe.max()),
        "varsigma1": varsigma1,
        "theta_xi_floor_analytic": float(
            4.0 * np.exp(params.lam * params.m * s) / params.T**2
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


def _nodal_grad_sq(sys: DiscreteSystem, states: np.ndarray, ops=None) -> np.ndarray:
    """Volume-weighted nodal recovery of |grad phi|^2 from cellwise gradients.

    states has shape (n_states, n_nodes); the result matches it.  The sparse
    products run on a contiguous (n_nodes, n_states) copy and keep the
    (cells, states) layout; each entry is accumulated in the same order as
    with one state per row, so the values are the same bits.  ops is
    ``_cell_gradient_ops(sys.mesh)``, built here when not given.
    """
    grads, scatter = _cell_gradient_ops(sys.mesh) if ops is None else ops
    by_node = np.ascontiguousarray(states.T)
    cell_sq = np.zeros((scatter.shape[1], by_node.shape[1]))
    for G in grads:
        cell_sq += (G @ by_node) ** 2
    return (scatter @ cell_sq).T / sys.m_bulk[None, :]
