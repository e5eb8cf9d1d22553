"""Boundary null-control synthesis by penalized duality.

The control-to-final-state map and the adjoint trace compose into the
symmetric positive semidefinite Gramian

    Lambda(Phi_T) = final state of the forward solve driven, at the per-step
    theta-levels, by the boundary trace of the backward solve from Phi_T,

which is self-adjoint in the M inner product because the backward step is
the exact transpose of the forward step.  The penalized problem

    (Lambda + eps I) PhiHat_T = final state of the free forward solve of U0

is solved by conjugate gradients in the M inner product (each operator
application is one backward plus one forward solve, all on one factored
Propagator).  The control is the negated theta-level adjoint trace,
g = -phi_G, and drives the state to exactly U(T) = eps PhiHat_T, up to the
conjugate-gradient residual; at optimality the discrete analog of the
duality condition

    -integral of g phi_G + eps ||PhiHat_T||_M^2 = <U0, PhiHat(0)>_M

holds up to the same residual.

Across a penalty ladder, g_eps minimizes the penalized objective
J_eps(g) = 0.5 ||g||^2 + (1 / 2 eps) ||U_g(T)||_M^2, so the final norm is
nondecreasing in eps, and

    ||U_eps(T)||_M^2 <= eps ||v||^2 + ||U_v(T)||_M^2   for any control v.

Since ||PhiHat_T||_M is nondecreasing as eps falls, the ratio of final norms
across a step eps_hi > eps_lo lies in [1, eps_hi / eps_lo].  Where in that
range it falls depends on how e^{T A} U0 spreads over the spectrum of
Lambda; no fixed rate is promised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteSystem, inner_X2, norm_X2
from .evolution import BoundarySignal, Propagator, duality_residual

__all__ = [
    "ControlProblem",
    "ControlResult",
    "NullControlReport",
    "gramian_apply",
    "synthesize_control",
    "verify_null",
    "control_sample_times",
    "signal_norm_L2",
]


@dataclass
class ControlProblem:
    """A null-control instance: system, initial state, horizon, and solver knobs."""

    sys: DiscreteSystem
    U0: np.ndarray
    T: float
    nt: int
    theta: float = 0.5
    eps: float = 1e-6
    cg_tol: float = 1e-8
    cg_maxit: int = 500

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if self.nt < 2:
            raise ValueError(f"need nt >= 2, got {self.nt}")


@dataclass
class ControlResult:
    """Synthesized control and its certificates."""

    g: BoundarySignal  # per-step theta-level samples, shape (nt, n_boundary)
    g_times: np.ndarray
    final_norm: float
    control_norm: float
    iterations: int
    cost: float
    converged: bool
    phi_T: np.ndarray
    final_state: np.ndarray
    true_residual: float  # ||U(T) - eps PhiHat_T||_M / ||b||_M


@dataclass
class NullControlReport:
    final_norm: float
    final_norm_refined: float
    duality_residual: float
    optimality_residual: float
    optimality_scale: float


def control_sample_times(T: float, nt: int, theta: float) -> np.ndarray:
    """Times the per-step samples live at: t_n + (1 - theta) dt."""
    dt = T / nt
    return (np.arange(nt) + 1.0 - theta) * dt


def signal_norm_L2(sys: DiscreteSystem, values: np.ndarray, dt: float) -> float:
    """Discrete L2 norm over the boundary cylinder of per-step samples."""
    return float(np.sqrt(dt * np.sum(values**2 * sys.m_surf[None, :])))


def gramian_apply(prop: Propagator, PhiT: np.ndarray) -> np.ndarray:
    """One application of the Gramian on prop's time grid.

    Backward solve from PhiT, its theta-level boundary trace, and the final
    state of the forward solve from zero driven by that trace.  Symmetric
    and positive semidefinite in the M inner product: <Lambda Phi, Phi>_M
    equals the squared boundary-cylinder norm of the adjoint trace.
    """
    trace = prop.backward_trace(PhiT)
    return prop.forward_final(np.zeros(prop.sys.ndof), BoundarySignal(trace))


def _cg_in_M(sys, apply_op, b, tol, maxit):
    """Conjugate gradients for an M-self-adjoint SPD operator.

    Returns (x, iterations, converged).  A curvature <p, A p>_M that is not
    positive and finite means the operator is not SPD on the Krylov space;
    the iteration stops there with converged=False and the last iterate.
    """
    x = np.zeros_like(b)
    r = b.copy()
    rho = inner_X2(sys, r, r)
    bnorm = np.sqrt(rho)
    if bnorm == 0.0:
        return x, 0, True
    p = r.copy()
    for k in range(1, maxit + 1):
        q = apply_op(p)
        curvature = inner_X2(sys, p, q)
        if not (np.isfinite(curvature) and curvature > 0.0):
            return x, k - 1, False
        alpha = rho / curvature
        x += alpha * p
        r -= alpha * q
        rho_new = inner_X2(sys, r, r)
        if np.sqrt(rho_new) <= tol * bnorm:
            return x, k, True
        p = r + (rho_new / rho) * p
        rho = rho_new
    return x, maxit, False


def synthesize_control(problem: ControlProblem) -> ControlResult:
    """Penalized null-control synthesis.

    Solves (Lambda + eps I) PhiHat_T = e^{T A} U0 by conjugate gradients in
    the M inner product, extracts the control g = -phi_G from the backward
    solve of PhiHat_T, and re-runs the controlled forward system to record
    the achieved final state U(T) = eps PhiHat_T and its norm.  The reported
    cost is the penalized objective 0.5 ||g||^2 + (1 / 2 eps) ||U(T)||_M^2,
    which g minimizes: across a penalty ladder the final norm is
    nondecreasing in eps, the ratio across a step eps_hi > eps_lo lies in
    [1, eps_hi / eps_lo], and ||U(T)||_M^2 <= eps ||v||^2 + ||U_v(T)||_M^2
    for any control v.  No fixed rate is promised.
    """
    sys = problem.sys
    U0 = np.asarray(problem.U0, dtype=float)
    T, nt, theta, eps = problem.T, problem.nt, problem.theta, problem.eps
    prop = Propagator(sys, T, nt, theta)
    g_times = control_sample_times(T, nt, theta)

    b = prop.forward_final(U0, None)

    def apply_op(v: np.ndarray) -> np.ndarray:
        return gramian_apply(prop, v) + eps * v

    phi_T, iterations, converged = _cg_in_M(
        sys, apply_op, b, problem.cg_tol, problem.cg_maxit
    )

    if iterations == 0:
        g_vals = np.zeros((nt, sys.n_boundary))
        final_state = b
    else:
        g_vals = -prop.backward_trace(phi_T)
        final_state = prop.forward_final(U0, BoundarySignal(g_vals))

    final_norm = norm_X2(sys, final_state)
    control_norm = signal_norm_L2(sys, g_vals, prop.dt)
    cost = 0.5 * control_norm**2 + final_norm**2 / (2.0 * eps)
    b_norm = norm_X2(sys, b)
    true_residual = (
        norm_X2(sys, final_state - eps * phi_T) / b_norm if b_norm > 0.0 else 0.0
    )
    return ControlResult(
        g=BoundarySignal(g_vals),
        g_times=g_times,
        final_norm=final_norm,
        control_norm=control_norm,
        iterations=iterations,
        cost=cost,
        converged=converged,
        phi_T=phi_T,
        final_state=final_state,
        true_residual=true_residual,
    )


def verify_null(
    sys: DiscreteSystem, problem: ControlProblem, result: ControlResult
) -> NullControlReport:
    """Independent checks of a synthesized control.

    Re-runs the forward solve at doubled nt with the control interpolated in
    time and reports both final norms; checks the duality identity of the
    controlled run, and the first-order optimality of the penalized problem,

        | ||g||^2 + eps ||PhiHat_T||_M^2 - <U0, PhiHat(0)>_M |,

    which is bounded by the conjugate-gradient residual.
    """
    U0 = np.asarray(problem.U0, dtype=float)
    T, nt, theta, eps = problem.T, problem.nt, problem.theta, problem.eps
    prop = Propagator(sys, T, nt, theta)

    fwd = prop.forward(U0, result.g)
    adj = prop.backward(result.phi_T)
    dres = duality_residual(sys, fwd, adj, result.g)

    fine_nt = 2 * nt
    fine_times = control_sample_times(T, fine_nt, theta)
    coarse_times = result.g_times
    fine_vals = np.empty((fine_nt, sys.n_boundary))
    for j in range(sys.n_boundary):
        fine_vals[:, j] = np.interp(
            fine_times, coarse_times, result.g.values[:, j]
        )
    fine = Propagator(sys, T, fine_nt, theta).forward_final(
        U0, BoundarySignal(fine_vals)
    )
    refined_norm = norm_X2(sys, fine)

    control_sq = signal_norm_L2(sys, result.g.values, prop.dt) ** 2
    phi_norm_sq = inner_X2(sys, result.phi_T, result.phi_T)
    pairing = inner_X2(sys, U0, adj.states[0])
    opt_res = abs(control_sq + eps * phi_norm_sq - pairing)
    u0n = norm_X2(sys, U0)
    scale = max(u0n**2, u0n * np.sqrt(phi_norm_sq), 1e-300)
    return NullControlReport(
        final_norm=result.final_norm,
        final_norm_refined=refined_norm,
        duality_residual=dres,
        optimality_residual=opt_res,
        optimality_scale=scale,
    )
