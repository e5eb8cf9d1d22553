"""Boundary null-control synthesis by penalized duality.

The control-to-final-state map and the adjoint trace compose into the
symmetric positive semidefinite Gramian

    Lambda(Phi_T) = final state of the forward solve driven, at the per-step
    theta-levels, by the boundary trace of the backward solve from Phi_T,

which is self-adjoint in the M inner product because the backward step is
the exact transpose of the forward step.  The penalized problem

    (Lambda + eps I) PhiHat_T = final state of the free forward solve of U0

is solved in the M inner product by Lanczos with a fully reorthogonalized
basis, whose iterates are those of conjugate gradients in exact arithmetic
(each operator application is one backward plus one forward solve, all on
one factored Propagator).  Every penalty shares Lambda and the right-hand
side, and the Krylov basis does not depend on the shift, so a
``ControlProblem`` owns one Propagator and one basis, and a ladder of
penalties is one ``synthesize_control(problem, eps)`` call per eps: each
grows the basis only past what earlier calls grew, solves its own small
tridiagonal system, stops at the first iteration where its residual is
within cg_tol of ||b||_M, and is bit for bit the solve of its eps on a
fresh problem.  A ladder costs one Gramian apply per iteration of its
slowest rung.

The control is the negated theta-level adjoint trace, g = -phi_G, and
drives the state to exactly U(T) = eps PhiHat_T, up to the
Krylov-solve residual; at optimality the discrete analog of the
duality condition

    -integral of g phi_G + eps ||PhiHat_T||_M^2 = <U0, PhiHat(0)>_M

holds up to the same residual.  The result keeps g, PhiHat(0) and U(T) from
the synthesis; ``verify_null`` checks both identities on them and re-solves
only on a refined grid, since a re-run on this grid reproduces them exactly.

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
from functools import cached_property

import numpy as np

from .assembly import DiscreteSystem, inner_X2, norm_X2
from .evolution import BoundarySignal, Propagator, _theta_levels

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


@dataclass(frozen=True, eq=False)
class ControlProblem:
    """A null-control instance: system, initial state, horizon, and solver knobs.

    The problem owns what every eps shares: its Propagator, factored once,
    and the Krylov basis of the Gramian from b = e^{T A} U0, which each
    ``synthesize_control`` call grows only as far as its eps needs.
    """

    sys: DiscreteSystem
    U0: np.ndarray
    T: float
    nt: int
    theta: float = 0.5
    cg_tol: float = 1e-8
    cg_maxit: int = 500

    def __post_init__(self):
        # a read-only copy: the cached basis starts from this U0
        U0 = np.array(self.U0, dtype=float)
        U0.flags.writeable = False
        object.__setattr__(self, "U0", U0)
        if not 0.0 < self.cg_tol < 1.0:
            raise ValueError(f"cg_tol must lie in (0, 1), got {self.cg_tol}")
        if self.nt < 2:
            raise ValueError(f"need nt >= 2, got {self.nt}")
        if self.cg_maxit < 1:
            raise ValueError(f"cg_maxit must be >= 1, got {self.cg_maxit}")

    @cached_property
    def _prop(self) -> Propagator:
        return Propagator(self.sys, self.T, self.nt, self.theta)

    @cached_property
    def _krylov(self) -> _Lanczos:
        # the operator closes over the Propagator, not self, so that a problem
        # and its basis form no reference cycle
        prop = self._prop
        b = prop.forward_final(self.U0, None)
        return _Lanczos(self.sys, lambda v: gramian_apply(prop, v), b, self.cg_maxit)


@dataclass
class ControlResult:
    """Synthesized control and its certificates."""

    g: BoundarySignal  # per-step samples at control_sample_times, (nt, n_boundary)
    eps: float
    final_norm: float
    control_norm: float
    iterations: int
    cost: float
    converged: bool
    phi_T: np.ndarray
    phi_0: np.ndarray  # PhiHat(0), the adjoint state at t = 0
    final_state: np.ndarray
    true_residual: float  # ||U(T) - eps PhiHat_T||_M / ||b||_M


@dataclass
class NullControlReport:
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
    _, bound = prop.backward_boundary(PhiT)
    trace = _theta_levels(bound, prop.theta)
    return prop.forward_final(np.zeros(prop.sys.ndof), BoundarySignal(trace))


def _ritz_iterate(V, betas, pivots, rhs):
    """x = V_k y with (T_k + s I) y = e_1 ||b||_M, where k = len(pivots).

    pivots holds D and rhs holds L^{-1} e_1 ||b||_M of the factorization
    T_k + s I = L D L^T, whose unit lower bidiagonal L has l_j =
    betas[j-1] / pivots[j-1] below the diagonal; this is the back
    substitution L^T y = D^{-1} rhs.  At k = 0 it is x = 0.
    """
    k = len(pivots)
    y = np.empty(k)
    for j in reversed(range(k)):
        y[j] = rhs[j] / pivots[j]
        if j + 1 < k:
            y[j] -= betas[j] / pivots[j] * y[j + 1]
    return y @ V[:k]


class _Lanczos:
    """Lanczos with full reorthogonalization in the M inner product, grown on demand.

    The basis of the Krylov space of an M-self-adjoint operator A = apply_op
    from b, which ``solve`` reads to solve (A + s I) x = b for any shift s
    that makes A + s I SPD.  V_k starts from b / ||b||_M; each new vector
    A v_k is made M-orthogonal to every kept vector by two classical
    Gram-Schmidt passes (Simon, Math. Comp. 42, 1984), which keeps the
    Lanczos matrix T_k free of the spurious copies of converged Ritz values
    that a short recurrence picks up.  T_k is tridiagonal: alpha_k is the
    projection of A v_k on v_k, beta_{k+1} the M-norm of what is left.

    The basis grows by one apply of A at a time, only when a solve asks for
    its next vector, and never depends on the shift, so a solve returns the
    same bits whatever was solved before it.  After k steps the basis holds
    at most k + 1 vectors, (k + 1) * ndof * 8 bytes, in a buffer that
    doubles as it fills and is never larger than min(maxit, ndof) vectors.
    """

    def __init__(self, sys, apply_op, b, maxit):
        self.sys, self.apply_op, self.b = sys, apply_op, b
        self.bnorm = norm_X2(sys, b)
        self.limit = min(maxit, b.size)
        self.V = (b / self.bnorm)[np.newaxis] if self.bnorm > 0.0 else None
        self.alphas, self.betas = [], []

    def _step(self):
        """Apply A to the newest vector: alpha_k, beta_{k+1} and, past them, v_{k+1}."""
        k = len(self.alphas) + 1
        Vk = self.V[:k]
        w = self.apply_op(Vk[-1])
        alpha = 0.0
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = Vk @ (self.sys.M_diag * w)
            w = w - h @ Vk
            alpha += float(h[-1])
        beta = norm_X2(self.sys, w)
        self.alphas.append(alpha)
        self.betas.append(beta)
        if np.isfinite(alpha) and np.isfinite(beta) and 0.0 < beta and k < self.limit:
            if k == len(self.V):
                grown = np.empty((min(2 * k, self.limit), self.b.size))
                grown[:k] = self.V
                self.V = grown
            self.V[k] = w / beta

    def solve(self, shift, tol):
        """(x, iterations, converged) of (A + shift I) x = b.

        y = (T_k + s I)^{-1} e_1 ||b||_M is updated through the pivots of
        T_k + s I = L D L^T, and the solve stops at the first k with
        beta_{k+1} |e_k^T y| <= tol ||b||_M: in exact arithmetic that is the
        residual of the k-th CG iterate, so this is plain CG's stopping rule
        and iterate.  It stops unconverged at its last good iterate (x = 0
        at k = 0) when T_k + s I has a pivot that is not positive and
        finite or alpha_k or beta_{k+1} is not finite, and at the current
        iterate at maxit, when the basis has ndof vectors, or when
        beta_{k+1} is 0.  x is a new array on every call.
        """
        if self.bnorm == 0.0:
            return np.zeros_like(self.b), 0, True
        alphas, betas = self.alphas, self.betas
        pivots, rhs = [], []
        for k in range(1, self.limit + 1):
            if k > len(alphas):
                self._step()
            alpha, beta = alphas[k - 1], betas[k - 1]
            if not (np.isfinite(alpha) and np.isfinite(beta)):
                return _ritz_iterate(self.V, betas, pivots, rhs), k - 1, False
            if k == 1:
                pivot, z = alpha + shift, self.bnorm
            else:
                lower = betas[k - 2] / pivots[-1]
                pivot, z = alpha + shift - lower * betas[k - 2], -lower * rhs[-1]
            if not (np.isfinite(pivot) and pivot > 0.0):
                return _ritz_iterate(self.V, betas, pivots, rhs), k - 1, False
            pivots.append(pivot)
            rhs.append(z)
            if beta * abs(z / pivot) <= tol * self.bnorm:
                return _ritz_iterate(self.V, betas, pivots, rhs), k, True
            if beta == 0.0:
                break
        return _ritz_iterate(self.V, betas, pivots, rhs), len(pivots), False


def synthesize_control(problem: ControlProblem, eps: float) -> ControlResult:
    """Penalized null-control synthesis for one eps on problem.

    PhiHat_T solves (Lambda + eps I) PhiHat_T = e^{T A} U0 in the M inner
    product on problem's Krylov basis, stopped at the first iteration whose
    CG residual is within cg_tol of ||b||_M; the basis grows only as far as
    this eps needs beyond what earlier calls grew, and the result does not
    depend on them.

    The control g = -phi_G and PhiHat(0) come from one backward solve of
    PhiHat_T, and the controlled forward run records the achieved final state
    U(T) = eps PhiHat_T and its norm.  The reported cost is the penalized
    objective 0.5 ||g||^2 + (1 / 2 eps) ||U(T)||_M^2, which g minimizes;
    the module docstring states what that implies across a ladder.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    krylov, prop, sys = problem._krylov, problem._prop, problem.sys
    phi_T, iterations, converged = krylov.solve(eps, problem.cg_tol)
    if iterations == 0:
        g_vals = np.zeros((problem.nt, sys.n_boundary))
        phi_0 = np.zeros(sys.ndof)
        final_state = krylov.b.copy()
    else:
        phi_0, bound = prop.backward_boundary(phi_T)
        g_vals = -_theta_levels(bound, prop.theta)
        final_state = prop.forward_final(problem.U0, BoundarySignal(g_vals))

    final_norm = norm_X2(sys, final_state)
    control_norm = signal_norm_L2(sys, g_vals, prop.dt)
    cost = 0.5 * control_norm**2 + final_norm**2 / (2.0 * eps)
    true_residual = (
        norm_X2(sys, final_state - eps * phi_T) / krylov.bnorm
        if krylov.bnorm > 0.0 else 0.0
    )
    return ControlResult(
        g=BoundarySignal(g_vals),
        eps=eps,
        final_norm=final_norm,
        control_norm=control_norm,
        iterations=iterations,
        cost=cost,
        converged=converged,
        phi_T=phi_T,
        phi_0=phi_0,
        final_state=final_state,
        true_residual=true_residual,
    )


def verify_null(problem: ControlProblem, result: ControlResult) -> NullControlReport:
    """Checks of a synthesized control on problem.sys.

    Re-runs the forward solve at doubled nt with the control interpolated in
    time and reports both final norms; that is the one independent solve.
    On the synthesis grid a re-run would reproduce result.final_state and
    result.phi_0 bit for bit, so the two identities are checked on them: the
    duality identity of the controlled run, whose boundary term is -||g||^2
    because g = -phi_G,

        | <U(T), PhiHat_T>_M - <U0, PhiHat(0)>_M + ||g||^2 |,

    and the first-order optimality of the penalized problem,

        | ||g||^2 + eps ||PhiHat_T||_M^2 - <U0, PhiHat(0)>_M |,

    which is bounded by the Krylov-solve residual.
    """
    sys, U0 = problem.sys, problem.U0
    T, nt, theta, eps = problem.T, problem.nt, problem.theta, result.eps

    fine_nt = 2 * nt
    fine_times = control_sample_times(T, fine_nt, theta)
    coarse_times = control_sample_times(T, nt, theta)
    fine_vals = np.empty((fine_nt, sys.n_boundary))
    for j in range(sys.n_boundary):
        fine_vals[:, j] = np.interp(
            fine_times, coarse_times, result.g.values[:, j]
        )
    fine = Propagator(sys, T, fine_nt, theta).forward_final(
        U0, BoundarySignal(fine_vals)
    )
    refined_norm = norm_X2(sys, fine)

    control_sq = signal_norm_L2(sys, result.g.values, T / nt) ** 2
    phi_norm_sq = inner_X2(sys, result.phi_T, result.phi_T)
    pairing = inner_X2(sys, U0, result.phi_0)
    final_pairing = inner_X2(sys, result.final_state, result.phi_T)
    dres = abs(final_pairing - pairing + control_sq)
    opt_res = abs(control_sq + eps * phi_norm_sq - pairing)
    u0n = norm_X2(sys, U0)
    scale = max(u0n**2, u0n * np.sqrt(phi_norm_sq), 1e-300)
    return NullControlReport(
        final_norm_refined=refined_norm,
        duality_residual=dres,
        optimality_residual=opt_res,
        optimality_scale=scale,
    )
