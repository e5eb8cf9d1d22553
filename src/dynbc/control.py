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
one factored Propagator).  A ladder of penalties shares Lambda and the
right-hand side, and the Krylov basis does not depend on the shift, so
``synthesize_ladder`` solves every rung in one basis with one Gramian apply
per iteration: each rung solves its own small tridiagonal system and stops
at the first iteration where its residual is within cg_tol of ||b||_M, and
is bit for bit the solve of its eps alone.  ``synthesize_control`` is a
ladder of one.

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

import numpy as np

from .assembly import DiscreteSystem, inner_X2, norm_X2
from .evolution import BoundarySignal, Propagator, _theta_levels

__all__ = [
    "ControlProblem",
    "ControlResult",
    "NullControlReport",
    "gramian_apply",
    "synthesize_control",
    "synthesize_ladder",
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
        if self.cg_maxit < 1:
            raise ValueError(f"cg_maxit must be >= 1, got {self.cg_maxit}")


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
    phi_0: np.ndarray  # PhiHat(0), the adjoint state at t = 0
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


def _cg_in_M(sys, apply_op, b, shifts, tol, maxit):
    """Multi-shift Lanczos with full reorthogonalization in the M inner product.

    Solves (A + s I) x_s = b for every s in shifts, where A = apply_op is
    M-self-adjoint and A + s I is SPD, in one Krylov space with one apply
    of A per iteration.  The basis V_k starts from b / ||b||_M; each new
    vector A v_k is made M-orthogonal to every kept vector by two classical
    Gram-Schmidt passes (Simon, Math. Comp. 42, 1984), which keeps the
    Lanczos matrix T_k free of the spurious copies of converged Ritz values
    that a short recurrence picks up.  T_k is tridiagonal: alpha_k is the
    projection of A v_k on v_k, beta_{k+1} the M-norm of what is left.

    Per shift, y_s = (T_k + s I)^{-1} e_1 ||b||_M is updated through the
    pivots of T_k + s I = L D L^T, and the shift stops at the first k with
    beta_{k+1} |e_k^T y_s| <= tol ||b||_M: in exact arithmetic that is the
    residual of the k-th CG iterate, so this is plain CG's stopping rule and
    iterate.  Each shift records where it stopped, and x_s = V_k y_s is
    formed once, after the loop.  The basis does not depend on the shifts,
    so every shift's result is bit for bit the solve of that shift alone.

    Returns one (x, iterations, converged) per entry of shifts, in order,
    each with its own x.  A shift stops unconverged at its last good
    iterate (x = 0 at k = 0) when T_k + s I has a pivot that is not
    positive and finite; every remaining shift stops so when alpha_k or
    the new vector is not finite, and at the current iterate at maxit, when
    the basis has ndof vectors, or when beta_{k+1} is 0.  The basis grows
    with k: after k iterations it holds at most k + 1 vectors,
    (k + 1) * ndof * 8 bytes, in a buffer that doubles as it fills and is
    never larger than ndof vectors.
    """
    bnorm = norm_X2(sys, b)
    if bnorm == 0.0:
        return [(np.zeros_like(b), 0, True) for _ in shifts]
    limit = min(maxit, b.size)
    V = (b / bnorm)[np.newaxis]
    betas = []
    pivots = [[] for _ in shifts]
    rhs = [[] for _ in shifts]
    stop = [None] * len(shifts)  # (iterations, converged) once a shift stops
    for k in range(1, limit + 1):
        Vk = V[:k]
        w = apply_op(Vk[-1])
        alpha = 0.0
        for _ in range(2):  # classical Gram-Schmidt, twice
            h = Vk @ (sys.M_diag * w)
            w = w - h @ Vk
            alpha += float(h[-1])
        beta = norm_X2(sys, w)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            stop = [done or (k - 1, False) for done in stop]
            break
        for i, (d, z) in enumerate(zip(pivots, rhs)):
            if stop[i]:
                continue
            if k == 1:
                d.append(alpha + shifts[i])
                z.append(bnorm)
            else:
                lower = betas[-1] / d[-1]
                d.append(alpha + shifts[i] - lower * betas[-1])
                z.append(-lower * z[-1])
            if not (np.isfinite(d[-1]) and d[-1] > 0.0):
                stop[i] = (k - 1, False)
            elif beta * abs(z[-1] / d[-1]) <= tol * bnorm:
                stop[i] = (k, True)
        if all(stop):
            break
        if k == limit or beta == 0.0:
            stop = [done or (k, False) for done in stop]
            break
        betas.append(beta)
        if k == len(V):
            grown = np.empty((min(2 * k, limit), b.size))
            grown[:k] = V
            V = grown
        V[k] = w / beta
    return [
        (_ritz_iterate(V, betas, d[:iterations], z), iterations, converged)
        for (iterations, converged), d, z in zip(stop, pivots, rhs)
    ]


def _solve_ladder(problems):
    """(Propagator, b, {eps: (PhiHat_T, iterations, converged)}) of a ladder.

    ValueError when there are no problems, or when any two differ in sys,
    U0, T, nt, theta, cg_tol or cg_maxit.  One Propagator, the right-hand
    side b = e^{T A} U0 and one multi-shift Lanczos solve over every
    distinct eps serve every rung.
    """
    if not problems:
        raise ValueError("need at least one control problem")
    first = problems[0]
    key = (first.T, first.nt, first.theta, first.cg_tol, first.cg_maxit)
    for other in problems[1:]:
        if not (
            other.sys is first.sys
            and np.array_equal(other.U0, first.U0)
            and (other.T, other.nt, other.theta, other.cg_tol, other.cg_maxit) == key
        ):
            raise ValueError("a control ladder's problems may differ only in eps")
    prop = Propagator(first.sys, first.T, first.nt, first.theta)
    b = prop.forward_final(np.asarray(first.U0, dtype=float), None)
    eps_list = list(dict.fromkeys(p.eps for p in problems))
    solved = _cg_in_M(
        first.sys,
        lambda v: gramian_apply(prop, v),
        b,
        eps_list,
        first.cg_tol,
        first.cg_maxit,
    )
    return prop, b, dict(zip(eps_list, solved))


def synthesize_control(problem: ControlProblem, *, _ladder=None) -> ControlResult:
    """Penalized null-control synthesis for one eps.

    PhiHat_T solves (Lambda + eps I) PhiHat_T = e^{T A} U0 in the M inner
    product by Lanczos with a fully reorthogonalized basis, stopped at the
    first iteration whose CG residual is within cg_tol of ||b||_M.  The
    result equals ``synthesize_ladder([problem])[0]`` bit for bit.

    The control g = -phi_G and PhiHat(0) come from one backward solve of
    PhiHat_T, and the controlled forward run records the achieved final state
    U(T) = eps PhiHat_T and its norm.  The reported cost is the penalized
    objective 0.5 ||g||^2 + (1 / 2 eps) ||U(T)||_M^2, which g minimizes;
    the module docstring states what that implies across a ladder.

    ``_ladder`` is not API: ``synthesize_ladder`` passes its one solve
    through it, so that each rung is still one call of this function.
    """
    prop, b, solved = _solve_ladder([problem]) if _ladder is None else _ladder
    phi_T, iterations, converged = solved[problem.eps]
    phi_T = phi_T.copy()  # rungs of one eps never share it
    sys, eps = problem.sys, problem.eps
    if iterations == 0:
        g_vals = np.zeros((problem.nt, sys.n_boundary))
        phi_0 = np.zeros(sys.ndof)
        final_state = b.copy()
    else:
        phi_0, bound = prop.backward_boundary(phi_T)
        g_vals = -_theta_levels(bound, prop.theta)
        final_state = prop.forward_final(
            np.asarray(problem.U0, dtype=float), BoundarySignal(g_vals)
        )

    final_norm = norm_X2(sys, final_state)
    control_norm = signal_norm_L2(sys, g_vals, prop.dt)
    cost = 0.5 * control_norm**2 + final_norm**2 / (2.0 * eps)
    b_norm = norm_X2(sys, b)
    true_residual = (
        norm_X2(sys, final_state - eps * phi_T) / b_norm if b_norm > 0.0 else 0.0
    )
    return ControlResult(
        g=BoundarySignal(g_vals),
        g_times=control_sample_times(problem.T, problem.nt, problem.theta),
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


def synthesize_ladder(problems) -> list[ControlResult]:
    """Penalized null-control synthesis for a ladder of penalties.

    The problems may differ only in eps (ValueError otherwise); results come
    back in their order, and eps need not be sorted or distinct.  Every rung
    comes from one multi-shift Lanczos solve with one Gramian apply per
    iteration of the slowest rung, and equals ``synthesize_control(problem)``
    bit for bit.
    """
    problems = list(problems)
    ladder = _solve_ladder(problems)
    return [synthesize_control(problem, _ladder=ladder) for problem in problems]


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
    sys = problem.sys
    U0 = np.asarray(problem.U0, dtype=float)
    T, nt, theta, eps = problem.T, problem.nt, problem.theta, problem.eps

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

    control_sq = signal_norm_L2(sys, result.g.values, T / nt) ** 2
    phi_norm_sq = inner_X2(sys, result.phi_T, result.phi_T)
    pairing = inner_X2(sys, U0, result.phi_0)
    final_pairing = inner_X2(sys, result.final_state, result.phi_T)
    dres = abs(final_pairing - pairing + control_sq)
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
