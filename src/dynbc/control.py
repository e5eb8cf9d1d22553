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
Propagator).  A ladder of penalties shares Lambda and the right-hand side,
so a ``ControlLadder`` solves every rung in one Krylov space by multi-shift
CG: the smallest eps is the seed, whose search direction gets the one
Gramian apply per iteration, and every rung, the seed included, follows one
rule: it tracks its residual as a scalar multiple zeta of the seed's and
stops at the first iteration where that residual is within cg_tol of
||b||_M.  The seed's zeta stays exactly 1, so its rung is bit for bit the
plain CG of its eps alone; the others agree with theirs to the CG tolerance.
``synthesize_ladder`` runs ``synthesize_control`` on every rung of one
ladder; the first call makes the shared solve.

The control is the negated theta-level adjoint trace, g = -phi_G, and
drives the state to exactly U(T) = eps PhiHat_T, up to the
conjugate-gradient residual; at optimality the discrete analog of the
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
    "ControlLadder",
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


@dataclass(eq=False)  # identity equality: rungs with equal shifts stay distinct
class _Rung:
    """Iterate of one shift, carried by the seed's Krylov space.

    Its residual is zeta times the seed's residual; zeta_old is the value one
    iteration earlier.
    """

    offset: float  # shift minus the seed's shift, >= 0
    x: np.ndarray
    p: np.ndarray
    zeta: float = 1.0
    zeta_old: float = 1.0
    iterations: int = 0
    converged: bool = False


def _cg_in_M(sys, apply_op, b, shifts, tol, maxit):
    """Multi-shift conjugate gradients in the M inner product.

    Solves (A + s I) x_s = b for every s in shifts, where A = apply_op is
    M-self-adjoint and A + s I is SPD, in one Krylov space (Jegerlehner,
    arXiv:hep-lat/9612014).  The seed is the smallest shift: its search
    direction gets the one apply of A per iteration, q = A p + s_min p.
    Every shift, the seed included, is a rung with one rule: its residual is
    r_s = zeta_s r, its iterate moves along its own direction, and it freezes
    at the first iteration where |zeta_s| ||r||_M <= tol ||b||_M.  For the
    seed the offset is 0 and zeta_old = zeta = 1, so the zeta denominator is
    exactly alpha_old, zeta stays exactly 1.0, and the rung's updates are
    plain CG's bit for bit.

    Returns one (x, iterations, converged) per entry of shifts, in order,
    each with its own x (a repeated shift is its own rung, with the same
    bits).  The solve ends when the seed's rung freezes; rungs still
    iterating then stop unconverged.  So does a seed curvature <p, q>_M that
    is not positive and finite (the operator is not SPD on the Krylov
    space), at the last iterate; a zeta denominator that is zero or not
    finite stops its rung alone the same way.
    """
    r = b.copy()
    rho = inner_X2(sys, r, r)
    bnorm = np.sqrt(rho)
    if bnorm == 0.0:
        return [(np.zeros_like(b), 0, True) for _ in shifts]
    s_min = min(shifts)
    rungs = [_Rung(s - s_min, np.zeros_like(b), b.copy()) for s in shifts]
    seed = rungs[shifts.index(s_min)]
    active = list(rungs)
    alpha_old, beta_old = 1.0, 0.0
    stopped_at = maxit
    for k in range(1, maxit + 1):
        q = apply_op(seed.p) + s_min * seed.p
        curvature = inner_X2(sys, seed.p, q)
        if not (np.isfinite(curvature) and curvature > 0.0):
            stopped_at = k - 1
            break
        alpha = rho / curvature
        r -= alpha * q
        rho_new = inner_X2(sys, r, r)
        rnorm = np.sqrt(rho_new)
        beta = rho_new / rho
        for rung in list(active):
            # 1 / zeta is the seed's residual polynomial at -offset; this is
            # its three-term recurrence, positive for an SPD seed
            den = alpha_old * rung.zeta_old * (1.0 + alpha * rung.offset) + (
                alpha * beta_old * (rung.zeta_old - rung.zeta)
            )
            if not (np.isfinite(den) and den != 0.0):
                rung.iterations = k - 1
                active.remove(rung)
                continue
            zeta = rung.zeta * rung.zeta_old * alpha_old / den
            rung.x += (alpha * zeta / rung.zeta) * rung.p
            if abs(zeta) * rnorm <= tol * bnorm:
                rung.iterations, rung.converged = k, True
                active.remove(rung)
                continue
            rung.p = zeta * r + ((zeta / rung.zeta) ** 2 * beta) * rung.p
            rung.zeta_old, rung.zeta = rung.zeta, zeta
        if seed not in active:
            stopped_at = k
            break
        rho = rho_new
        alpha_old, beta_old = alpha, beta
    for rung in active:
        rung.iterations = stopped_at
    return [(rung.x, rung.iterations, rung.converged) for rung in rungs]


class ControlLadder:
    """Control problems that differ only in eps, solved in one Krylov space.

    The problems are checked on construction: ValueError when there are
    none, or when any two differ in sys, U0, T, nt, theta, cg_tol or
    cg_maxit.  The shared work, one Propagator, the right-hand side
    b = e^{T A} U0 and one multi-shift CG over every distinct eps, runs once,
    in the first ``synthesize_control(problem, ladder=...)`` call, and the
    later calls only finish their rung from it.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        if not self.problems:
            raise ValueError("need at least one control problem")
        for other in self.problems[1:]:
            self._check(other)
        self._shared = None

    def _check(self, problem: ControlProblem) -> None:
        first = self.problems[0]
        same = (
            problem.sys is first.sys
            and np.array_equal(problem.U0, first.U0)
            and (problem.T, problem.nt, problem.theta, problem.cg_tol, problem.cg_maxit)
            == (first.T, first.nt, first.theta, first.cg_tol, first.cg_maxit)
        )
        if not same:
            raise ValueError("a control ladder's problems may differ only in eps")

    def _rung(self, problem: ControlProblem):
        """(Propagator, b, PhiHat_T, iterations, converged) of problem's eps.

        PhiHat_T is a fresh array on every call, so results never share it.
        """
        self._check(problem)
        eps_list = list(dict.fromkeys(p.eps for p in self.problems))
        if problem.eps not in eps_list:
            raise ValueError(f"eps={problem.eps} is not a rung of this ladder")
        if self._shared is None:
            first = self.problems[0]
            prop = Propagator(first.sys, first.T, first.nt, first.theta)
            b = prop.forward_final(np.asarray(first.U0, dtype=float), None)
            solved = _cg_in_M(
                first.sys,
                lambda v: gramian_apply(prop, v),
                b,
                eps_list,
                first.cg_tol,
                first.cg_maxit,
            )
            self._shared = (prop, b, dict(zip(eps_list, solved)))
        prop, b, solved = self._shared
        phi_T, iterations, converged = solved[problem.eps]
        return prop, b, phi_T.copy(), iterations, converged


def synthesize_control(
    problem: ControlProblem, *, ladder: ControlLadder | None = None
) -> ControlResult:
    """Penalized null-control synthesis for one eps.

    PhiHat_T solves (Lambda + eps I) PhiHat_T = e^{T A} U0 by CG in the M
    inner product.  Alone, that is plain CG on this eps.  With a ladder that
    holds a problem equal to this one but for eps (ValueError otherwise),
    PhiHat_T is this eps's rung of the ladder's one multi-shift CG, seeded
    by the ladder's smallest eps: the seed rung is bit for bit the plain CG
    of its eps alone, and every other rung stops at the first iteration
    where its own residual, |zeta| times the seed's, is within cg_tol of
    ||b||_M, so it matches its own CG to that tolerance, not in the last
    bits.

    The control g = -phi_G and PhiHat(0) come from one backward solve of
    PhiHat_T, and the controlled forward run records the achieved final state
    U(T) = eps PhiHat_T and its norm.  The reported cost is the penalized
    objective 0.5 ||g||^2 + (1 / 2 eps) ||U(T)||_M^2, which g minimizes;
    the module docstring states what that implies across a ladder.
    """
    if ladder is None:
        ladder = ControlLadder([problem])
    prop, b, phi_T, iterations, converged = ladder._rung(problem)
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
    back in their order, and eps need not be sorted or distinct.  One
    ``ControlLadder`` holds them, so every rung comes from one multi-shift
    CG with one Gramian apply per iteration of the smallest eps; each result
    is ``synthesize_control(problem, ladder=...)``.
    """
    ladder = ControlLadder(problems)
    return [synthesize_control(problem, ladder=ladder) for problem in ladder.problems]


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

    which is bounded by the conjugate-gradient residual.
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
