"""Time integration of the forward and backward (adjoint) systems.

The forward system is stepped with the theta-scheme

    (M + theta dt K) U^{n+1} = (M - (1 - theta) dt K) U^n + dt B g_hat^n,

with theta = 0.5 (Crank-Nicolson) or 1 (implicit Euler) and the linear
solves done by a sparse LU factorization.  A ``Propagator`` holds that
factorization for one uniform time grid, so every solve on the grid shares
one ``splu``; ``solve_forward`` and ``solve_backward`` build a Propagator
per call.  Every solve runs one stepping loop, ``Propagator._march``.
``Propagator.backward_boundary`` steps many final data at once as the
columns of one block, one multi-column solve per step, and keeps only the
boundary rows of each level; the Gramian, the control synthesis and the
observability estimate read the adjoint through it.

Since M and K are symmetric, the one-step propagator
S = (M + theta dt K)^{-1} (M - (1-theta) dt K) is self-adjoint in the M
inner product, so the backward solve is the unforced march run on the
reversed time index (the kept levels reversed) and is the exact transpose
of the forward step.  The resulting discrete duality identity

    <U^N, Phi^N>_M - <U^0, Phi^0>_M = sum_n dt g_hat^n . B^T Psi^n,
    Psi^n = theta Phi^n + (1 - theta) Phi^{n+1},

holds to roundoff.

Every theta-average theta X^n + (1 - theta) X^{n+1} of consecutive levels
is ``_theta_levels``; a node-sampled source acts at t_n + theta dt, so its
per-step sample is the same rule with weight 1 - theta.

Boundary signals may be sampled at the time nodes (nt + 1 rows; the scheme
uses the theta-average of the endpoint samples of each step) or directly at
the per-step theta-levels (nt rows; used as given).  The second layout is
what the control synthesis produces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .assembly import DiscreteSystem, inner_X2, norm_X2

__all__ = [
    "Trajectory",
    "BoundarySignal",
    "FluxPair",
    "Propagator",
    "solve_forward",
    "solve_backward",
    "duality_residual",
    "duhamel_final",
    "recover_normal_flux",
    "trajectory_to_csv",
    "trajectory_norms",
]

_VALID_THETAS = (0.5, 1.0)
_DENSE_DIM_LIMIT = 200


@dataclass
class Trajectory:
    """States at the uniform time nodes 0 = t_0 < ... < t_N = T."""

    times: np.ndarray
    states: np.ndarray  # (N + 1, ndof)
    theta: float
    dt: float

    @property
    def nt(self) -> int:
        return self.times.shape[0] - 1

    def theta_levels(self) -> np.ndarray:
        """Adjoint-consistent samples theta U^n + (1-theta) U^{n+1}, (nt, ndof)."""
        return _theta_levels(self.states, self.theta)


@dataclass
class BoundarySignal:
    """Per-time, per-boundary-node samples of a boundary source.

    ``values`` has shape (nt + 1, n_boundary) for node samples or
    (nt, n_boundary) for per-step theta-level samples.
    """

    values: np.ndarray


@dataclass
class FluxPair:
    """Two recoveries of the weighted normal flux along a trajectory."""

    variational: np.ndarray  # (N + 1, n_boundary)
    equation: np.ndarray  # (N + 1, n_boundary)
    rel_discrepancy: float


def _theta_levels(levels: np.ndarray, theta: float) -> np.ndarray:
    """theta X^n + (1 - theta) X^{n+1} for each pair of consecutive levels."""
    return theta * levels[:-1] + (1.0 - theta) * levels[1:]


def _step_sources(
    sys: DiscreteSystem, g, nt: int, theta: float
) -> np.ndarray | None:
    """Resolve a boundary signal to per-step samples g_hat^n, shape (nt, nb)."""
    if g is None:
        return None
    vals = g.values if isinstance(g, BoundarySignal) else np.asarray(g, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != sys.n_boundary:
        raise ValueError(
            f"boundary signal must have {sys.n_boundary} columns, "
            f"got shape {vals.shape}"
        )
    if vals.shape[0] == nt + 1:
        return _theta_levels(vals, 1.0 - theta)
    if vals.shape[0] == nt:
        return vals.copy()
    raise ValueError(
        f"boundary signal must have nt={nt} or nt+1={nt + 1} rows, "
        f"got {vals.shape[0]}"
    )


class Propagator:
    """The theta-scheme step on the uniform grid of nt steps over [0, T].

    Factors M + theta dt K once; every forward and backward solve on this
    grid reuses the factorization and C = M - (1 - theta) dt K.
    """

    def __init__(self, sys: DiscreteSystem, T: float, nt: int, theta: float = 0.5):
        if theta not in _VALID_THETAS:
            raise ValueError(f"theta must be one of {_VALID_THETAS}, got {theta}")
        if nt < 1:
            raise ValueError(f"need nt >= 1 steps, got {nt}")
        if not T > 0:
            raise ValueError(f"need T > 0, got {T}")
        self.sys = sys
        self.T = T
        self.nt = nt
        self.theta = float(theta)
        self.dt = T / nt
        A = (sys.M + self.theta * self.dt * sys.K).tocsc()
        self.C = (sys.M - (1.0 - self.theta) * self.dt * sys.K).tocsr()
        self.lu = spla.splu(A)

    def _state(self, vec, name: str) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.sys.ndof,):
            raise ValueError(
                f"{name} must have shape ({self.sys.ndof},), got {vec.shape}"
            )
        return vec

    def _trajectory(self, states: np.ndarray) -> Trajectory:
        times = np.linspace(0.0, self.T, self.nt + 1)
        return Trajectory(times=times, states=states, theta=self.theta, dt=self.dt)

    def _levels(self, X: np.ndarray, ghat=None):
        """Yield X, then each of the nt levels after it as it is stepped.

        X is one state (ndof,) or a block (ndof, k) stepped as one: per step
        one product with C, plus dt B ghat[n] when there is a source, and one
        solve.  A level is solved only when it is asked for, so a caller that
        stops early makes none of the remaining solves.
        """
        # SuperLU solves column by column, so hand it columns contiguous
        cur = np.asfortranarray(X)
        yield cur
        for n in range(self.nt):
            rhs = self.C @ cur
            if ghat is not None:
                rhs = rhs + self.dt * (self.sys.B @ ghat[n])
            cur = self.lu.solve(rhs)
            yield cur

    def _march(self, X: np.ndarray, ghat, rows) -> tuple[np.ndarray, np.ndarray]:
        """(last, kept): X after nt steps, and kept[n] = rows of level n.

        The levels are those of ``_levels(X, ghat)``.  rows is slice(None)
        for a trajectory, the boundary nodes for a trace, slice(0) for
        nothing; kept is in stepping order.
        """
        levels = self._levels(X, ghat)
        cur = next(levels)
        kept = np.empty((self.nt + 1,) + cur[rows].shape)
        kept[0] = cur[rows]
        for n, cur in enumerate(levels, start=1):
            kept[n] = cur[rows]
        return cur, kept

    def forward(self, U0: np.ndarray, g) -> Trajectory:
        """Integrate the controlled system from U0 over [0, T]."""
        ghat = _step_sources(self.sys, g, self.nt, self.theta)
        _, states = self._march(self._state(U0, "U0"), ghat, slice(None))
        return self._trajectory(states)

    def forward_final(self, U0: np.ndarray, g) -> np.ndarray:
        """The state at T of ``forward(U0, g)``, storing no trajectory."""
        ghat = _step_sources(self.sys, g, self.nt, self.theta)
        return self._march(self._state(U0, "U0"), ghat, slice(0))[0]

    def backward(self, PhiT: np.ndarray) -> Trajectory:
        """Integrate the adjoint system backward from final data PhiT.

        Returns the trajectory stored forward-indexed: states[n] is the
        adjoint state at t_n, states[-1] = PhiT.  The step is the transpose
        of the forward step, so the duality identity holds exactly.
        """
        _, levels = self._march(self._state(PhiT, "PhiT"), None, slice(None))
        return self._trajectory(np.ascontiguousarray(levels[::-1]))

    def backward_boundary(self, PhiT: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Phi(0) and the boundary rows of every level of ``backward(PhiT)``.

        PhiT is one final datum, shape (ndof,), or k of them as the columns
        of an (ndof, k) block, stepped as one (nt multi-column solves).
        Returns (Phi0, bound): Phi0 has the shape of PhiT, and bound[n]
        holds the boundary rows of Phi^n, shape (n_boundary,) or
        (n_boundary, k).  No trajectory is stored.
        """
        PhiT = np.asarray(PhiT, dtype=float)
        ndof = self.sys.ndof
        if PhiT.ndim not in (1, 2) or PhiT.shape[0] != ndof or PhiT.size == 0:
            raise ValueError(
                f"PhiT must have shape ({ndof},) or ({ndof}, k), got {PhiT.shape}"
            )
        phi0, bound = self._march(PhiT, None, self.sys.boundary_nodes)
        return phi0, bound[::-1]


def solve_forward(
    sys: DiscreteSystem,
    U0: np.ndarray,
    g,
    T: float,
    nt: int,
    theta: float = 0.5,
) -> Trajectory:
    """Integrate the controlled system from U0 over [0, T] in nt uniform steps."""
    return Propagator(sys, T, nt, theta).forward(U0, g)


def solve_backward(
    sys: DiscreteSystem,
    PhiT: np.ndarray,
    T: float,
    nt: int,
    theta: float = 0.5,
) -> Trajectory:
    """Integrate the adjoint system backward from final data PhiT.

    Returns the trajectory stored forward-indexed: states[n] is the adjoint
    state at t_n, states[-1] = PhiT.
    """
    return Propagator(sys, T, nt, theta).backward(PhiT)


def duality_residual(
    sys: DiscreteSystem,
    fwd: Trajectory,
    adj: Trajectory,
    g,
) -> float:
    """Absolute defect of the discrete duality identity.

    Returns |<U^N, Phi^N>_M - <U^0, Phi^0>_M - sum_n dt g_hat^n . B^T Psi^n|
    with Psi^n the theta-level adjoint sample.  For matched discretizations
    this is a roundoff-level quantity.
    """
    if fwd.nt != adj.nt or fwd.theta != adj.theta:
        raise ValueError(
            "forward and adjoint trajectories use different discretizations: "
            f"nt {fwd.nt} vs {adj.nt}, theta {fwd.theta} vs {adj.theta}"
        )
    if not np.array_equal(fwd.times, adj.times):
        raise ValueError("forward and adjoint time grids differ")
    ghat = _step_sources(sys, g, fwd.nt, fwd.theta)
    boundary_sum = 0.0
    if ghat is not None:
        psi_b = (sys.B.T @ adj.theta_levels().T).T
        boundary_sum = fwd.dt * float(np.sum(ghat * psi_b))
    lhs = inner_X2(sys, fwd.states[-1], adj.states[-1]) - inner_X2(
        sys, fwd.states[0], adj.states[0]
    )
    return abs(lhs - boundary_sum)


def _dense_propagator(sys: DiscreteSystem):
    """Eigendecomposition of the pencil (K, M): K V = M V diag(w), V^T M V = I."""
    Kd = sys.K.toarray()
    Md = sys.M.toarray()
    w, V = sla.eigh(Kd, Md)
    return w, V


def duhamel_final(
    sys: DiscreteSystem,
    U0: np.ndarray,
    g,
    T: float,
    nt: int,
) -> np.ndarray:
    """Dense variation-of-constants evaluation of the state at time T.

    Computes exp(T A) U0 + integral of exp((T-s) A) M^{-1} B g(s) ds with
    A = -M^{-1} K, using the exact dense propagator (via the generalized
    eigendecomposition of (K, M)) and the midpoint rule with nt panels for
    the source integral.  Intended as an oracle on small systems.

    ``g`` is None (no source) or a callable t -> (n_boundary,) array.
    """
    if sys.ndof > _DENSE_DIM_LIMIT:
        raise ValueError(
            f"dense oracle limited to {_DENSE_DIM_LIMIT} dofs, got {sys.ndof}"
        )
    U0 = np.asarray(U0, dtype=float)
    if T < 0:
        raise ValueError(f"need T >= 0, got {T}")
    if T == 0:
        return U0.copy()
    w, V = _dense_propagator(sys)

    def propagate(tau: float, vec: np.ndarray) -> np.ndarray:
        # exp(tau A) vec = V exp(-tau w) V^T M vec
        return V @ (np.exp(-tau * w) * (V.T @ (sys.M_diag * vec)))

    out = propagate(T, U0)
    if g is None:
        return out

    dt = T / nt
    for k in range(nt):
        s = (k + 0.5) * dt
        src = sys.B @ np.asarray(g(s), dtype=float)
        out += dt * propagate(T - s, src / sys.M_diag)
    return out


def recover_normal_flux(sys: DiscreteSystem, traj: Trajectory) -> FluxPair:
    """Two recoveries of gamma times the normal derivative on the boundary.

    variational: boundary rows of (gamma K_bulk Phi - M_bulk dPhi/dt) divided
        by the surface lumped mass (the weak flux of the interior equation
        phi_t + gamma Laplacian phi = 0).
    equation: dPhi_Gamma/dt + delta Laplace-Beltrami(Phi_Gamma)
        - beta Phi_Gamma, i.e. the flux the boundary equation implies.

    Time derivatives are centered differences (one-sided at the ends), so at
    least three time levels are required.  The relative discrepancy is the
    space-time L2 distance between the two, normalized by the equation
    recovery: 0.0 when both vanish, inf when only the equation recovery
    does, and nan when the states hold a nan.
    """
    if traj.times.shape[0] < 3:
        raise ValueError("flux recovery needs at least 3 time levels")
    states = traj.states
    dt = traj.dt
    bnodes = sys.boundary_nodes

    dstates = np.gradient(states, dt, axis=0)
    # node-major columns: a sparse product sums each entry as per level
    u, du, m_surf = states.T, dstates.T, sys.m_surf[:, None]
    resid = sys.gamma * (sys.K_bulk @ u) - sys.m_bulk[:, None] * du
    lb = -(sys.K_surf @ u)[bnodes] / m_surf
    eqn = du[bnodes] + sys.delta * lb - sys.beta[:, None] * u[bnodes]
    var = np.ascontiguousarray((resid[bnodes] / m_surf).T)
    eqn = np.ascontiguousarray(eqn.T)

    w = sys.m_surf
    diff = np.sqrt(np.sum((var - eqn) ** 2 * w) * dt)
    base = np.sqrt(np.sum(eqn**2 * w) * dt)
    if diff == 0.0 and base == 0.0:
        rel = 0.0
    else:
        # a zero base with a nonzero diff is inf, a nan in the states is nan
        with np.errstate(divide="ignore"):
            rel = diff / base
    return FluxPair(variational=var, equation=eqn, rel_discrepancy=float(rel))


def trajectory_norms(sys: DiscreteSystem, traj: Trajectory) -> np.ndarray:
    """M-norm of the state at each time node."""
    return np.array([norm_X2(sys, s) for s in traj.states])


def trajectory_to_csv(traj: Trajectory, path, header_lines: list[str] | None = None) -> None:
    """Write a trajectory as CSV with columns t, node_id, value."""
    _write_series(path, traj.times, traj.states, "t,node_id,value", header_lines or [])


def _write_series(path, times, values, columns: str, header_lines: list[str]) -> None:
    """Write rows ``t,i,values[n, i]`` for every time level n and column i.

    Numbers are written as ``%.17g`` (what ``f"{v:.17g}"`` gives, nan and
    inf included).  Each time level is formatted by one C-level ``%`` on a
    template built from the column ids once, and written before the next is
    formatted, so memory does not grow with the number of time levels.
    """
    parts = [""] + [f",{i},%.17g\n" for i in range(values.shape[1])]
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write(columns + "\n")
        for t, row in zip(times, values):
            fh.write(f"{t:.17g}".join(parts) % tuple(row.tolist()))
