"""Time integration of the forward and backward (adjoint) systems.

The forward system is stepped with the theta-scheme

    (M + theta dt K) U^{n+1} = (M - (1 - theta) dt K) U^n + dt B g_hat^n,

with theta = 0.5 (Crank-Nicolson) or 1 (implicit Euler).  M is lumped, so
the right-hand matrix is M / theta - ((1 - theta) / theta) A with
A = M + theta dt K, and a step is one solve with the band Cholesky factor
of A (``assembly.BandCholesky``) and no sparse product.  A ``Propagator``
holds that factor for one uniform time grid, so every solve on the grid
shares one factorization; ``solve_forward`` and ``solve_backward`` build a
Propagator per call.  Every solve runs one stepping loop, ``Propagator._levels``,
and only ``_backward_levels`` reads its levels as adjoint times; ``_march``
keeps their rows by time index.  ``Propagator.backward_boundary`` steps many
final data at once as the columns of one block, one multi-column solve per
step, and keeps only the boundary rows of each level; the Gramian and the
control synthesis read the adjoint through it.

Since M and K are symmetric, the one-step propagator
S = (M + theta dt K)^{-1} (M - (1-theta) dt K) is self-adjoint in the M
inner product, so the backward solve is the unforced march read on the
reversed time index (level j is Phi^(nt - j)) and is the exact transpose
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

from .assembly import BandCholesky, DiscreteSystem, inner_X2, norm_X2

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

    Factors A = M + theta dt K once (``BandCholesky``); every forward and
    backward solve on this grid reuses the factor and the diagonal of M.
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
        self.factor = BandCholesky(sys.M + self.theta * self.dt * sys.K)

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

        X is one state (ndof,) or a block (ndof, k) stepped as one:
        X^{n+1} = A^{-1} (M X^n / theta + dt B g_hat^n) - ((1 - theta) / theta) X^n,
        with dt B g_hat^n added to the boundary rows as dt (m_surf g_hat^n).
        A level is solved only when it is asked for, so a caller that stops
        early makes none of the remaining solves, and X is not held past the
        first.  Each level after X is a new array in the layout its solve
        computes in (``BandCholesky``): Fortran order from ``dpbtrs``,
        row-major from the level-3 path; no level is converted.  A step
        allocates one array, its right-hand side, and solves in it; the
        lagged term is formed in one scratch array kept for the march.
        """
        cur = np.asarray(X)
        del X
        yield cur
        mass = np.expand_dims(self.sys.M_diag / self.theta, tuple(range(1, cur.ndim)))
        source = None if ghat is None else self.dt * (self.sys.m_surf * ghat)
        lagged = None
        for n in range(self.nt):
            rhs = mass * cur
            if source is not None:
                rhs[self.sys.boundary_nodes] += source[n]
            nxt = self.factor._solve_in_place(rhs)
            if lagged is None:  # in the layout of the solved levels, not X's
                lagged = np.empty_like(nxt)
            nxt -= np.multiply((1.0 - self.theta) / self.theta, cur, out=lagged)
            yield (cur := nxt)

    def _backward_levels(self, PhiT: np.ndarray):
        """Yield (n, Phi^n) for n = nt down to 0: level nt - n of ``_levels(PhiT)``."""
        return zip(range(self.nt, -1, -1), self._levels(PhiT))

    def _march(self, levels, rows) -> tuple[np.ndarray, np.ndarray]:
        """(last, kept): the last of the (n, level) pairs levels yields for each
        n = 0 .. nt, and kept[n] = rows of level n.  rows is slice(None) for a
        trajectory, the boundary nodes for a trace, slice(0) for nothing.
        """
        kept = None
        for n, cur in levels:
            if kept is None:
                kept = np.empty((self.nt + 1,) + cur[rows].shape)
            kept[n] = cur[rows]
        return cur, kept

    def forward(self, U0: np.ndarray, g) -> Trajectory:
        """Integrate the controlled system from U0 over [0, T]."""
        ghat = _step_sources(self.sys, g, self.nt, self.theta)
        levels = enumerate(self._levels(self._state(U0, "U0"), ghat))
        return self._trajectory(self._march(levels, slice(None))[1])

    def forward_final(self, U0: np.ndarray, g) -> np.ndarray:
        """The state at T of ``forward(U0, g)``, storing no trajectory."""
        ghat = _step_sources(self.sys, g, self.nt, self.theta)
        levels = enumerate(self._levels(self._state(U0, "U0"), ghat))
        return self._march(levels, slice(0))[0]

    def backward(self, PhiT: np.ndarray) -> Trajectory:
        """Integrate the adjoint system backward from final data PhiT.

        Returns the trajectory stored forward-indexed: states[n] is the
        adjoint state at t_n, states[-1] = PhiT.  The step is the transpose
        of the forward step, so the duality identity holds exactly.
        """
        levels = self._backward_levels(self._state(PhiT, "PhiT"))
        return self._trajectory(self._march(levels, slice(None))[1])

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
        return self._march(self._backward_levels(PhiT), self.sys.boundary_nodes)


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
    # K V = M V diag(w) with V^T M V = I
    w, V = sla.eigh(sys.K.toarray(), sys.M.toarray())

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

    Numbers are written as ``%.17g``, byte for byte what ``f"{v:.17g}"``
    gives.  Zeros and the values with 1e-280 <= |v| < 1e16 are formatted in
    bulk by ``_format_fields``.  With E = floor(log10|v|), corrected once
    (log10 can be one off next to a power of ten), Dekker's error-free
    product gives p + e = |v| 10**(16 - E) with no rounding while
    16 - E <= 22 (10**0 .. 10**22 are exact doubles), that is for
    |v| >= 1e-6.  There p >= 2**53 is an even integer, so
    ``int(p) + rint(e)`` is the 17-digit integer rounded half to even, as
    ``%.17g`` rounds it.  Below 1e-6 the power is a sum of two doubles and
    p + e is within 4.3e-15 of |v| 10**(16 - E), so the rounding is exact
    unless the fraction of p + e is within 1e-14 of one half.  The layout
    (fixed notation for E >= -4, exponent notation below) comes from a table
    indexed by sign, E and the number of digits left after the trailing
    zeros.  Times, and the values left (nan, inf, subnormals, other values
    outside that range, those near-ties, and any value still out of range
    after the correction), are formatted by Python itself, in one pass per
    block.  Rows are built about ``_CSV_BLOCK`` values at a time (part of a
    level, or several whole levels) as one byte array with NUL wherever a
    row has no character; the NULs are deleted and the block's bytes are
    written to the binary file as they are before the next block is built,
    so memory does not grow with the number of time levels.
    """
    values = np.asarray(values, dtype=np.float64)
    ncols = values.shape[1]
    stamps = [f"{t:.17g}" for t in times]
    stamps = _nul_padded(stamps, max(map(len, stamps), default=1))
    ids = _nul_padded((f",{i}," for i in range(ncols)), len(str(ncols)) + 2)
    start = stamps.shape[1] + ids.shape[1]
    levels = max(1, _CSV_BLOCK // max(ncols, 1))  # whole levels per block
    with open(path, "wb") as fh:
        head = "".join(f"# {line}\n" for line in header_lines) + columns + "\n"
        fh.write(head.encode())
        for n in range(0, len(values), levels):
            for lo in range(0, ncols, _CSV_BLOCK):
                block = values[n : n + levels, lo : lo + _CSV_BLOCK]
                fields = _format_fields(block.ravel())
                rows = np.empty((block.size, start + _FIELD), np.uint8)
                grid = rows.reshape(block.shape + (-1,))
                grid[..., : stamps.shape[1]] = stamps[n : n + levels, None]
                grid[..., stamps.shape[1] : start] = ids[lo : lo + block.shape[1]]
                rows[:, start:] = fields
                fh.write(rows.tobytes().translate(None, b"\0"))


def _nul_padded(texts, width: int) -> np.ndarray:
    """ASCII texts as the rows of a (len, width) uint8 array, NUL after each."""
    padded = np.fromiter((t.encode() for t in texts), f"S{width}")
    return padded.view(np.uint8).reshape(-1, width)


# The %.17g field of one value: its characters at fixed columns, NUL where it
# has none.  Column 0 holds the sign, 1-5 "0.000" (fixed notation below 1),
# 6 the leading digit d0, 8-39 the digits d1..d16 at the even columns, with a
# dot slot after every digit, 40-44 "e-XX" or "e-XXX" and 45 the newline.
# Fields are built in rows of _FIELD_ROW bytes, where d1..d16 are the 2nd to
# 5th uint64 and the exponent and newline the 6th.
_FIELD, _FIELD_ROW = 46, 48
_CSV_BLOCK = 4096
_E_MIN, _E_MAX = -280, 15  # decimal exponents of 1e-280 <= |v| < 1e16
_E_FIXED = -4  # %.17g writes E >= -4 in fixed notation
# 10**k as _P10 + _P10_TAIL, both doubles, for every shift 16 - E can take
# before its correction; the tail is 0 for k <= 22, where 10**k is a double
_P10 = np.array([float(10**k) for k in range(18 - _E_MIN)])
_P10_TAIL = np.array([float(10**k - int(p)) for k, p in enumerate(_P10)])
_SPLITTER = 2.0**27 + 1.0  # Veltkamp: splits a double into two 26-bit halves
_P10_HI = _SPLITTER * _P10 - (_SPLITTER * _P10 - _P10)
_P10_LO = _P10 - _P10_HI
_TIE_GAP = 1e-14  # above the 4.3e-15 error of p + e where the tail is not 0


def _quad_tables() -> tuple[np.ndarray, np.ndarray]:
    """Per 4-digit group q: its characters at every other byte of a uint64,
    and, for group k of d1..d16, the digit count of a value whose last
    nonzero digit is in q (0 when q == 0)."""
    q = np.arange(10000, dtype=np.int16)
    chars = np.zeros((q.size, 8), np.uint8)
    for k in range(4):
        chars[:, 2 * k] = ord("0") + q // 10 ** (3 - k) % 10
    trailing = (q % 10 == 0).astype(np.uint8) + (q % 100 == 0) + (q % 1000 == 0)
    nsig = np.where(q > 0, 5 - trailing + 4 * np.arange(4, dtype=np.uint8)[:, None], 0)
    return chars.view(np.uint64)[:, 0], nsig.astype(np.uint8)


def _field_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed characters and digit mask of columns 0-39 of the field per
    (sign, max(E, _E_FIXED - 1), digits), and its 6th uint64 (exponent and
    newline) per E."""
    chars = np.zeros((2, _E_MAX - _E_FIXED + 2, 17, _FIELD_ROW), np.uint8)
    mask = np.zeros_like(chars)
    for E in range(_E_FIXED - 1, _E_MAX + 1):
        for nsig in range(1, 18):
            c = chars[0, E - _E_FIXED + 1, nsig - 1]
            dot = max(E, 0)
            if _E_FIXED <= E < 0:
                c[1 : 2 - E] = np.frombuffer(b"0." + b"0" * (-1 - E), np.uint8)
                dot = None
            if dot is not None and nsig > dot + 1:
                c[7 + 2 * dot] = ord(".")
            mask[:, E - _E_FIXED + 1, nsig - 1, 6 : 6 + 2 * max(nsig, E + 1) : 2] = 255
    chars[1] = chars[0]
    chars[1, ..., 0] = ord("-")
    tails = np.zeros((_E_MAX - _E_MIN + 1, 8), np.uint8)
    for E in range(_E_MIN, _E_MAX + 1):
        if E < _E_FIXED:
            tails[E - _E_MIN, : 4 + (E <= -100)] = np.frombuffer(b"e-%02d" % -E, np.uint8)
        tails[E - _E_MIN, _FIELD - 1 - 40] = ord("\n")
    return chars.reshape(-1, _FIELD_ROW), mask.reshape(-1, _FIELD_ROW), tails.view(np.uint64)[:, 0]


_QUAD_CHARS, _QUAD_NSIG = _quad_tables()
_FIELD_CHARS, _FIELD_MASK, _FIELD_TAILS = _field_tables()


def _scaled(a: np.ndarray, shift: np.ndarray):
    """p + e == a * 10**shift, exactly (Dekker) where shift <= 22 and within
    4.3e-15 elsewhere, and off = -1, 0 or 1 as it lies below, in or above
    [1e16, 1e17)."""
    p = a * np.take(_P10, shift)
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    sh, sl = np.take(_P10_HI, shift), np.take(_P10_LO, shift)
    e = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    # a * tail (under 11.2) rounds by under 1.3e-15, a times the rounding of
    # the tail itself is under 1.3e-15 and the sum rounds by under 1.8e-15
    e += a * np.take(_P10_TAIL, shift)
    # exact signs: p - 1e16 is exact wherever it can be small against e
    return p, e, ((p - 1e17) + e >= 0) * 1 - ((p - 1e16) + e < 0)


def _decimal(x: np.ndarray):
    """(d, E, fast): |x| rounded to 17 digits is d * 10**(E - 16) wherever
    fast, which is where x == 0 or 1e-280 <= |x| < 1e16, bar near-ties."""
    a = np.abs(x)
    zero = a == 0
    fast = (a >= 10.0**_E_MIN) & (a < 1e16)
    a[~fast] = 1.0  # keeps the arithmetic finite; d, E of a zero are 0, 0
    shift = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, e, off = _scaled(a, shift)
    if off.any():  # log10 is one off next to a power of ten
        shift -= off
        p, e, off = _scaled(a, shift)
        fast &= off == 0
    r = np.rint(e)
    d = p.astype(np.int64) + r.astype(np.int64)
    # where p + e is not exact, a fraction within _TIE_GAP of one half may
    # round either way; a d of 10**17 (rounded up into the next decade) has
    # 18 digits; E can be _E_MIN - 1 next to 10**_E_MIN
    fast &= ((np.abs(np.abs(e - r) - 0.5) > _TIE_GAP) | (shift <= 22)) & (d < 10**17)
    fast &= shift <= 16 - _E_MIN
    d[zero] = 0
    return d, 16 - shift, fast | zero


def _format_fields(x: np.ndarray) -> np.ndarray:
    """The %.17g field of each x[k], shape (x.size, _FIELD)."""
    d, E, fast = _decimal(x)
    E[~fast] = 0  # any layout with the newline: these fields are redone below
    hi = d // 10**8
    lead = hi // 10**8
    quads = []
    for eight in (hi - lead * 10**8, d - hi * 10**8):
        upper = eight // 10**4
        quads += [upper, eight - upper * 10**4]
    field = np.empty((x.size, _FIELD_ROW), np.uint8)
    words = field.view(np.uint64)
    nsig = np.ones(x.size, np.uint8)
    for j, q in enumerate(quads):
        words[:, 1 + j] = np.take(_QUAD_CHARS, q)
        np.maximum(nsig, np.take(_QUAD_NSIG[j], q), out=nsig)
    field[:, 6] = lead + ord("0")
    layout = np.maximum(E, _E_FIXED - 1) - _E_FIXED + 1
    key = (np.signbit(x) * (_E_MAX - _E_FIXED + 2) + layout) * 17 + nsig - 1
    field &= np.take(_FIELD_MASK, key, axis=0)
    field |= np.take(_FIELD_CHARS, key, axis=0)
    words[:, 5] = np.take(_FIELD_TAILS, E - _E_MIN)
    slow = np.flatnonzero(~fast)
    if slow.size:
        texts = (f"{v:.17g}" for v in x[slow].tolist())
        field[slow, : _FIELD - 1] = _nul_padded(texts, _FIELD - 1)
    return field[:, :_FIELD]
