"""Empirical observability constant and the energy identities behind it.

The observability constant C_T bounds the initial energy of an adjoint
solution by the observed boundary quantity:

    ||Phi(0)||_M^2  <=  C_T  integral over (0,T) x boundary of (beta phi_G)^2.

It is estimated by sampling seeded random final data of unit M-norm
(augmented with the lowest generalized eigenvector of (K, M), the natural
extremal candidate) and taking the largest ratio.  All samples are stepped
backward together as one block on one band Cholesky factor of the step
matrix, and each time level is reduced to the samples' observed-energy
integrands as it is solved, so the estimate holds the (ndof, samples)
block in flight and (nt + 1) x samples integrands.  The per-step discrete
energy identity and a discrete interpolation inequality for the surface
operator are verified separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import DiscreteSystem, _unit_normal_draws, inner_X2, smallest_eigenpair
from .evolution import Propagator, Trajectory

__all__ = [
    "ObservabilityReport",
    "estimate_CT",
    "observation_energy",
    "check_energy_identity",
    "check_interpolation",
]


@dataclass
class ObservabilityReport:
    CT_estimate: float
    samples: int
    T: float
    per_sample: list[tuple[float, float, float]]  # (initial, observed, ratio)


def observation_energy(sys: DiscreteSystem, adj: Trajectory) -> float:
    """Space-time quadrature of (beta phi_G)^2 over the boundary cylinder.

    Trapezoidal in time (the integrand is regular here), lumped in space.
    """
    return _observed_energy(sys, adj.states[:, sys.boundary_nodes], adj.dt)


def _observed_energy(sys: DiscreteSystem, phi_g: np.ndarray, dt: float) -> float:
    """``observation_energy`` from the boundary values phi_g, shape (nt + 1, nb)."""
    return _trapezoid(_boundary_integrand(sys, phi_g), dt)


def _boundary_integrand(sys: DiscreteSystem, phi_g: np.ndarray) -> np.ndarray:
    """Sum over the boundary of (beta phi_g)^2 m_surf for each row of phi_g."""
    return ((sys.beta[None, :] * phi_g) ** 2 * sys.m_surf[None, :]).sum(axis=1)


def _trapezoid(integrand: np.ndarray, dt: float) -> float:
    """Trapezoidal rule in time for samples at the nt + 1 time nodes."""
    wt = np.full(integrand.shape[0], dt)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return float(wt @ integrand)


def estimate_CT(
    sys: DiscreteSystem,
    T: float,
    nt: int,
    samples: int,
    seed: int,
    theta: float = 0.5,
) -> ObservabilityReport:
    """Sampled estimate of the observability constant.

    Each sample pairs ||Phi(0)||_M^2 with the observed boundary energy of
    the backward solve from a unit-M-norm final datum; the first sample is
    the lowest (K, M) eigenvector, the rest are seeded standard normal
    draws.  The samples are stepped as one (ndof, samples) block on one
    band Cholesky factor: nt multi-column solves in all.  The block is
    row-major, the layout of the level-3 solve that steps 32 or more samples
    (``BandCholesky``).  Each level is reduced as it is solved to one
    integrand per sample, the same sums as ``observation_energy``: its
    boundary rows are gathered and each sample's values summed as one
    contiguous row.  The estimate holds the (ndof, samples) block in flight
    and (nt + 1) x samples integrands.
    Requires beta bounded below by a positive constant, otherwise the
    observation can vanish.  Raises RuntimeError when a sample's energy is
    not finite or its observation energy is not positive.
    """
    if sys.beta0 <= 0:
        raise ValueError(
            "observability requires beta >= beta0 > 0 on the boundary; "
            f"got min beta = {sys.beta0}"
        )
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    prop = Propagator(sys, T, nt, theta)
    block = np.empty((sys.ndof, samples))
    block[:, 0] = smallest_eigenpair(sys)[1]
    _unit_normal_draws(sys, np.random.default_rng(seed), block[:, 1:])
    levels = prop._backward_levels(block)
    del block  # the march holds it until its first step
    # phi ends as Phi(0); a contiguous row and column per sample give the
    # sums and the quadrature of observation_energy bit for bit
    integrand = np.empty((nt + 1, samples), order="F")
    for n, phi in levels:
        bound = np.ascontiguousarray(phi[sys.boundary_nodes].T)
        integrand[n] = _boundary_integrand(sys, bound)

    per_sample = []
    for j in range(samples):
        initial = inner_X2(sys, phi[:, j], phi[:, j])
        observed = _trapezoid(integrand[:, j], prop.dt)
        if not (np.isfinite(initial) and np.isfinite(observed)):
            raise RuntimeError(
                f"sample {j}: initial energy {initial} or observation energy "
                f"{observed} is not finite; numerical failure"
            )
        if observed <= 0.0:
            raise RuntimeError(
                "observation energy vanished for a nonzero final datum; "
                "numerical failure"
            )
        per_sample.append((initial, observed, initial / observed))
    ct = max(r for _, _, r in per_sample)
    return ObservabilityReport(
        CT_estimate=float(ct), samples=samples, T=float(T), per_sample=per_sample
    )


def check_energy_identity(sys: DiscreteSystem, adj: Trajectory) -> float:
    """Max relative defect of the per-step discrete energy identity.

    The backward step satisfies M (Phi^{n+1} - Phi^n) = dt K Psi^n with
    Psi^n the theta-level sample, so

        (||Phi^{n+1}||_M^2 - ||Phi^n||_M^2) / (2 dt)  =  Psi^n . K Psi^n

    exactly for theta = 0.5; for theta = 1 the defect is O(dt).  Returns
    max_n |lhs_n - rhs_n| / max(|lhs_n|, |rhs_n|, floor); a step with a
    non-finite state makes the result non-finite.
    """
    if adj.states.shape[0] < 2:
        raise ValueError("energy identity needs at least 2 states")
    energy = np.einsum("ni,i,ni->n", adj.states, sys.M_diag, adj.states)
    lhs = np.diff(energy) / (2.0 * adj.dt)
    psi = adj.theta_levels()
    rhs = np.einsum("ni,in->n", psi, sys.K @ psi.T)
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return float(np.max(np.abs(lhs - rhs) / denom))


def check_interpolation(sys: DiscreteSystem, u: np.ndarray) -> tuple[float, float]:
    """Discrete interpolation inequality for the surface operator.

    For a boundary field u returns (lhs, rhs) with

        lhs = u^T K_surf u,
        rhs = ||u||_{M_G} ||M_G^{-1} K_surf u||_{M_G},

    and lhs <= rhs holds with constant 1 (Cauchy-Schwarz in the surface mass
    inner product); equality at eigenvectors of the surface operator.  Only
    meaningful on 2D meshes with surface diffusion.
    """
    if sys.mesh.dim != 2:
        raise ValueError("the surface operator is trivial on 1D boundaries")
    if not sys.delta > 0:
        raise ValueError("interpolation check requires delta > 0")
    u = np.asarray(u, dtype=float)
    if u.shape != (sys.n_boundary,):
        raise ValueError(
            f"boundary field must have shape ({sys.n_boundary},), got {u.shape}"
        )
    bnodes = sys.boundary_nodes
    full = np.zeros(sys.ndof)
    full[bnodes] = u
    Ku = (sys.K_surf @ full)[bnodes]
    lhs = float(u @ Ku)
    Lu = Ku / sys.m_surf
    norm_u = float(np.sqrt(u @ (sys.m_surf * u)))
    norm_Lu = float(np.sqrt(Lu @ (sys.m_surf * Lu)))
    return lhs, norm_u * norm_Lu
