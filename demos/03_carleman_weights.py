"""Carleman weights and the empirical weighted inequality.

Evaluates the singular-in-time weights on the unit interval, checks the
analytic floor of theta*xi, and runs a small (lambda, R) sweep of the
ratio between the weighted interior energy and the weighted boundary
observation over seeded random adjoint data.  The ratio is the empirical
constant of the inequality; it is recorded, not certified.
"""

import numpy as np

from dynbc import (
    CarlemanParams,
    assemble,
    build_eta,
    build_interval_mesh,
    carleman_sweep,
    pointwise_lambda_floor,
    weight_bounds,
)

mesh = build_interval_mesh(0.0, 1.0, 32)
sys_ = assemble(mesh, gamma=1.0, delta=0.0, beta=1.0)
eta = build_eta(mesh)
print(f"auxiliary field: sup = {eta.sup_norm}, "
      f"normal derivative on the boundary = {eta.boundary_normal_derivative}")

params = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
times = np.linspace(0.0, 1.0, 129)[1:-1]
wb = weight_bounds(params, times)
print(f"min theta on the grid = theta(T/2) = {wb['min_theta']:.4f} "
      f"(analytic minimum 4/T^2 = 4)")
print(f"min theta*xi on the grid  = {wb['min_theta_xi']:.4f} "
      f">= analytic floor {wb['theta_xi_floor_analytic']:.4f}")
print(f"min theta^3 xi^3 exp(-2 R alpha) on [T/4, 3T/4] = "
      f"{wb['min_theta3_xi3_exp_mid']:.4e} (> 0)")
print(f"max theta xi exp(-2 R alpha) on the cylinder   = "
      f"{wb['max_theta_xi_exp']:.4e} (finite)")
print(f"|alpha_t| <= varsigma1 theta^2 xi^2 with varsigma1 = {wb['varsigma1']:.4f}")

floor = pointwise_lambda_floor(eta)
bad = int(np.sum(~np.isfinite(floor)))
print(f"\npointwise lambda bound 2|Lap eta|/|grad eta|^2: unbounded at {bad} node(s) "
      f"(the interior critical point), max finite value "
      f"{floor[np.isfinite(floor)].max():.2f}")

print("\nsweep over (lambda, R), 10 seeded unit-norm samples each:")
grid = [
    CarlemanParams(lam=lam, R=R, m=1.5, T=1.0, eta=eta)
    for lam in (2.0, 3.0)
    for R in (2.0, 4.0, 8.0)
]
sweep = carleman_sweep(sys_, grid, nt=128, theta=0.5, samples=10, seed=42)
print(f"  {'lambda':>7} {'R':>5} {'max ratio':>14}")
for (lam, R), ratio in sweep.max_ratio.items():
    print(f"  {lam:7.1f} {R:5.1f} {ratio:14.4e}")
print("(the empirical constant grows with R for fixed data; the damping is "
      "strongest on the boundary, where the observation lives)")
