"""Discrete solutions against exact Wentzell modes of the continuous problem.

On the unit disk, u = e^{-gamma k^2 t} J_m(k r) cos(m theta) solves
d_t u - gamma Lap u = 0, and it meets the dynamic boundary condition
d_t u - delta Lap_G u + gamma d_nu u + beta u = 0 on r = 1 iff

    (beta + delta m^2 - gamma k^2) J_m(k) + gamma k J_m'(k) = 0.

The other tests compare the discrete system with itself; these compare it
with the continuous problem, so they check the signs of the boundary terms,
the lumped surface mass and the polygonal boundary.  Crank-Nicolson with
nt proportional to nr makes the relative X^2 error at T second order in
h, so each halving of h divides it by about 4.  Measured ratios for
nr = 4 -> 8 -> 16: 4.11 and 4.06 (m = 0), 3.94 and 3.99 (m = 2,
delta = 1/2), 3.90 and 3.98 (m = 2, delta = 0).
"""

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jv, jvp

from dynbc import Propagator, assemble, build_disk_mesh, norm_X2

GAMMA = BETA = 1.0
T = 0.1
# the observed order per refinement must lie in this band around 4
RATIO_BAND = (3.7, 4.3)


def first_root(m, delta):
    """Smallest k > 0 of the boundary condition, bracketed by a scan."""

    def condition(k):
        return (BETA + delta * m**2 - GAMMA * k**2) * jv(m, k) + GAMMA * k * jvp(m, k)

    ks = np.linspace(0.05, 6.0, 600)
    values = condition(ks)
    i = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))[0]
    return brentq(condition, ks[i], ks[i + 1], xtol=1e-15)


def relative_error_at_T(m, delta, k, nr):
    s = assemble(build_disk_mesh(1.0, nr, 4 * nr), GAMMA, delta, BETA)
    x, y = s.mesh.bulk_nodes.T
    mode = jv(m, k * np.hypot(x, y)) * np.cos(m * np.arctan2(y, x))
    U = Propagator(s, T, 16 * nr, 0.5).forward_final(mode, None)
    exact = np.exp(-GAMMA * k**2 * T) * mode
    return norm_X2(s, U - exact) / norm_X2(s, exact)


@pytest.mark.parametrize(
    "m, delta, k",
    [(0, 0.0, 0.8044), (0, 0.5, 0.8044), (2, 0.5, 2.0552), (2, 0.0, 1.597)],
)
def test_disk_mode_converges_at_second_order(m, delta, k):
    root = first_root(m, delta)
    assert root == pytest.approx(k, abs=1e-4)
    errors = [relative_error_at_T(m, delta, root, nr) for nr in (4, 8, 16)]
    assert errors[0] < 0.05
    for coarse, fine in zip(errors, errors[1:]):
        assert RATIO_BAND[0] <= coarse / fine <= RATIO_BAND[1]
