import math
import types

import numpy as np
import pytest

from dynbc import (
    CarlemanParams,
    Propagator,
    Trajectory,
    assemble,
    build_disk_mesh,
    build_eta,
    build_interval_mesh,
    build_rect_mesh,
    carleman_lhs,
    carleman_rhs,
    carleman_sweep,
    norm_X2,
    pointwise_lambda_floor,
    recover_normal_flux,
    solve_backward,
    weight_bounds,
)
from dynbc import carleman
from dynbc.assembly import _unit_normal_draws
from dynbc.carleman import (
    _cell_gradient_ops,
    _level_weights,
    _nodal_grad_sq,
    _space_weights,
)


def unit_interval_setup(n=8, nt=16, beta=1.0):
    mesh = build_interval_mesh(0, 1, n)
    s = assemble(mesh, 1.0, 0.0, beta)
    eta = build_eta(mesh)
    v = np.random.default_rng(2).standard_normal(s.ndof)
    v /= norm_X2(s, v)
    adj = solve_backward(s, v, 1.0, nt, 0.5)
    return mesh, s, eta, adj


def weighted_surface_sum(s, adj, p, comb):
    """dt-sum over interior levels of theta xi exp(-2 R alpha) comb^2, lumped on Gamma."""
    t = adj.times[1:-1, None]
    theta = 1.0 / (t * (p.T - t))
    sup = p.eta.sup_norm
    xi = np.exp(p.lam * (p.m * sup + p.eta.values[s.boundary_nodes]))
    alpha = theta * (np.exp(2.0 * p.lam * p.m * sup) - xi)
    return adj.dt * np.sum(theta * xi * np.exp(-2.0 * p.R * alpha) * comb**2 * s.m_surf)


def direct_rhs(s, adj, p):
    """The rhs with d_t phi_G + delta LB(phi_G) - gamma d_nu phi from the flux recoveries."""
    flux = recover_normal_flux(s, adj)
    # the equation recovery is d_t phi_G + delta LB(phi_G) - beta phi_G, so
    # adding beta phi_G back isolates d_t phi_G + delta LB(phi_G)
    beta_phi_g = s.beta * adj.states[:, s.boundary_nodes]
    comb = (flux.equation + beta_phi_g - flux.variational)[1:-1]
    return weighted_surface_sum(s, adj, p, comb)


def test_params_validation():
    eta = build_eta(build_interval_mesh(0, 1, 4))
    with pytest.raises(ValueError):
        CarlemanParams(lam=0.0, R=1.0, m=2.0, T=1.0, eta=eta)
    with pytest.raises(ValueError):
        CarlemanParams(lam=1.0, R=1.0, m=1.0, T=1.0, eta=eta)
    with pytest.raises(ValueError):
        CarlemanParams(lam=1.0, R=-1.0, m=2.0, T=1.0, eta=eta)


def test_theta_closed_form():
    mesh = build_interval_mesh(0, 2, 8)  # sup eta = (b - a)^2 / 8 = 1/2 at the midpoint
    eta = build_eta(mesh)
    assert eta.sup_norm == pytest.approx(0.5, abs=1e-14)
    p = CarlemanParams(lam=1.0, R=1.0, m=2.0, T=1.0, eta=eta)
    assert weight_bounds(p, np.array([0.5]))["min_theta"] == pytest.approx(4.0)
    # the level weights' ratio theta^2 xi^2 at t = T/2
    xi, q = _space_weights(p)
    t3x3e, txe = _level_weights(p.T, p.R, xi, xi**3, q, np.array([0.5]))
    np.testing.assert_allclose(t3x3e / txe, 16.0 * xi**2, rtol=1e-14)


def test_xi_and_alpha_closed_forms():
    mesh = build_interval_mesh(0, 2, 8)
    eta = build_eta(mesh)
    p = CarlemanParams(lam=1.0, R=1.0, m=2.0, T=1.0, eta=eta)
    xi, q = _space_weights(p)
    boundary = mesh.boundary_nodes[0]
    s = eta.sup_norm  # 1/2 on [0, 2]
    assert xi[boundary] == pytest.approx(math.exp(2.0 * s))  # eta = 0 there
    # alpha = theta p, with theta(T/2) = 4
    alpha = 4 * (math.exp(4 * s) - math.exp(2 * s))
    assert 4 * q[boundary] == pytest.approx(alpha)
    _, txe = _level_weights(p.T, p.R, xi, xi**3, q, np.array([0.5]))
    assert txe[boundary] == pytest.approx(4 * math.exp(2.0 * s) * math.exp(-2 * alpha))


def test_weights_reject_endpoint_times():
    mesh = build_interval_mesh(0, 1, 4)
    eta = build_eta(mesh)
    p = CarlemanParams(lam=1.0, R=1.0, m=2.0, T=1.0, eta=eta)
    for t in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            weight_bounds(p, np.array([t]))


def test_weight_invariants_on_grid():
    mesh = build_interval_mesh(0, 1, 16)
    eta = build_eta(mesh)
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    times = np.linspace(0, 1, 65)[1:-1]
    assert weight_bounds(p, times)["min_theta"] >= 4.0 - 1e-14
    xi, q = _space_weights(p)
    xi_floor = math.exp(p.lam * p.m * eta.sup_norm)
    xi_ceil = math.exp(p.lam * (p.m + 1) * eta.sup_norm)
    assert np.all(xi >= xi_floor - 1e-14)
    assert np.all(xi <= xi_ceil + 1e-14)
    assert np.all(q > 0)  # so alpha = theta p > 0
    for t in times:
        _, txe = _level_weights(p.T, p.R, xi, xi**3, q, np.array([t]))
        exp_factor = txe / (xi / (t * (1.0 - t)))
        assert np.all((exp_factor > 0) | np.isclose(exp_factor, 0))
        assert np.all(exp_factor < 1)


def test_lhs_zero_state():
    mesh, s, eta, adj = unit_interval_setup()
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    zero = Trajectory(
        times=adj.times, states=np.zeros_like(adj.states), theta=0.5, dt=adj.dt
    )
    assert carleman_lhs(s, zero, p) == 0.0
    assert carleman_rhs(s, zero, p) == 0.0


def test_lhs_quadratic_scaling():
    mesh, s, eta, adj = unit_interval_setup()
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    doubled = Trajectory(
        times=adj.times, states=2 * adj.states, theta=0.5, dt=adj.dt
    )
    assert carleman_lhs(s, doubled, p) == pytest.approx(
        4 * carleman_lhs(s, adj, p), rel=1e-13
    )


def test_lhs_brute_force_oracle():
    # dense loops over every node-time pair, independent of the vectorized path
    mesh, s, eta, adj = unit_interval_setup(n=8, nt=16)
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)

    x = mesh.bulk_nodes[:, 0]
    sup = eta.sup_norm
    dt = adj.dt
    lam, R, m, T = p.lam, p.R, p.m, p.T

    lhs = 0.0
    for n in range(1, adj.nt):
        t = adj.times[n]
        th = 1.0 / (t * (T - t))
        phi = adj.states[n]
        # cellwise gradients, then volume-weighted nodal recovery
        grad_cell = [(phi[c2] - phi[c1]) / (x[c2] - x[c1]) for c1, c2 in mesh.bulk_cells]
        for i in range(s.ndof):
            xi_i = math.exp(lam * (m * sup + eta.values[i]))
            alpha = th * (math.exp(2 * lam * m * sup) - xi_i)
            ef = math.exp(-2 * R * alpha)
            num = 0.0
            den = 0.0
            for cidx, (c1, c2) in enumerate(mesh.bulk_cells):
                if i in (c1, c2):
                    hc = x[c2] - x[c1]
                    num += (hc / 2.0) * grad_cell[cidx] ** 2
                    den += hc / 2.0
            grad_sq = num / den
            lhs += dt * s.m_bulk[i] * ef * (
                lam**3 * R**2 * th**3 * xi_i**3 * phi[i] ** 2
                + lam * th * xi_i * grad_sq
            )
        for k, node in enumerate(mesh.boundary_nodes):
            xi_b = math.exp(lam * (m * sup + eta.values[node]))
            alpha = th * (math.exp(2 * lam * m * sup) - xi_b)
            ef = math.exp(-2 * R * alpha)
            lhs += dt * s.m_surf[k] * lam**2 * R**2 * th**3 * xi_b**3 * ef * phi[
                node
            ] ** 2

    assert carleman_lhs(s, adj, p) == pytest.approx(lhs, rel=1e-12)


def test_rhs_equation_path_is_weighted_beta_trace():
    mesh, s, eta, adj = unit_interval_setup(beta=1.7)
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    phi_g = adj.states[1:-1][:, mesh.boundary_nodes]
    expected = weighted_surface_sum(s, adj, p, s.beta[None, :] * phi_g)
    assert carleman_rhs(s, adj, p) == pytest.approx(expected, rel=1e-14)


def test_rhs_paths_agree_and_improve():
    def reldiff(n, nt):
        mesh = build_interval_mesh(0, 1, n)
        s = assemble(mesh, 1.0, 0.0, 1.0)
        eta = build_eta(mesh)
        datum = np.sin(3 * np.pi * mesh.bulk_nodes[:, 0]) + mesh.bulk_nodes[:, 0]
        datum /= norm_X2(s, datum)
        adj = solve_backward(s, datum, 1.0, nt, 0.5)
        p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
        re = carleman_rhs(s, adj, p)
        rd = direct_rhs(s, adj, p)
        return abs(rd - re) / re

    coarse = reldiff(32, 128)
    fine = reldiff(64, 256)
    assert coarse <= 0.2
    assert fine < coarse


def test_sweep_deterministic_and_positive():
    mesh = build_interval_mesh(0, 1, 16)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=2.0, R=R, m=1.5, T=1.0, eta=eta) for R in (2.0, 4.0)
    ]
    sw1 = carleman_sweep(s, grid, 32, 0.5, 4, seed=13)
    sw2 = carleman_sweep(s, grid, 32, 0.5, 4, seed=13)
    assert sw1.rows == sw2.rows
    assert all(r > 0 for *_, r in sw1.rows)
    assert set(sw1.max_ratio) == {(2.0, 2.0), (2.0, 4.0)}
    for key, val in sw1.max_ratio.items():
        assert val == max(r for lam, R, _, _, _, r in sw1.rows if (lam, R) == key)


def test_sweep_rejects_zero_samples():
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)]
    with pytest.raises(ValueError):
        carleman_sweep(s, grid, 16, 0.5, 0, seed=1)


def test_weight_bounds_report():
    mesh = build_interval_mesh(0, 1, 32)
    eta = build_eta(mesh)
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    times = np.linspace(0, 1, 129)[1:-1]
    wb = weight_bounds(p, times)
    assert wb["min_theta_xi"] >= wb["theta_xi_floor_analytic"]
    assert wb["min_theta3_xi3_exp_mid"] > 0
    assert np.isfinite(wb["max_theta_xi_exp"])
    assert np.isfinite(wb["varsigma1"])


def test_varsigma1_stable_under_refinement():
    mesh = build_interval_mesh(0, 1, 32)
    eta = build_eta(mesh)
    p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    coarse = weight_bounds(p, np.linspace(0, 1, 129)[1:-1])["varsigma1"]
    fine = weight_bounds(p, np.linspace(0, 1, 257)[1:-1])["varsigma1"]
    assert abs(coarse - fine) / fine <= 0.05


def test_lambda_floor_diagnostic():
    mesh = build_interval_mesh(0, 1, 8)
    eta = build_eta(mesh)
    floor = pointwise_lambda_floor(eta)
    # unbounded exactly at the interior critical point of eta
    assert np.sum(~np.isfinite(floor)) == 1
    assert np.all(floor[np.isfinite(floor)] > 0)


@pytest.mark.parametrize("shape", [(8, 32), (16, 64)])
def test_lambda_floor_unbounded_at_the_disk_center(shape):
    # the recovered gradient at the center is roundoff of the solve, not 0;
    # the floor still reads it as the critical point
    eta = build_eta(build_disk_mesh(1.0, *shape))
    floor = pointwise_lambda_floor(eta)
    assert np.flatnonzero(~np.isfinite(floor)).tolist() == [0]
    assert np.all(floor[1:] > 0)


@pytest.mark.parametrize("geometry", ["interval", "disk"])
def test_nodal_grad_sq_bitwise_equals_per_time_oracle(geometry):
    if geometry == "interval":
        mesh = build_interval_mesh(0, 1, 8)
    else:
        mesh = build_disk_mesh(1.0, 8, 32)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    states = np.random.default_rng(3).standard_normal((s.ndof, 9))
    grad, scatter = _cell_gradient_ops(mesh)
    ncells = scatter.shape[1]
    assert grad.shape == (mesh.dim * ncells, s.ndof)
    # one state at a time, one d/dx_d block of the stacked operator at a time
    want = np.empty_like(states)
    for n, phi in enumerate(states.T):
        cell_sq = np.zeros(ncells)
        for d in range(mesh.dim):
            cell_sq += (grad[d * ncells : (d + 1) * ncells] @ phi) ** 2
        want[:, n] = (scatter @ cell_sq) / s.m_bulk
    got = _nodal_grad_sq(s, states, (grad, scatter))
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


def test_sweep_evaluates_weights_once_per_level_and_cell(monkeypatch):
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=lam, R=R, m=1.5, T=1.0, eta=eta)
        for lam in (1.0, 2.0)
        for R in (1.0, 2.0, 4.0)
    ]
    nt = 16
    space_calls, level_calls = [], []

    def counting_space(params):
        space_calls.append(params)
        return _space_weights(params)

    def counting_level(T, R, xi, xi3, p, t):
        weights = _level_weights(T, R, xi, xi3, p, t)
        level_calls.append((np.shape(t), R.ravel().tolist(), [w.shape for w in weights]))
        return weights

    monkeypatch.setattr(carleman, "_space_weights", counting_space)
    monkeypatch.setattr(carleman, "_level_weights", counting_level)
    for samples in (1, 3):
        space_calls.clear()
        level_calls.clear()
        carleman_sweep(s, grid, nt, 0.5, samples, 4)
        # xi and p once per cell; theta and exp(-2 R alpha) once per
        # interior level, at a single time, as one block over every cell
        assert space_calls == grid
        block = (len(grid), s.ndof)
        assert level_calls == [((1,), [p.R for p in grid], [block, block])] * (nt - 1)


def test_sweep_makes_no_solve_to_t0(monkeypatch):
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)]
    nt, solved = 16, []

    class CountingPropagator(Propagator):
        def __init__(self, *args):
            super().__init__(*args)
            factor = self.factor
            self.factor = types.SimpleNamespace(
                solve=lambda rhs: solved.append(rhs.shape) or factor.solve(rhs)
            )

    monkeypatch.setattr(carleman, "Propagator", CountingPropagator)
    carleman_sweep(s, grid, nt, 0.5, 3, 4)
    # one block solve per interior level t_{nt-1}, ..., t_1
    assert solved == [(s.ndof, 3)] * (nt - 1)


def _cell_major_oracle(s, grid, nt, samples, seed):
    """Rows and max ratios of a per-cell loop over per-sample trajectories."""
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(samples):
        v = rng.standard_normal(s.ndof)
        data.append(v / norm_X2(s, v))
    rows, max_ratio = [], {}
    for p in grid:
        finite = []
        for sid, v in enumerate(data):
            adj = solve_backward(s, v, p.T, nt, 0.5)
            lhs = carleman_lhs(s, adj, p)
            rhs = carleman_rhs(s, adj, p)
            ratio = lhs / rhs if rhs > 0.0 else float("nan")
            rows.append((p.lam, p.R, sid, lhs, rhs, ratio))
            if math.isfinite(ratio):
                finite.append(ratio)
        # the largest finite ratio; None when the cell has none
        max_ratio[(p.lam, p.R)] = max(finite) if finite else None
    return rows, max_ratio


def _assert_sweep_close(sw, rows, max_ratio, rel=1e-13):
    _assert_close_rows(sw.rows, rows, rel)
    assert list(sw.max_ratio) == list(max_ratio)
    assert [v is None for v in sw.max_ratio.values()] == [
        v is None for v in max_ratio.values()
    ]
    _assert_close_rows(
        [(*key, 0, v) for key, v in sw.max_ratio.items() if v is not None],
        [(*key, 0, v) for key, v in max_ratio.items() if v is not None],
        rel,
    )
    nonfinite = {key: 0 for key in max_ratio}
    for lam, R, _, _, _, ratio in rows:
        nonfinite[(lam, R)] += not math.isfinite(ratio)
    assert sw.nonfinite == nonfinite


def _assert_close_rows(got, want, rel=1e-13):
    """Same keys in the same order, same exact zeros and nans, finite values close."""
    assert [r[:3] for r in got] == [r[:3] for r in want]
    _assert_close_arrays(np.array([r[3:] for r in got]), np.array([r[3:] for r in want]), rel)


def _assert_close_arrays(a, b, rel):
    """Same exact zeros and nans, finite nonzero values within rel."""
    np.testing.assert_array_equal(np.isnan(a), np.isnan(b))
    np.testing.assert_array_equal(np.isfinite(a), np.isfinite(b))
    np.testing.assert_array_equal(a == 0.0, b == 0.0)
    finite = np.isfinite(b) & (b != 0.0)
    assert np.all(np.abs(a - b)[finite] <= rel * np.abs(b[finite]))


def test_sweep_equals_cell_major_oracle():
    """Rows and max ratios match a per-cell loop over per-sample solves.

    The block solve and the sweep's reductions may move the last bits, so
    finite values agree to 1e-13 relative; exact zeros and nans match.
    """
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=lam, R=R, m=1.5, T=0.5, eta=eta)
        for R, lam in ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0))
    ]
    samples, seed, nt = 3, 21, 16
    rows, max_ratio = _cell_major_oracle(s, grid, nt, samples, seed)
    _assert_sweep_close(carleman_sweep(s, grid, nt, 0.5, samples, seed), rows, max_ratio)


def test_sweep_equals_cell_major_oracle_on_disk():
    # lambda = 16 underflows the rhs of some cells to exactly 0 (nan ratios)
    mesh = build_disk_mesh(1.0, 8, 32)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=lam, R=R, m=2.0, T=1.0, eta=eta)
        for lam in (1.0, 4.0, 16.0)
        for R in (1.0, 2.0, 4.0)
    ]
    samples, seed, nt = 3, 7, 32
    rows, max_ratio = _cell_major_oracle(s, grid, nt, samples, seed)
    sw = carleman_sweep(s, grid, nt, 0.5, samples, seed)
    assert any(math.isnan(r[5]) for r in rows)
    assert any(r[4] > 0.0 for r in rows)
    # a cell with no finite ratio reads None with all its samples counted,
    # not a nan folded into 0
    assert None in max_ratio.values()
    assert all(v is None or v > 0 for v in sw.max_ratio.values())
    _assert_sweep_close(sw, rows, max_ratio)


def _per_cell_level_sums(sys, params_list, times, levels, samples):
    """The four sums by one cell after the other at each level.

    Each cell's theta(t_n) and exp(-2 R alpha) are evaluated on their own,
    and each sum is a matrix-vector reduction with a lumped mass.
    """
    ops = _cell_gradient_ops(sys.mesh)
    bnodes, m_bulk, m_surf = sys.boundary_nodes, sys.m_bulk, sys.m_surf
    space = [(xi, xi**3, p) for xi, p in map(_space_weights, params_list)]
    sums = np.zeros((len(params_list), 4, samples))
    for n, level in levels:
        phi = level.T  # (samples, ndof)
        phi_sq = phi**2
        grad_sq = _nodal_grad_sq(sys, level, ops).T
        phi_b_sq = phi[:, bnodes] ** 2
        comb_sq = (sys.beta * phi[:, bnodes]) ** 2
        t = times[n : n + 1]
        for params, (xi, xi3, p), cell in zip(params_list, space, sums):
            theta = 1.0 / (t * (params.T - t))
            ef = np.exp(-2.0 * params.R * (theta * p))
            t3x3e, txe = theta**3 * xi3 * ef, theta * xi * ef
            cell[0] += (t3x3e * phi_sq) @ m_bulk
            cell[1] += (txe * grad_sq) @ m_bulk
            cell[2] += (t3x3e[bnodes] * phi_b_sq) @ m_surf
            cell[3] += (txe[bnodes] * comb_sq) @ m_surf
    return sums


def test_sweep_equals_per_cell_reduction_oracle(monkeypatch):
    """The batched reduction matches the per-cell one on the certify grid.

    Disk 16x64, lambda in {1, 4, 16}, R in {1, 2, 4}, m = 2, 8 samples,
    nt = 128: the sums and rows agree to 1e-14 relative where finite and
    nonzero, with the same exact zeros and nans.  The products only reorder
    each lumped-mass sum, so nothing looser is needed.
    """
    mesh = build_disk_mesh(1.0, 16, 64)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=lam, R=R, m=2.0, T=1.0, eta=eta)
        for lam in (1.0, 4.0, 16.0)
        for R in (1.0, 2.0, 4.0)
    ]
    sums = []

    def recording(reduce):
        def run(*args):
            sums.append(reduce(*args))
            return sums[-1]

        return run

    monkeypatch.setattr(carleman, "_level_sums", recording(carleman._level_sums))
    got = carleman_sweep(s, grid, 128, 0.5, 8, 7)
    monkeypatch.setattr(carleman, "_level_sums", recording(_per_cell_level_sums))
    want = carleman_sweep(s, grid, 128, 0.5, 8, 7)
    # the rhs of most cells underflows to exactly 0, so their ratios are nan
    assert any(math.isnan(r[5]) for r in want.rows)
    assert any(r[4] > 0.0 for r in want.rows)
    _assert_sweep_close(got, want.rows, want.max_ratio, rel=1e-14)
    _assert_close_arrays(*sums, rel=1e-14)


def test_sweep_rejects_mixed_horizons():
    # rows and max ratios are keyed by (lambda, R): a second T would collide
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=1.0, R=R, m=1.5, T=T, eta=eta)
        for T, R in ((1.0, 1.0), (0.5, 2.0))
    ]
    with pytest.raises(ValueError, match="horizon"):
        carleman_sweep(s, grid, 16, 0.5, 2, seed=1)


def test_sweep_rejects_repeated_cell():
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [CarlemanParams(lam=1.0, R=2.0, m=m, T=1.0, eta=eta) for m in (1.5, 2.0)]
    with pytest.raises(ValueError, match="repeats"):
        carleman_sweep(s, grid, 16, 0.5, 2, seed=1)


@pytest.mark.parametrize(
    "mesh",
    [
        build_interval_mesh(0, 1, 16),
        build_disk_mesh(1.0, 4, 16),
        build_rect_mesh(1.0, 1.0, 6, 5),
    ],
    ids=["interval16", "disk4x16", "rect6x5"],
)
def test_trajectory_sides_equal_the_sweep_rows(mesh):
    """carleman_lhs/carleman_rhs on one stored trajectory give the sweep's row."""
    _check_trajectory_sides(mesh, 3)  # 3 samples: the sweep's solves are dpbtrs


def test_trajectory_sides_equal_the_wide_sweep_rows():
    # 40 samples: the sweep's solves take the blocked level-3 path
    _check_trajectory_sides(build_disk_mesh(1.0, 8, 32), 40)


def _check_trajectory_sides(mesh, samples):
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=lam, R=R, m=1.5, T=1.0, eta=eta)
        for lam in (0.5, 1.0)  # lambda = 2 underflows the disk and rect rhs to 0
        for R in (1.0, 2.0)
    ]
    nt, seed = 16, 5
    sw = carleman_sweep(s, grid, nt, 0.5, samples, seed)
    data = np.empty((s.ndof, samples))
    _unit_normal_draws(s, np.random.default_rng(seed), data)
    adjs = [solve_backward(s, v, 1.0, nt, 0.5) for v in data.T]
    cells = [p for p in grid for _ in range(samples)]
    assert len(sw.rows) == len(cells)
    for (lam, R, sid, lhs, rhs, _), p in zip(sw.rows, cells):
        assert (lam, R) == (p.lam, p.R)
        assert rhs > 0.0
        assert carleman_lhs(s, adjs[sid], p) == pytest.approx(lhs, rel=1e-14, abs=0.0)
        assert carleman_rhs(s, adjs[sid], p) == pytest.approx(rhs, rel=1e-14, abs=0.0)
