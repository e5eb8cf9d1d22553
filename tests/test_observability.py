import tracemalloc

import numpy as np
import pytest

from dynbc import (
    ControlProblem,
    Propagator,
    assemble,
    build_disk_mesh,
    build_interval_mesh,
    build_rect_mesh,
    check_energy_identity,
    check_interpolation,
    estimate_CT,
    inner_X2,
    norm_X2,
    observation_energy,
    smallest_eigenpair,
    solve_backward,
    synthesize_control,
)
from dynbc import evolution, observability
from dynbc.assembly import BandCholesky, _unit_normal_draws


def interval_sys(n=16, beta=1.0):
    return assemble(build_interval_mesh(0, 1, n), 1.0, 0.0, beta)


def test_estimate_requires_positive_beta_floor():
    s = interval_sys(beta=0.0)
    with pytest.raises(ValueError):
        estimate_CT(s, 1.0, 16, 2, seed=0)


def test_report_structure_and_positivity():
    s = interval_sys()
    rep = estimate_CT(s, 1.0, 32, samples=10, seed=1)
    assert len(rep.per_sample) == 10
    assert all(i > 0 and o > 0 and r > 0 for i, o, r in rep.per_sample)
    assert rep.CT_estimate == max(r for _, _, r in rep.per_sample)
    assert np.isfinite(rep.CT_estimate)


def test_eigenvector_sample_included():
    s = interval_sys()
    rep = estimate_CT(s, 1.0, 32, samples=1, seed=2)
    _, ground = smallest_eigenpair(s)
    adj = solve_backward(s, ground, 1.0, 32, 0.5)
    expected = inner_X2(s, adj.states[0], adj.states[0]) / observation_energy(s, adj)
    assert rep.per_sample[0][2] == pytest.approx(expected, rel=1e-12)


def test_ratio_scaling_invariance():
    s = interval_sys(n=32)
    v = np.random.default_rng(3).standard_normal(s.ndof)
    r = []
    for scale in (1.0, 10.0):
        adj = solve_backward(s, scale * v, 1.0, 64, 0.5)
        r.append(
            inner_X2(s, adj.states[0], adj.states[0]) / observation_energy(s, adj)
        )
    assert abs(r[0] - r[1]) / r[0] <= 1e-12


def test_shorter_horizon_observes_less():
    s = interval_sys(n=32)
    long = estimate_CT(s, 1.0, 64, samples=20, seed=4)
    short = estimate_CT(s, 0.5, 32, samples=20, seed=4)
    assert short.CT_estimate >= long.CT_estimate


def _sample_block(sys_, samples, seed):
    """estimate_CT's final data: the lowest (K, M) eigenvector, then draws."""
    block = np.empty((sys_.ndof, samples), order="F")
    block[:, 0] = smallest_eigenpair(sys_)[1]
    _unit_normal_draws(sys_, np.random.default_rng(seed), block[:, 1:])
    return block


def _loop_estimate_CT(sys_, T, nt, samples, seed, theta):
    """The per-sample backward loop that the block solve in estimate_CT replaced."""
    prop = Propagator(sys_, T, nt, theta)
    per_sample = []
    for v in _sample_block(sys_, samples, seed).T:
        adj = prop.backward(v)
        initial = inner_X2(sys_, adj.states[0], adj.states[0])
        observed = observation_energy(sys_, adj)
        per_sample.append((initial, observed, initial / observed))
    return per_sample


def _cube_estimate_CT(sys_, T, nt, samples, seed, theta):
    """The reduction estimate_CT made before it reduced each level as it came:
    the boundary rows of every level of every sample from one block
    backward_boundary, then one _observed_energy per sample."""
    prop = Propagator(sys_, T, nt, theta)
    phi0, bound = prop.backward_boundary(_sample_block(sys_, samples, seed))
    per_sample = []
    for j in range(samples):
        initial = inner_X2(sys_, phi0[:, j], phi0[:, j])
        observed = observability._observed_energy(sys_, bound[:, :, j], prop.dt)
        per_sample.append((initial, observed, initial / observed))
    return per_sample


class _CountingFactor(BandCholesky):
    """A band Cholesky factorization that counts its solves.

    It counts calls of the in-place core, which ``solve`` and the stepping
    loop both call.
    """

    def __init__(self, A):
        super().__init__(A)
        self.solves = 0

    def _solve_in_place(self, rhs):
        self.solves += 1
        return super()._solve_in_place(rhs)


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("mesh", ["interval", "disk", "rect"])
def test_estimate_matches_per_sample_loop(mesh, theta, monkeypatch):
    # 9 samples are stepped by dpbtrs; on the disk 40 more are stepped by
    # the blocked level-3 solve
    if mesh == "interval":
        s, sample_counts = interval_sys(n=16), (9,)
    elif mesh == "rect":
        s, sample_counts = assemble(build_rect_mesh(1.0, 0.5, 6, 4), 1.0, 0.25, 1.0), (9,)
    else:
        s, sample_counts = assemble(build_disk_mesh(1.0, 8, 32), 1.0, 0.5, 1.0), (9, 40)
    T, nt = 0.8, 24
    wants = [_loop_estimate_CT(s, T, nt, samples, 11, theta) for samples in sample_counts]
    cubes = [_cube_estimate_CT(s, T, nt, samples, 11, theta) for samples in sample_counts]
    made = []

    def counting_factor(A):
        made.append(_CountingFactor(A))
        return made[-1]

    monkeypatch.setattr(evolution, "BandCholesky", counting_factor)
    for samples, want, cube in zip(sample_counts, wants, cubes):
        made.clear()
        rep = estimate_CT(s, T, nt, samples, seed=11, theta=theta)
        assert len(made) == 1
        assert made[0].solves == nt
        # bit for bit the boundary rows of every level reduced per sample
        assert rep.per_sample == cube
        assert rep.CT_estimate == max(r for _, _, r in cube)
        for got_row, want_row in zip(rep.per_sample, want):
            for got, ref in zip(got_row, want_row):
                assert abs(got - ref) <= 1e-13 * abs(ref)
        assert abs(rep.CT_estimate - max(r for _, _, r in want)) <= 1e-13 * rep.CT_estimate


def test_estimate_memory_does_not_grow_with_nt():
    # at nt=256 the boundary rows of every level of 40 samples would take
    # 2.6 MB; one integrand per level and sample takes 82 kB
    s = assemble(build_disk_mesh(1.0, 8, 32), 1.0, 0.5, 1.0)
    peaks = []
    for nt in (32, 256):
        tracemalloc.start()
        try:
            estimate_CT(s, 0.8, nt, 40, seed=11)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5e6


def test_nonfinite_sample_energy_raises(monkeypatch):
    # energies of this datum overflow to inf and its ratio is nan, which
    # max() would skip silently
    s = interval_sys()
    monkeypatch.setattr(
        observability,
        "_unit_normal_draws",
        lambda sys_, rng, out: out.fill(1e200),
    )
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match="not finite"):
        estimate_CT(s, 1.0, 16, samples=3, seed=0)


def test_energy_identity_zero():
    s = interval_sys()
    adj = solve_backward(s, np.zeros(s.ndof), 1.0, 8, 0.5)
    assert check_energy_identity(s, adj) == 0.0


def test_energy_identity_nonfinite_step_is_not_dropped():
    s = interval_sys(n=8)
    v = np.random.default_rng(5).standard_normal(s.ndof)
    adj = solve_backward(s, v, 1.0, 16, 0.5)
    adj.states[5, 3] = np.nan
    assert np.isnan(check_energy_identity(s, adj))


def test_energy_identity_crank_nicolson_exact():
    s = interval_sys()
    v = np.random.default_rng(5).standard_normal(s.ndof)
    adj = solve_backward(s, v, 1.0, 64, 0.5)
    assert check_energy_identity(s, adj) <= 1e-9


def test_energy_identity_implicit_euler_first_order():
    # needs a time-resolved datum; a raw random datum keeps an O(1) defect on
    # the first backward step at any dt
    s = interval_sys()
    _, v = smallest_eigenpair(s)
    coarse = check_energy_identity(s, solve_backward(s, v, 1.0, 64, 1.0))
    fine = check_energy_identity(s, solve_backward(s, v, 1.0, 128, 1.0))
    finer = check_energy_identity(s, solve_backward(s, v, 1.0, 256, 1.0))
    assert coarse > fine > finer
    assert fine / coarse == pytest.approx(0.5, abs=0.25)


def test_interpolation_rejects_1d_and_zero_delta():
    s = interval_sys()
    with pytest.raises(ValueError):
        check_interpolation(s, np.ones(s.n_boundary))
    sd = assemble(build_disk_mesh(1, 2, 8), 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        check_interpolation(sd, np.ones(sd.n_boundary))


def test_interpolation_constant_field():
    s = assemble(build_disk_mesh(1, 2, 8), 1.0, 0.5, 1.0)
    lhs, rhs = check_interpolation(s, np.ones(s.n_boundary))
    assert lhs == pytest.approx(0.0, abs=1e-13)
    assert rhs == pytest.approx(0.0, abs=1e-13)


def test_interpolation_fourier_mode_saturates():
    # lowest mode of the uniform boundary ring is an eigenvector: equality
    mesh = build_disk_mesh(1, 2, 16)
    s = assemble(mesh, 1.0, 0.5, 1.0)
    angles = np.arctan2(
        mesh.bulk_nodes[mesh.boundary_nodes, 1],
        mesh.bulk_nodes[mesh.boundary_nodes, 0],
    )
    u = np.cos(angles)
    lhs, rhs = check_interpolation(s, u)
    assert lhs == pytest.approx(rhs, rel=1e-10)
    norm_sq = float(u @ (s.m_surf * u))
    lam1 = lhs / norm_sq
    assert lam1 > 0


def test_interpolation_random_fields():
    s = assemble(build_disk_mesh(1, 3, 16), 1.0, 0.1, 1.0)
    rng = np.random.default_rng(7)
    for _ in range(100):
        u = rng.standard_normal(s.n_boundary)
        lhs, rhs = check_interpolation(s, u)
        assert lhs <= rhs * (1 + 1e-12)


def test_control_cost_bounded_by_observability():
    s = interval_sys(n=32)
    _, ground = smallest_eigenpair(s)
    U0 = ground / norm_X2(s, ground)
    prob = ControlProblem(
        sys=s, U0=U0, T=1.0, nt=128, theta=0.5, eps=1e-6, cg_tol=1e-8, cg_maxit=500
    )
    res = synthesize_control(prob)
    rep = estimate_CT(s, 1.0, 128, samples=100, seed=8)
    bound = np.sqrt(rep.CT_estimate) * norm_X2(s, U0) * 1.25
    assert res.control_norm <= bound
