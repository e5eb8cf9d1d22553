import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from dynbc import (
    BoundarySignal,
    CarlemanParams,
    ControlProblem,
    Propagator,
    Trajectory,
    assemble,
    build_disk_mesh,
    build_eta,
    build_interval_mesh,
    build_rect_mesh,
    carleman_sweep,
    estimate_CT,
    duality_residual,
    duhamel_final,
    inner_X2,
    norm_X2,
    recover_normal_flux,
    solve_backward,
    solve_forward,
    synthesize_control,
    trajectory_norms,
    trajectory_to_csv,
    verify_null,
)
from dynbc import evolution
from dynbc.assembly import BandCholesky


def interval_sys(n=16, gamma=1.0, delta=0.0, beta=1.0):
    return assemble(build_interval_mesh(0, 1, n), gamma, delta, beta)


def rel_err(sys_, got, want):
    return norm_X2(sys_, got - want) / norm_X2(sys_, want)


def test_zero_data_zero_trajectory():
    s = interval_sys()
    f = solve_forward(s, np.zeros(s.ndof), None, 1.0, 8, 0.5)
    np.testing.assert_array_equal(f.states, 0.0)
    b = solve_backward(s, np.zeros(s.ndof), 1.0, 8, 0.5)
    np.testing.assert_array_equal(b.states, 0.0)


def test_constants_preserved_when_beta_zero():
    s = interval_sys(beta=0.0)
    U0 = np.full(s.ndof, 2.5)
    f = solve_forward(s, U0, None, 1.0, 16, 1.0)
    np.testing.assert_allclose(f.states, 2.5, rtol=1e-13)


def test_forward_matches_dense_exponential():
    s = interval_sys(n=32)
    U0 = np.random.default_rng(0).standard_normal(s.ndof)
    f = solve_forward(s, U0, None, 1.0, 64, 1.0)
    ref = duhamel_final(s, U0, None, 1.0, 1)
    assert rel_err(s, f.states[-1], ref) <= 0.1


def test_theta_validation():
    s = interval_sys()
    with pytest.raises(ValueError):
        solve_forward(s, np.zeros(s.ndof), None, 1.0, 8, 0.7)
    with pytest.raises(ValueError):
        solve_forward(s, np.zeros(s.ndof), None, 1.0, 0, 0.5)
    with pytest.raises(ValueError):
        solve_forward(s, np.zeros(s.ndof - 1), None, 1.0, 8, 0.5)


def test_backward_self_adjoint_flow():
    s = interval_sys()
    rng = np.random.default_rng(3)
    U0 = rng.standard_normal(s.ndof)
    PhiT = rng.standard_normal(s.ndof)
    for theta in (0.5, 1.0):
        fU = solve_forward(s, U0, None, 1.0, 32, theta)
        fP = solve_forward(s, PhiT, None, 1.0, 32, theta)
        a = inner_X2(s, fU.states[-1], PhiT)
        b = inner_X2(s, U0, fP.states[-1])
        assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1.0)


def test_backward_norm_monotone_and_dense_checked():
    s = interval_sys()
    PhiT = np.random.default_rng(4).standard_normal(s.ndof)
    adj = solve_backward(s, PhiT, 1.0, 32, 1.0)
    norms = trajectory_norms(s, adj)
    # dissipative flow: the adjoint state shrinks along the backward sweep,
    # i.e. the stored norms are non-decreasing in forward time
    assert np.all(np.diff(norms) >= -1e-12)
    ref0 = duhamel_final(s, PhiT, None, 1.0, 1)
    assert rel_err(s, adj.states[0], ref0) <= 0.1


def test_duality_residual_zero_data():
    s = interval_sys()
    f = solve_forward(s, np.zeros(s.ndof), None, 1.0, 8, 0.5)
    adj = solve_backward(s, np.zeros(s.ndof), 1.0, 8, 0.5)
    assert duality_residual(s, f, adj, None) == 0.0


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_duality_residual_random(theta):
    rng = np.random.default_rng(11)
    for s in [interval_sys(), *(build() for build in PROPAGATOR_SYSTEMS.values())]:
        U0 = rng.standard_normal(s.ndof)
        PhiT = rng.standard_normal(s.ndof)
        g = BoundarySignal(rng.standard_normal((33, s.n_boundary)))
        f = solve_forward(s, U0, g, 1.0, 32, theta)
        adj = solve_backward(s, PhiT, 1.0, 32, theta)
        res = duality_residual(s, f, adj, g)
        scale = max(
            abs(inner_X2(s, f.states[-1], adj.states[-1])),
            abs(inner_X2(s, f.states[0], adj.states[0])),
            1.0,
        )
        assert res <= 1e-10 * scale


def test_duality_residual_rejects_mismatch():
    s = interval_sys()
    f = solve_forward(s, np.zeros(s.ndof), None, 1.0, 16, 0.5)
    adj = solve_backward(s, np.zeros(s.ndof), 1.0, 32, 0.5)
    with pytest.raises(ValueError):
        duality_residual(s, f, adj, None)


def test_duhamel_homogeneous_and_t0():
    s = interval_sys(n=8)
    U0 = np.random.default_rng(5).standard_normal(s.ndof)
    np.testing.assert_array_equal(duhamel_final(s, U0, None, 0.0, 4), U0)
    out = duhamel_final(s, U0, None, 0.3, 4)
    assert np.all(np.isfinite(out))
    assert norm_X2(s, out) < norm_X2(s, U0)


def test_duhamel_constant_source_cross_check():
    s = interval_sys(n=8)
    U0 = np.random.default_rng(6).standard_normal(s.ndof)
    g = BoundarySignal(np.full((257, s.n_boundary), 0.4))
    f = solve_forward(s, U0, g, 1.0, 256, 0.5)
    ref = duhamel_final(s, U0, lambda t: np.full(s.n_boundary, 0.4), 1.0, 2048)
    assert rel_err(s, f.states[-1], ref) <= 1e-4


def test_duhamel_rejects_large_systems():
    s = interval_sys(n=256)
    with pytest.raises(ValueError):
        duhamel_final(s, np.zeros(s.ndof), None, 1.0, 4)


def test_scheme_order_crank_nicolson():
    s = interval_sys(n=8)
    U0 = np.random.default_rng(7).standard_normal(s.ndof)
    ref = duhamel_final(s, U0, None, 1.0, 1)
    errs = [
        rel_err(s, solve_forward(s, U0, None, 1.0, nt, 0.5).states[-1], ref)
        for nt in (64, 128, 256)
    ]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.0 <= coarse / fine <= 5.0


def test_positivity_and_sup_contraction():
    s = interval_sys()
    rng = np.random.default_rng(8)
    U0 = np.abs(rng.standard_normal(s.ndof))
    g = BoundarySignal(np.abs(rng.standard_normal((17, s.n_boundary))))
    f = solve_forward(s, U0, g, 1.0, 16, 1.0)
    assert f.states.min() >= -1e-14
    free = solve_forward(s, U0, None, 1.0, 16, 1.0)
    sup = np.abs(free.states).max(axis=1)
    assert np.all(np.diff(sup) <= 1e-14)


def test_energy_dissipation_with_coercive_rate():
    from dynbc import estimate_coercivity

    s = interval_sys(n=16)
    c = estimate_coercivity(s)
    U0 = np.random.default_rng(9).standard_normal(s.ndof)
    f = solve_forward(s, U0, None, 1.0, 64, 1.0)
    norms = trajectory_norms(s, f)
    assert np.all(np.diff(norms) <= 1e-12)
    bound = norms[0] * (1.0 + c * f.dt) ** (-np.arange(len(norms)))
    assert np.all(norms <= bound * (1 + 1e-10))


def test_flux_constant_state_is_zero():
    s = interval_sys(beta=0.0)
    states = np.ones((5, s.ndof))
    traj = Trajectory(times=np.linspace(0, 1, 5), states=states, theta=1.0, dt=0.25)
    fp = recover_normal_flux(s, traj)
    np.testing.assert_allclose(fp.variational, 0.0, atol=1e-13)
    np.testing.assert_allclose(fp.equation, 0.0, atol=1e-13)


def test_flux_discrepancy_flags_nan_and_zero_base():
    s = interval_sys(n=8)
    times = np.linspace(0, 1, 5)
    profile = np.sin(np.pi * build_interval_mesh(0, 1, 8).bulk_nodes[:, 0])
    states = np.tile(profile, (5, 1))
    states[:, s.boundary_nodes] = 0.0
    # the boundary rows vanish, so the equation recovery (the base) is exactly 0
    # while the weak flux of the interior profile is not
    frozen = Trajectory(times=times, states=states, theta=1.0, dt=0.25)
    assert recover_normal_flux(s, frozen).rel_discrepancy == np.inf
    states = states.copy()
    states[2, s.boundary_nodes[0]] = np.nan
    holed = Trajectory(times=times, states=states, theta=1.0, dt=0.25)
    assert np.isnan(recover_normal_flux(s, holed).rel_discrepancy)
    zero = Trajectory(times=times, states=np.zeros_like(states), theta=1.0, dt=0.25)
    assert recover_normal_flux(s, zero).rel_discrepancy == 0.0


def test_flux_steady_linear_profile():
    # phi(x) = x frozen in time: the weak flux gamma d_nu phi at x = 1 is gamma
    gamma = 2.0
    mesh = build_interval_mesh(0, 1, 2)
    s = assemble(mesh, gamma, 0.0, 1.0)
    profile = mesh.bulk_nodes[:, 0]
    traj = Trajectory(
        times=np.linspace(0, 1, 5),
        states=np.tile(profile, (5, 1)),
        theta=1.0,
        dt=0.25,
    )
    fp = recover_normal_flux(s, traj)
    right = np.where(mesh.bulk_nodes[mesh.boundary_nodes, 0] == 1.0)[0][0]
    np.testing.assert_allclose(fp.variational[:, right], gamma, rtol=1e-12)


def test_flux_discrepancy_decreases_under_refinement():
    def discrepancy(n, nt):
        mesh = build_interval_mesh(0, 1, n)
        s = assemble(mesh, 1.0, 0.0, 1.0)
        datum = np.sin(2 * np.pi * mesh.bulk_nodes[:, 0]) + mesh.bulk_nodes[:, 0]
        adj = solve_backward(s, datum, 1.0, nt, 0.5)
        return recover_normal_flux(s, adj).rel_discrepancy

    d0 = discrepancy(32, 128)
    d1 = discrepancy(64, 256)
    d2 = discrepancy(128, 512)
    assert d0 > d1 > d2


def _loop_flux(sys_, traj):
    """The per-level loop that recover_normal_flux replaced."""
    states, dt = traj.states, traj.dt
    bnodes = sys_.boundary_nodes
    dstates = np.empty_like(states)
    dstates[1:-1] = (states[2:] - states[:-2]) / (2.0 * dt)
    dstates[0] = (states[1] - states[0]) / dt
    dstates[-1] = (states[-1] - states[-2]) / dt
    var = np.empty((states.shape[0], bnodes.size))
    eqn = np.empty_like(var)
    for n in range(states.shape[0]):
        resid = sys_.gamma * (sys_.K_bulk @ states[n]) - sys_.m_bulk * dstates[n]
        var[n] = resid[bnodes] / sys_.m_surf
        lb = -(sys_.K_surf @ states[n])[bnodes] / sys_.m_surf
        eqn[n] = dstates[n][bnodes] + sys_.delta * lb - sys_.beta * states[n][bnodes]
    return var, eqn


@pytest.mark.parametrize(
    "build",
    [
        lambda: interval_sys(n=16),
        lambda: assemble(build_disk_mesh(1.0, 8, 32), 1.0, 0.3, 1.0),
        lambda: assemble(build_rect_mesh(1.3, 0.7, 7, 5), 1.0, 0.3, 1.0),
    ],
    ids=["interval16", "disk8x32", "rect7x5"],
)
def test_flux_bitwise_equals_loop_oracle(build):
    s = build()
    PhiT = np.random.default_rng(17).standard_normal(s.ndof)
    adj = solve_backward(s, PhiT, 0.7, 12, 0.5)
    var, eqn = _loop_flux(s, adj)
    fp = recover_normal_flux(s, adj)
    assert fp.variational.tobytes() == var.tobytes()
    assert fp.equation.tobytes() == eqn.tobytes()
    assert fp.variational.flags.c_contiguous and fp.equation.flags.c_contiguous


def test_flux_needs_three_levels():
    s = interval_sys()
    traj = Trajectory(
        times=np.linspace(0, 1, 2), states=np.zeros((2, s.ndof)), theta=1.0, dt=1.0
    )
    with pytest.raises(ValueError):
        recover_normal_flux(s, traj)


def test_signal_shape_rejected():
    s = interval_sys(n=8)
    bad = BoundarySignal(np.zeros((7, s.n_boundary)))  # neither nt nor nt+1
    with pytest.raises(ValueError):
        solve_forward(s, np.zeros(s.ndof), bad, 1.0, 16, 0.5)
    wide = BoundarySignal(np.zeros((17, s.n_boundary + 1)))
    with pytest.raises(ValueError):
        solve_forward(s, np.zeros(s.ndof), wide, 1.0, 16, 0.5)


def test_step_sampled_signal_matches_node_average():
    # a node-sampled signal and its per-step theta-average drive identically
    s = interval_sys(n=8)
    rng = np.random.default_rng(10)
    U0 = rng.standard_normal(s.ndof)
    node_vals = rng.standard_normal((17, s.n_boundary))
    for theta in (0.5, 1.0):
        step_vals = (1 - theta) * node_vals[:-1] + theta * node_vals[1:]
        f1 = solve_forward(s, U0, BoundarySignal(node_vals), 1.0, 16, theta)
        f2 = solve_forward(s, U0, BoundarySignal(step_vals), 1.0, 16, theta)
        np.testing.assert_allclose(f1.states, f2.states, atol=1e-14)


def test_trajectory_csv_bytes_equal_loop_oracle(tmp_path):
    states = np.array(
        [
            [np.nan, np.inf, -np.inf, -0.0],
            [1e-300, 1.2345678901234568e17, 5e-324, 0.1],
            [-1.0 / 3.0, 0.0, 2.0**-1074, 1.7976931348623157e308],
        ]
    )
    traj = Trajectory(
        times=np.array([0.0, 1.0 / 3.0, 2.0 / 3.0]), states=states, theta=0.5, dt=1.0 / 3.0
    )
    header = ["config_hash=abc", "note=two"]
    oracle = tmp_path / "oracle.csv"
    with open(oracle, "w") as fh:
        for line in header:
            fh.write(f"# {line}\n")
        fh.write("t,node_id,value\n")
        for t, state in zip(traj.times, traj.states):
            for i, v in enumerate(state):
                fh.write(f"{t:.17g},{i},{v:.17g}\n")
    got = tmp_path / "got.csv"
    trajectory_to_csv(traj, got, header_lines=header)
    assert got.read_bytes() == oracle.read_bytes()


def _near_ties() -> list[float]:
    """Doubles v = m 2**q (2**52 <= m < 2**53) with 1e-12 <= v < 1e-6 where
    v 10**s, which has 17 digits before the point, is within 1e-14 of a
    half-integer: m 5**s is within 1e-14 2**n of 2**(n - 1) mod 2**n, with
    n = -(q + s) fractional bits, and each such residue gives m directly."""
    out = []
    for s in range(23, 29):
        for q in range(
            math.floor((16 - s) * math.log2(10)) - 53, math.floor((17 - s) * math.log2(10)) - 51
        ):
            n = -(q + s)
            if n > 60:
                continue
            inv, w = pow(5**s, -1, 2**n), int(1e-14 * 2**n)
            for k in range(2 ** (n - 1) - w, 2 ** (n - 1) + w + 1):
                m = k * inv % 2**n
                out += [m * 2.0**q for m in range(m, 2**53, 2**n) if m >= 2**52]
    return out


def _csv_corpus() -> np.ndarray:
    """Doubles at every edge of the %.17g writer, with both signs."""
    rng = np.random.default_rng(17)
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    powers = 10.0 ** np.arange(-300, 19)
    ints = np.concatenate([np.arange(1.0, 1000.0), rng.integers(1, 2**53, 4000).astype(float)])
    # exact ties: m 2**-j with 18 significant digits, the last a 5; every one
    # below 1e-6 is among them
    binary_ties = [
        m * 2.0**-j for j in range(20, 40) for m in range(1, 200, 2) if 10**17 <= m * 5**j < 10**18
    ]
    parts = [
        [0.0, np.nan, np.inf, 5e-324, 3 * 5e-324, tiny, np.nextafter(tiny, 0), huge],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [np.nextafter(1e-5, 0), 1e-5, np.nextafter(1e-4, 0), np.nextafter(1e16, 0), 1e16],
        [np.nextafter(1e-280, 0), 1e-280, 1e-100, np.nextafter(1e-99, 0)],
        rng.uniform(1e-5, 1e-4, 4000),  # the %g switch to exponent notation
        rng.integers(2**52, 2**53, 8000) / 8.0,  # exact ties at the 17th digit
        binary_ties, _near_ties(),
        ints, ints / 1024, ints * 1e-5, ints * 1e-200,
    ]
    corpus = np.concatenate([np.asarray(p, dtype=float) for p in parts])
    random = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-12, 20, 200_000)
    tiny_random = rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-300, -5, 50_000)
    return np.concatenate([corpus, -corpus, random, tiny_random])


def test_trajectory_csv_bytes_equal_format_on_adversarial_corpus(tmp_path):
    values = _csv_corpus()
    ndof = evolution._CSV_BLOCK + 903  # each level spans two blocks
    pad = np.random.default_rng(18).standard_normal(-values.size % ndof)
    states = np.concatenate([values, pad]).reshape(-1, ndof)
    times = np.linspace(0.0, 1.0, len(states))
    traj = Trajectory(times=times, states=states, theta=0.5, dt=times[1])
    got = tmp_path / "got.csv"
    trajectory_to_csv(traj, got, header_lines=["config_hash=abc"])
    want = ["# config_hash=abc", "t,node_id,value"] + [
        f"{t:.17g},{i},{v:.17g}"
        for t, state in zip(times, states.tolist())
        for i, v in enumerate(state)
    ]
    lines = got.read_bytes().decode("ascii").split("\n")
    assert lines[-1] == ""
    assert len(lines) - 1 == len(want)
    assert [(g, w) for g, w in zip(lines, want) if g != w][:5] == []


def test_csv_writer_memory_does_not_grow_with_time_levels(tmp_path):
    # Fixed before measuring: the writer keeps the column ids and one block of
    # rows, never a whole trajectory, so its peak is at most 256 bytes per
    # column plus 4 MiB whatever nt is, and nt = 64 adds under 256 KiB to nt = 8.
    ndof = 10_000
    bound = 256 * ndof + 4 * 2**20
    rng = np.random.default_rng(19)
    peaks = {}
    for nt in (8, 64):
        traj = Trajectory(
            times=np.linspace(0.0, 1.0, nt + 1),
            states=rng.standard_normal((nt + 1, ndof)),
            theta=0.5,
            dt=1.0 / nt,
        )
        tracemalloc.start()
        try:
            trajectory_to_csv(traj, tmp_path / f"nt{nt}.csv")
            _, peaks[nt] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert max(peaks.values()) <= bound, peaks
    assert peaks[64] <= peaks[8] + 2**18, peaks


def _loop_step(sys_, dt, theta, lagged):
    """One theta-step X, g_hat -> X' of the loop oracle.

    The product rule forms C X with the sparse C = M - (1 - theta) dt K, as
    the stepping loop did before Propagator; the lagged rule is Propagator's
    A^{-1} (M X / theta + dt B g_hat) - ((1 - theta) / theta) X.  Both use
    Propagator's factor of A = M + theta dt K: the stepping is under test.
    """
    factor = BandCholesky(sys_.M + theta * dt * sys_.K)
    C = (sys_.M - (1.0 - theta) * dt * sys_.K).tocsr()

    def product(x, g):
        rhs = C @ x
        if g is not None:
            rhs = rhs + dt * (sys_.B @ g)
        return factor.solve(rhs)

    def lag(x, g):
        rhs = sys_.M_diag / theta * x
        if g is not None:
            rhs[sys_.boundary_nodes] += dt * (sys_.m_surf * g)
        return factor.solve(rhs) - (1.0 - theta) / theta * x

    return lag if lagged else product


def _loop_forward(sys_, U0, g, T, nt, theta, lagged=False):
    """The per-call forward loop that Propagator.forward replaced."""
    dt = T / nt
    step = _loop_step(sys_, dt, theta, lagged)
    ghat = evolution._step_sources(sys_, g, nt, theta)
    states = np.empty((nt + 1, sys_.ndof))
    states[0] = U0
    for n in range(nt):
        states[n + 1] = step(states[n], None if ghat is None else ghat[n])
    return states


def _loop_backward(sys_, PhiT, T, nt, theta, lagged=False):
    """The per-call backward loop that Propagator.backward replaced."""
    step = _loop_step(sys_, T / nt, theta, lagged)
    states = np.empty((nt + 1, sys_.ndof))
    states[nt] = PhiT
    for n in range(nt - 1, -1, -1):
        states[n] = step(states[n + 1], None)
    return states


# fixed from the dtype before measuring: a step of either rule rounds a few
# times per entry (right-hand side, the two triangular sweeps of the shared
# factor, the lagged subtraction), and the M-contractive step does not
# amplify earlier rounding, so the rules drift apart by a bounded number of
# ulps per step
PRODUCT_RULE_GAP = 64 * np.finfo(np.float64).eps


def _max_level_gap(sys_, got, want):
    """Largest relative M-norm distance of the levels, over the level index n."""
    gaps = [rel_err(sys_, a, b) / max(n, 1) for n, (a, b) in enumerate(zip(got, want))]
    return max(gaps)


PROPAGATOR_SYSTEMS = {
    "interval8": lambda: interval_sys(n=8),
    "disk8x32": lambda: assemble(build_disk_mesh(1.0, 8, 32), 1.0, 0.5, 1.0),
    "rect7x5": lambda: assemble(build_rect_mesh(1.3, 0.7, 7, 5), 1.0, 0.5, 1.0),
}


FACTOR_SYSTEMS = {
    **PROPAGATOR_SYSTEMS,
    "disk16x64": lambda: assemble(build_disk_mesh(1.0, 16, 64), 1.0, 0.5, 1.0),
    # nx > ny: numbered along y fastest, so the band is ny + 1 wide
    "rect40x3": lambda: assemble(build_rect_mesh(1.0, 0.2, 40, 3), 1.0, 0.5, 1.0),
}


@pytest.mark.parametrize("name", sorted(FACTOR_SYSTEMS))
def test_band_cholesky_matches_sparse_lu(name):
    # fixed from the dtype before measuring: 450 ulps, 1e-13
    tol = 450 * np.finfo(np.float64).eps
    s = FACTOR_SYSTEMS[name]()
    dt = 0.7 / 12
    rng = np.random.default_rng(19)
    # 40 columns take the blocked level-3 path, fewer take dpbtrs
    wide = np.random.default_rng(20).standard_normal((s.ndof, 40))
    # both theta-step matrices, and K as smallest_eigenpair factors it
    for A in (s.M + 0.5 * dt * s.K, s.M + dt * s.K, s.K):
        factor, ref = BandCholesky(A), spla.splu(A.tocsc())
        B = rng.standard_normal((s.ndof, 5))
        for b in (B[:, 0], B, np.asfortranarray(B), wide, np.asfortranarray(wide)):
            kept = b.copy()
            got, want = factor.solve(b), ref.solve(b)
            assert got.shape == b.shape
            np.testing.assert_array_equal(b, kept)
            err = np.abs(got - want).max(axis=0) / np.abs(want).max(axis=0)
            assert np.all(err <= tol)


@pytest.mark.parametrize("name", ["disk8x32", "rect7x5"])
def test_wide_solve_bits_do_not_depend_on_the_block_order(name):
    # 40 columns take the blocked level-3 path, which computes in row-major
    # order whatever the order of the right-hand side
    s = FACTOR_SYSTEMS[name]()
    factor = BandCholesky(s.M + 0.5 * 0.7 / 12 * s.K)
    b = np.random.default_rng(24).standard_normal((s.ndof, 40))
    got = factor.solve(b)
    assert "_blocks" in vars(factor)
    assert factor.solve(np.asfortranarray(b)).tobytes() == got.tobytes()


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(PROPAGATOR_SYSTEMS))
def test_propagator_bitwise_equals_loop_oracle(name, theta):
    # at theta = 1 the lagged step is the product step bit for bit (C = M,
    # (1 - theta) / theta = 0), so the oracle is the product loop itself; at
    # theta = 1/2 it is the loop of the lagged rule, and the product loop
    # agrees within PRODUCT_RULE_GAP per step
    lagged = theta != 1.0
    s = PROPAGATOR_SYSTEMS[name]()
    T, nt = 0.7, 12
    rng = np.random.default_rng(12)
    U0 = rng.standard_normal(s.ndof)
    PhiT = rng.standard_normal(s.ndof)
    signals = [
        None,
        BoundarySignal(rng.standard_normal((nt + 1, s.n_boundary))),  # nodes
        BoundarySignal(rng.standard_normal((nt, s.n_boundary))),  # steps
    ]
    prop = Propagator(s, T, nt, theta)
    for g in signals:
        want = _loop_forward(s, U0, g, T, nt, theta, lagged)
        got = prop.forward(U0, g)
        assert got.states.tobytes() == want.tobytes()
        assert got.dt == T / nt and got.theta == theta
        np.testing.assert_array_equal(got.times, np.linspace(0.0, T, nt + 1))
        assert solve_forward(s, U0, g, T, nt, theta).states.tobytes() == want.tobytes()
        final = prop.forward_final(U0, g)
        assert final.tobytes() == got.states[-1].tobytes()
        product = _loop_forward(s, U0, g, T, nt, theta)
        assert _max_level_gap(s, got.states, product) <= PRODUCT_RULE_GAP
    want = _loop_backward(s, PhiT, T, nt, theta, lagged)
    adj = prop.backward(PhiT)
    assert adj.states.tobytes() == want.tobytes()
    assert solve_backward(s, PhiT, T, nt, theta).states.tobytes() == want.tobytes()
    product = _loop_backward(s, PhiT, T, nt, theta)
    assert _max_level_gap(s, adj.states[::-1], product[::-1]) <= PRODUCT_RULE_GAP
    levels = theta * adj.states[:-1] + (1.0 - theta) * adj.states[1:]
    _, bound = prop.backward_boundary(PhiT)
    trace = evolution._theta_levels(bound, theta)
    assert trace.tobytes() == levels[:, s.boundary_nodes].tobytes()


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(PROPAGATOR_SYSTEMS))
def test_block_backward_matches_one_column_solves(name, theta):
    # a multi-column solve may differ from one-column solves in the last
    # bits (on some LAPACK builds with 5 columns; always with 40, which take
    # the blocked level-3 path), so the block agrees to a few ulps, a
    # single column bitwise
    s = PROPAGATOR_SYSTEMS[name]()
    T, nt = 0.7, 12
    prop = Propagator(s, T, nt, theta)
    for k in (5, 40):
        PhiT = np.random.default_rng(14).standard_normal((s.ndof, k))
        phi0, bound = prop.backward_boundary(PhiT)
        assert phi0.shape == (s.ndof, k)
        assert bound.shape == (nt + 1, s.n_boundary, k)
        for j in range(k):
            adj = prop.backward(PhiT[:, j])
            want0, want_b = adj.states[0], adj.states[:, s.boundary_nodes]
            assert np.abs(phi0[:, j] - want0).max() <= 1e-13 * np.abs(want0).max()
            assert np.abs(bound[:, :, j] - want_b).max() <= 1e-13 * np.abs(want_b).max()
            one0, one_b = prop.backward_boundary(PhiT[:, j])
            assert one0.tobytes() == want0.tobytes()
            assert one_b.tobytes() == want_b.tobytes()
        again0, again_b = prop.backward_boundary(PhiT)
        assert again0.tobytes() == phi0.tobytes()
        assert again_b.tobytes() == bound.tobytes()


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(PROPAGATOR_SYSTEMS))
def test_levels_yield_what_march_keeps(name, theta):
    s = PROPAGATOR_SYSTEMS[name]()
    T, nt, k = 0.7, 12, 5
    prop = Propagator(s, T, nt, theta)
    rng = np.random.default_rng(18)
    U0 = rng.standard_normal(s.ndof)
    g = BoundarySignal(rng.standard_normal((nt + 1, s.n_boundary)))
    ghat = evolution._step_sources(s, g, nt, theta)
    for X, source in ((U0, ghat), (U0, None), (rng.standard_normal((s.ndof, k)), None)):
        levels = list(prop._levels(X, source))
        last, kept = prop._march(enumerate(prop._levels(X, source)), slice(None))
        assert len(levels) == nt + 1
        assert np.array(levels).tobytes() == kept.tobytes()
        assert last.tobytes() == levels[-1].tobytes()
        assert last.flags.f_contiguous == levels[-1].flags.f_contiguous


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(PROPAGATOR_SYSTEMS))
def test_step_is_self_adjoint_in_M(name, theta):
    # <S x, y>_M = <x, S y>_M for the one-step propagator S
    s = PROPAGATOR_SYSTEMS[name]()
    prop = Propagator(s, 0.7, 12, theta)
    x, y = np.random.default_rng(20).standard_normal((2, s.ndof))
    Sx, Sy = (list(itertools.islice(prop._levels(v), 2))[1] for v in (x, y))
    a, b = inner_X2(s, Sx, y), inner_X2(s, x, Sy)
    assert abs(a - b) <= 1e-11 * max(abs(a), abs(b), 1.0)


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("name", sorted(PROPAGATOR_SYSTEMS))
def test_block_levels_are_new_fortran_arrays(name, theta):
    # each level after the first comes in the layout of the solve that made
    # it, whatever the order of the block: Fortran from dpbtrs (5 columns),
    # row-major from the blocked level-3 path (40); the first is the block
    # itself, and a caller may keep every level, as list(_levels(...)) does
    s = PROPAGATOR_SYSTEMS[name]()
    prop = Propagator(s, 0.7, 12, theta)
    for k, layout in ((5, "F_CONTIGUOUS"), (40, "C_CONTIGUOUS")):
        X = np.random.default_rng(21).standard_normal((s.ndof, k))
        for block in (X, np.asfortranarray(X)):
            levels = list(prop._levels(block))
            assert levels[0] is block
            assert all(level.flags[layout] for level in levels[1:])
            for n, level in enumerate(levels[1:], start=1):
                assert not np.shares_memory(level, block)
                assert not any(np.shares_memory(level, prev) for prev in levels[:n])


def test_levels_solve_only_what_is_asked_for():
    s = PROPAGATOR_SYSTEMS["interval8"]()
    nt = 12
    prop = Propagator(s, 0.7, nt, 0.5)
    PhiT = np.random.default_rng(21).standard_normal(s.ndof)
    want = prop.backward(PhiT).states
    prop.factor = counter = _CountingSolves(prop.factor)
    levels = prop._levels(np.ones(s.ndof))
    for solves in range(4):
        next(levels)
        assert counter.solves == solves
    # the backward levels come as (n, Phi^n), n = nt down to 0, each the
    # bits backward stores at t_n
    counter.solves = 0
    got = list(prop._backward_levels(PhiT))
    assert [n for n, _ in got] == list(range(nt, -1, -1))
    assert all(level.tobytes() == want[n].tobytes() for n, level in got)
    assert counter.solves == nt
    counter.solves = 0
    levels = prop._backward_levels(PhiT)
    for solves in range(4):
        next(levels)
        assert counter.solves == solves


def test_levels_drop_their_argument_after_the_first_step():
    # a caller that drops its final data frees it once level 1 is solved:
    # the march holds only the level in flight
    s = PROPAGATOR_SYSTEMS["disk8x32"]()
    prop = Propagator(s, 0.7, 12, 0.5)
    block = np.asfortranarray(np.random.default_rng(22).standard_normal((s.ndof, 5)))
    alive = weakref.ref(block)
    levels = prop._levels(block)
    del block
    next(levels)
    next(levels)
    assert alive() is None


def test_backward_stores_the_adjoint_once():
    # states is written at its time index as each level is solved, so the
    # peak is the trajectory and a few levels, with no reversed copy
    s = assemble(build_rect_mesh(1.0, 1.0, 32, 32), 1.0, 0.0, 1.0)
    prop = Propagator(s, 1.0, 64, 0.5)
    PhiT = np.random.default_rng(23).standard_normal(s.ndof)
    prop.backward(PhiT)  # warm: nothing made once per process is counted
    tracemalloc.start()
    try:
        states = prop.backward(PhiT).states
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * states.nbytes


class _CountingSolves:
    """A factorization that counts its solves."""

    def __init__(self, factor):
        self.factor = factor
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.factor.solve(rhs)


def test_every_method_makes_nt_solves():
    s = PROPAGATOR_SYSTEMS["disk8x32"]()
    T, nt, k = 0.7, 12, 5
    prop = Propagator(s, T, nt, 0.5)
    prop.factor = counter = _CountingSolves(prop.factor)
    rng = np.random.default_rng(15)
    U0 = rng.standard_normal(s.ndof)
    g = BoundarySignal(rng.standard_normal((nt + 1, s.n_boundary)))
    calls = [
        lambda: prop.forward(U0, g),
        lambda: prop.forward_final(U0, g),
        lambda: prop.backward(U0),
        lambda: prop.backward_boundary(U0),
        lambda: prop.backward_boundary(rng.standard_normal((s.ndof, k))),
    ]
    for call in calls:
        counter.solves = 0
        call()
        assert counter.solves == nt


def test_backward_is_the_unforced_march_stored_forward_indexed():
    s = PROPAGATOR_SYSTEMS["rect7x5"]()
    prop = Propagator(s, 0.7, 12, 1.0)
    PhiT = np.random.default_rng(16).standard_normal(s.ndof)
    adj = prop.backward(PhiT)
    assert adj.states.flags.c_contiguous
    assert adj.states[-1].tobytes() == PhiT.tobytes()
    assert adj.states[0].tobytes() == prop.forward_final(PhiT, None).tobytes()
    steps = prop.forward(PhiT, None).states
    assert adj.states.tobytes() == steps[::-1].tobytes()


def test_propagator_validation():
    s = interval_sys(n=8)
    with pytest.raises(ValueError):
        Propagator(s, 1.0, 8, 0.7)
    with pytest.raises(ValueError):
        Propagator(s, 1.0, 0, 0.5)
    with pytest.raises(ValueError):
        Propagator(s, 0.0, 8, 0.5)
    prop = Propagator(s, 1.0, 8, 0.5)
    for method in (prop.forward, prop.forward_final):
        with pytest.raises(ValueError):
            method(np.zeros(s.ndof - 1), None)
    for method in (prop.backward, prop.backward_boundary):
        with pytest.raises(ValueError):
            method(np.zeros(s.ndof + 1))
    for shape in ((s.ndof + 1, 2), (s.ndof, 0), (s.ndof, 2, 1), ()):
        with pytest.raises(ValueError):
            prop.backward_boundary(np.zeros(shape))


@pytest.fixture
def factor_count(monkeypatch):
    """Band Cholesky factorizations made by dynbc.evolution (not by assembly)."""
    calls = []

    class Counting(BandCholesky):
        def __init__(self, A):
            calls.append(A.shape)
            super().__init__(A)

    monkeypatch.setattr(evolution, "BandCholesky", Counting)
    return calls


def test_one_factorization_per_time_grid(factor_count):
    mesh = build_interval_mesh(0, 1, 8)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    U0 = np.random.default_rng(13).standard_normal(s.ndof)

    problem = ControlProblem(sys=s, U0=U0, T=1.0, nt=16, eps=1e-4)
    result = synthesize_control(problem)
    assert result.iterations > 1
    assert len(factor_count) == 1
    factor_count.clear()
    verify_null(problem, result)  # refined grid 2 nt only
    assert len(factor_count) == 1
    factor_count.clear()
    estimate_CT(s, 1.0, 16, 5, seed=2)
    assert len(factor_count) == 1
    factor_count.clear()

    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=lam, R=R, m=1.5, T=0.5, eta=eta)
        for lam in (1.0, 2.0)
        for R in (1.0, 2.0)
    ]
    carleman_sweep(s, grid, 16, 0.5, 3, seed=4)
    assert len(factor_count) == 1
