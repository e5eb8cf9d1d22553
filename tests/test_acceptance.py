"""Acceptance suite.

One test per criterion; each prints a single [PASS]/[FAIL] line (run pytest
with -s to see them inline).  Criteria are property- and oracle-based at
desk scale, with the tolerances fixed below.
"""

import time

import numpy as np

from dynbc import (
    BoundarySignal,
    CarlemanParams,
    ControlProblem,
    Propagator,
    assemble,
    build_disk_mesh,
    build_eta,
    build_interval_mesh,
    carleman_rhs,
    carleman_sweep,
    check_interpolation,
    duality_residual,
    duhamel_final,
    estimate_CT,
    estimate_coercivity,
    eval_weights,
    gramian_apply,
    inner_X2,
    norm_X2,
    observation_energy,
    smallest_eigenpair,
    solve_backward,
    solve_forward,
    synthesize_control,
    trajectory_norms,
)


def _report(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    detail = f"  [{'; '.join(failures)}]" if failures else ""
    print(f"\n[{status}] criterion {num}: {desc}{detail}")
    assert not failures, f"criterion {num}: {'; '.join(failures)}"


def interval_sys(n, beta=1.0, gamma=1.0, delta=0.0):
    return assemble(build_interval_mesh(0, 1, n), gamma, delta, beta)


def test_criterion_1_duality_identity():
    failures = []
    start = time.perf_counter()
    s = interval_sys(16)
    rng = np.random.default_rng(101)
    for theta in (0.5, 1.0):
        U0 = rng.standard_normal(s.ndof)
        PhiT = rng.standard_normal(s.ndof)
        g = BoundarySignal(rng.standard_normal((33, s.n_boundary)))
        fwd = solve_forward(s, U0, g, 1.0, 32, theta)
        adj = solve_backward(s, PhiT, 1.0, 32, theta)
        res = duality_residual(s, fwd, adj, g)
        scale = max(
            abs(inner_X2(s, fwd.states[-1], adj.states[-1])),
            abs(inner_X2(s, fwd.states[0], adj.states[0])),
            1.0,
        )
        if res > 1e-10 * scale:
            failures.append(f"theta={theta}: residual {res:.2e} > 1e-10 scale")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "discrete duality identity <= 1e-10 relative", failures)


def test_criterion_2_submarkovian():
    failures = []
    start = time.perf_counter()
    for beta in (0.0, 1.0):
        s = interval_sys(16, beta=beta)
        for k in range(100):
            rng = np.random.default_rng(2000 + k)
            U0 = np.abs(rng.standard_normal(s.ndof))
            traj = solve_forward(s, U0, None, 1.0, 32, 1.0)
            if traj.states.min() < -1e-14:
                failures.append(f"beta={beta} seed {k}: min {traj.states.min():.2e}")
                break
            sup = np.abs(traj.states).max(axis=1)
            if not np.all(np.diff(sup) <= 1e-14):
                failures.append(f"beta={beta} seed {k}: sup norm grew")
                break
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(2, "positivity and sup-norm contraction over 200 seeded runs", failures)


def test_criterion_3_self_adjointness():
    failures = []
    start = time.perf_counter()
    s = interval_sys(16)
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        U = rng.standard_normal(s.ndof)
        P = rng.standard_normal(s.ndof)
        fU = solve_forward(s, U, None, 1.0, 32, 1.0)
        fP = solve_forward(s, P, None, 1.0, 32, 1.0)
        a = inner_X2(s, fU.states[-1], P)
        b = inner_X2(s, U, fP.states[-1])
        scale = norm_X2(s, U) * norm_X2(s, P)
        worst = max(worst, abs(a - b) / scale)
    if worst > 1e-11:
        failures.append(f"worst defect {worst:.2e} > 1e-11")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(3, "propagator self-adjointness over 50 random pairs", failures)


def test_criterion_4_oracle_equivalence():
    failures = []
    s = interval_sys(8)
    U0 = np.random.default_rng(104).standard_normal(s.ndof)
    ref = duhamel_final(s, U0, None, 1.0, 1)
    refn = norm_X2(s, ref)
    errs = []
    for nt in (64, 128, 256):
        fwd = solve_forward(s, U0, None, 1.0, nt, 0.5)
        errs.append(norm_X2(s, fwd.states[-1] - ref) / refn)
    for coarse, fine in zip(errs, errs[1:]):
        ratio = coarse / fine
        if not 3.0 <= ratio <= 5.0:
            failures.append(f"refinement ratio {ratio:.2f} outside [3, 5]")
    if errs[-1] > 1e-4:
        failures.append(f"error at nt=256 is {errs[-1]:.2e} > 1e-4")
    _report(4, "Crank-Nicolson vs dense variation-of-constants oracle", failures)


def test_criterion_5_coercive_decay():
    failures = []
    s = interval_sys(32)
    c = estimate_coercivity(s)
    U0 = np.random.default_rng(105).standard_normal(s.ndof)
    traj = solve_forward(s, U0, None, 1.0, 256, 1.0)
    norms = trajectory_norms(s, traj)
    rate = -np.log(norms[-1] / norms[0]) / 1.0
    if rate < 0.9 * c:
        failures.append(f"measured rate {rate:.4f} < 0.9 c = {0.9 * c:.4f}")
    _report(5, "energy decay rate at least 0.9 of the coercivity constant", failures)


def test_criterion_6_carleman_consistency():
    failures = []
    mesh = build_interval_mesh(0, 1, 32)
    s = assemble(mesh, 1.0, 0.0, 1.0)
    eta = build_eta(mesh)
    grid = [
        CarlemanParams(lam=2.0, R=R, m=1.5, T=1.0, eta=eta) for R in (2.0, 4.0, 8.0)
    ]
    sweep = carleman_sweep(s, grid, 128, 0.5, 20, seed=106)
    for lam, R, sid, lhs, rhs, ratio in sweep.rows:
        if not (np.isfinite(lhs) and np.isfinite(rhs) and lhs > 0 and rhs > 0):
            failures.append(f"non-positive/finite sides at R={R} sample {sid}")
            break

    # reproducibility: bit-identical rows under the same seed
    again = carleman_sweep(s, grid, 128, 0.5, 20, seed=106)
    if sweep.rows != again.rows:
        failures.append("sweep not bit-identical under fixed seed")
    if set(sweep.max_ratio) != {(2.0, 2.0), (2.0, 4.0), (2.0, 8.0)}:
        failures.append("max ratio table incomplete")

    # direct vs equation recovery of the right-hand side, with one refinement
    def reldiff(n, nt):
        msh = build_interval_mesh(0, 1, n)
        sys_ = assemble(msh, 1.0, 0.0, 1.0)
        e = build_eta(msh)
        datum = np.sin(3 * np.pi * msh.bulk_nodes[:, 0]) + msh.bulk_nodes[:, 0]
        datum /= norm_X2(sys_, datum)
        adj = solve_backward(sys_, datum, 1.0, nt, 0.5)
        p = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=e)
        re = carleman_rhs(sys_, adj, p, "equation")
        rd = carleman_rhs(sys_, adj, p, "direct")
        return abs(rd - re) / re

    coarse = reldiff(32, 128)
    fine = reldiff(64, 256)
    if coarse > 0.2:
        failures.append(f"path disagreement {coarse:.3f} > 0.2")
    if fine >= coarse:
        failures.append(f"no improvement under refinement ({coarse:.2e} -> {fine:.2e})")
    _report(6, "weighted-inequality evaluation consistent and reproducible", failures)


def test_criterion_7_weight_bounds():
    failures = []
    mesh = build_interval_mesh(0, 1, 32)
    eta = build_eta(mesh)
    params = CarlemanParams(lam=2.0, R=2.0, m=1.5, T=1.0, eta=eta)
    times = np.linspace(0.0, 1.0, 129)[1:-1]
    w = eval_weights(params, mesh, times)
    theta_xi = w.theta[:, None] * w.xi[None, :]
    floor = 4.0 * np.exp(params.lam * params.m * eta.sup_norm) / params.T**2
    if not theta_xi.min() >= floor:
        failures.append(f"min theta*xi {theta_xi.min():.6f} < analytic floor {floor:.6f}")
    mid = (w.times >= 0.25) & (w.times <= 0.75)
    t3x3e = w.theta[:, None] ** 3 * w.xi[None, :] ** 3 * w.exp_factor
    if not t3x3e[mid].min() > 0:
        failures.append("weight floor on [T/4, 3T/4] not positive")
    _report(7, "analytic weight floor and positive mid-interval minimum", failures)


def test_criterion_8_observability():
    failures = []
    s = interval_sys(32)
    long = estimate_CT(s, 1.0, 128, samples=100, seed=108)
    short = estimate_CT(s, 0.5, 64, samples=100, seed=108)
    if not all(
        np.isfinite(r) and r > 0
        for _, _, r in long.per_sample + short.per_sample
    ):
        failures.append("non-finite observability ratio")
    if short.CT_estimate < long.CT_estimate:
        failures.append(
            f"CT(0.5)={short.CT_estimate:.3f} < CT(1.0)={long.CT_estimate:.3f}"
        )
    v = np.random.default_rng(108).standard_normal(s.ndof)
    ratios = []
    for scale in (1.0, 10.0):
        adj = solve_backward(s, scale * v, 1.0, 128, 0.5)
        ratios.append(
            inner_X2(s, adj.states[0], adj.states[0]) / observation_energy(s, adj)
        )
    if abs(ratios[0] - ratios[1]) / ratios[0] > 1e-12:
        failures.append("ratio not scaling invariant")
    _report(8, "observability constant sampling, horizon ordering, invariance", failures)


def test_criterion_9_null_control():
    failures = []
    start = time.perf_counter()
    s = interval_sys(32)
    _, ground = smallest_eigenpair(s)
    U0 = ground / norm_X2(s, ground)
    T, nt, theta, cg_tol = 1.0, 128, 0.5, 1e-8

    # dense-oracle pre-validation: explicit Gramian matrix on the same instance
    G = np.zeros((s.ndof, s.ndof))
    prop = Propagator(s, T, nt, theta)
    for j in range(s.ndof):
        e = np.zeros(s.ndof)
        e[j] = 1.0
        G[:, j] = gramian_apply(prop, e)
    MG = s.M_diag[:, None] * G
    sym_defect = np.abs(MG - MG.T).max() / np.abs(MG).max()
    if sym_defect > 1e-10:
        failures.append(f"Gramian symmetry defect {sym_defect:.2e} > 1e-10")
    eigs = np.linalg.eigvalsh((MG + MG.T) / 2)
    if eigs.min() < -1e-10 * eigs.max():
        failures.append(f"Gramian not PSD: min eig {eigs.min():.2e}")
    b = solve_forward(s, U0, None, T, nt, theta).states[-1]
    dense_final = {}
    for eps in (1e-2, 1e-4, 1e-6):
        phi = np.linalg.solve(G + eps * np.eye(s.ndof), b)
        dense_final[eps] = norm_X2(s, eps * phi)
    if dense_final[1e-6] > 1e-2:
        failures.append(
            f"dense oracle final norm {dense_final[1e-6]:.2e} > 1e-2 ||U0||"
        )

    results = {}
    for eps in (1e-2, 1e-4, 1e-6):
        prob = ControlProblem(
            sys=s, U0=U0, T=T, nt=nt, theta=theta, eps=eps,
            cg_tol=cg_tol, cg_maxit=500,
        )
        res = synthesize_control(prob)
        results[eps] = res
        if not res.converged:
            failures.append(f"CG did not converge at eps={eps}")
        if abs(res.final_norm - dense_final[eps]) > 1e-6 + 0.01 * dense_final[eps]:
            failures.append(
                f"CG path disagrees with dense oracle at eps={eps}: "
                f"{res.final_norm:.3e} vs {dense_final[eps]:.3e}"
            )
    if results[1e-6].final_norm > 1e-2 * norm_X2(s, U0):
        failures.append(f"final norm {results[1e-6].final_norm:.2e} > 1e-2 ||U0||")

    # The ladder law of penalized duality (see the dynbc.control docstring):
    # each g_eps minimizes its own J_eps against every other rung's control,
    # and ||PhiHat_eps||_M is nondecreasing as eps falls, which bounds a
    # step's final-norm ratio by eps_hi / eps_lo.  No fixed rate is promised.
    def J(eps, res):
        return 0.5 * res.control_norm**2 + res.final_norm**2 / (2.0 * eps)

    for eps, own in results.items():
        for other_eps, other in results.items():
            if J(eps, own) > J(eps, other) * (1 + 10 * cg_tol):
                failures.append(
                    f"J_{eps:.0e}(g_{eps:.0e}) = {J(eps, own):.6e} > "
                    f"J_{eps:.0e}(g_{other_eps:.0e}) = {J(eps, other):.6e}"
                )
    for hi, lo in ((1e-2, 1e-4), (1e-4, 1e-6)):
        phi_hi = norm_X2(s, results[hi].phi_T)
        phi_lo = norm_X2(s, results[lo].phi_T)
        if phi_lo < phi_hi:
            failures.append(
                f"||PhiHat||_M falls from {phi_hi:.3e} at eps={hi:.0e} "
                f"to {phi_lo:.3e} at eps={lo:.0e}"
            )
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(9, "penalized null control on the 1D instance", failures)


def test_criterion_10_disk_smoke():
    failures = []
    start = time.perf_counter()
    mesh = build_disk_mesh(1.0, 8, 32)
    s = assemble(mesh, 1.0, 0.1, 1.0)
    rng = np.random.default_rng(110)
    for _ in range(100):
        u = rng.standard_normal(s.n_boundary)
        lhs, rhs = check_interpolation(s, u)
        if lhs > rhs * (1 + 1e-12):
            failures.append("interpolation inequality violated")
            break
    _, ground = smallest_eigenpair(s)
    U0 = ground / norm_X2(s, ground)
    prob = ControlProblem(
        sys=s, U0=U0, T=1.0, nt=64, theta=0.5, eps=1e-4, cg_tol=1e-8, cg_maxit=500
    )
    res = synthesize_control(prob)
    if not res.converged:
        failures.append("CG did not converge")
    if res.iterations > s.ndof:
        failures.append(f"CG used {res.iterations} > dim = {s.ndof} iterations")
    if res.final_norm > 0.1 * norm_X2(s, U0):
        failures.append(f"final norm {res.final_norm:.2e} > 0.1 ||U0||")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 5min")
    _report(10, "2D disk with surface diffusion: interpolation and control", failures)
