import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import dynbc.control
from dynbc import (
    ControlProblem,
    Propagator,
    assemble,
    build_disk_mesh,
    build_interval_mesh,
    gramian_apply,
    inner_X2,
    norm_X2,
    smallest_eigenpair,
    synthesize_control,
    verify_null,
)
from dynbc.control import _Lanczos


def interval_sys(n=16):
    return assemble(build_interval_mesh(0, 1, n), 1.0, 0.0, 1.0)


def ground_mode(s):
    _, vec = smallest_eigenpair(s)
    return vec / norm_X2(s, vec)


def test_problem_validation():
    s = interval_sys()
    U0 = np.zeros(s.ndof)
    problem = ControlProblem(sys=s, U0=U0, T=1.0, nt=8)
    for eps in (0.0, -1e-4, np.nan):
        with pytest.raises(ValueError, match="eps"):
            synthesize_control(problem, eps)
    with pytest.raises(ValueError):
        ControlProblem(sys=s, U0=U0, T=1.0, nt=8, cg_tol=1.0)
    with pytest.raises(ValueError):
        ControlProblem(sys=s, U0=U0, T=1.0, nt=1)


def test_problem_rejects_nonpositive_cg_maxit():
    s = interval_sys()
    for maxit in (0, -1):
        with pytest.raises(ValueError, match="cg_maxit"):
            ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=8, cg_maxit=maxit)


def test_problem_keeps_a_read_only_copy_of_U0():
    # the problem caches the Krylov basis from U0, so U0 cannot change under it
    s = interval_sys()
    U0 = ground_mode(s)
    problem = ControlProblem(sys=s, U0=U0, T=1.0, nt=32)
    before = synthesize_control(problem, 1e-4)
    U0 *= 2.0
    assert synthesize_control(problem, 1e-4).final_norm == before.final_norm
    with pytest.raises(ValueError):
        problem.U0[0] = 1.0


def test_problem_is_freed_without_the_cycle_collector():
    s = interval_sys()
    problem = ControlProblem(sys=s, U0=ground_mode(s), T=1.0, nt=16)
    synthesize_control(problem, 1e-4)
    basis = weakref.ref(problem._krylov)
    gc.disable()
    try:
        del problem
        assert basis() is None
    finally:
        gc.enable()


def test_gramian_zero():
    s = interval_sys()
    out = gramian_apply(Propagator(s, 1.0, 16, 0.5), np.zeros(s.ndof))
    np.testing.assert_array_equal(out, 0.0)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_gramian_symmetry_and_psd(theta):
    s = interval_sys()
    rng = np.random.default_rng(0)
    prop = Propagator(s, 1.0, 24, theta)
    for _ in range(10):
        a = rng.standard_normal(s.ndof)
        b = rng.standard_normal(s.ndof)
        La = gramian_apply(prop, a)
        Lb = gramian_apply(prop, b)
        x = inner_X2(s, La, b)
        y = inner_X2(s, a, Lb)
        assert abs(x - y) <= 1e-10 * max(abs(x), abs(y), 1.0)
        assert inner_X2(s, La, a) >= -1e-12 * inner_X2(s, a, a)


def test_zero_initial_state_gives_zero_control():
    s = interval_sys()
    prob = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16)
    res = synthesize_control(prob, 1e-4)
    assert res.iterations == 0
    assert res.final_norm == 0.0
    np.testing.assert_array_equal(res.g.values, 0.0)
    assert res.converged


def test_control_drives_state_down():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, cg_tol=1e-8)
    res = synthesize_control(prob, 1e-6)
    assert res.converged
    free = norm_X2(s, U0)
    assert res.final_norm <= 1e-2 * free
    assert res.iterations <= s.ndof
    assert res.iterations <= prob.cg_maxit


def test_monotonicity_in_eps():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, cg_tol=1e-10)
    finals = [synthesize_control(prob, eps).final_norm for eps in (1e-2, 1e-4, 1e-6)]
    assert finals[2] <= finals[1] <= finals[0]


def test_control_cost_duality():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, cg_tol=1e-10)
    res = synthesize_control(prob, 1e-5)
    prop = Propagator(s, 1.0, 64, 0.5)
    quad = inner_X2(s, gramian_apply(prop, res.phi_T), res.phi_T)
    assert res.control_norm**2 == pytest.approx(quad, rel=1e-8)


def test_nonconvergence_flagged():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, cg_tol=1e-12, cg_maxit=2)
    res = synthesize_control(prob, 1e-8)
    assert not res.converged
    assert res.iterations == 2
    assert np.isfinite(res.final_norm)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_verify_null_report(theta):
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, theta=theta, cg_tol=1e-9)
    res = synthesize_control(prob, 1e-5)
    rep = verify_null(prob, res)
    assert rep.duality_residual <= 1e-10 * max(1.0, norm_X2(s, U0) ** 2)
    assert rep.optimality_residual <= 10 * prob.cg_tol * rep.optimality_scale
    assert rep.final_norm_refined <= 2 * res.final_norm


def test_verify_null_zero_case():
    s = interval_sys()
    prob = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16)
    res = synthesize_control(prob, 1e-4)
    rep = verify_null(prob, res)
    assert res.final_norm == 0.0
    assert rep.final_norm_refined == 0.0
    assert rep.duality_residual == 0.0
    assert rep.optimality_residual == 0.0


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("field", ["phi_0", "final_state"])
def test_verify_null_flags_a_perturbed_adjoint_or_final_state(theta, field):
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, theta=theta, cg_tol=1e-9)
    res = synthesize_control(prob, 1e-5)
    bad = dataclasses.replace(res, **{field: getattr(res, field) * (1.0 + 1e-6)})
    rep = verify_null(prob, bad)
    # the bounds test_verify_null_report accepts
    assert rep.duality_residual > 1e-10 * max(1.0, norm_X2(s, U0) ** 2)
    if field == "phi_0":
        assert rep.optimality_residual > 10 * prob.cg_tol * rep.optimality_scale


def test_penalized_cost_recorded():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64)
    res = synthesize_control(prob, 1e-4)
    assert res.eps == 1e-4
    expected = 0.5 * res.control_norm**2 + res.final_norm**2 / (2 * res.eps)
    assert res.cost == pytest.approx(expected, rel=1e-12)


def lanczos_solves(sys, apply_op, b, shifts, tol, maxit):
    """(x, iterations, converged) of every shift, solved in order on one basis."""
    basis = _Lanczos(sys, apply_op, b, maxit)
    return [basis.solve(shift, tol) for shift in shifts]


def test_cg_stops_on_indefinite_operator():
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    signs = np.where(np.arange(s.ndof) % 2 == 0, 1.0, -1.0)
    x, iterations, converged = _Lanczos(s, lambda v: signs * v, b, 50).solve(0.0, 1e-10)
    assert not converged
    assert iterations < 50
    assert np.all(np.isfinite(x))
    x, iterations, converged = _Lanczos(s, lambda v: -v, b, 50).solve(0.0, 1e-10)
    assert (iterations, converged) == (0, False)
    np.testing.assert_array_equal(x, 0.0)
    nan = _Lanczos(s, lambda v: np.full_like(v, np.nan), b, 50)
    x, iterations, converged = nan.solve(0.0, 1e-10)
    assert not converged
    assert iterations < 50
    assert np.all(np.isfinite(x))


def test_cg_converges_at_once_on_a_scaled_identity_and_at_a_huge_shift():
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    huge = np.finfo(float).max
    half, big = lanczos_solves(s, lambda v: 0.5 * v, b, [0.0, huge], 1e-10, 50)
    assert half[1:] == (1, True)
    np.testing.assert_allclose(half[0], 2.0 * b, rtol=1e-14, atol=0.0)
    assert big[1:] == (1, True)
    assert np.all(np.isfinite(big[0]))


def test_basis_grows_with_the_iterations_not_with_maxit():
    s = interval_sys(n=16)
    prop = Propagator(s, 1.0, 64, 0.5)
    b = prop.forward_final(ground_mode(s), None)

    def gram(v):
        return gramian_apply(prop, v)

    tracemalloc.start()
    try:
        gram(b)
        _, apply_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        x, iterations, converged = _Lanczos(s, gram, b, 10**6).solve(1e-6, 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert converged
    # a basis preallocated to maxit would be 10**6 * ndof * 8 bytes
    vector = s.ndof * 8
    assert peak <= apply_peak + 4 * (iterations + 1) * vector + 16 * 1024


def test_tiny_cg_tol_stops_at_ndof_iterations_with_finite_iterate():
    s = interval_sys(n=4)
    prob = ControlProblem(sys=s, U0=ground_mode(s), T=1.0, nt=16, cg_tol=1e-300)
    for eps in LADDER:
        res = synthesize_control(prob, eps)
        assert 0 < res.iterations <= s.ndof
        assert np.all(np.isfinite(res.phi_T))
        assert np.isfinite(res.true_residual)


def test_true_residual_is_final_state_defect():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, cg_tol=1e-9)
    res = synthesize_control(prob, 1e-5)
    b = Propagator(s, 1.0, 64, 0.5).forward_final(U0, None)
    want = norm_X2(s, res.final_state - 1e-5 * res.phi_T) / norm_X2(s, b)
    assert res.true_residual == want
    assert res.true_residual <= 10 * prob.cg_tol
    zero = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16)
    assert synthesize_control(zero, 1e-4).true_residual == 0.0


def _plain_cg_in_M(sys, apply_op, b, tol, maxit):
    """The single-eps CG that preceded the Lanczos solver, kept verbatim."""
    x = np.zeros_like(b)
    r = b.copy()
    rho = inner_X2(sys, r, r)
    bnorm = np.sqrt(rho)
    if bnorm == 0.0:
        return x, 0, True
    p = r.copy()
    for k in range(1, maxit + 1):
        q = apply_op(p)
        curvature = inner_X2(sys, p, q)
        if not (np.isfinite(curvature) and curvature > 0.0):
            return x, k - 1, False
        alpha = rho / curvature
        x += alpha * p
        r -= alpha * q
        rho_new = inner_X2(sys, r, r)
        if np.sqrt(rho_new) <= tol * bnorm:
            return x, k, True
        p = r + (rho_new / rho) * p
        rho = rho_new
    return x, maxit, False


LADDER = (1e-2, 1e-4, 1e-6)


@pytest.fixture(params=["interval16", "disk8x32"])
def ladder_case(request):
    """(system, U0, nt) of a small control instance."""
    if request.param == "interval16":
        s, nt = interval_sys(n=16), 64
    else:
        s, nt = assemble(build_disk_mesh(1.0, 8, 32), 1.0, 0.0, 1.0), 32
    return s, ground_mode(s), nt


def ladder_problem(case, **kw):
    s, U0, nt = case
    return ControlProblem(sys=s, U0=U0, T=1.0, nt=nt, **kw)


def ladder(case, eps_list, **kw):
    """Every eps of eps_list synthesized in order on one problem."""
    problem = ladder_problem(case, **kw)
    return [synthesize_control(problem, eps) for eps in eps_list]


def alone(case, eps, **kw):
    """The synthesis of eps on a fresh problem."""
    return synthesize_control(ladder_problem(case, **kw), eps)


def assert_same_result(got, want):
    assert (got.eps, got.iterations, got.converged) == (want.eps, want.iterations, want.converged)
    for name in ("phi_T", "phi_0", "final_state"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.g.values.tobytes() == want.g.values.tobytes()
    assert (got.final_norm, got.control_norm, got.cost, got.true_residual) == (
        want.final_norm, want.control_norm, want.cost, want.true_residual)


def count_gramian_applies(monkeypatch):
    applies = []

    def counting(prop, PhiT):
        applies.append(1)
        return gramian_apply(prop, PhiT)

    monkeypatch.setattr(dynbc.control, "gramian_apply", counting)
    return applies


def test_every_rung_meets_the_cg_tol_residual_bound(ladder_case):
    s, U0, nt = ladder_case
    prop = Propagator(s, 1.0, nt, 0.5)
    b = prop.forward_final(U0, None)
    bnorm = norm_X2(s, b)
    tol = 1e-8

    def gram(v):
        return gramian_apply(prop, v)

    for eps, (x, iterations, converged) in zip(
        LADDER, lanczos_solves(s, gram, b, LADDER, tol, 500)
    ):
        assert converged and 0 < iterations <= s.ndof
        r = gram(x) + eps * x - b
        res = norm_X2(s, r)
        assert res <= tol * bnorm
        # Galerkin: r is M-orthogonal to the basis that holds x, up to the
        # basis' loss of orthogonality (1e-3 here for a short recurrence)
        assert abs(inner_X2(s, r, x)) <= 1e-5 * res * norm_X2(s, x)
        # Lambda is M-PSD, so ||x - y||_M <= ||(Lambda + eps)(x - y)||_M / eps
        plain, _, plain_converged = _plain_cg_in_M(
            s, lambda v: gram(v) + eps * v, b, tol, 500
        )
        assert plain_converged
        bound = (res + norm_X2(s, gram(plain) + eps * plain - b)) / eps
        assert norm_X2(s, x - plain) <= bound


def test_ladder_seed_rung_bitwise_equals_single_solve(ladder_case):
    seed = ladder(ladder_case, LADDER)[-1]
    assert seed.converged
    assert_same_result(seed, alone(ladder_case, LADDER[-1]))


def test_ladder_rungs_match_their_single_solves(ladder_case):
    # the second ladder is unsorted and repeats an eps
    for eps_list in (LADDER, (1e-4, 1e-6, 1e-2, 1e-4)):
        for eps, rung in zip(eps_list, ladder(ladder_case, eps_list)):
            assert rung.converged
            assert_same_result(rung, alone(ladder_case, eps))


@pytest.mark.parametrize(
    "order",
    [LADDER[::-1], (1e-6, 1e-6, 1e-2), (1e-4, 1e-2, 1e-4, 1e-6, 1e-2)],
    ids=["rising", "seed-first-repeated", "unsorted-repeated"],
)
def test_eps_in_any_order_on_one_problem_are_the_solves_on_fresh_problems(
    ladder_case, order, monkeypatch
):
    fresh = {eps: alone(ladder_case, eps) for eps in set(order)}
    applies = count_gramian_applies(monkeypatch)
    results = ladder(ladder_case, order)
    for eps, result in zip(order, results):
        assert_same_result(result, fresh[eps])
    # the basis grows once, to the slowest rung, whatever the order
    assert len(applies) == max(r.iterations for r in results)


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("eps_list", [LADDER, (1e-4,)], ids=["ladder", "single"])
def test_phi_0_and_control_come_from_the_backward_solve_of_phi_T(
    ladder_case, theta, eps_list
):
    s, _, nt = ladder_case
    for result in ladder(ladder_case, eps_list, theta=theta):
        assert result.iterations > 0
        adj = Propagator(s, 1.0, nt, theta).backward(result.phi_T)
        assert result.phi_0.tobytes() == adj.states[0].tobytes()
        trace = adj.theta_levels()[:, s.boundary_nodes]
        assert (-result.g.values).tobytes() == trace.tobytes()


def test_ladder_applies_gramian_once_per_seed_iteration(ladder_case, monkeypatch):
    applies = count_gramian_applies(monkeypatch)
    # the second ladder is unsorted and repeats its seed eps
    for eps_list in (LADDER, (1e-4, 1e-6, 1e-2, 1e-6)):
        applies.clear()
        results = ladder(ladder_case, eps_list)
        seed = results[eps_list.index(min(eps_list))]
        assert len(applies) == seed.iterations
        by_falling_eps = [r.iterations for _, r in sorted(
            zip(eps_list, results), key=lambda pair: -pair[0])]
        assert by_falling_eps == sorted(by_falling_eps)


def test_ladder_finishes_each_rung_by_one_synthesize_control_call(ladder_case, monkeypatch):
    # the bench tracer reads each rung's iterations from these calls, so a
    # rung must be one call that does not re-enter synthesize_control
    order = (1e-4, 1e-6, 1e-2, 1e-4)
    fresh = {eps: alone(ladder_case, eps) for eps in set(order)}
    calls = []
    synthesize = dynbc.control.synthesize_control

    def recording(problem, eps):
        calls.append((problem, eps))
        result = synthesize(problem, eps)
        calls.append(result)
        return result

    monkeypatch.setattr(dynbc.control, "synthesize_control", recording)
    problem = ladder_problem(ladder_case)
    results = [dynbc.control.synthesize_control(problem, eps) for eps in order]
    assert calls[0::2] == [(problem, eps) for eps in order]
    assert all(a is b for a, b in zip(calls[1::2], results))
    for eps, result in zip(order, results):
        assert_same_result(result, fresh[eps])


def test_ladder_keeps_input_order_for_unsorted_and_repeated_eps(ladder_case):
    by_eps = dict(zip(LADDER, ladder(ladder_case, LADDER)))
    order = [1e-4, 1e-6, 1e-2, 1e-4, 1e-6]
    results = ladder(ladder_case, order)
    assert len(results) == len(order)
    for eps, res in zip(order, results):
        want = by_eps[eps]
        assert (res.eps, res.iterations, res.converged) == (eps, want.iterations, want.converged)
        assert res.phi_T.tobytes() == want.phi_T.tobytes()
        assert res.final_norm == want.final_norm
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            assert a.phi_T is not b.phi_T
            assert a.final_state is not b.final_state


def test_repeated_seed_shift_gets_its_own_iterate():
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    solved = lanczos_solves(s, lambda v: 0.5 * v, b, [0.0, 1.0, 0.0], 1e-10, 50)
    assert solved[0][0] is not solved[2][0]
    assert solved[0][0].tobytes() == solved[2][0].tobytes()


def test_lanczos_zero_b_and_maxit():
    s = interval_sys()
    applies = []

    def scaled(v):
        applies.append(1)
        return np.linspace(1.0, 2.0, v.size) * v

    zero = _Lanczos(s, scaled, np.zeros(s.ndof), 50)
    x, y = (zero.solve(shift, 1e-10) for shift in (0.0, 1.0))
    assert x[1:] == y[1:] == (0, True)
    assert x[0] is not y[0]
    np.testing.assert_array_equal(x[0], 0.0)
    assert applies == []
    b = np.random.default_rng(1).standard_normal(s.ndof)
    capped = _Lanczos(s, scaled, b, 3)
    for shift in (0.0, 1.0, 0.0):
        x, iterations, converged = capped.solve(shift, 1e-10)
        assert (iterations, converged) == (3, False)
        assert np.all(np.isfinite(x))
    assert len(applies) == 3


def test_control_with_ladder_solves_once_and_checks_its_rung(ladder_case, monkeypatch):
    singles = [alone(ladder_case, eps) for eps in LADDER]
    applies = count_gramian_applies(monkeypatch)
    results = ladder(ladder_case, LADDER)
    assert len(applies) == max(r.iterations for r in results) == results[-1].iterations
    for rung, single in zip(results, singles):
        assert_same_result(rung, single)


def test_zero_initial_state_gives_zero_control_on_every_rung():
    s = interval_sys()
    problem = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16)
    results = [synthesize_control(problem, eps) for eps in LADDER]
    for res in results:
        assert (res.iterations, res.converged, res.final_norm) == (0, True, 0.0)
        np.testing.assert_array_equal(res.g.values, 0.0)
    assert results[0].final_state is not results[1].final_state


def _two_rule_cg_in_M(sys, apply_op, b, shifts, tol, maxit):
    """Reference for `_Lanczos`, written as two rules applied one after the other.

    The basis rule runs Lanczos with two Gram-Schmidt passes until maxit,
    ndof vectors, a non-finite alpha or beta, or beta = 0, keeping every
    vector, alpha and beta.  The shift rule then walks each shift's pivots
    of T_k + s I = L D L^T over that whole run and stops it at its first
    non-positive pivot or at its first k with beta_{k+1} |e_k^T y| <=
    tol ||b||_M, and forms x = V_k y by back substitution.
    """
    bnorm = norm_X2(sys, b)
    if bnorm == 0.0:
        return [(np.zeros_like(b), 0, True) for _ in shifts]
    limit = min(maxit, b.size)
    V = np.empty((limit + 1, b.size))
    V[0] = b / bnorm
    alphas, betas = [], []
    for k in range(1, limit + 1):
        w = apply_op(V[k - 1])
        alpha = 0.0
        for _ in range(2):
            h = V[:k] @ (sys.M_diag * w)
            w = w - h @ V[:k]
            alpha += float(h[-1])
        beta = norm_X2(sys, w)
        if not (np.isfinite(alpha) and np.isfinite(beta)):
            break
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0:
            break
        V[k] = w / beta
    steps = len(alphas)

    def shift_rule(shift):
        pivots, rhs = [], []
        for k in range(1, steps + 1):
            alpha, beta = alphas[k - 1], betas[k - 1]
            if k == 1:
                pivots.append(alpha + shift)
                rhs.append(bnorm)
            else:
                lower = betas[k - 2] / pivots[-1]
                pivots.append(alpha + shift - lower * betas[k - 2])
                rhs.append(-lower * rhs[-1])
            if not (np.isfinite(pivots[-1]) and pivots[-1] > 0.0):
                return k - 1, False
            if beta * abs(rhs[-1] / pivots[-1]) <= tol * bnorm:
                return k, True
        return steps, False

    out = []
    for shift in shifts:
        iterations, converged = shift_rule(shift)
        d, z = [], []
        for k in range(iterations):
            if k == 0:
                d.append(alphas[0] + shift)
                z.append(bnorm)
            else:
                lower = betas[k - 1] / d[-1]
                d.append(alphas[k] + shift - lower * betas[k - 1])
                z.append(-lower * z[-1])
        y = np.empty(iterations)
        for j in reversed(range(iterations)):
            y[j] = z[j] / d[j]
            if j + 1 < iterations:
                y[j] -= betas[j] / d[j] * y[j + 1]
        out.append((y @ V[:iterations], iterations, converged))
    return out


def assert_same_rungs(got, want):
    assert len(got) == len(want)
    for (x, iterations, converged), (want_x, want_its, want_conv) in zip(got, want):
        assert (iterations, converged) == (want_its, want_conv)
        assert x.tobytes() == want_x.tobytes()


@pytest.mark.parametrize("maxit", [3, 500])
@pytest.mark.parametrize(
    "shifts",
    [[1e-2, 1e-4, 1e-6], [1e-4, 1e-6, 1e-2, 1e-4], [1e-4]],
    ids=["ladder", "unsorted-repeated", "single"],
)
def test_one_rule_cg_bitwise_equals_two_rule_oracle(ladder_case, shifts, maxit):
    s, U0, nt = ladder_case
    prop = Propagator(s, 1.0, nt, 0.5)
    b = prop.forward_final(U0, None)

    def gram(v):
        return gramian_apply(prop, v)

    got = lanczos_solves(s, gram, b, shifts, 1e-8, maxit)
    assert_same_rungs(got, _two_rule_cg_in_M(s, gram, b, shifts, 1e-8, maxit))
    want = [_Lanczos(s, gram, b, maxit).solve(eps, 1e-8) for eps in shifts]
    assert_same_rungs(got, want)


BREAKDOWN_OPERATORS = {
    "indefinite": lambda v: np.where(np.arange(v.size) % 2 == 0, 1.0, -1.0) * v,
    "negative": lambda v: -v,
    "nan": lambda v: np.full_like(v, np.nan),
    "half": lambda v: 0.5 * v,
}


@pytest.mark.parametrize("maxit", [3, 50])
@pytest.mark.parametrize("op", sorted(BREAKDOWN_OPERATORS))
def test_one_rule_cg_bitwise_equals_two_rule_oracle_on_breakdown(op, maxit):
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    huge = np.finfo(float).max
    apply_op = BREAKDOWN_OPERATORS[op]
    for shifts in ([0.0], [0.0, huge], [huge, 1.0, 0.0, 0.0]):
        got = lanczos_solves(s, apply_op, b, shifts, 1e-10, maxit)
        oracle = _two_rule_cg_in_M(s, apply_op, b, shifts, 1e-10, maxit)
        assert_same_rungs(got, oracle)
        want = [_Lanczos(s, apply_op, b, maxit).solve(shift, 1e-10) for shift in shifts]
        assert_same_rungs(got, want)
        for x, _, _ in got:
            assert np.all(np.isfinite(x))
