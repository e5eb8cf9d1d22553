import dataclasses

import numpy as np
import pytest

import dynbc.control
from dynbc import (
    ControlLadder,
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
    synthesize_ladder,
    verify_null,
)
from dynbc.control import _cg_in_M


def interval_sys(n=16):
    return assemble(build_interval_mesh(0, 1, n), 1.0, 0.0, 1.0)


def ground_mode(s):
    _, vec = smallest_eigenpair(s)
    return vec / norm_X2(s, vec)


def test_problem_validation():
    s = interval_sys()
    U0 = np.zeros(s.ndof)
    with pytest.raises(ValueError):
        ControlProblem(sys=s, U0=U0, T=1.0, nt=8, eps=0.0)
    with pytest.raises(ValueError):
        ControlProblem(sys=s, U0=U0, T=1.0, nt=8, cg_tol=1.0)
    with pytest.raises(ValueError):
        ControlProblem(sys=s, U0=U0, T=1.0, nt=1)


def test_problem_rejects_nonpositive_cg_maxit():
    s = interval_sys()
    for maxit in (0, -1):
        with pytest.raises(ValueError, match="cg_maxit"):
            ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=8, cg_maxit=maxit)


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
    prob = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16, eps=1e-4)
    res = synthesize_control(prob)
    assert res.iterations == 0
    assert res.final_norm == 0.0
    np.testing.assert_array_equal(res.g.values, 0.0)
    assert res.converged


def test_control_drives_state_down():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, eps=1e-6, cg_tol=1e-8)
    res = synthesize_control(prob)
    assert res.converged
    free = norm_X2(s, U0)
    assert res.final_norm <= 1e-2 * free
    assert res.iterations <= s.ndof
    assert res.iterations <= prob.cg_maxit


def test_monotonicity_in_eps():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    finals = []
    for eps in (1e-2, 1e-4, 1e-6):
        prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, eps=eps, cg_tol=1e-10)
        finals.append(synthesize_control(prob).final_norm)
    assert finals[2] <= finals[1] <= finals[0]


def test_control_cost_duality():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, eps=1e-5, cg_tol=1e-10)
    res = synthesize_control(prob)
    prop = Propagator(s, 1.0, 64, 0.5)
    quad = inner_X2(s, gramian_apply(prop, res.phi_T), res.phi_T)
    assert res.control_norm**2 == pytest.approx(quad, rel=1e-8)


def test_nonconvergence_flagged():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(
        sys=s, U0=U0, T=1.0, nt=64, eps=1e-8, cg_tol=1e-12, cg_maxit=2
    )
    res = synthesize_control(prob)
    assert not res.converged
    assert res.iterations == 2
    assert np.isfinite(res.final_norm)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_verify_null_report(theta):
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(
        sys=s, U0=U0, T=1.0, nt=64, theta=theta, eps=1e-5, cg_tol=1e-9
    )
    res = synthesize_control(prob)
    rep = verify_null(prob, res)
    assert rep.duality_residual <= 1e-10 * max(1.0, norm_X2(s, U0) ** 2)
    assert rep.optimality_residual <= 10 * prob.cg_tol * rep.optimality_scale
    assert rep.final_norm_refined <= 2 * rep.final_norm
    assert rep.final_norm == res.final_norm


def test_verify_null_zero_case():
    s = interval_sys()
    prob = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16, eps=1e-4)
    res = synthesize_control(prob)
    rep = verify_null(prob, res)
    assert rep.final_norm == 0.0
    assert rep.final_norm_refined == 0.0
    assert rep.duality_residual == 0.0
    assert rep.optimality_residual == 0.0


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("field", ["phi_0", "final_state"])
def test_verify_null_flags_a_perturbed_adjoint_or_final_state(theta, field):
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(
        sys=s, U0=U0, T=1.0, nt=64, theta=theta, eps=1e-5, cg_tol=1e-9
    )
    res = synthesize_control(prob)
    bad = dataclasses.replace(res, **{field: getattr(res, field) * (1.0 + 1e-6)})
    rep = verify_null(prob, bad)
    # the bounds test_verify_null_report accepts
    assert rep.duality_residual > 1e-10 * max(1.0, norm_X2(s, U0) ** 2)
    if field == "phi_0":
        assert rep.optimality_residual > 10 * prob.cg_tol * rep.optimality_scale


def test_penalized_cost_recorded():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, eps=1e-4)
    res = synthesize_control(prob)
    expected = 0.5 * res.control_norm**2 + res.final_norm**2 / (2 * prob.eps)
    assert res.cost == pytest.approx(expected, rel=1e-12)


def test_cg_stops_on_indefinite_operator():
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    signs = np.where(np.arange(s.ndof) % 2 == 0, 1.0, -1.0)
    [(x, iterations, converged)] = _cg_in_M(
        s, lambda v: signs * v, b, [0.0], 1e-10, 50
    )
    assert not converged
    assert iterations < 50
    assert np.all(np.isfinite(x))
    [(x, iterations, converged)] = _cg_in_M(s, lambda v: -v, b, [0.0], 1e-10, 50)
    assert (iterations, converged) == (0, False)
    np.testing.assert_array_equal(x, 0.0)
    [(x, _, converged)] = _cg_in_M(
        s, lambda v: np.full_like(v, np.nan), b, [0.0], 1e-10, 50
    )
    assert not converged
    assert np.all(np.isfinite(x))


def test_cg_stops_only_the_rung_whose_zeta_breaks_down():
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    huge = np.finfo(float).max  # 1 + alpha * huge overflows: alpha = 2 here
    with np.errstate(over="ignore"):
        seed, rung = _cg_in_M(s, lambda v: 0.5 * v, b, [0.0, huge], 1e-10, 50)
    assert seed[1:] == (1, True)
    np.testing.assert_array_equal(seed[0], 2.0 * b)
    assert rung[1:] == (0, False)
    np.testing.assert_array_equal(rung[0], 0.0)


def test_true_residual_is_final_state_defect():
    s = interval_sys(n=16)
    U0 = ground_mode(s)
    prob = ControlProblem(sys=s, U0=U0, T=1.0, nt=64, eps=1e-5, cg_tol=1e-9)
    res = synthesize_control(prob)
    b = Propagator(s, 1.0, 64, 0.5).forward_final(U0, None)
    want = norm_X2(s, res.final_state - prob.eps * res.phi_T) / norm_X2(s, b)
    assert res.true_residual == want
    assert res.true_residual <= 10 * prob.cg_tol
    zero = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16, eps=1e-4)
    assert synthesize_control(zero).true_residual == 0.0


def _plain_cg_in_M(sys, apply_op, b, tol, maxit):
    """The single-eps CG that preceded the multi-shift solver, kept verbatim."""
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


def ladder_problems(case, eps_list, **kw):
    s, U0, nt = case
    return [
        ControlProblem(sys=s, U0=U0, T=1.0, nt=nt, eps=eps, **kw) for eps in eps_list
    ]


def test_one_shift_solver_bitwise_equals_plain_cg(ladder_case):
    s, U0, nt = ladder_case
    prop = Propagator(s, 1.0, nt, 0.5)
    b = prop.forward_final(U0, None)

    def gram(v):
        return gramian_apply(prop, v)

    for eps, tol, maxit in ((1e-6, 1e-8, 500), (1e-4, 1e-8, 500), (1e-6, 1e-8, 3)):
        want = _plain_cg_in_M(s, lambda v: gram(v) + eps * v, b, tol, maxit)
        [got] = _cg_in_M(s, gram, b, [eps], tol, maxit)
        seed = _cg_in_M(s, gram, b, [1e-1, eps * 10, eps], tol, maxit)[2]
        for x, iterations, converged in (got, seed):
            assert (iterations, converged) == want[1:]
            assert x.tobytes() == want[0].tobytes()


def test_ladder_seed_rung_bitwise_equals_single_solve(ladder_case):
    ladder = synthesize_ladder(ladder_problems(ladder_case, LADDER))
    [single] = ladder_problems(ladder_case, [LADDER[-1]])
    alone = synthesize_control(single)
    seed = ladder[-1]
    assert seed.iterations == alone.iterations
    assert seed.converged and alone.converged
    for name in ("phi_T", "final_state"):
        assert getattr(seed, name).tobytes() == getattr(alone, name).tobytes()
    assert seed.g.values.tobytes() == alone.g.values.tobytes()


def test_ladder_rungs_match_their_single_solves(ladder_case):
    s = ladder_case[0]
    problems = ladder_problems(ladder_case, LADDER)
    for problem, rung in zip(problems, synthesize_ladder(problems)):
        alone = synthesize_control(problem)
        assert rung.converged == alone.converged
        # in exact arithmetic the rung's residual is its own CG's
        assert abs(rung.iterations - alone.iterations) <= 1
        gap = norm_X2(s, rung.phi_T - alone.phi_T) / norm_X2(s, alone.phi_T)
        assert gap <= 100 * problem.cg_tol


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("eps_list", [LADDER, (1e-4,)], ids=["ladder", "single"])
def test_phi_0_and_control_come_from_the_backward_solve_of_phi_T(
    ladder_case, theta, eps_list
):
    s = ladder_case[0]
    problems = ladder_problems(ladder_case, eps_list, theta=theta)
    for problem, result in zip(problems, synthesize_ladder(problems)):
        assert result.iterations > 0
        adj = Propagator(s, problem.T, problem.nt, theta).backward(result.phi_T)
        assert result.phi_0.tobytes() == adj.states[0].tobytes()
        trace = adj.theta_levels()[:, s.boundary_nodes]
        assert (-result.g.values).tobytes() == trace.tobytes()


def test_ladder_applies_gramian_once_per_seed_iteration(ladder_case, monkeypatch):
    applies = []

    def counting(prop, PhiT):
        applies.append(1)
        return gramian_apply(prop, PhiT)

    monkeypatch.setattr(dynbc.control, "gramian_apply", counting)
    results = synthesize_ladder(ladder_problems(ladder_case, LADDER))
    assert len(applies) == results[-1].iterations
    assert [r.iterations for r in results] == sorted(r.iterations for r in results)


def test_ladder_keeps_input_order_for_unsorted_and_repeated_eps(ladder_case):
    by_eps = dict(zip(LADDER, synthesize_ladder(ladder_problems(ladder_case, LADDER))))
    order = [1e-4, 1e-6, 1e-2, 1e-4, 1e-6]
    results = synthesize_ladder(ladder_problems(ladder_case, order))
    assert len(results) == len(order)
    for eps, res in zip(order, results):
        want = by_eps[eps]
        assert (res.iterations, res.converged) == (want.iterations, want.converged)
        assert res.phi_T.tobytes() == want.phi_T.tobytes()
        assert res.final_norm == want.final_norm
    for i, a in enumerate(results):
        for b in results[i + 1:]:
            assert a.phi_T is not b.phi_T
            assert a.final_state is not b.final_state


def test_repeated_seed_shift_gets_its_own_iterate():
    s = interval_sys()
    b = np.random.default_rng(1).standard_normal(s.ndof)
    solved = _cg_in_M(s, lambda v: 0.5 * v, b, [0.0, 1.0, 0.0], 1e-10, 50)
    assert solved[0][0] is not solved[2][0]
    assert solved[0][0].tobytes() == solved[2][0].tobytes()


def test_control_with_ladder_solves_once_and_checks_its_rung(ladder_case, monkeypatch):
    problems = ladder_problems(ladder_case, LADDER)
    ladder = ControlLadder(problems)
    applies = []

    def counting(prop, PhiT):
        applies.append(1)
        return gramian_apply(prop, PhiT)

    monkeypatch.setattr(dynbc.control, "gramian_apply", counting)
    [single] = ladder_problems(ladder_case, [LADDER[1]])
    rung = synthesize_control(single, ladder=ladder)
    seed = synthesize_control(problems[-1], ladder=ladder)
    assert len(applies) == seed.iterations
    want = synthesize_ladder(problems)[1]
    assert rung.phi_T.tobytes() == want.phi_T.tobytes()
    assert rung.iterations == want.iterations
    for eps, U0 in ((1e-3, single.U0), (LADDER[1], 2.0 * single.U0)):
        [other] = ladder_problems(ladder_case, [eps])
        other.U0 = U0
        with pytest.raises(ValueError):
            synthesize_control(other, ladder=ladder)


def test_ladder_rejects_problems_that_differ_beyond_eps():
    s = interval_sys()
    U0 = ground_mode(s)
    base = dict(sys=s, U0=U0, T=1.0, nt=16, theta=0.5, cg_tol=1e-8, cg_maxit=500)
    changes = dict(
        sys=interval_sys(),
        U0=2.0 * U0,
        T=2.0,
        nt=32,
        theta=1.0,
        cg_tol=1e-6,
        cg_maxit=10,
    )
    for field, value in changes.items():
        first = ControlProblem(eps=1e-2, **base)
        other = ControlProblem(eps=1e-4, **{**base, field: value})
        with pytest.raises(ValueError):
            synthesize_ladder([first, other])
    with pytest.raises(ValueError):
        synthesize_ladder([])


def test_zero_initial_state_gives_zero_control_on_every_rung():
    s = interval_sys()
    problems = [
        ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16, eps=eps)
        for eps in LADDER
    ]
    results = synthesize_ladder(problems)
    for res in results:
        assert (res.iterations, res.converged, res.final_norm) == (0, True, 0.0)
        np.testing.assert_array_equal(res.g.values, 0.0)
    assert results[0].final_state is not results[1].final_state


@dataclasses.dataclass
class _ShiftedRung:
    """Iterate of one non-seed shift, carried by the seed's Krylov space.

    Its residual is zeta times the seed's residual; zeta_old is the value one
    iteration earlier.
    """

    offset: float  # shift minus the seed's shift, > 0
    x: np.ndarray
    p: np.ndarray
    zeta: float = 1.0
    zeta_old: float = 1.0
    iterations: int = 0
    converged: bool = False


def _two_rule_cg_in_M(sys, apply_op, b, shifts, tol, maxit):
    """The multi-shift CG with a plain-CG seed and a zeta rule for the other
    shifts, which the one-rule solver replaced; its code is kept verbatim."""
    seed = min(shifts)
    x = np.zeros_like(b)
    r = b.copy()
    rho = inner_X2(sys, r, r)
    bnorm = np.sqrt(rho)
    if bnorm == 0.0:
        return [(np.zeros_like(b), 0, True) for _ in shifts]
    rungs = [
        None if s == seed else _ShiftedRung(s - seed, np.zeros_like(b), b.copy())
        for s in shifts
    ]
    active = [rung for rung in rungs if rung is not None]
    p = r.copy()
    alpha_old, beta_old = 1.0, 0.0

    def stop(iterations, converged):
        for rung in active:
            rung.iterations = iterations
        first_seed = shifts.index(seed)
        return [
            (x if i == first_seed else x.copy(), iterations, converged)
            if rung is None
            else (rung.x, rung.iterations, rung.converged)
            for i, rung in enumerate(rungs)
        ]

    for k in range(1, maxit + 1):
        q = apply_op(p) + seed * p
        curvature = inner_X2(sys, p, q)
        if not (np.isfinite(curvature) and curvature > 0.0):
            return stop(k - 1, False)
        alpha = rho / curvature
        x += alpha * p
        r -= alpha * q
        rho_new = inner_X2(sys, r, r)
        rnorm = np.sqrt(rho_new)
        beta = rho_new / rho
        for rung in list(active):
            # 1 / zeta is the seed's residual polynomial at -offset; this is
            # its three-term recurrence, positive for an SPD seed
            den = alpha_old * rung.zeta_old * (1.0 + alpha * rung.offset) + (
                alpha * beta_old * (rung.zeta_old - rung.zeta)
            )
            if not (np.isfinite(den) and den != 0.0):
                rung.iterations = k - 1
                active.remove(rung)
                continue
            zeta = rung.zeta * rung.zeta_old * alpha_old / den
            rung.x += (alpha * zeta / rung.zeta) * rung.p
            if abs(zeta) * rnorm <= tol * bnorm:
                rung.iterations, rung.converged = k, True
                active.remove(rung)
                continue
            rung.p = zeta * r + ((zeta / rung.zeta) ** 2 * beta) * rung.p
            rung.zeta_old, rung.zeta = rung.zeta, zeta
        if rnorm <= tol * bnorm:
            return stop(k, True)
        p = r + beta * p
        rho = rho_new
        alpha_old, beta_old = alpha, beta
    return stop(maxit, False)


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

    got = _cg_in_M(s, gram, b, shifts, 1e-8, maxit)
    assert_same_rungs(got, _two_rule_cg_in_M(s, gram, b, shifts, 1e-8, maxit))


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
        with np.errstate(over="ignore"):
            got = _cg_in_M(s, apply_op, b, shifts, 1e-10, maxit)
            want = _two_rule_cg_in_M(s, apply_op, b, shifts, 1e-10, maxit)
        assert_same_rungs(got, want)
