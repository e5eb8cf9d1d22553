import numpy as np
import pytest

from dynbc import (
    ControlProblem,
    Propagator,
    assemble,
    build_interval_mesh,
    gramian_apply,
    inner_X2,
    norm_X2,
    smallest_eigenpair,
    synthesize_control,
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
    rep = verify_null(s, prob, res)
    assert rep.duality_residual <= 1e-10 * max(1.0, norm_X2(s, U0) ** 2)
    assert rep.optimality_residual <= 10 * prob.cg_tol * rep.optimality_scale
    assert rep.final_norm_refined <= 2 * rep.final_norm
    assert rep.final_norm == res.final_norm


def test_verify_null_zero_case():
    s = interval_sys()
    prob = ControlProblem(sys=s, U0=np.zeros(s.ndof), T=1.0, nt=16, eps=1e-4)
    res = synthesize_control(prob)
    rep = verify_null(s, prob, res)
    assert rep.final_norm == 0.0
    assert rep.final_norm_refined == 0.0
    assert rep.duality_residual == 0.0
    assert rep.optimality_residual == 0.0


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
    x, iterations, converged = _cg_in_M(s, lambda v: signs * v, b, 1e-10, 50)
    assert not converged
    assert iterations < 50
    assert np.all(np.isfinite(x))
    x, iterations, converged = _cg_in_M(s, lambda v: -v, b, 1e-10, 50)
    assert (iterations, converged) == (0, False)
    np.testing.assert_array_equal(x, 0.0)
    x, _, converged = _cg_in_M(s, lambda v: np.full_like(v, np.nan), b, 1e-10, 50)
    assert not converged
    assert np.all(np.isfinite(x))


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
