"""Tests for the numerical verification toolbox itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox.nash import NashProblem, manufacture
from saddleprox.potts import PottsConfig, PottsProblem, dh, dht, gen_synthetic
from saddleprox.schedules import InfeasibleConstantsError, StepTriple
from saddleprox.verify import (
    CheckResult,
    KappaConstants,
    ThreePointReport,
    _three_point_margins,
    bilinear_reduction_check,
    c2_check,
    fd_grad_check,
    kappa_small,
    lift_constants,
    rate_fit,
    shrink_rho,
    standard_suite,
    three_point_sample,
)

GOOD_POINT = (np.array([0.6]), np.array([0.2]))
GOOD_CONSTANTS = KappaConstants(theta_x=0.05, theta_y=0.05, lambda_x=1.0,
                                lambda_y=1.0, xi_x=0.5, xi_y=0.1,
                                rho_x=0.05, rho_y=0.05)


# ---------------------------------------------------------------------------
# Directional derivative check.
# ---------------------------------------------------------------------------


def _potts_state():
    f = gen_synthetic(8, 8, 4, n_shapes=3, noise_sigma=0.05)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), f)
    rng = np.random.default_rng(14)
    x = f.ravel() + 0.05 * rng.normal(size=prob.primal_dim)
    y = 0.3 * rng.normal(size=prob.dual_dim)
    return prob, x, y


def test_fd_grad_check_accepts_correct_gradients():
    prob, x, y = _potts_state()
    assert fd_grad_check(prob, x, y, h=1e-5, n_dirs=30, seed=0) <= 1e-6


def test_fd_grad_check_catches_scaled_gradient():
    class Mutant(PottsProblem):
        def grad_x(self, x, y):
            return 1.01 * super().grad_x(x, y)

    prob, x, y = _potts_state()
    mut = Mutant(prob.config, prob.noisy)
    assert fd_grad_check(mut, x, y, h=1e-5, n_dirs=30, seed=0) > 1e-3


def test_fd_grad_check_catches_sign_flip_in_dual():
    class Mutant(PottsProblem):
        def grad_y(self, x, y):
            return -super().grad_y(x, y)

    prob, x, y = _potts_state()
    mut = Mutant(prob.config, prob.noisy)
    assert fd_grad_check(mut, x, y, h=1e-5, n_dirs=30, seed=0) > 1e-1


def _two_loop_fd_grad_check(problem, x, y, h, n_dirs, seed):
    # fd_grad_check with one loop per block, as before the blocks shared
    # one loop: the reference for exact parity.
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    gx = problem.grad_x(x, y)
    gy = problem.grad_y(x, y)
    worst = 0.0
    for _ in range(n_dirs):
        d = rng.standard_normal(problem.primal_dim)
        d /= np.linalg.norm(d)
        fd = (problem.value(x + h * d, y) - problem.value(x - h * d, y)) / (2.0 * h)
        an = problem.inner_primal(gx, d)
        scale = math.sqrt(problem.inner_primal(gx, gx) * problem.inner_primal(d, d))
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), scale, 1e-300))
    for _ in range(n_dirs):
        d = rng.standard_normal(problem.dual_dim)
        d /= np.linalg.norm(d)
        fd = (problem.value(x, y + h * d) - problem.value(x, y - h * d)) / (2.0 * h)
        an = problem.inner_dual(gy, d)
        scale = math.sqrt(problem.inner_dual(gy, gy) * problem.inner_dual(d, d))
        worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), scale, 1e-300))
    return worst


def _nash_state():
    config, x_star, y_star = manufacture(7)
    prob = NashProblem(config)
    rng = np.random.default_rng(17)
    return (prob, x_star + 0.05 * rng.normal(size=prob.primal_dim),
            y_star + 0.05 * rng.normal(size=prob.dual_dim))


def _potts_inf_state():
    prob, x, y = _potts_state()
    return PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=math.inf), prob.noisy), x, y


@pytest.mark.parametrize("state", [_potts_state, _potts_inf_state, _nash_state],
                         ids=["potts-p1", "potts-pinf", "nash-7"])
@pytest.mark.parametrize("seed", [0, 5])
def test_fd_grad_check_matches_two_loop_form(state, seed):
    prob, x, y = state()
    new = fd_grad_check(prob, x, y, h=1e-5, n_dirs=12, seed=seed)
    assert new == _two_loop_fd_grad_check(prob, x, y, h=1e-5, n_dirs=12, seed=seed)
    assert new > 0.0


# ---------------------------------------------------------------------------
# Bilinear reduction.
# ---------------------------------------------------------------------------


def test_bilinear_reduction_dense_matrix():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(5, 4)) / 3.0
    prox_g = lambda tau, v: v / (1.0 + tau)
    prox_fstar = lambda sigma, w: w / (1.0 + 0.5 * sigma)
    worst = bilinear_reduction_check(
        (lambda v: a @ v, lambda w: a.T @ w), prox_g, prox_fstar,
        StepTriple(0.2, 0.3, 1.0), 50,
        rng.normal(size=4), rng.normal(size=5))
    assert worst <= 1e-13


def test_bilinear_reduction_operator_pair():
    f = gen_synthetic(16, 16, 5, noise_sigma=0.05)
    fwd = lambda v: dh(v.reshape(16, 16)).ravel()
    adj = lambda w: dht(w.reshape(16, 16, 2)).ravel()
    prox_g = lambda tau, v: (v + tau * f.ravel()) / (1.0 + tau)
    prox_fstar = lambda sigma, w: w / (1.0 + 1e-2 * sigma)
    worst = bilinear_reduction_check(
        (fwd, adj), prox_g, prox_fstar, StepTriple(0.1, 0.9 / 0.8, 1.0), 100,
        f.ravel(), np.zeros(16 * 16 * 2))
    assert worst <= 1e-13


# ---------------------------------------------------------------------------
# Model coupling on small spaces.
# ---------------------------------------------------------------------------


def test_kappa_small_hand_values():
    val, gx, gy, gyx = kappa_small(np.array([0.5]), np.array([0.25]))
    # t = 0.125.
    assert val == pytest.approx(0.234375, abs=0)
    assert gx[0] == pytest.approx(0.4375, abs=0)
    assert gy[0] == pytest.approx(0.875, abs=0)
    assert gyx[0, 0] == pytest.approx(1.5, abs=0)
    assert kappa_small(np.array([0.25]), np.array([0.5]))[3][0, 0] == pytest.approx(1.5)


def test_kappa_small_derivatives_match_finite_differences():
    rng = np.random.default_rng(16)
    x = 0.4 * rng.normal(size=3)
    y = 0.4 * rng.normal(size=3)
    val, gx, gy, gyx = kappa_small(x, y)
    eps = 1e-6
    for _ in range(5):
        v = rng.normal(size=3)
        fd = (kappa_small(x + eps * v, y)[0] - kappa_small(x - eps * v, y)[0]) / (2 * eps)
        assert fd == pytest.approx(float(np.dot(gx, v)), rel=1e-6, abs=1e-8)
        fd_gy = (kappa_small(x + eps * v, y)[2] - kappa_small(x - eps * v, y)[2]) / (2 * eps)
        assert np.allclose(fd_gy, gyx @ v, rtol=1e-6, atol=1e-8)
        fd_gx = (kappa_small(x, y + eps * v)[1] - kappa_small(x, y - eps * v)[1]) / (2 * eps)
        assert np.allclose(fd_gx, kappa_small(y, x)[3] @ v, rtol=1e-6, atol=1e-8)


def test_kappa_small_rejects_length_mismatch():
    with pytest.raises(ValueError):
        kappa_small(np.zeros(2), np.zeros(3))


def test_c2_check_boundary_and_failure():
    ok, lo, hi = c2_check(np.array([1.0]), np.array([1.0]))
    assert ok and lo == pytest.approx(2.0) and hi == pytest.approx(2.0)
    ok, _, hi = c2_check(np.array([1.5]), np.array([1.0]))
    assert not ok and hi == pytest.approx(3.0)
    # Orthogonal pair: symmetric part has a negative eigenvalue.
    ok, lo, _ = c2_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert not ok and lo == pytest.approx(-0.5, rel=1e-12)
    assert c2_check(np.array([0.3]), np.array([0.3]))[0]


def _outer_c2_check(x_hat, y_hat, tol=1e-12):
    # c2_check with M = <x,y> I + x (x) y written out, as before it was
    # formed from kappa_small: the reference for parity.
    x = np.asarray(x_hat, dtype=float).ravel()
    y = np.asarray(y_hat, dtype=float).ravel()
    m = float(np.dot(x, y)) * np.eye(x.size) + np.outer(x, y)
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    lo, hi = float(eigs[0]), float(eigs[-1])
    return (lo >= -tol and hi <= 2.0 + tol), lo, hi


_entries = st.floats(-2.0, 2.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.lists(_entries, min_size=m, max_size=m),
                        st.lists(_entries, min_size=m, max_size=m))))
def test_c2_check_matches_outer_product_form(pair):
    x, y = (np.array(v) for v in pair)
    ok, lo, hi = c2_check(x, y)
    ok_ref, lo_ref, hi_ref = _outer_c2_check(x, y)
    scale = max(abs(lo_ref), abs(hi_ref), 1.0)  # the 1 that I - gyx/2 cancels
    assert abs(lo - lo_ref) <= 1e-14 * scale and abs(hi - hi_ref) <= 1e-14 * scale
    if min(abs(lo_ref + 1e-12), abs(hi_ref - 2.0 - 1e-12)) > 1e-13 * scale:
        assert ok == ok_ref


def test_kappa_constants_validation():
    with pytest.raises(InfeasibleConstantsError):
        KappaConstants(theta_x=0.0, theta_y=1.0, lambda_x=1.0, lambda_y=1.0,
                       xi_x=0.1, xi_y=0.1, rho_x=0.1, rho_y=0.1)
    with pytest.raises(InfeasibleConstantsError):
        KappaConstants(theta_x=1.0, theta_y=1.0, lambda_x=-1.0, lambda_y=1.0,
                       xi_x=0.1, xi_y=0.1, rho_x=0.1, rho_y=0.1)
    with pytest.raises(InfeasibleConstantsError):
        KappaConstants(theta_x=1.0, theta_y=1.0, lambda_x=1.0, lambda_y=1.0,
                       xi_x=0.1, xi_y=0.1, rho_x=-0.1, rho_y=0.1)


def test_three_point_sampler_passes_at_small_radii():
    rep = three_point_sample(*GOOD_POINT, GOOD_CONSTANTS, n_samples=3000, seed=0)
    assert isinstance(rep, ThreePointReport)
    assert rep.n_samples == 3000
    assert rep.passed
    assert rep.violations_a == 0 and rep.violations_b == 0
    assert rep.worst_margin_a >= 0.0
    assert rep.worst_margin_b >= 0.0


def test_three_point_sampler_flags_oversized_radii():
    import dataclasses
    big = dataclasses.replace(GOOD_CONSTANTS, rho_x=4.0, rho_y=4.0)
    rep = three_point_sample(*GOOD_POINT, big, n_samples=2000, seed=0)
    assert not rep.passed
    assert rep.violations_b > 0
    assert rep.worst_margin_b < 0.0


def test_three_point_sampler_enforces_feasibility_first():
    import dataclasses
    bad = dataclasses.replace(GOOD_CONSTANTS, lambda_y=0.3)  # needs > |x|^2 = 0.36
    with pytest.raises(InfeasibleConstantsError, match="lambda_y"):
        three_point_sample(*GOOD_POINT, bad, n_samples=10, seed=0)
    bad = dataclasses.replace(GOOD_CONSTANTS, xi_y=0.0)
    with pytest.raises(InfeasibleConstantsError, match="xi_y"):
        three_point_sample(*GOOD_POINT, bad, n_samples=10, seed=0)
    bad = dataclasses.replace(GOOD_CONSTANTS, xi_x=0.05)
    with pytest.raises(InfeasibleConstantsError, match="lambda_x"):
        three_point_sample(*GOOD_POINT, bad, n_samples=10, seed=0)


def test_feasibility_base_point_eigenvalue_branch():
    c = KappaConstants(theta_x=1.0, theta_y=1.0, lambda_x=100.0, lambda_y=5.0,
                       xi_x=100.0, xi_y=1.0, rho_x=0.1, rho_y=0.1)
    with pytest.raises(InfeasibleConstantsError, match="eigenvalue"):
        three_point_sample(np.array([2.0]), np.array([1.2]), c, n_samples=10)


def _closure_margins(x_hat, y_hat, c, xs, xps, ys, yps):
    # The three-point margins written out with row-wise closures, as
    # before the rho kernel: the reference for bit parity.
    def dot(a, b):
        return np.sum(a * b, axis=1)

    def g_x(x, y):
        return 2.0 * y * (1.0 - dot(y, x))[:, None]

    def g_y(x, y):
        return 2.0 * x * (1.0 - dot(x, y))[:, None]

    def g_yx_apply(x, y, v):
        return 2.0 * (v - dot(x, y)[:, None] * v - x * dot(y, v)[:, None])

    def g_xy_apply(x, y, v):
        return 2.0 * (v - dot(x, y)[:, None] * v - y * dot(x, v)[:, None])

    xh = np.broadcast_to(x_hat, xs.shape)
    yh = np.broadcast_to(y_hat, ys.shape)
    lhs_a = dot(g_x(xps, yh) - g_x(xh, yh), xs - xh) + c.xi_x * dot(xs - xh, xs - xh)
    resid_a = g_y(xh, ys) - g_y(xs, ys) - g_yx_apply(xs, ys, xh - xs)
    rhs_a = c.theta_x * np.sqrt(dot(resid_a, resid_a)) \
        - 0.5 * c.lambda_x * dot(xs - xps, xs - xps)
    lhs_b = dot(g_y(xs, ys) - g_y(xs, yps) + g_y(xh, yh) - g_y(xh, ys), ys - yh) \
        + c.xi_y * dot(ys - yh, ys - yh)
    resid_b = g_x(xps, yh) - g_x(xps, yps) - g_xy_apply(xps, yps, yh - yps)
    rhs_b = c.theta_y * np.sqrt(dot(resid_b, resid_b)) \
        - 0.5 * c.lambda_y * dot(ys - yps, ys - yps)
    return lhs_a - rhs_a, lhs_b - rhs_b


@pytest.mark.parametrize("x_hat, y_hat", [((0.6,), (0.2,)), ((0.5, 0.1), (0.15, 0.05))],
                         ids=["m1", "m2"])
@pytest.mark.parametrize("seed", range(6))
def test_three_point_margins_are_bit_identical_to_closures(x_hat, y_hat, seed):
    rng = np.random.default_rng(seed)
    x_hat, y_hat = np.array(x_hat), np.array(y_hat)
    xs, xps = (x_hat + rng.normal(scale=0.5, size=(400, x_hat.size)) for _ in range(2))
    ys, yps = (y_hat + rng.normal(scale=0.5, size=(400, y_hat.size)) for _ in range(2))
    new = _three_point_margins(x_hat, y_hat, GOOD_CONSTANTS, xs, xps, ys, yps)
    old = _closure_margins(x_hat, y_hat, GOOD_CONSTANTS, xs, xps, ys, yps)
    for a, b in zip(new, old):
        assert a.size == b.size == 400 and a.tobytes() == b.tobytes()
    assert min(np.min(new[0]), np.min(new[1])) < 0.0  # violations are compared too


def test_shrink_rho_finds_admissible_radii():
    import dataclasses
    start = dataclasses.replace(GOOD_CONSTANTS, rho_x=1.0, rho_y=1.0)
    rho_x, rho_y = shrink_rho(*GOOD_POINT, start, n_samples=1500, seed=0)
    assert 0 < rho_x <= 1.0 and 0 < rho_y <= 1.0
    final = dataclasses.replace(GOOD_CONSTANTS, rho_x=rho_x, rho_y=rho_y)
    assert three_point_sample(*GOOD_POINT, final, n_samples=1500, seed=1).passed


def test_shrink_rho_needs_positive_start():
    import dataclasses
    zero = dataclasses.replace(GOOD_CONSTANTS, rho_x=0.0)
    with pytest.raises(InfeasibleConstantsError):
        shrink_rho(*GOOD_POINT, zero)


# ---------------------------------------------------------------------------
# Constant transport and rate fitting.
# ---------------------------------------------------------------------------


def test_lift_constants_frozen_example():
    out = lift_constants(a_norm=2.0, r_k=1.0, rho_z=1.0, rho_y=0.5,
                         xi_z=0.3, xi_y=0.4, lambda_z=0.7, lambda_y=1.1,
                         theta_z=0.2, theta_y=0.6, l_z=0.9, l_yz=1.3)
    assert out.r_k == pytest.approx(2.0, rel=1e-15)
    assert out.rho_x == pytest.approx(0.5, rel=1e-15)
    assert out.rho_y == 0.5
    assert out.xi_x == pytest.approx(0.6, rel=1e-15)
    assert out.xi_y == 0.4
    assert out.lambda_x == pytest.approx(1.4, rel=1e-15)
    assert out.lambda_y == 1.1
    assert out.theta_x == 0.2
    assert out.theta_y == pytest.approx(0.3, rel=1e-15)
    assert out.l_x == pytest.approx(3.6, rel=1e-15)
    assert out.l_yx == pytest.approx(5.2, rel=1e-15)
    with pytest.raises(InfeasibleConstantsError):
        lift_constants(0.0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)


def test_rate_fit_exact_geometric_sequence():
    errors = [3.0 * 0.9**i for i in range(100)]
    fit = rate_fit(errors, (0, 99))
    assert fit.rate == pytest.approx(0.9, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.window == (0, 99)


def test_rate_fit_tail_window_ignores_head():
    errors = [50.0, 1.0] + [2.0 * 0.8**i for i in range(60)]
    fit = rate_fit(errors, (2, 61))
    assert fit.rate == pytest.approx(0.8, rel=1e-10)


def test_rate_fit_noise_lowers_r_squared():
    rng = np.random.default_rng(17)
    errors = [0.9**i * math.exp(0.5 * rng.normal()) for i in range(80)]
    fit = rate_fit(errors, (0, 79))
    assert fit.r_squared < 0.999


def test_rate_fit_window_validation():
    errors = [1.0, 0.5, 0.25]
    with pytest.raises(ValueError):
        rate_fit(errors, (2, 2))
    with pytest.raises(ValueError):
        rate_fit(errors, (-1, 2))
    with pytest.raises(ValueError):
        rate_fit(errors, (0, 3))
    with pytest.raises(ValueError):
        rate_fit([1.0, 0.0, 0.25], (0, 2))


# ---------------------------------------------------------------------------
# Named check suite.
# ---------------------------------------------------------------------------


def test_standard_suite_composition():
    suite = standard_suite(seed=0)
    names = [chk.name for chk in suite]
    assert len(names) >= 8
    assert len(set(names)) == len(names)
    for expected in ("adjoint", "grad-potts-p1", "grad-potts-pinf", "grad-nash",
                     "bilinear-reduction", "poisson-roundtrip", "gradnorm-bound"):
        assert expected in names


def test_standard_suite_passes():
    for chk in standard_suite(seed=0):
        result = chk.run()
        assert isinstance(result, CheckResult)
        assert result.passed, "%s failed: margin %g %s" % (
            chk.name, result.margin, result.detail)
        assert result.margin >= 0.0
