"""Step-size rules, admissibility bounds, and condition checkers."""

import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox.core import ConfigurationError
from saddleprox.nash import Grid
from saddleprox.schedules import (
    POTTS_PRESETS,
    AcceleratedRule,
    ConstantRule,
    InfeasibleConstantsError,
    LinearRateRule,
    LocalityBudget,
    ProblemConstants,
    StepTriple,
    bound_accelerated,
    bound_constant,
    bound_linear,
    check_48,
    check_52,
    potts_jump_bounds,
    potts_steps,
)
from saddleprox.verify import KappaConstants, rate_fit, shrink_rho

positive = st.floats(min_value=1e-3, max_value=1e3)


# ---------------------------------------------------------------------------
# Rules.
# ---------------------------------------------------------------------------


def test_step_triple_is_constant_schedule():
    t = StepTriple(0.1, 0.2, 0.9)
    assert t.triple(0) is t
    assert t.triple(10**6) is t


@pytest.mark.parametrize("bad", [(0.0, 1, 1), (1, -2, 1), (1, 1, 0.0), (1, 1, math.inf),
                                 (1, 1, math.nan)])
def test_step_triple_rejects_nonpositive(bad):
    with pytest.raises(InfeasibleConstantsError):
        StepTriple(*bad)


@pytest.mark.parametrize("bad", [(1e308, 1e-3, 1.0), (1e-3, 1e308, 1.0), (math.inf, 1, 1)])
def test_step_triple_rejects_steps_past_half_the_largest_float(bad):
    # The Potts step plan doubles tau and sigma: 2 * 1e308 is inf, and its
    # step would diverge at iteration 1 where the generic update stays finite.
    with pytest.raises(InfeasibleConstantsError, match="half the largest float"):
        StepTriple(*bad)
    half = sys.float_info.max / 2
    assert StepTriple(half, half, 1.0).tau == half


def test_constant_rule_fixes_omega_at_one():
    rule = ConstantRule(0.3, 0.7)
    for i in (0, 1, 57):
        trip = rule.triple(i)
        assert (trip.tau, trip.sigma, trip.omega) == (0.3, 0.7, 1.0)


def test_accelerated_rule_first_steps():
    # tau0 = 1, gtg = 1/2: tau_i = 1/(1 + i).
    rule = AcceleratedRule(tau0=1.0, sigma=0.25, gtg=0.5)
    assert rule.triple(0).tau == pytest.approx(1.0, abs=0)
    assert rule.triple(1).tau == pytest.approx(0.5, abs=0)
    assert rule.triple(2).tau == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert rule.triple(3).sigma == 0.25
    assert rule.triple(3).omega == 1.0


def test_accelerated_closed_form_matches_recursion():
    gtg, tau0 = 0.5, 1.0
    rule = AcceleratedRule(tau0=tau0, sigma=0.3, gtg=gtg)
    tau = tau0
    checkpoints = {1, 2, 10, 1000, 10**5, 10**6}
    for i in range(1, 10**6 + 1):
        tau = tau / (1.0 + 2.0 * gtg * tau)
        if i in checkpoints:
            closed = rule.triple(i).tau
            assert abs(tau - closed) / closed < 1e-12


def test_accelerated_rule_needs_positive_gtg():
    with pytest.raises(InfeasibleConstantsError):
        AcceleratedRule(tau0=1.0, sigma=1.0, gtg=0.0)


def test_linear_rate_rule_hand_values():
    rule = LinearRateRule(tau=0.99, gtg=1.0, gtf=1.0)
    assert rule.sigma == pytest.approx(0.99, abs=0)
    assert rule.omega == pytest.approx(1.0 / 2.98, rel=1e-15)
    trip = rule.triple(7)
    assert (trip.tau, trip.sigma, trip.omega) == (rule.tau, rule.sigma, rule.omega)


def test_linear_rate_rule_needs_both_moduli():
    with pytest.raises(InfeasibleConstantsError):
        LinearRateRule(tau=0.1, gtg=0.0, gtf=1.0)
    with pytest.raises(InfeasibleConstantsError):
        LinearRateRule(tau=0.1, gtg=1.0, gtf=-1.0)


@settings(max_examples=50, deadline=None)
@given(tau=positive, gtg=positive, gtf=positive)
def test_linear_rate_identities_hold_generically(tau, gtg, gtf):
    rule = LinearRateRule(tau=tau, gtg=gtg, gtf=gtf)
    assert 0.0 < rule.omega < 1.0
    assert rule.sigma * gtf == pytest.approx(tau * gtg, rel=1e-15)
    assert rule.omega * (1.0 + 2.0 * gtg * tau) == pytest.approx(1.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Problem constants and admissibility bounds.
# ---------------------------------------------------------------------------


def test_constants_warn_outside_standard_split_range():
    with pytest.warns(UserWarning, match="delta"):
        ProblemConstants(r_k=1.0, delta=0.1, mu=0.05)
    with pytest.warns(UserWarning):
        ProblemConstants(r_k=1.0, delta=0.0, mu=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ProblemConstants(r_k=1.0, delta=0.1, mu=0.1)


def test_constants_reject_negative_sensitivity():
    with pytest.raises(InfeasibleConstantsError):
        ProblemConstants(r_k=-1.0)


def test_bound_constant_hand_values():
    c = ProblemConstants(r_k=1.0, lambda_x=0.2, lambda_y=1.0, l_yx=1.0,
                         rho_y=0.1, delta=0.1, mu=0.1)
    tau_sup, sigma_max = bound_constant(c)
    # delta / (lambda_x + 3*l_yx*rho_y) = 0.1 / 0.5.
    assert tau_sup == pytest.approx(0.2, rel=1e-15)
    # 1 / (r_k^2*tau/(1-mu) + lambda_y) at tau = 0.09.
    assert sigma_max(0.09) == pytest.approx(1.0 / (0.09 / 0.9 + 1.0), rel=1e-15)


def test_bound_constant_degenerate_denominators_give_inf():
    c = ProblemConstants(r_k=0.0, lambda_x=0.0, l_yx=0.0, lambda_y=0.0)
    tau_sup, sigma_max = bound_constant(c)
    assert math.isinf(tau_sup)
    assert math.isinf(sigma_max(0.5))


@pytest.mark.parametrize("mu", [1.0, 2.0, math.nan])
def test_bounds_dividing_by_one_minus_mu_reject_mu_from_one(mu):
    with pytest.warns(UserWarning, match="mu"):
        c = ProblemConstants(r_k=1.0, lambda_x=1.0, lambda_y=1.0, gtg=1.0,
                             gtf=1.0, delta=0.1, mu=mu)
    for bound in (lambda: bound_constant(c)[1](0.05), lambda: bound_accelerated(c),
                  lambda: bound_linear(c),
                  lambda: check_48(c, [StepTriple(0.05, 0.5, 1.0)])):
        with pytest.raises(InfeasibleConstantsError, match="mu < 1"):
            bound()


def test_bound_accelerated_product_cap():
    c = ProblemConstants(r_k=2.0, lambda_x=0.2, l_yx=1.0, rho_y=0.1,
                         delta=0.1, mu=0.4)
    tau0_sup, cap = bound_accelerated(c)
    assert tau0_sup == pytest.approx(0.2, rel=1e-15)
    assert cap == pytest.approx(0.6 / 4.0, rel=1e-15)


def test_bound_linear_rational_hand_case():
    # quad = 1/0.9 + 2 = 28/9, so the root solves (28/9) t^2 + t = 1,
    # i.e. t = 3/7 exactly.
    c = ProblemConstants(r_k=1.0, lambda_y=1.0, gtg=1.0, gtf=1.0,
                         delta=0.1, mu=0.1)
    assert bound_linear(c) == pytest.approx(3.0 / 7.0, rel=1e-15)


def test_bound_linear_without_dual_smoothness():
    # lambda_y = 0 collapses the root to sqrt(gtf*(1-mu)/gtg)/r_k.
    c = ProblemConstants(r_k=1.0, lambda_y=0.0, gtg=1.0, gtf=1.0,
                         delta=0.1, mu=0.1)
    assert bound_linear(c) == pytest.approx(math.sqrt(0.9), rel=1e-14)


def test_bound_linear_takes_primal_cap_when_smaller():
    c = ProblemConstants(r_k=1.0, lambda_x=10.0, lambda_y=1.0, gtg=1.0,
                         gtf=1.0, delta=0.1, mu=0.1)
    assert bound_linear(c) == pytest.approx(0.01, rel=1e-15)


def test_bound_linear_requires_moduli():
    with pytest.raises(InfeasibleConstantsError):
        bound_linear(ProblemConstants(r_k=1.0, gtg=0.0, gtf=1.0))


def test_bound_linear_and_rules_take_gtg_past_half_the_largest_float():
    # 2*gtg overflows, but gtg*lambda_y and gtg*tau do not: the bound is
    # finite, omega positive and the accelerated steps no NaN.
    c = ProblemConstants(r_k=1.0, gtg=1e308, gtf=1.0, delta=0.1, mu=0.1)
    tau = bound_linear(c)
    assert tau == pytest.approx(math.sqrt(0.9) * 1e-154, rel=1e-12)
    omega = LinearRateRule(tau, c.gtg, c.gtf).triple(0).omega
    assert omega == pytest.approx(0.5 / (1e308 * tau), rel=1e-12)
    rule = AcceleratedRule(1e-160, 1.0, 1e308)
    assert rule.triple(0).tau == 1e-160
    assert rule.triple(1).tau == pytest.approx(1e-160 / (1.0 + 2e148), rel=1e-15)


def test_primal_cap_takes_l_yx_past_a_third_of_the_largest_float():
    # l_yx*(omega+2) overflows, but l_yx*rho_y does not: the cap is
    # delta/(lambda_x + 3*l_yx*rho_y), not 0, and with rho_y = 0 it is
    # delta/lambda_x, not unbounded.
    c = ProblemConstants(r_k=1.0, lambda_x=1.0, l_yx=1e308, rho_y=1e-300)
    tau_sup, sigma_max = bound_constant(c)
    assert tau_sup == pytest.approx(0.1 / (1.0 + 3e8), rel=1e-15)
    assert sigma_max(0.99 * tau_sup) > 0
    assert bound_constant(dataclasses.replace(c, rho_y=0.0))[0] == 0.1
    report = check_48(c, [StepTriple(0.9 * tau_sup, 1.0, 1.0)])
    primal = {cond.name: cond for cond in report.conditions}["primal-step"]
    assert primal.margin == pytest.approx(0.1, rel=1e-9)
    # A finite product keeps its left-to-right order, and so its bits:
    # regrouped, this cap would end in another bit.
    finite = dataclasses.replace(c, l_yx=1.3, rho_y=0.4)
    assert bound_constant(finite)[0] == 0.1 / (1.0 + 1.3 * 3.0 * 0.4)


@settings(max_examples=60, deadline=None)
@given(
    r_k=st.floats(min_value=0.1, max_value=5.0),
    lambda_y=st.floats(min_value=0.0, max_value=5.0),
    gtg=st.floats(min_value=1e-2, max_value=10.0),
    gtf=st.floats(min_value=1e-2, max_value=10.0),
    mu=st.floats(min_value=0.05, max_value=0.9),
)
def test_bound_linear_solves_its_quadratic(r_k, lambda_y, gtg, gtf, mu):
    c = ProblemConstants(r_k=r_k, lambda_y=lambda_y, gtg=gtg, gtf=gtf,
                         delta=0.05, mu=mu)
    tau = bound_linear(c)
    quad = r_k**2 / (1.0 - mu) + 2.0 * gtg * lambda_y
    residual = quad * tau**2 + lambda_y * tau - gtf / gtg
    assert abs(residual) <= 1e-10 * max(1.0, gtf / gtg)


# ---------------------------------------------------------------------------
# Denoising step calculator and presets.
# ---------------------------------------------------------------------------


def test_potts_jump_bounds():
    m_x, m_y = potts_jump_bounds(1, 1.0, 10.0)
    assert m_x == 1.0
    assert m_y == pytest.approx(2.0 / 12.0, rel=1e-15)
    m_x, m_y = potts_jump_bounds(math.inf, 1.0, 10.0)
    assert m_x == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert m_y == pytest.approx(2.0 * m_x / (2.0 * m_x**2 + 10.0), rel=1e-15)
    with pytest.raises(InfeasibleConstantsError):
        potts_jump_bounds(2, 1.0, 10.0)


def test_potts_jump_bounds_dual_bound_peaks_at_the_smoothing_scale():
    # m_y = 2*m_x/(2*m_x^2 + gamma_bar) is largest, 1/sqrt(2*gamma_bar), at
    # m_x = sqrt(gamma_bar/2), and smaller for a range on either side.
    gamma_bar = 1e-3
    peak = 1.0 / math.sqrt(2.0 * gamma_bar)
    for p, scale in ((1, 1.0), (math.inf, math.sqrt(2.0))):
        best = math.sqrt(gamma_bar / 2.0) / scale
        m_x, m_y = potts_jump_bounds(p, best, gamma_bar)
        assert m_x == pytest.approx(math.sqrt(gamma_bar / 2.0), rel=1e-15)
        assert m_y == pytest.approx(peak, rel=1e-12)
        for factor in (0.5, 2.0):
            assert potts_jump_bounds(p, factor * best, gamma_bar)[1] < m_y


def test_potts_steps_default_triples_frozen():
    trip1, _ = potts_steps(alpha=1.0, gamma=1e-3, p=1)
    assert trip1.tau == pytest.approx(9.6659160797921986e-4, rel=1e-12)
    assert trip1.sigma == pytest.approx(0.96659160797921986, rel=1e-12)
    assert trip1.omega == pytest.approx(0.99980671904315433, rel=1e-12)
    tripi, _ = potts_steps(alpha=1.0, gamma=1e-3, p=math.inf)
    assert tripi.tau == pytest.approx(4.9558360188249812e-4, rel=1e-12)
    assert tripi.sigma == pytest.approx(0.49558360188249812, rel=1e-12)
    assert tripi.omega == pytest.approx(0.99990089310277412, rel=1e-12)


@pytest.mark.parametrize("p", [1, math.inf])
@pytest.mark.parametrize("alpha,gamma", [(1.0, 1e-3), (0.7, 1e-2), (2.0, 1e-4)])
def test_potts_steps_identities(p, alpha, gamma):
    trip, c = potts_steps(alpha=alpha, gamma=gamma, p=p)
    assert trip.sigma * c.gtf == pytest.approx(trip.tau * c.gtg, rel=1e-12)
    assert trip.omega * (1.0 + 2.0 * c.gtg * trip.tau) == pytest.approx(1.0, rel=1e-12)
    # Defaults keep a tenth of each strong-convexity modulus.
    assert c.gtg == pytest.approx(1.0 / (10.0 * alpha), rel=1e-15)
    assert c.gtf == pytest.approx(gamma / 10.0, rel=1e-15)
    assert c.gamma_g == pytest.approx(1.0 / alpha, rel=1e-15)
    assert c.gamma_f == pytest.approx(gamma, rel=1e-15)
    assert c.xi_x == pytest.approx(c.gamma_g - c.gtg, rel=1e-15)
    assert c.xi_y == pytest.approx(c.gamma_f - c.gtf, rel=1e-15)


def test_potts_steps_schedule_is_admissible():
    for p in (1, math.inf):
        trip, c = potts_steps(alpha=1.0, gamma=1e-3, p=p)
        assert trip.tau < bound_linear(c)
        report = check_48(c, [trip] * 10)
        assert report.passed


@pytest.mark.parametrize("p", [1, math.inf])
def test_no_admissible_potts_triple_beats_the_linear_rate_cap(p):
    # check_48's dual-step row needs sigma * lambda_y < 1, and sigma = tau *
    # gtg / gtf with gtf < gamma, so omega = 1/(1 + 2 gtg tau) > 1/(1 + 2
    # gamma / lambda_y).  All 576 triples of this grid are admissible; the
    # smallest omega is 0.998130 against a cap of 0.998004 at p = 1, and
    # 0.999019 against 0.999001 at p = inf.
    alpha, gamma, admitted = 1.0, 1e-3, 0
    for gtg in np.geomspace(1e-4, 0.49, 12):
        for gtf in np.geomspace(1e-6, 0.999 * gamma, 12):
            for delta in (0.05, 0.1, 0.5, 0.9):
                trip, c = potts_steps(alpha, gamma, p, delta=delta, gtg=float(gtg),
                                      gtf=float(gtf))
                if check_48(c, [trip] * 3).passed:
                    admitted += 1
                    assert trip.omega > 1.0 / (1.0 + 2.0 * gamma / c.lambda_y)
    assert admitted > 0


def test_potts_steps_reject_steps_that_underflow_to_zero():
    # 1/(10 alpha) is finite at alpha = 1e-309, but 2*gtg*lambda_y in
    # bound_linear overflows and tau and sigma come out 0.
    with pytest.raises(FloatingPointError, match="underflow to 0"):
        potts_steps(1e-309, 1e-3, 1)
    assert potts_steps(2e-309, 1e-3, 1)[0].tau > 0


def test_potts_steps_moduli_bounds_enforced():
    with pytest.raises(InfeasibleConstantsError):
        potts_steps(1.0, 1e-3, 1, gtg=1.0)  # needs gtg < 1/alpha
    with pytest.raises(InfeasibleConstantsError):
        potts_steps(1.0, 1e-3, 1, gtf=1e-3)  # needs gtf < gamma
    with pytest.raises(InfeasibleConstantsError):
        potts_steps(-1.0, 1e-3, 1)
    for name in ("dynamic_range", "gamma_bar"):
        with pytest.raises(InfeasibleConstantsError, match=name):
            potts_steps(1.0, 1e-3, 1, **{name: math.nan})
    with pytest.raises(InfeasibleConstantsError):
        potts_steps(math.nan, 1e-3, 1)


@pytest.mark.parametrize("p, dynamic_range", [(1, 1e300), (math.inf, 1e77)])
def test_potts_steps_overflow_names_dynamic_range(p, dynamic_range):
    with pytest.raises(OverflowError, match="dynamic_range"):
        potts_steps(1.0, 1e-3, p, dynamic_range=dynamic_range)


def test_potts_steps_curvature_feasibility():
    # gtg close to 1/alpha leaves xi_x below the coupling-curvature need.
    with pytest.raises(InfeasibleConstantsError, match="xi_x"):
        potts_steps(1.0, 1e-3, 1, gtg=1.0 - 1e-9)
    # A small smoothing over-approximation inflates m_y the same way.
    with pytest.raises(InfeasibleConstantsError, match="xi_x"):
        potts_steps(1.0, 1e-3, 1, gamma_bar=1e-4)


def test_published_reference_presets_stored_verbatim():
    assert set(POTTS_PRESETS) == {"paper-p1", "paper-pinf"}
    p1 = POTTS_PRESETS["paper-p1"]
    assert (p1.tau, p1.sigma, p1.omega) == (1.04085e-3, 1.04085, 0.99480)
    pinf = POTTS_PRESETS["paper-pinf"]
    assert (pinf.tau, pinf.sigma, pinf.omega) == (5.51922e-4, 0.551922, 0.99724)
    # Both share the sigma/tau = 1000 ratio the defaults reproduce.
    for trip in POTTS_PRESETS.values():
        assert trip.sigma / trip.tau == pytest.approx(1000.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Schedule condition checker (general conditions).
# ---------------------------------------------------------------------------


def _constant_setup():
    c = ProblemConstants(r_k=1.0, lambda_x=0.5, lambda_y=0.8, l_yx=0.4,
                         rho_x=0.2, rho_y=0.25, theta_x=0.5, theta_y=0.9,
                         xi_x=0.3, xi_y=0.2, gamma_g=0.5, gamma_f=0.4,
                         delta=0.1, mu=0.3)
    tau_sup, sigma_max = bound_constant(c)
    return c, tau_sup, sigma_max


def test_check_48_constant_schedule_passes():
    c, tau_sup, sigma_max = _constant_setup()
    tau = 0.9 * tau_sup
    rule = ConstantRule(tau, sigma_max(tau))
    report = check_48(c, [rule.triple(i) for i in range(12)])
    assert report.passed
    names = [cond.name for cond in report.conditions]
    assert names == ["coupling-omega", "dual-step", "primal-step",
                     "primal-convexity", "dual-convexity"]
    by_name = {cond.name: cond for cond in report.conditions}
    # sigma sits exactly on its cap, tau 10 percent under its own.
    assert by_name["dual-step"].margin == pytest.approx(0.0, abs=1e-12)
    assert by_name["primal-step"].margin == pytest.approx(0.1, rel=1e-10)


def test_check_48_flags_oversized_tau_with_margin():
    c, tau_sup, sigma_max = _constant_setup()
    tau = 1.1 * tau_sup
    rule = ConstantRule(tau, sigma_max(tau))
    report = check_48(c, [rule.triple(i) for i in range(5)])
    assert not report.passed
    by_name = {cond.name: cond for cond in report.conditions}
    assert not by_name["primal-step"].passed
    assert by_name["primal-step"].margin == pytest.approx(-0.1, abs=1e-9)


def test_check_48_flags_inconsistent_omega():
    c, tau_sup, sigma_max = _constant_setup()
    tau = 0.9 * tau_sup
    trips = [StepTriple(tau, sigma_max(tau), 0.8)] * 6
    report = check_48(c, trips)
    by_name = {cond.name: cond for cond in report.conditions}
    assert not by_name["coupling-omega"].passed


def test_check_48_coupling_omega_linear_regime():
    # eta = phi_i tau_i = psi_i sigma_i stays in lockstep, and omega is
    # the ratio eta_i / eta_{i+1}, up to rounding.
    trip, c = potts_steps(alpha=1.0, gamma=1e-3, p=1)
    report = check_48(c, [trip] * 8)
    assert report.passed
    by_name = {cond.name: cond for cond in report.conditions}
    assert by_name["coupling-omega"].margin <= 1e-12


def test_check_48_accelerated_regime_passes():
    c = ProblemConstants(r_k=1.0, lambda_x=0.5, lambda_y=0.8, l_yx=0.4,
                         rho_x=0.2, rho_y=0.25, theta_x=0.5, theta_y=0.9,
                         xi_x=0.3, xi_y=0.2, gamma_g=1.0, gamma_f=0.4,
                         gtg=0.6, gtf=0.0, delta=0.1, mu=0.3)
    tau0_sup, _cap = bound_accelerated(c)
    tau0 = 0.99 * tau0_sup
    rule = AcceleratedRule(tau0, bound_constant(c)[1](tau0), c.gtg)
    report = check_48(c, [rule.triple(i) for i in range(30)])
    assert report.passed


def test_check_48_primal_cap_follows_omega():
    # tau <= delta / (lambda_x + l_yx*(omega+2)*rho_y): 0.1/1.5 at omega = 0.5,
    # 0.1/2.5 at omega = 3, each used at half its cap.
    c = ProblemConstants(r_k=1.0, lambda_x=0.5, l_yx=0.8, rho_y=0.5,
                         delta=0.1, mu=0.3)
    for omega, cap in ((0.5, 0.1 / 1.5), (3.0, 0.1 / 2.5)):
        report = check_48(c, [StepTriple(0.5 * cap, 0.1, omega)])
        primal = {cond.name: cond for cond in report.conditions}["primal-step"]
        assert primal.passed
        assert primal.margin == pytest.approx(0.5, rel=1e-12)
    assert bound_constant(c)[0] == pytest.approx(0.1 / 1.7, rel=1e-15)


def test_check_48_dual_step_pairs_each_load_with_the_previous_sigma():
    # load_i = r_k^2*tau_i/(1-mu) + lambda_y/omega_i = 0.2 + 1.6 = 1.8, which
    # iteration i pairs with sigma_i = triples[i-1].sigma (sigma_1 at i = 0).
    # The last sigma is never paired, so even a large one passes.
    c = ProblemConstants(r_k=1.0, lambda_y=0.8, delta=0.1, mu=0.5)
    trips = [StepTriple(0.1, 0.9 / 1.8, 0.5), StepTriple(0.1, 10.0, 0.5)]
    dual = {cond.name: cond for cond in check_48(c, trips).conditions}["dual-step"]
    assert dual.passed
    assert dual.margin == pytest.approx(0.1, rel=1e-12)
    trips = [StepTriple(0.1, 1.1 / 1.8, 0.5), StepTriple(0.1, 0.1, 0.5)]
    dual = {cond.name: cond for cond in check_48(c, trips).conditions}["dual-step"]
    assert not dual.passed
    assert dual.margin == pytest.approx(-0.1, rel=1e-12)


def test_check_48_empty_schedule_rejected():
    c, _, _ = _constant_setup()
    with pytest.raises(InfeasibleConstantsError):
        check_48(c, [])


@settings(max_examples=30, deadline=None)
@given(
    r_k=st.floats(min_value=0.3, max_value=3.0),
    lambda_y=st.floats(min_value=0.0, max_value=2.0),
    gtg=st.floats(min_value=0.05, max_value=2.0),
    gtf=st.floats(min_value=0.05, max_value=2.0),
    mu=st.floats(min_value=0.1, max_value=0.9),
)
def test_check_48_accepts_linear_rule_at_its_bound(r_k, lambda_y, gtg, gtf, mu):
    c = ProblemConstants(r_k=r_k, lambda_y=lambda_y, xi_x=0.1, xi_y=0.1,
                         gamma_g=gtg + 0.2, gamma_f=gtf + 0.2,
                         gtg=gtg, gtf=gtf, delta=0.1, mu=mu)
    rule = LinearRateRule(tau=0.99 * bound_linear(c), gtg=gtg, gtf=gtf)
    report = check_48(c, [rule.triple(i) for i in range(15)])
    assert report.passed


@settings(max_examples=60, deadline=None)
@given(
    r_k=st.floats(min_value=0.1, max_value=5.0),
    lambda_x=st.floats(min_value=0.0, max_value=2.0),
    lambda_y=st.floats(min_value=0.0, max_value=2.0),
    l_yx=st.floats(min_value=0.0, max_value=2.0),
    rho_x=st.floats(min_value=0.0, max_value=1.0),
    rho_y=st.floats(min_value=0.0, max_value=1.0),
    xi_x=st.floats(min_value=0.0, max_value=1.0),
    xi_y=st.floats(min_value=0.0, max_value=1.0),
    gtg=st.floats(min_value=1e-2, max_value=2.0),
    gtf=st.floats(min_value=1e-2, max_value=2.0),
    delta=st.floats(min_value=0.01, max_value=0.5),
    mu_gap=st.floats(min_value=0.0, max_value=0.45),
)
def test_check_48_accepts_linear_rule_at_bound_for_feasible_constants(
        r_k, lambda_x, lambda_y, l_yx, rho_x, rho_y, xi_x, xi_y, gtg, gtf, delta,
        mu_gap):
    # The convexity moduli and witnesses sit exactly on their conditions.
    c = ProblemConstants(r_k=r_k, lambda_x=lambda_x, lambda_y=lambda_y, l_yx=l_yx,
                         rho_x=rho_x, rho_y=rho_y, xi_x=xi_x, xi_y=xi_y,
                         gamma_g=gtg + xi_x, gamma_f=gtf + xi_y, gtg=gtg, gtf=gtf,
                         delta=delta, mu=delta + mu_gap)
    rule = LinearRateRule(tau=bound_linear(c), gtg=gtg, gtf=gtf)
    c = dataclasses.replace(c, theta_x=rho_y / rule.omega, theta_y=rho_x)
    report = check_48(c, [rule.triple(i) for i in range(15)])
    assert report.passed, report.conditions


@settings(max_examples=60, deadline=None)
@given(
    lambda_x=st.floats(min_value=1e-2, max_value=2.0),
    lambda_y=st.floats(min_value=0.0, max_value=2.0),
    l_yx=st.floats(min_value=0.0, max_value=2.0),
    rho_y=st.floats(min_value=0.0, max_value=1.0),
    delta=st.floats(min_value=0.01, max_value=0.5),
    eps=st.floats(min_value=1e-6, max_value=0.5),
    accelerated=st.booleans(),
)
def test_check_48_rejects_tau_past_the_binding_primal_cap(
        lambda_x, lambda_y, l_yx, rho_y, delta, eps, accelerated):
    # With omega = 1 the check's primal cap is the bound's tau_sup, so a
    # first step (1 + eps) past it fails by a relative margin of -eps.
    c = ProblemConstants(r_k=1.0, lambda_x=lambda_x, lambda_y=lambda_y, l_yx=l_yx,
                         rho_y=rho_y, gtg=0.5, delta=delta, mu=0.5)
    tau_sup, sigma_max = bound_constant(c)
    tau = tau_sup * (1.0 + eps)
    if accelerated:
        rule = AcceleratedRule(tau, sigma_max(tau), c.gtg)
    else:
        rule = ConstantRule(tau, sigma_max(tau))
    report = check_48(c, [rule.triple(i) for i in range(10)])
    primal = {cond.name: cond for cond in report.conditions}["primal-step"]
    assert not report.passed
    assert not primal.passed
    assert primal.margin == pytest.approx(-eps, abs=1e-12)
    assert primal.detail == "iteration 0"


# ---------------------------------------------------------------------------
# Locality checker.
# ---------------------------------------------------------------------------


def test_locality_budget_rejects_negative_entries():
    with pytest.raises(InfeasibleConstantsError):
        LocalityBudget(r_max=-0.1, nu=1.0, r_y=0.2, delta_x=0.4, delta_y=0.6)


def test_check_52_hand_case_passes():
    c = ProblemConstants(r_k=1.0, delta=0.1, mu=0.5)
    budget = LocalityBudget(r_max=0.5, nu=1.0, r_y=0.25, delta_x=0.4, delta_y=0.6)
    trips = [StepTriple(0.25, 0.5, 1.0)] * 3
    report = check_52(c, budget, trips, l_x_at_yhat=1.0, l_y_at_xhat=1.0)
    assert report.passed
    by_name = {cond.name: cond for cond in report.conditions}
    # tau cap 0.4/(2*0.25 + 2*0.5*0.5)... = 0.4/1.5, used at 0.25.
    assert by_name["local-primal-step"].margin == pytest.approx(
        (0.4 / 1.5 - 0.25) / (0.4 / 1.5), rel=1e-12)
    # sigma cap 0.6/(0.25 + 0.9), used at 0.5.
    assert by_name["local-dual-step"].margin == pytest.approx(
        (0.6 / 1.15 - 0.5) / (0.6 / 1.15), rel=1e-12)
    assert by_name["Assumption 5.2"].passed


def test_check_52_dual_radius_premise_fails_when_too_small():
    c = ProblemConstants(r_k=1.0, delta=0.1, mu=0.5)
    # Premise needs r_y >= 0.5*sqrt(0.9*0.1/0.4) ~ 0.2372.
    budget = LocalityBudget(r_max=0.5, nu=1.0, r_y=0.2, delta_x=0.4, delta_y=0.6)
    report = check_52(c, budget, [StepTriple(0.2, 0.4, 1.0)], 1.0, 1.0)
    by_name = {cond.name: cond for cond in report.conditions}
    assert by_name["local-primal-step"].passed
    assert by_name["local-dual-step"].passed
    assert not by_name["Assumption 5.2"].passed
    assert not report.passed


def test_check_52_equal_split_parameters_need_zero_radius():
    c = ProblemConstants(r_k=1.0, delta=0.1, mu=0.1)
    trips = [StepTriple(0.25, 0.5, 1.0)]
    ok = LocalityBudget(r_max=0.0, nu=1.0, r_y=0.25, delta_x=0.4, delta_y=0.6)
    assert check_52(c, ok, trips, 1.0, 1.0).passed
    bad = LocalityBudget(r_max=0.1, nu=1.0, r_y=0.25, delta_x=0.4, delta_y=0.6)
    assert not check_52(c, bad, trips, 1.0, 1.0).passed


def test_check_52_reports_the_worst_iteration():
    # Caps as in the hand case: tau <= 0.4/1.5, sigma <= 0.6/1.15.  Only the
    # second iteration's sigma is past its cap, by 15 percent.
    c = ProblemConstants(r_k=1.0, delta=0.1, mu=0.5)
    budget = LocalityBudget(r_max=0.5, nu=1.0, r_y=0.25, delta_x=0.4, delta_y=0.6)
    sigma_cap = 0.6 / 1.15
    trips = [StepTriple(0.1, 0.5 * sigma_cap, 1.0),
             StepTriple(0.2, 1.15 * sigma_cap, 1.0),
             StepTriple(0.25, sigma_cap, 1.0)]
    report = check_52(c, budget, trips, l_x_at_yhat=1.0, l_y_at_xhat=1.0)
    by_name = {cond.name: cond for cond in report.conditions}
    assert not report.passed
    assert not by_name["local-dual-step"].passed
    assert by_name["local-dual-step"].detail == "iteration 1"
    assert by_name["local-dual-step"].margin == pytest.approx(-0.15, rel=1e-12)
    assert by_name["local-primal-step"].passed
    assert by_name["local-primal-step"].detail == "iteration 2"


def test_check_52_zero_radii_leave_only_the_dual_cap():
    # With r_max = r_y = 0 the primal cap delta_x/0 is unbounded and the
    # dual cap is delta_y/(r_k*delta_x) = 0.6/0.4; the premise holds.
    c = ProblemConstants(r_k=1.0, delta=0.1, mu=0.5)
    budget = LocalityBudget(r_max=0.0, nu=1.0, r_y=0.0, delta_x=0.4, delta_y=0.6)
    report = check_52(c, budget, [StepTriple(1e6, 0.75, 1.0)], 1.0, 1.0)
    by_name = {cond.name: cond for cond in report.conditions}
    assert report.passed
    assert by_name["local-primal-step"].margin == math.inf
    assert by_name["local-dual-step"].margin == pytest.approx(0.5, rel=1e-12)
    assert by_name["Assumption 5.2"].passed


def test_check_52_empty_schedule_rejected():
    c = ProblemConstants(r_k=1.0, delta=0.1, mu=0.5)
    budget = LocalityBudget(r_max=0.5, nu=1.0, r_y=0.25, delta_x=0.4, delta_y=0.6)
    with pytest.raises(InfeasibleConstantsError):
        check_52(c, budget, [], 1.0, 1.0)


# ---------------------------------------------------------------------------
# NaN and non-integer parameters are rejected, not read as valid values.
# ---------------------------------------------------------------------------


def _kappa_constants(**changes):
    base = dict(theta_x=0.05, theta_y=0.05, lambda_x=1.0, lambda_y=1.0,
                xi_x=0.5, xi_y=0.1, rho_x=0.05, rho_y=0.05)
    return KappaConstants(**{**base, **changes})


nan = math.nan
NAN_CASES = {
    "constants-r_k": lambda: ProblemConstants(r_k=nan),
    "bound_constant-lambda_x": lambda: bound_constant(ProblemConstants(r_k=1.0, lambda_x=nan)),
    "check_48-lambda_x": lambda: check_48(ProblemConstants(r_k=1.0, lambda_x=nan),
                                          [StepTriple(0.1, 0.1, 1.0)]),
    "constants-rho_y": lambda: ProblemConstants(r_k=1.0, l_yx=1.0, rho_y=nan),
    "accelerated-gtg": lambda: AcceleratedRule(0.1, 0.1, nan),
    "linear-rule-gtg": lambda: LinearRateRule(0.1, nan, 1.0),
    "linear-rule-gtf": lambda: LinearRateRule(0.1, 1.0, nan),
    "bound_linear-gtg": lambda: bound_linear(ProblemConstants(r_k=1.0, gtg=nan, gtf=1.0)),
    "budget-r_max": lambda: LocalityBudget(nan, 1.0, 1.0, 1.0, 1.0),
    "budget-nu": lambda: LocalityBudget(1.0, nan, 1.0, 1.0, 1.0),
    "budget-r_y": lambda: LocalityBudget(1.0, 1.0, nan, 1.0, 1.0),
    "budget-delta_x": lambda: LocalityBudget(1.0, 1.0, 1.0, nan, 1.0),
    "budget-delta_y": lambda: LocalityBudget(1.0, 1.0, 1.0, 1.0, nan),
    "triple-tau": lambda: StepTriple(nan, 1.0, 1.0),
    "triple-sigma": lambda: StepTriple(1.0, nan, 1.0),
    "triple-omega": lambda: StepTriple(1.0, 1.0, nan),
    "jump_bounds-p": lambda: potts_jump_bounds(nan, 1.0, 10.0),
    "kappa-theta_x": lambda: _kappa_constants(theta_x=nan),
    "kappa-lambda_y": lambda: _kappa_constants(lambda_y=nan),
    "kappa-rho_y": lambda: _kappa_constants(rho_y=nan),
    "shrink_rho-rho_x": lambda: shrink_rho(np.array([0.6]), np.array([0.2]),
                                           _kappa_constants(rho_x=nan), n_samples=10),
    "grid-2.5": lambda: Grid(2.5),
    "grid-7.0": lambda: Grid(7.0),
    "check_52-l_x_at_yhat": lambda: _check_52_with(nan, 1.0),
    "check_52-l_y_at_xhat": lambda: _check_52_with(1.0, nan),
    "check_52-negative": lambda: _check_52_with(-1.0, 1.0),
    "bound_constant-tau": lambda: bound_constant(ProblemConstants(r_k=1.0))[1](nan),
    "rate_fit-nan": lambda: rate_fit([1.0, nan, 0.25, 0.125], (0, 3)),
    "rate_fit-inf": lambda: rate_fit([1.0, math.inf, 0.25, 0.125], (0, 3)),
}


def _check_52_with(l_x_at_yhat, l_y_at_xhat):
    # With 1.0, 1.0 this check fails its step caps, so a NaN must not pass it.
    return check_52(ProblemConstants(r_k=1.0, delta=0.1, mu=0.5),
                    LocalityBudget(0.5, 1.0, 0.25, 0.4, 0.6),
                    [StepTriple(100.0, 100.0, 1.0)], l_x_at_yhat, l_y_at_xhat)


@pytest.mark.parametrize("case", NAN_CASES)
def test_nan_and_non_integer_parameters_are_rejected(case):
    # The Nash model raises ConfigurationError, rate_fit ValueError, and the
    # step theory InfeasibleConstantsError.
    error = (ConfigurationError if case.startswith(("nash-", "grid-")) else
             ValueError if case.startswith("rate_fit-") else InfeasibleConstantsError)
    with pytest.raises(error):
        NAN_CASES[case]()


def test_grid_accepts_numpy_integers():
    assert Grid(np.int64(7)).h == Grid(7).h == 1.0 / 8.0
