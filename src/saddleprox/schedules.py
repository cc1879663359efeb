"""Step-size rules, admissibility bounds, and convergence-condition checkers.

Three step regimes are provided for the primal-dual iteration:

* ``ConstantRule``: fixed (tau, sigma), omega = 1, plain convergence.
* ``AcceleratedRule``: tau_i shrinks as tau_0 / (1 + 2*gtg*tau_0*i) with
  constant sigma and omega = 1, giving an O(1/N^2) rate when the primal
  function is strongly convex with leftover modulus ``gtg``.
* ``LinearRateRule``: fixed tau with sigma = tau*gtg/gtf and
  omega = 1/(1 + 2*gtg*tau), giving a linear rate when both functions
  have leftover strong convexity (``gtg`` primal, ``gtf`` dual).

``bound_constant`` / ``bound_accelerated`` / ``bound_linear`` compute the
admissible step ranges from the problem constants.  ``check_48`` verifies
a realized schedule against the general step-size/testing-parameter
conditions the convergence proofs rest on; ``check_52`` verifies the
locality budget conditions for the neighbourhood-based analysis.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Optional, Sequence


class InfeasibleConstantsError(ValueError):
    """Problem constants violate a precondition of a step-size formula."""


@dataclass(frozen=True)
class StepTriple:
    """Realized step sizes for one iteration: primal tau, dual sigma, over-relaxation omega.

    A bare triple doubles as a constant schedule: ``triple(i)`` returns itself.
    tau and sigma must be at most half the largest float: the Potts step
    plan doubles them.  omega must be finite.
    """

    tau: float
    sigma: float
    omega: float

    def __post_init__(self):
        if not (self.tau > 0 and self.sigma > 0 and 0 < self.omega < math.inf):
            raise InfeasibleConstantsError(
                "step triple entries must be positive, and omega finite: %r" % (self,)
            )
        if not (self.tau <= sys.float_info.max / 2 and self.sigma <= sys.float_info.max / 2):
            raise InfeasibleConstantsError(
                "step triple tau and sigma must be at most half the largest float: %r"
                % (self,)
            )

    def triple(self, i: int) -> "StepTriple":
        return self


@dataclass(frozen=True)
class ConstantRule:
    tau: float
    sigma: float

    def triple(self, i: int) -> StepTriple:
        return StepTriple(self.tau, self.sigma, 1.0)


@dataclass(frozen=True)
class AcceleratedRule:
    """tau_i = tau0 / (1 + 2*gtg*tau0*i); closed form of tau_{i+1} = tau_i/(1+2*gtg*tau_i)."""

    tau0: float
    sigma: float
    gtg: float

    def __post_init__(self):
        if not self.gtg > 0:  # also rejects NaN
            raise InfeasibleConstantsError("accelerated rule needs gtg > 0")

    def triple(self, i: int) -> StepTriple:
        tau_i = self.tau0 / (1.0 + 2.0 * (self.gtg * self.tau0 * i))
        return StepTriple(tau_i, self.sigma, 1.0)


@dataclass(frozen=True)
class LinearRateRule:
    """Fixed tau; sigma and omega tied to the leftover strong convexities."""

    tau: float
    gtg: float
    gtf: float

    def __post_init__(self):
        if not (self.gtg > 0 and self.gtf > 0):
            raise InfeasibleConstantsError("linear-rate rule needs gtg > 0 and gtf > 0")

    @property
    def sigma(self) -> float:
        return self.tau * self.gtg / self.gtf

    @property
    def omega(self) -> float:
        return 1.0 / (1.0 + 2.0 * (self.gtg * self.tau))

    def triple(self, i: int) -> StepTriple:
        return StepTriple(self.tau, self.sigma, self.omega)


@dataclass(frozen=True)
class ProblemConstants:
    """Constants of a saddle problem entering the step-size conditions.

    ``r_k`` bounds the dual coupling gradient's sensitivity to the primal
    over the relevant neighbourhood; ``l_yx`` its Lipschitz factor;
    ``lambda_x``/``lambda_y`` and ``xi_x``/``xi_y`` come from the
    three-point smoothness/monotonicity estimates of the coupling with
    witnesses ``theta_x``/``theta_y`` on balls of radii ``rho_x``/``rho_y``;
    ``gamma_g``/``gamma_f`` are the strong-convexity moduli of the primal
    and dual functions, of which ``gtg``/``gtf`` are kept for
    acceleration.  ``delta`` and ``mu`` are the splitting parameters of
    the analysis, normally 0 < delta <= mu < 1 (violations are warned
    about, not rejected, since some closed-form bounds remain sensible
    in degenerate limits; the step bounds and ``check_48`` divide by
    1 - mu and raise :class:`InfeasibleConstantsError` for mu >= 1).
    A NaN in any other field raises :class:`InfeasibleConstantsError`.
    """

    r_k: float
    lambda_x: float = 0.0
    lambda_y: float = 0.0
    l_yx: float = 0.0
    rho_x: float = 0.0
    rho_y: float = 0.0
    theta_x: float = 1.0
    theta_y: float = 1.0
    xi_x: float = 0.0
    xi_y: float = 0.0
    gamma_g: float = 0.0
    gamma_f: float = 0.0
    gtg: float = 0.0
    gtf: float = 0.0
    delta: float = 0.1
    mu: float = 0.1

    def __post_init__(self):
        if any(math.isnan(getattr(self, f.name)) for f in fields(self)
               if f.name not in ("delta", "mu")):
            raise InfeasibleConstantsError("constants must not be NaN: %r" % (self,))
        if not self.r_k >= 0:
            raise InfeasibleConstantsError("r_k must be >= 0")
        if not (0.0 < self.delta <= self.mu < 1.0):
            warnings.warn(
                "constants outside the standard range 0 < delta <= mu < 1: "
                "delta=%g, mu=%g" % (self.delta, self.mu),
                stacklevel=2,
            )


def _cap(num: float, denom: float) -> float:
    """num / denom, or ``inf`` when the denominator is not positive."""
    return num / denom if denom > 0 else math.inf


def _primal_cap(c: ProblemConstants, omega: float) -> float:
    """Largest tau with tau*(lambda_x + l_yx*(omega+2)*rho_y) <= delta."""
    load = c.l_yx * (omega + 2.0) * c.rho_y
    if not math.isfinite(load):  # l_yx*(omega+2) overflowed; l_yx*rho_y may not
        load = c.l_yx * c.rho_y * (omega + 2.0)
    return _cap(c.delta, c.lambda_x + load)


def _one_minus_mu(c: ProblemConstants) -> float:
    """1 - mu, the denominator of the dual load; raises unless mu < 1."""
    if not c.mu < 1.0:
        raise InfeasibleConstantsError("the step bounds need mu < 1, got mu=%g" % c.mu)
    return 1.0 - c.mu


def _dual_load(c: ProblemConstants, tau: float, omega: float) -> float:
    """r_k^2*tau/(1-mu) + lambda_y/omega; the dual step needs sigma*load <= 1."""
    if not tau > 0:  # also rejects NaN
        raise InfeasibleConstantsError("the dual load needs tau > 0, got %r" % (tau,))
    return c.r_k**2 * tau / _one_minus_mu(c) + c.lambda_y / omega


def bound_constant(c: ProblemConstants) -> tuple[float, Callable[[float], float]]:
    """Admissible steps for the constant regime (omega = 1).

    Returns ``(tau_sup, sigma_max)`` where tau must satisfy
    tau < tau_sup = delta / (lambda_x + 3*l_yx*rho_y)  (exclusive) and,
    given tau, sigma <= sigma_max(tau) = 1 / (r_k^2*tau/(1-mu) + lambda_y)
    (inclusive); ``sigma_max`` is a plain callable.  Degenerate
    denominators give ``inf``.
    """
    return _primal_cap(c, 1.0), lambda tau: _cap(1.0, _dual_load(c, tau, 1.0))


def bound_accelerated(c: ProblemConstants) -> tuple[float, float]:
    """Admissible steps for the accelerated regime.

    Returns ``(tau0_sup, sigma_tau0_max)``: the initial step must satisfy
    tau0 <= tau0_sup (inclusive) and the product sigma*tau0 must not
    exceed sigma_tau0_max = (1-mu)/r_k^2.  Note the product cap alone
    does not enforce the per-iteration dual condition when lambda_y > 0;
    combine with ``bound_constant(c)[1](tau0)`` in that case.
    """
    return _primal_cap(c, 1.0), _cap(_one_minus_mu(c), c.r_k**2)


def bound_linear(c: ProblemConstants) -> float:
    """Largest admissible fixed tau for the linear-rate regime.

    tau_max = min( delta / (lambda_x + 3*l_yx*rho_y),
                   2*(gtf/gtg) / (lambda_y + sqrt(lambda_y^2
                        + 4*(gtf/gtg)*(r_k^2/(1-mu) + 2*gtg*lambda_y))) ).

    The second expression is the positive root of
    (r_k^2/(1-mu) + 2*gtg*lambda_y) * tau^2 + lambda_y * tau = gtf/gtg,
    written in the cancellation-free form.
    """
    if not (c.gtg > 0 and c.gtf > 0):
        raise InfeasibleConstantsError("linear-rate bound needs gtg > 0 and gtf > 0")
    ratio = c.gtf / c.gtg
    quad = c.r_k**2 / _one_minus_mu(c) + 2.0 * (c.gtg * c.lambda_y)
    if quad <= 0:
        second = _cap(ratio, c.lambda_y)
    else:
        second = 2.0 * ratio / (c.lambda_y + math.sqrt(c.lambda_y**2 + 4.0 * ratio * quad))
    return min(_primal_cap(c, 1.0), second)


# ---------------------------------------------------------------------------
# Potts step calculator and stored presets.
# ---------------------------------------------------------------------------

#: Published reference step triples for the discontinuity-penalized
#: denoising runs at alpha = 1, gamma = 1e-3, stored verbatim under the
#: preset names exposed by the command line.  They are close to but not
#: identical with ``potts_steps`` defaults output (their omega is not
#: (1 + 2*gtg*tau)^-1 for any admissible gtg, so they cannot be a
#: calculator result; see the project notes).  Keys: separable penalty
#: "paper-p1", isotropic "paper-pinf".
POTTS_PRESETS: dict[str, StepTriple] = {
    "paper-p1": StepTriple(tau=1.04085e-3, sigma=1.04085, omega=0.99480),
    "paper-pinf": StepTriple(tau=5.51922e-4, sigma=0.551922, omega=0.99724),
}

#: Relative safety margin applied to strict inequalities in potts_steps.
POTTS_MARGIN = 1e-6

#: Bound for ||D||^2, D the forward-difference gradient at unit mesh width.
POTTS_D_NORM_SQ = 8.0


def potts_jump_bounds(p: float, dynamic_range: float,
                      gamma_bar: float) -> tuple[float, float]:
    """Neighbourhood bounds (m_x, m_y) for the denoising problem.

    ``m_x`` bounds the per-component (p = 1) or per-pixel Euclidean
    (p = inf) image gradient magnitude: the dynamic range for p = 1,
    sqrt(2) times it for p = inf.  ``m_y`` bounds the corresponding dual
    magnitude via the critical-point map evaluated with the
    over-approximating smoothing value ``gamma_bar``:
    m_y = 2*m_x / (2*m_x^2 + gamma_bar).
    """
    if p == 1:
        m_x = dynamic_range
    elif p == math.inf:
        m_x = math.sqrt(2.0) * dynamic_range
    else:
        raise InfeasibleConstantsError("p must be 1 or inf, got %r" % (p,))
    m_y = 2.0 * m_x / (2.0 * m_x**2 + gamma_bar)
    return m_x, m_y


def potts_steps(
    alpha: float,
    gamma: float,
    p: float,
    dynamic_range: float = 1.0,
    gamma_bar: float = 10.0,
    delta: float = 0.1,
    mu: Optional[float] = None,
    gtg: Optional[float] = None,
    gtf: Optional[float] = None,
) -> tuple[StepTriple, ProblemConstants]:
    """Linear-rate step sizes for the discontinuity-penalized denoising problem.

    ``alpha`` is the data weight, ``gamma`` the penalty smoothing, ``p``
    the penalty flavour (1 or inf).  The grid has unit mesh width, where
    l_op = sqrt(POTTS_D_NORM_SQ) bounds the discrete gradient norm.
    Leftover moduli default to gtg = 1/(10*alpha) and gtf = gamma/10, so that
    sigma/tau = gtg/gtf = 100/(alpha*gamma) matches the ratio sigma/tau
    = 1000 of the published reference step sizes at alpha=1, gamma=1e-3
    (see ``POTTS_PRESETS``); ``mu`` defaults to ``delta``, the weakest
    admissible choice.

    Derivation: with m_x, m_y from :func:`potts_jump_bounds`,
        xi_x = 1/alpha - gtg,          xi_y = gamma - gtf,
        lambda_y = m_x^2 * (1 + e),
        lambda_x = 2*l_op^2*m_y^4 / (xi_x - 2*l_op*m_y^2) * (1 + e),
    which requires xi_x > 2*l_op*m_y^2 (raised otherwise), then
        tau = (1 - e) * min( delta/lambda_x,
                2*(gtf/gtg) / (lambda_y + sqrt(lambda_y^2
                     + 4*(gtf/gtg)*(4*l_op^2/(1-mu) + 2*gtg*lambda_y))) ),
        sigma = tau*gtg/gtf,   omega = 1/(1 + 2*gtg*tau),
    with e the small safety margin ``POTTS_MARGIN`` and the dual
    sensitivity radius r_k = 2*l_op.  Raises ``FloatingPointError`` if
    tau or sigma underflows to 0 (alpha near the smallest float).

    Rate cap: :func:`check_48`'s dual-step row needs sigma*lambda_y < 1,
    and gtf < gamma, so 2*gtg*tau = 2*gtf*sigma < 2*gamma/lambda_y and
        omega > 1/(1 + 2*gamma/lambda_y)
    for every admissible gtg, gtf, delta and mu: about 0.998 at p = 1 and
    0.999 at p = inf for a unit dynamic range and gamma = 1e-3, against
    the defaults' 0.99981 and 0.99990.
    """
    # "not > 0" also rejects NaN.
    if not (alpha > 0 and gamma > 0):
        raise InfeasibleConstantsError("alpha and gamma must be positive")
    if not dynamic_range > 0:
        raise InfeasibleConstantsError("dynamic_range must be positive")
    if not gamma_bar > 0:
        raise InfeasibleConstantsError("gamma_bar must be positive")
    if mu is None:
        mu = delta
    if gtg is None:
        gtg = 1.0 / (10.0 * alpha)
    if gtf is None:
        gtf = gamma / 10.0
    if not (0.0 < gtg < 1.0 / alpha):
        raise InfeasibleConstantsError(
            "gtg must lie in (0, 1/alpha), got gtg=%g, 1/alpha=%g" % (gtg, 1.0 / alpha)
        )
    if not (0.0 < gtf < gamma):
        raise InfeasibleConstantsError(
            "gtf must lie in (0, gamma), got gtf=%g, gamma=%g" % (gtf, gamma)
        )

    try:
        m_x, m_y = potts_jump_bounds(p, dynamic_range, gamma_bar)
        e = POTTS_MARGIN
        l_op = math.sqrt(POTTS_D_NORM_SQ)
        xi_x = 1.0 / alpha - gtg
        xi_y = gamma - gtf
        gap = xi_x - 2.0 * l_op * m_y**2
        if gap <= 0:
            raise InfeasibleConstantsError(
                "coupling-curvature feasibility fails: need xi_x > 2*l_op*m_y^2, "
                "got xi_x=%g, 2*l_op*m_y^2=%g" % (xi_x, 2.0 * l_op * m_y**2)
            )
        lambda_x = 2.0 * l_op**2 * m_y**4 / gap * (1.0 + e)
        lambda_y = m_x**2 * (1.0 + e)

        c = ProblemConstants(
            r_k=2.0 * l_op,
            lambda_x=lambda_x,
            lambda_y=lambda_y,
            l_yx=4.0 * l_op**2 * m_y,
            xi_x=xi_x,
            xi_y=xi_y,
            gamma_g=1.0 / alpha,
            gamma_f=gamma,
            gtg=gtg,
            gtf=gtf,
            delta=delta,
            mu=mu,
        )
        tau = (1.0 - e) * bound_linear(c)
    except OverflowError:
        # lambda_y**2 in bound_linear overflows first, from dynamic_range ~ 1e77 on.
        raise OverflowError("the step bounds overflow: dynamic_range %r is too large"
                            % (dynamic_range,)) from None
    rule = LinearRateRule(tau=tau, gtg=gtg, gtf=gtf)
    if tau == 0.0 or rule.sigma == 0.0:
        # For alpha near the smallest float, 2*gtg*lambda_y in bound_linear
        # overflows although 1/(10*alpha) does not.
        raise FloatingPointError("the step sizes underflow to 0: tau=%r, sigma=%r, alpha=%r"
                                 % (tau, rule.sigma, alpha))
    return rule.triple(0), c


# ---------------------------------------------------------------------------
# Condition checkers.
# ---------------------------------------------------------------------------

EQUALITY_TOL = 1e-10


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one named check of ``check_48``, ``check_52`` or :mod:`verify`.
    ``margin`` is its slack, negative when violated; for ``coupling-omega``
    it is the relative deviation that must stay within ``EQUALITY_TOL``."""

    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class ScheduleCheckReport:
    conditions: tuple[ConditionReport, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)


def _ineq(name: str, value: float, bound: float, detail: str = "") -> ConditionReport:
    """Report for a condition value <= bound (margin relative to the bound)."""
    if math.isinf(bound):
        return ConditionReport(name, True, math.inf, detail)
    scale = abs(bound) if bound != 0 else 1.0
    margin = (bound - value) / scale
    return ConditionReport(name, margin >= -EQUALITY_TOL, margin, detail)


def _worst(reports: Iterable[ConditionReport]) -> ConditionReport:
    """The report with the smallest margin; the first one on ties."""
    return min(reports, key=lambda rep: rep.margin)


def check_48(
    c: ProblemConstants,
    triples: Sequence[StepTriple],
) -> ScheduleCheckReport:
    """Verify a realized schedule against the general step conditions.

    ``triples[i]`` carries (tau_i, sigma_{i+1}, omega_i).  The checker
    reconstructs the testing parameters phi_i, psi_{i+1} from their
    growth recursions seeded with psi_1 = 1 and
    phi_0 = sigma_1*omega_0/tau_0, then reports, with margins:

    * ``coupling-omega``: omega_i = eta_i / eta_{i+1} and the two
      expressions phi_i*tau_i, psi_i*sigma_i for eta_i agree
      (relative tolerance 1e-10);
    * ``dual-step``: 1 >= sigma_i * (r_k^2*tau_i/(1-mu) + lambda_y/omega_i);
    * ``primal-step``: tau_i <= delta / (lambda_x + l_yx*(omega_i+2)*rho_y);
    * ``primal-convexity``: gamma_g >= gtg + xi_x and theta_y >= omega_high*rho_x;
    * ``dual-convexity``: gamma_f >= gtf + xi_y and theta_x >= rho_y/omega_low.

    omega_low and omega_high are the min and max of the realized omegas.
    """
    if len(triples) == 0:
        raise InfeasibleConstantsError("check_48 needs at least one step triple")
    n = len(triples)
    omega_low, omega_high = min(t.omega for t in triples), max(t.omega for t in triples)

    # Testing parameters.  psi[i] stores psi_{i+1}, phi[i] stores phi_i.
    psi_next = [1.0]  # psi_1
    for i in range(n):
        psi_next.append(psi_next[-1] * (1.0 + 2.0 * triples[i].sigma * c.gtf))
    phi = [triples[0].sigma * triples[0].omega / triples[0].tau * psi_next[0]]
    for i in range(n):
        phi.append(phi[-1] * (1.0 + 2.0 * triples[i].tau * c.gtg))

    eta_primal = [phi[i] * triples[i].tau for i in range(n)]       # eta_i
    eta_dual = [psi_next[i] * triples[i].sigma for i in range(n)]  # eta_{i+1}

    worst_a = 0.0
    for i in range(n):
        # omega_i vs eta_i / eta_{i+1}
        ratio = eta_primal[i] / eta_dual[i]
        worst_a = max(worst_a, abs(triples[i].omega - ratio) / abs(triples[i].omega))
        if i >= 1:
            # phi_i * tau_i vs psi_i * sigma_i
            rel = abs(eta_primal[i] - eta_dual[i - 1]) / max(
                abs(eta_primal[i]), abs(eta_dual[i - 1])
            )
            worst_a = max(worst_a, rel)
    cond_a = ConditionReport(
        "coupling-omega",
        worst_a <= EQUALITY_TOL,
        worst_a,
        "max relative deviation of testing-parameter coupling",
    )

    # Dual step condition.  sigma_i is triples[i-1].sigma; at i = 0 the
    # algorithm never uses sigma_0, take sigma_1 as surrogate (exact for
    # constant-sigma schedules).
    dual_rep = _worst(
        _ineq("dual-step", triples[max(i - 1, 0)].sigma * _dual_load(c, t.tau, t.omega),
              1.0, "iteration %d" % i)
        for i, t in enumerate(triples))
    primal_rep = _worst(
        _ineq("primal-step", t.tau, _primal_cap(c, t.omega), "iteration %d" % i)
        for i, t in enumerate(triples))

    conv_g1 = _ineq("primal-convexity", c.gtg + c.xi_x, c.gamma_g,
                    "gamma_g >= gtg + xi_x")
    conv_g2 = _ineq("primal-convexity", omega_high * c.rho_x, c.theta_y,
                    "theta_y >= omega_high*rho_x")
    conv_f1 = _ineq("dual-convexity", c.gtf + c.xi_y, c.gamma_f,
                    "gamma_f >= gtf + xi_y")
    conv_f2 = _ineq("dual-convexity", c.rho_y / omega_low, c.theta_x,
                    "theta_x >= rho_y/omega_low")

    conditions = (
        cond_a,
        dual_rep,
        primal_rep,
        _worst((conv_g1, conv_g2)),
        _worst((conv_f1, conv_f2)),
    )
    return ScheduleCheckReport(conditions)


@dataclass(frozen=True)
class LocalityBudget:
    """Neighbourhood budget for the local analysis.

    ``r_max`` is the largest initial-distance radius the iterates can
    reach, ``nu = sigma_1*omega_0/tau_0`` the dual/primal test weight
    ratio, ``r_y`` the assumed dual neighbourhood radius, and
    ``delta_x``/``delta_y`` the slack split.
    """

    r_max: float
    nu: float
    r_y: float
    delta_x: float
    delta_y: float

    def __post_init__(self):
        if not all(v >= 0 for v in (self.r_max, self.nu, self.r_y, self.delta_x,
                                      self.delta_y)):
            raise InfeasibleConstantsError("locality budget entries must be >= 0")


def check_52(
    c: ProblemConstants,
    budget: LocalityBudget,
    triples: Sequence[StepTriple],
    l_x_at_yhat: float,
    l_y_at_xhat: float,
) -> ScheduleCheckReport:
    """Verify the locality step caps and the dual-radius premise.

    For every iteration, with r_max and the slack split from ``budget``:

    * ``local-primal-step``: tau_i <= delta_x / (2*r_k*r_y + 2*l_x_at_yhat*r_max);
    * ``local-dual-step``: sigma_{i+1} <= delta_y / (l_y_at_xhat*r_y + r_k*(r_max + delta_x));
    * ``Assumption 5.2``: r_y >= r_max * sqrt(nu*(1-delta)*delta/(mu-delta)),
      applicable when mu > delta; with mu = delta the premise requires
      r_max = 0.
    """
    if len(triples) == 0:
        raise InfeasibleConstantsError("check_52 needs at least one step triple")
    if not (l_x_at_yhat >= 0 and l_y_at_xhat >= 0):  # also rejects NaN
        raise InfeasibleConstantsError("l_x_at_yhat and l_y_at_xhat must be >= 0")

    tau_bound = _cap(budget.delta_x,
                     2.0 * c.r_k * budget.r_y + 2.0 * l_x_at_yhat * budget.r_max)
    sigma_bound = _cap(budget.delta_y, l_y_at_xhat * budget.r_y
                       + c.r_k * (budget.r_max + budget.delta_x))
    tau_rep = _worst(_ineq("local-primal-step", t.tau, tau_bound, "iteration %d" % i)
                     for i, t in enumerate(triples))
    sig_rep = _worst(_ineq("local-dual-step", t.sigma, sigma_bound, "iteration %d" % i)
                     for i, t in enumerate(triples))

    if c.mu > c.delta:
        required = budget.r_max * math.sqrt(
            budget.nu * (1.0 - c.delta) * c.delta / (c.mu - c.delta)
        )
    else:
        required = 0.0 if budget.r_max == 0.0 else math.inf
    if math.isinf(required):
        premise = ConditionReport(
            "Assumption 5.2", False, -math.inf,
            "mu = delta requires r_max = 0; got r_max=%g" % budget.r_max,
        )
    else:
        premise = _ineq("Assumption 5.2", required, budget.r_y,
                        "r_y >= r_max*sqrt(nu*(1-delta)*delta/(mu-delta))")

    return ScheduleCheckReport((tau_rep, sig_rep, premise))
