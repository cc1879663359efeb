"""Numerical verification oracles for problem assumptions and the engine.

Independent checks used by the tests and the ``verify`` CLI command:

* finite-difference validation of coupling gradients against the
  coupling value;
* equivalence of the generic engine with a hand-coded classical
  primal-dual loop on bilinear couplings, and of the Nash step plan
  with the composition of the four maps;
* the model scalar-product coupling kappa(x, y) = rho(<x, y>) with
  rho(t) = 2t - t^2, through the row kernel of :mod:`potts`: its
  derivatives, the eigenvalue test for its base points, and
  Monte-Carlo sampling of the three-point growth conditions on
  neighbourhood balls;
* geometric-rate estimation from error sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .core import PrimalDualState, SaddleProblem, step
from .potts import (PottsConfig, PottsProblem, dh, dht, gen_synthetic, rho, rho_grad,
                    rho_mixed, rho_pair)
from .schedules import (POTTS_D_NORM_SQ, ConditionReport, InfeasibleConstantsError,
                        StepTriple)


def fd_grad_check(
    problem: SaddleProblem,
    x: np.ndarray,
    y: np.ndarray,
    h: float = 1e-5,
    n_dirs: int = 100,
    seed: int = 0,
) -> float:
    """Largest relative error of the coupling gradients vs. central
    differences of the coupling value over seeded random unit directions.

    The pairing uses the problem's own inner products, so gradients
    returned as mesh-function representers validate correctly.  Each
    directional error is normalized by max(|analytic|, |difference|,
    ||grad|| * ||d||) in the pairing norm; the norm floor keeps
    directions that happen to be nearly orthogonal to the gradient from
    dividing rounding noise by a near-zero derivative.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    rng = np.random.default_rng(seed)
    blocks = (  # (size, pairing, gradient, value at a shifted block)
        (problem.primal_dim, problem.inner_primal, problem.grad_x(x, y),
         lambda s: problem.value(x + s, y)),
        (problem.dual_dim, problem.inner_dual, problem.grad_y(x, y),
         lambda s: problem.value(x, y + s)),
    )
    worst = 0.0
    for dim, inner, grad, shifted in blocks:
        for _ in range(n_dirs):
            d = rng.standard_normal(dim)
            d /= np.linalg.norm(d)
            fd = (shifted(h * d) - shifted(-h * d)) / (2.0 * h)
            an = inner(grad, d)
            scale = math.sqrt(inner(grad, grad) * inner(d, d))
            worst = max(worst, abs(an - fd) / max(abs(an), abs(fd), scale, 1e-300))
    return worst


def _into(out, result):
    """A bilinear callable's new array ``result``, copied into ``out`` if given."""
    if out is None:
        return result
    np.copyto(out, result)
    return out


class _BilinearProblem(SaddleProblem):
    """K(x, y) = <y, A x> wrapped for the generic engine."""

    def __init__(self, a_fwd, a_adj, prox_g, prox_fstar, primal_dim, dual_dim):
        self._fwd = a_fwd
        self._adj = a_adj
        self._prox_g = prox_g
        self._prox_fstar = prox_fstar
        self.primal_dim = primal_dim
        self.dual_dim = dual_dim

    def grad_x(self, x, y, out=None):
        return _into(out, self._adj(y))

    def grad_y(self, x, y, out=None):
        return _into(out, self._fwd(x))

    def prox_primal(self, tau, v, out=None):
        return _into(out, self._prox_g(tau, v))

    def prox_dual(self, sigma, w, out=None):
        return _into(out, self._prox_fstar(sigma, w))

    def value(self, x, y):
        return float(np.dot(y, self._fwd(x)))


def bilinear_reduction_check(
    a: tuple[Callable, Callable],
    prox_g: Callable[[float, np.ndarray], np.ndarray],
    prox_fstar: Callable[[float, np.ndarray], np.ndarray],
    triple: StepTriple,
    n_iters: int,
    x0: np.ndarray,
    y0: np.ndarray,
) -> float:
    """Max relative iterate difference between the generic engine and a
    hand-coded classical primal-dual loop on a bilinear coupling.

    ``a`` is the pair (forward, adjoint) of the linear map, as
    callables.  On a bilinear coupling the generic iteration must
    reproduce the classical method exactly, because the dual coupling
    gradient is evaluated at the over-relaxed primal point.
    """
    a_fwd, a_adj = a
    x0 = np.asarray(x0, dtype=float).ravel()
    y0 = np.asarray(y0, dtype=float).ravel()

    problem = _BilinearProblem(a_fwd, a_adj, prox_g, prox_fstar,
                               x0.size, y0.size)
    state = PrimalDualState.initial(x0, y0)

    # Independent reference: the classical over-relaxed primal-dual loop,
    # written out directly.
    xr = x0.copy()
    yr = y0.copy()
    worst = 0.0
    for i in range(n_iters):
        state = step(problem, triple, state)

        x_old = xr
        xr = prox_g(triple.tau, xr - triple.tau * a_adj(yr))
        x_bar = xr + triple.omega * (xr - x_old)
        yr = prox_fstar(triple.sigma, yr + triple.sigma * a_fwd(x_bar))

        scale = max(float(np.linalg.norm(xr)), float(np.linalg.norm(yr)), 1.0)
        diff = max(
            float(np.linalg.norm(state.x - xr)), float(np.linalg.norm(state.y - yr))
        )
        worst = max(worst, diff / scale)
    return worst


# ---------------------------------------------------------------------------
# Model coupling kappa(x, y) = rho(<x, y>) on small spaces.
# ---------------------------------------------------------------------------


def kappa_small(x: np.ndarray, y: np.ndarray):
    """Value and derivatives of kappa(x, y) = rho(<x, y>) = 2<x,y> - <x,y>^2
    at one pair of m-vectors, from the row kernel of :mod:`potts`.

    Returns (val, gx, gy, gyx) with gx = 2y(1 - <y,x>),
    gy = 2x(1 - <x,y>) and gyx the dense m x m derivative of gy in x:
    2(I - <x,y> I - x (x) y) where (x) is the outer product.  The
    derivative of gx in y is ``kappa_small(y, x)[3]``.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("x and y must have equal length")
    gyx = rho_mixed(x, y, np.eye(x.size)).T  # row k: gyx e_k
    return float(rho(rho_pair(x, y))[0]), rho_grad(x, y, y), rho_grad(x, y, x), gyx


def c2_check(x_hat: np.ndarray, y_hat: np.ndarray) -> tuple[bool, float, float]:
    """Base-point admissibility for the scalar-product coupling.

    Forms M = I - gyx/2 = <x,y> I + x (x) y from the derivative gyx of
    :func:`kappa_small` and checks that the eigenvalues of its symmetric
    part lie in [0, 2], up to 1e-12.  Returns (ok, eig_min, eig_max).
    """
    gyx = kappa_small(x_hat, y_hat)[3]
    m = np.eye(gyx.shape[0]) - 0.5 * gyx
    # eigh, not eigvalsh: for x = (0, 1, 2), y = (1, 5.56e-161, 0) eigvalsh of
    # the outer-product form returns +-1.1186 on OpenBLAS 0.3.31, not +-sqrt(1.25).
    eigs = np.linalg.eigh(0.5 * (m + m.T))[0]
    lo, hi = float(eigs[0]), float(eigs[-1])
    return (lo >= -1e-12 and hi <= 2.0 + 1e-12), lo, hi


@dataclass(frozen=True)
class KappaConstants:
    """Three-point condition constants for the scalar-product coupling."""

    theta_x: float
    theta_y: float
    lambda_x: float
    lambda_y: float
    xi_x: float
    xi_y: float
    rho_x: float
    rho_y: float

    def __post_init__(self):
        # "not > 0" and "not >= 0" also reject NaN.
        if not (self.theta_x > 0 and self.theta_y > 0):
            raise InfeasibleConstantsError("theta_x and theta_y must be positive")
        if not (self.lambda_x >= 0 and self.lambda_y >= 0):
            raise InfeasibleConstantsError("lambda_x and lambda_y must be >= 0")
        if not (self.rho_x >= 0 and self.rho_y >= 0):
            raise InfeasibleConstantsError("radii must be >= 0")


def feasibility_check(x_hat: np.ndarray, y_hat: np.ndarray,
                      c: KappaConstants) -> None:
    """Raise if the constants violate the model coupling's feasibility
    inequalities at the base point."""
    y2 = float(np.dot(y_hat, y_hat))
    x2 = float(np.dot(x_hat, x_hat))
    if not (c.lambda_x * c.xi_x > 2.0 * (c.lambda_x + y2) * y2):
        raise InfeasibleConstantsError(
            "need lambda_x*xi_x > 2*(lambda_x + |y|^2)*|y|^2: %g <= %g"
            % (c.lambda_x * c.xi_x, 2.0 * (c.lambda_x + y2) * y2)
        )
    if not (c.xi_y > 0):
        raise InfeasibleConstantsError("need xi_y > 0, got %g" % c.xi_y)
    if not (c.lambda_y > x2):
        raise InfeasibleConstantsError(
            "need lambda_y > |x|^2: %g <= %g" % (c.lambda_y, x2)
        )
    ok, lo, hi = c2_check(x_hat, y_hat)
    if not ok:
        raise InfeasibleConstantsError(
            "base point fails the eigenvalue test: spectrum [%g, %g] not in [0, 2]"
            % (lo, hi)
        )


@dataclass(frozen=True)
class ThreePointReport:
    n_samples: int
    violations_a: int
    violations_b: int
    worst_margin_a: float
    worst_margin_b: float

    @property
    def passed(self) -> bool:
        return self.violations_a == 0 and self.violations_b == 0


def _ball(rng: np.random.Generator, center: np.ndarray, radius: float,
          n: int) -> np.ndarray:
    """n points uniform in the ball B(center, radius)."""
    m = center.size
    g = rng.standard_normal((n, m))
    g /= np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    r = radius * rng.uniform(0.0, 1.0, size=(n, 1)) ** (1.0 / m)
    return center[None, :] + g * r


def _three_point_margins(x_hat, y_hat, c: KappaConstants, xs, xps, ys, yps):
    """Margins of the two three-point conditions for sample rows
    (x, x', y, y'), evaluated literally with the rho kernel."""
    xh = np.broadcast_to(x_hat, xs.shape)
    yh = np.broadcast_to(y_hat, ys.shape)

    # Condition A.
    lhs_a = rho_pair(rho_grad(xps, yh, yh) - rho_grad(xh, yh, yh), xs - xh) \
        + c.xi_x * rho_pair(xs - xh, xs - xh)
    resid_a = rho_grad(xh, ys, xh) - rho_grad(xs, ys, xs) - rho_mixed(xs, ys, xh - xs)
    rhs_a = c.theta_x * np.sqrt(rho_pair(resid_a, resid_a)) \
        - 0.5 * c.lambda_x * rho_pair(xs - xps, xs - xps)

    # Condition B.
    lhs_b = rho_pair(rho_grad(xs, ys, xs) - rho_grad(xs, yps, xs)
                     + rho_grad(xh, yh, xh) - rho_grad(xh, ys, xh), ys - yh) \
        + c.xi_y * rho_pair(ys - yh, ys - yh)
    resid_b = rho_grad(xps, yh, yh) - rho_grad(xps, yps, yps) \
        - rho_mixed(yps, xps, yh - yps)
    rhs_b = c.theta_y * np.sqrt(rho_pair(resid_b, resid_b)) \
        - 0.5 * c.lambda_y * rho_pair(ys - yps, ys - yps)
    return lhs_a - rhs_a, lhs_b - rhs_b


def three_point_sample(
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    c: KappaConstants,
    n_samples: int = 10_000,
    seed: int = 0,
) -> ThreePointReport:
    """Monte-Carlo check of the two three-point growth conditions for the
    scalar-product coupling on B(x_hat, rho_x) x B(y_hat, rho_y).

    Draws (x, x', y, y') uniformly from the balls and evaluates both
    conditions literally (no algebraic simplification), counting
    violations below -1e-12 and recording the worst margins
    (left side minus right side; negative means violated).
    """
    x_hat = np.asarray(x_hat, dtype=float).ravel()
    y_hat = np.asarray(y_hat, dtype=float).ravel()
    feasibility_check(x_hat, y_hat, c)
    rng = np.random.default_rng(seed)

    xs = _ball(rng, x_hat, c.rho_x, n_samples)
    xps = _ball(rng, x_hat, c.rho_x, n_samples)
    ys = _ball(rng, y_hat, c.rho_y, n_samples)
    yps = _ball(rng, y_hat, c.rho_y, n_samples)

    margins_a, margins_b = _three_point_margins(x_hat, y_hat, c, xs, xps, ys, yps)
    return ThreePointReport(
        n_samples=n_samples,
        violations_a=int(np.sum(margins_a < -1e-12)),
        violations_b=int(np.sum(margins_b < -1e-12)),
        worst_margin_a=float(np.min(margins_a)),
        worst_margin_b=float(np.min(margins_b)),
    )


def shrink_rho(
    x_hat: np.ndarray,
    y_hat: np.ndarray,
    c: KappaConstants,
    n_samples: int = 10_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Halve (rho_x, rho_y) from the supplied radii until sample batches
    show no violation of either three-point condition; returns the radii
    found.  Raises if 60 halvings find none.

    A radius scale that barely survives one batch sits on the sampled
    edge of the admissible region, where a fresh (or larger) batch may
    still find violations.  The search therefore keeps halving until two
    consecutive scales pass independent batches and returns the smaller,
    which lies strictly inside the region rather than on its boundary.
    """
    rho_x, rho_y = c.rho_x, c.rho_y
    if not (rho_x > 0 and rho_y > 0):
        raise InfeasibleConstantsError("shrink_rho needs positive starting radii")
    previous_passed = False
    for k in range(61):  # the supplied radii, then 60 halvings
        rep = three_point_sample(
            x_hat, y_hat, replace(c, rho_x=rho_x, rho_y=rho_y),
            n_samples=n_samples, seed=seed + k,
        )
        if rep.passed and previous_passed:
            return rho_x, rho_y
        previous_passed = rep.passed
        rho_x *= 0.5
        rho_y *= 0.5
    raise InfeasibleConstantsError(
        "no admissible radii found after 60 halvings"
    )


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric fit of an error sequence: per-iteration
    factor, coefficient of determination of the log-linear fit, and the
    fitted window."""

    rate: float
    r_squared: float
    window: tuple[int, int]


def rate_fit(errors: Sequence[float], window: tuple[int, int]) -> RateFit:
    """Fit errors[i] ~ C * rate^i over i in [window[0], window[1]].

    ``errors`` is indexed by iteration.  Entries in the window must be
    finite and positive.  Returns the exponentiated slope and the r^2 of
    the straight-line fit to log(errors).
    """
    lo, hi = window
    if not (0 <= lo < hi < len(errors)):
        raise ValueError("window %r out of range for %d errors" % (window, len(errors)))
    idx = np.arange(lo, hi + 1, dtype=float)
    vals = np.asarray(errors[lo : hi + 1], dtype=float)
    if not np.all(np.isfinite(vals) & (vals > 0)):
        raise ValueError("errors in the fit window must be finite and positive")
    logs = np.log(vals)
    slope, intercept = np.polyfit(idx, logs, 1)
    pred = slope * idx + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return RateFit(rate=float(math.exp(slope)), r_squared=r2, window=(lo, hi))


# ---------------------------------------------------------------------------
# Named check suite for the command line.
# ---------------------------------------------------------------------------


def _tol_result(name: str, value: float, tol: float) -> ConditionReport:
    """Report for ``value <= tol``, its margin the slack relative to ``tol``."""
    return ConditionReport(name, value <= tol, (tol - value) / tol)


def _check_adjoint(name: str, seed: int) -> ConditionReport:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        u = rng.standard_normal((9, 7))
        g = rng.standard_normal((9, 7, 2))
        lhs = float(np.sum(dh(u) * g))
        rhs = float(np.sum(u * dht(g)))
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return _tol_result(name, worst, 1e-12)


def _check_grad_potts(name: str, seed: int, p: float) -> ConditionReport:
    f = gen_synthetic(8, 8, seed + 1, n_shapes=3, noise_sigma=0.05)
    problem = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    rng = np.random.default_rng(seed)
    x = f.ravel() + 0.05 * rng.standard_normal(problem.primal_dim)
    y = 0.3 * rng.standard_normal(problem.dual_dim)
    worst = fd_grad_check(problem, x, y, h=1e-5, n_dirs=30, seed=seed)
    return _tol_result(name, worst, 1e-6)


def _check_grad_nash(name: str, seed: int) -> ConditionReport:
    from .nash import NashProblem, manufacture

    config, x_star, y_star = manufacture(15)
    problem = NashProblem(config)
    rng = np.random.default_rng(seed)
    x = x_star + 0.05 * rng.standard_normal(problem.primal_dim)
    y = y_star + 0.05 * rng.standard_normal(problem.dual_dim)
    worst = fd_grad_check(problem, x, y, h=1e-5, n_dirs=15, seed=seed)
    return _tol_result(name, worst, 1e-6)


def _check_nash_step(name: str, seed: int) -> ConditionReport:
    """One planned Nash step against the plain composition of the four
    maps, the largest difference relative to each iterate's max-norm."""
    from .nash import NashProblem, manufacture

    config, x_star, y_star = manufacture(15)
    problem = NashProblem(config)
    rng = np.random.default_rng(seed)
    x = x_star + 0.05 * rng.standard_normal(problem.primal_dim)
    y = y_star + 0.05 * rng.standard_normal(problem.dual_dim)
    tau, sigma, omega = 0.99, 1.0, 1.0
    got = step(problem, StepTriple(tau, sigma, omega), PrimalDualState.initial(x, y))
    x_new = problem.prox_primal(tau, x - tau * problem.grad_x(x, y))
    x_bar = x_new + omega * (x_new - x)
    y_new = problem.prox_dual(sigma, y + sigma * problem.grad_y(x_bar, y))
    worst = max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
                for a, b in ((got.x, x_new), (got.x_bar, x_bar), (got.y, y_new)))
    return _tol_result(name, worst, 1e-14)


def _check_bilinear(name: str, seed: int) -> ConditionReport:
    f = gen_synthetic(16, 16, seed + 2, n_shapes=3, noise_sigma=0.05)
    potts = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-2, p=1), f)

    def a_fwd(v):
        return dh(v.reshape(f.shape)).ravel()

    def a_adj(w):
        return dht(w.reshape(f.shape + (2,))).ravel()

    triple = StepTriple(tau=0.1, sigma=0.9 / (POTTS_D_NORM_SQ * 0.1), omega=1.0)
    worst = bilinear_reduction_check(
        (a_fwd, a_adj), potts.prox_primal, potts.prox_dual, triple, 100,
        f.ravel(), np.zeros(f.size * 2))
    return _tol_result(name, worst, 1e-12)


def _check_three_point(name: str, seed: int, m: int) -> ConditionReport:
    if m == 1:
        x_hat = np.array([0.6])
        y_hat = np.array([0.2])
    else:
        x_hat = np.array([0.5, 0.1])
        y_hat = np.array([0.15, 0.05])
    c = KappaConstants(theta_x=0.05, theta_y=0.05, lambda_x=1.0, lambda_y=1.0,
                       xi_x=0.5, xi_y=0.1, rho_x=1.0, rho_y=1.0)
    rho_x, rho_y = shrink_rho(x_hat, y_hat, c, n_samples=2000, seed=seed)
    rep = three_point_sample(x_hat, y_hat, replace(c, rho_x=rho_x, rho_y=rho_y),
                             n_samples=5000, seed=seed + 101)
    margin = min(rep.worst_margin_a, rep.worst_margin_b)
    return ConditionReport(name, rep.passed, margin,
                           "rho_x=%g rho_y=%g" % (rho_x, rho_y))


def _check_poisson_eigenpair(name: str, seed: int) -> ConditionReport:
    from .nash import Grid, apply_laplacian

    grid = Grid(63)
    h = grid.h
    i = np.arange(1, grid.n + 1)
    k, l = 3, 5
    v = np.outer(np.sin(k * math.pi * i * h), np.sin(l * math.pi * i * h))
    lam = (2.0 - 2.0 * math.cos(k * math.pi * h)) / h**2 \
        + (2.0 - 2.0 * math.cos(l * math.pi * h)) / h**2
    resid = np.linalg.norm(apply_laplacian(grid, v) - lam * v) / (lam * np.linalg.norm(v))
    return _tol_result(name, float(resid), 1e-12)


def _check_poisson_roundtrip(name: str, seed: int) -> ConditionReport:
    from .nash import Grid, apply_laplacian, poisson_solve

    grid = Grid(63)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((grid.n, grid.n))
    back = poisson_solve(grid, apply_laplacian(grid, w))
    resid = np.linalg.norm(back - w) / np.linalg.norm(w)
    return _tol_result(name, float(resid), 1e-12)


def _check_gradnorm_bound(name: str, seed: int) -> ConditionReport:
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((32, 32))
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(200):
        w = dht(dh(v))
        est = float(np.linalg.norm(w))
        v = w / est
    bound = POTTS_D_NORM_SQ + 1e-9
    return ConditionReport(name, est <= bound, (bound - est) / bound,
                           "norm_sq_estimate=%r" % est)


def standard_suite(seed: int = 0) -> dict[str, Callable[[], ConditionReport]]:
    """The named oracle checks run by the ``verify`` command, in order:
    each name maps to a call that returns the check's report."""
    return {name: partial(check, name, seed, *args) for name, check, args in (
        ("adjoint", _check_adjoint, ()),
        ("grad-potts-p1", _check_grad_potts, (1.0,)),
        ("grad-potts-pinf", _check_grad_potts, (math.inf,)),
        ("grad-nash", _check_grad_nash, ()),
        ("nash-step", _check_nash_step, ()),
        ("bilinear-reduction", _check_bilinear, ()),
        ("three-point-m1", _check_three_point, (1,)),
        ("three-point-m2", _check_three_point, (2,)),
        ("poisson-eigenpair", _check_poisson_eigenpair, ()),
        ("poisson-roundtrip", _check_poisson_roundtrip, ()),
        ("gradnorm-bound", _check_gradnorm_bound, ()),
    )}
