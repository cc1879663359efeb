"""Iteration engine for saddle-point problems with smooth coupling.

Solves  min_x max_y  G(x) + K(x, y) - F*(y)  by alternating proximal
steps on x and y with an over-relaxed primal intermediate.  One
iteration with step sizes (tau, sigma, omega) reads

    x_new  = prox_primal(tau, x - tau * grad_x(x, y))
    x_bar  = x_new + omega * (x_new - x)
    y_new  = prox_dual(sigma, y + sigma * grad_y(x_bar, y))

Note that the dual coupling gradient is evaluated at (x_bar, y), never
at (x_new, y).  Problems supply the proximal maps and coupling
gradients; the engine is agnostic to their structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent problem/solver configuration (shape mismatch, bad option)."""


class DivergenceError(RuntimeError):
    """Iterates left the representable range (NaN or infinity)."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


class SaddleProblem:
    """Base class for problem instances consumed by :func:`step` and :func:`solve`.

    Subclasses must set ``primal_dim`` and ``dual_dim`` and implement the
    two proximal maps and the two coupling gradients.  All vectors are
    flat, contiguous float arrays; the problem interprets any internal
    shape.  ``grad_x`` and ``grad_y`` return the gradient representers
    with respect to the problem's inner products (``inner_primal`` /
    ``inner_dual``, plain Euclidean by default), so that discretized
    function-space problems can keep mesh-independent step sizes.
    """

    primal_dim: int
    dual_dim: int

    def prox_primal(self, tau: float, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def prox_dual(self, sigma: float, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        """Coupling value K(x, y).  Optional; used by verification oracles."""
        raise NotImplementedError("problem does not expose a coupling value oracle")

    def primal_objective(self, x: np.ndarray) -> Optional[float]:
        """Primal merit value, if the problem defines one.  Optional."""
        return None

    def inner_primal(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(np.dot(v, w))

    def inner_dual(self, v: np.ndarray, w: np.ndarray) -> float:
        return float(np.dot(v, w))


@dataclass
class PrimalDualState:
    """Primal iterate, dual iterate, over-relaxed primal, iteration count."""

    x: np.ndarray
    y: np.ndarray
    x_bar: np.ndarray
    iteration: int = 0

    @classmethod
    def initial(cls, x0: np.ndarray, y0: np.ndarray) -> "PrimalDualState":
        x0, y0 = _flat(x0), _flat(y0)
        return cls(x=x0.copy(), y=y0.copy(), x_bar=x0.copy(), iteration=0)


@dataclass
class IterationRecord:
    """Log entry of an iteration that :func:`solve` keeps.

    ``step_norm`` and ``dist_to_ref`` are norms in the problem's
    ``inner_primal``/``inner_dual``.  ``dist_to_ref`` is present only
    when a reference pair was supplied in the solve options,
    ``objective`` only when objective recording was requested and the
    problem defines one.
    """

    iteration: int
    tau: float
    sigma: float
    omega: float
    step_norm: float
    dist_to_ref: Optional[float] = None
    objective: Optional[float] = None


@dataclass
class SolveOptions:
    max_iters: int = 100
    step_tol: float = 0.0
    log_stride: int = 1
    reference: Optional[tuple[np.ndarray, np.ndarray]] = None
    record_objective: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be >= 1, got %d" % self.max_iters)
        if self.log_stride < 1:
            raise ConfigurationError("log_stride must be >= 1, got %d" % self.log_stride)
        if self.step_tol < 0:
            raise ConfigurationError("step_tol must be >= 0")


def _flat(v) -> np.ndarray:
    return np.asarray(v, dtype=float).ravel()


def _check_dims(problem: SaddleProblem, x: np.ndarray, y: np.ndarray) -> None:
    if x.shape != (problem.primal_dim,):
        raise ConfigurationError(
            "primal vector has shape %s, problem expects (%d,)"
            % (x.shape, problem.primal_dim)
        )
    if y.shape != (problem.dual_dim,):
        raise ConfigurationError(
            "dual vector has shape %s, problem expects (%d,)"
            % (y.shape, problem.dual_dim)
        )


def step(problem: SaddleProblem, triple, state: PrimalDualState) -> PrimalDualState:
    """One primal-dual iteration with the step triple (tau, sigma, omega).

    ``triple`` is anything with ``tau``, ``sigma`` and ``omega``
    attributes.  Raises :class:`DivergenceError` if the new iterates
    contain non-finite entries, carrying the 1-based iteration index.
    """
    _check_dims(problem, state.x, state.y)
    tau, sigma, omega = triple.tau, triple.sigma, triple.omega

    x_new = problem.prox_primal(tau, state.x - tau * problem.grad_x(state.x, state.y))
    x_bar = x_new + omega * (x_new - state.x)
    y_new = problem.prox_dual(sigma, state.y + sigma * problem.grad_y(x_bar, state.y))

    it = state.iteration + 1
    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
        raise DivergenceError("non-finite iterate at iteration %d" % it, iteration=it)
    return PrimalDualState(x=x_new, y=y_new, x_bar=x_bar, iteration=it)


def _distance(problem: SaddleProblem, dx: np.ndarray, dy: np.ndarray) -> float:
    """Norm of the pair (dx, dy) in the problem's inner products."""
    return math.sqrt(problem.inner_primal(dx, dx) + problem.inner_dual(dy, dy))


def solve(
    problem: SaddleProblem,
    schedule,
    x0: np.ndarray,
    y0: np.ndarray,
    options: SolveOptions,
) -> tuple[PrimalDualState, list[IterationRecord]]:
    """Run the iteration from (x0, y0).

    ``schedule`` supplies the step triple for iteration i via
    ``schedule.triple(i)`` (a fixed ``StepTriple`` works, it returns
    itself).  Stops after ``max_iters`` iterations, or earlier once the
    joint step norm ||(x,y)_new - (x,y)_old|| drops to ``step_tol``
    (when positive).  Step norms and reference distances are measured
    in the problem's ``inner_primal``/``inner_dual``.  Returns the final
    state and the log.  Only kept iterations are recorded: every
    ``log_stride``-th one, the last of ``max_iters`` and the one where
    ``step_tol`` stops the run.
    """
    state = PrimalDualState.initial(x0, y0)
    _check_dims(problem, state.x, state.y)
    ref = options.reference
    if ref is not None:
        # Flat views, not copies: the reference is only read.
        ref = _flat(ref[0]), _flat(ref[1])
        _check_dims(problem, *ref)

    records: list[IterationRecord] = []
    for i in range(options.max_iters):
        trip = schedule.triple(i)
        prev = state
        state = step(problem, trip, state)
        kept = state.iteration % options.log_stride == 0 or i + 1 == options.max_iters
        if not (kept or options.step_tol > 0):
            continue
        step_norm = _distance(problem, state.x - prev.x, state.y - prev.y)
        stop = options.step_tol > 0 and step_norm <= options.step_tol
        if kept or stop:
            dist = None
            if ref is not None:
                dist = _distance(problem, state.x - ref[0], state.y - ref[1])
            obj = problem.primal_objective(state.x) if options.record_objective else None
            records.append(IterationRecord(state.iteration, trip.tau, trip.sigma,
                                           trip.omega, step_norm, dist, obj))
        if stop:
            break
    return state, records
