"""Iteration engine for saddle-point problems with smooth coupling.

Solves  min_x max_y  G(x) + K(x, y) - F*(y)  by alternating proximal
steps on x and y with an over-relaxed primal intermediate.  One
iteration with step sizes (tau, sigma, omega) reads

    x_new  = prox_primal(tau, x - tau * grad_x(x, y))
    x_bar  = x_new + omega * (x_new - x)
    y_new  = prox_dual(sigma, y + sigma * grad_y(x_bar, y))

Note that the dual coupling gradient is evaluated at (x_bar, y), never
at (x_new, y).  Problems supply the proximal maps and coupling
gradients; the engine is agnostic to their structure.  The engine
writes each iteration into recycled arrays, so a run allocates no
primal- or dual-size vector per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent problem/solver configuration (shape mismatch, bad option)."""


# Bytes of (x, y) copies :func:`solve` may keep for a one-pass reference.
_COPY_BUDGET = 64 << 20


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

    Each of the four maps takes ``out``: ``None`` (return a new array)
    or a buffer that :func:`out_buffer` accepts, which the map fills and
    returns.  :func:`step` passes ``out`` disjoint from the arguments,
    except that ``prox_dual`` gets ``out`` equal to ``w``.
    """

    primal_dim: int
    dual_dim: int

    def prox_primal(self, tau: float, v: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def prox_dual(self, sigma: float, w: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def grad_x(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        raise NotImplementedError

    def grad_y(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
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
    when the solve options name a reference,
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
    """Options of :func:`solve`.  ``reference`` is None, a pair (x, y),
    or the index R of an iteration of the run itself: the run then goes
    on to that iteration if it is past the log, and measures the logged
    iterates against it, in one pass unless the copies that takes would
    pass 64 MiB (``_COPY_BUDGET``)."""

    max_iters: int = 100
    log_stride: int = 1
    reference: Union[tuple[np.ndarray, np.ndarray], int, None] = None
    record_objective: bool = False

    def __post_init__(self):
        for name in ("max_iters", "log_stride"):
            value = getattr(self, name)
            if not is_int(value) or value < 1:
                raise ConfigurationError("%s must be an integer >= 1, got %r" % (name, value))
        ref = self.reference
        if not (ref is None or (is_int(ref) and ref >= 1)
                or (isinstance(ref, (tuple, list)) and len(ref) == 2)):
            raise ConfigurationError("reference must be an integer >= 1 or a pair "
                                     "(x, y), got %r" % (ref,))


def is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer and not a bool,
    which would otherwise pass as 0 or 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def out_buffer(out: Optional[np.ndarray], shape: tuple, *inputs: np.ndarray) -> np.ndarray:
    """The result buffer of a map: a new array for ``out=None``, else
    ``out`` itself, which must be a writeable C-contiguous float64 array
    of ``shape`` that shares no memory with ``inputs``."""
    if out is None:
        return np.empty(shape)
    if (out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous
            or not out.flags.writeable):
        raise ConfigurationError("out must be a writeable C-contiguous float64 array "
                                 "of shape %s" % (shape,))
    if any(np.may_share_memory(out, a) for a in inputs):
        raise ConfigurationError("out must not share memory with this operand")
    return out


def step(problem: SaddleProblem, triple, state: PrimalDualState,
         out: Optional[PrimalDualState] = None) -> PrimalDualState:
    """One primal-dual iteration with the step triple (tau, sigma, omega).

    ``triple`` is anything with ``tau``, ``sigma`` and ``omega``
    attributes.  The new iterates are written into the arrays of
    ``out`` and ``out`` is returned with the new iteration count; with
    ``out=None`` they go into new arrays.  Each array of ``out`` must
    pass :func:`out_buffer` against ``state.x``, ``state.y`` and the
    arrays before it.  The arithmetic is the plain update with every
    operand order kept, so both forms give the same bits.  Raises
    :class:`DivergenceError` if the new iterates contain non-finite
    entries, carrying the 1-based iteration index.
    """
    _check_dims(problem, state.x, state.y)
    x, y = state.x, state.y
    n, m = (problem.primal_dim,), (problem.dual_dim,)
    out = PrimalDualState(None, None, None) if out is None else out
    out.x = out_buffer(out.x, n, x, y)
    out.x_bar = out_buffer(out.x_bar, n, x, y, out.x)
    out.y = out_buffer(out.y, m, x, y, out.x, out.x_bar)
    tau, sigma, omega = triple.tau, triple.sigma, triple.omega

    # x_bar holds x - tau * grad_x(x, y) until x_new is known.
    v = problem.grad_x(x, y, out=out.x_bar)
    np.multiply(tau, v, out=v)
    np.subtract(x, v, out=v)
    x_new = problem.prox_primal(tau, v, out=out.x)
    x_bar = np.subtract(x_new, x, out=out.x_bar)
    np.multiply(omega, x_bar, out=x_bar)
    np.add(x_new, x_bar, out=x_bar)
    w = problem.grad_y(x_bar, y, out=out.y)
    np.multiply(sigma, w, out=w)
    np.add(y, w, out=w)
    y_new = problem.prox_dual(sigma, w, out=w)

    it = state.iteration + 1
    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
        raise DivergenceError("non-finite iterate at iteration %d" % it, iteration=it)
    out.iteration = it
    return out


def _distance(problem: SaddleProblem, x: np.ndarray, y: np.ndarray,
              x0: np.ndarray, y0: np.ndarray, scratch: PrimalDualState) -> float:
    """Norm of (x - x0, y - y0) in the problem's inner products.  The
    differences are written into the arrays of ``scratch``."""
    dx = np.subtract(x, x0, out=scratch.x)
    dy = np.subtract(y, y0, out=scratch.y)
    return math.sqrt(problem.inner_primal(dx, dx) + problem.inner_dual(dy, dy))


class SolveResult(tuple):
    """The pair ``(state, records)`` that :func:`solve` returns, with the
    reference pair (x, y) the records were measured against, or None,
    as ``reference``."""

    def __new__(cls, state: PrimalDualState, records: list[IterationRecord],
                reference: Optional[tuple[np.ndarray, np.ndarray]]):
        result = super().__new__(cls, (state, records))
        result.reference = reference
        return result


def solve(
    problem: SaddleProblem,
    schedule,
    x0: np.ndarray,
    y0: np.ndarray,
    options: SolveOptions,
) -> SolveResult:
    """Run the iteration from (x0, y0).

    ``schedule`` supplies the step triple for iteration i via
    ``schedule.triple(i)`` (a fixed ``StepTriple`` works, it returns
    itself).  Makes ``max_iters`` iterations and records only the kept
    ones: every ``log_stride``-th and the last.  Their step norms
    ||(x,y)_new - (x,y)_old|| and reference distances are measured in
    the problem's ``inner_primal``/``inner_dual``.  Returns the final
    state and the log as a :class:`SolveResult`.

    A reference given as an iteration index R is iterate R of this same
    run.  Kept iterates before R are copied as (x, y) pairs; a log that
    ends before R keeps its last state and the run goes on to R without
    a record.  The copied pairs get their distance after the log, once
    iterate R exists.  The returned state is still the one that ends
    the log.  If the min(max_iters, R) // log_stride + 3 pairs this
    keeps would pass 64 MiB (``_COPY_BUDGET``), R quiet iterations from
    (x0, y0) make the reference pair first, with the same bits:
    R + max_iters steps instead of max(R, max_iters).
    The loop recycles two sets of iterate arrays, so ``x0`` and ``y0``
    are copied first; the returned state and reference belong to the caller.
    """
    ref, ref_at = options.reference, None
    if is_int(ref):
        # Pairs before R, the reference or the log's end, and one pair of headroom.
        copies = min(options.max_iters, ref) // options.log_stride + 3
        if copies * 8 * (problem.primal_dim + problem.dual_dim) > _COPY_BUDGET:
            pair, _ = solve(problem, schedule, x0, y0,
                            SolveOptions(max_iters=ref, log_stride=ref))
            return solve(problem, schedule, x0, y0,
                         replace(options, reference=(pair.x, pair.y)))
        ref, ref_at = None, ref
    state = PrimalDualState.initial(x0, y0)
    _check_dims(problem, state.x, state.y)
    if ref is not None:
        # Flat views, not copies: the reference is only read.
        ref = _flat(ref[0]), _flat(ref[1])
        _check_dims(problem, *ref)

    records: list[IterationRecord] = []
    pending = []  # (record, x, y) of the kept iterations before iteration ref_at
    spare = None  # after each step, the state one step back, which the next overwrites
    for i in range(options.max_iters):
        trip = schedule.triple(i)
        state, spare = step(problem, trip, state, out=spare), state
        if state.iteration == ref_at:
            ref = state.x.copy(), state.y.copy()  # later steps write over these arrays
        if state.iteration % options.log_stride and i + 1 < options.max_iters:
            continue
        # spare's arrays, which the next step overwrites, take the differences.
        step_norm = _distance(problem, state.x, state.y, spare.x, spare.y, spare)
        dist = None
        if ref is not None:
            dist = _distance(problem, state.x, state.y, *ref, spare)
        obj = problem.primal_objective(state.x) if options.record_objective else None
        records.append(IterationRecord(state.iteration, trip.tau, trip.sigma,
                                       trip.omega, step_norm, dist, obj))
        if ref is None and ref_at is not None:
            pending.append((records[-1], state.x.copy(), state.y.copy()))
    if ref is None and ref_at is not None:
        # The log ended before iterate R: keep its end and go on to R.
        end = PrimalDualState(pending[-1][1], pending[-1][2], state.x_bar.copy(),
                              state.iteration)
        for i in range(state.iteration, ref_at):
            state, spare = step(problem, schedule.triple(i), state, out=spare), state
        ref, state = (state.x, state.y), end
    for rec, x, y in pending:
        rec.dist_to_ref = _distance(problem, x, y, *ref, spare)
    return SolveResult(state, records, ref)
