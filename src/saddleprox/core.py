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
import operator
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np


class ConfigurationError(ValueError):
    """Inconsistent problem/solver configuration (shape mismatch, bad option)."""


# Bytes of (x, y) copies :func:`solve` may keep for a one-pass reference.
_COPY_BUDGET = 64 << 20


class DivergenceError(RuntimeError):
    """Iterates left the representable range (NaN or infinity)."""

    def __init__(self, iteration: int):
        super().__init__("non-finite iterate at iteration %d" % iteration)
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

    def step_plan(self, state: "PrimalDualState", out: "PrimalDualState"):
        """Optional: the iteration of :func:`step` from the arrays of
        ``state`` into those of ``out``, laid out once and run for many
        iterations.  Returns None (the default) to leave it to the generic
        update, or a plan that owns any scratch it needs: ``plan.arrays``
        is the tuple (x, y, new x, new x_bar, new y) of the arrays it reads
        and writes, and ``plan(triple, iteration)`` writes the update's
        bits into new x and new y.  New x_bar is its scratch, for every
        problem: after a plan its contents are unspecified (the Potts walk
        writes only its first rows).  :func:`step` writes the whole x_bar
        after a plan it built itself, and :func:`solve` after the step that
        ends its log; a caller that runs its own bound plan through
        :func:`step` and needs x_bar forms x+ + omega (x+ - x) itself, in
        that operand order for the bits of a lone step.  A plan never reads
        ``state.x_bar``: :func:`solve` hands the two states of its loop one
        shared x_bar.
        :func:`step` builds a plan after its checks.  A new non-finite
        entry raises ``DivergenceError(iteration)``; ``out`` may then be
        partly written.

        Two plans that run opposite ways between the same arrays, as the
        two of :func:`solve` do, may be partners: a plan may hand its
        partner what it computed from the arrays it wrote, and the partner
        may use it only if that plan made the problem's previous planned
        call.  The problem holds its plans only weakly, so nothing of a
        plan outlives its callers.  A caller that holds both partners must
        not write into their arrays between their calls.
        """
        return None

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


def plan_step(problem: SaddleProblem, state: PrimalDualState,
              out: Optional[PrimalDualState] = None):
    """The checks of :func:`step`: returns ``out`` with its arrays, new
    ones for ``out=None``, and the problem's plan from ``state`` into
    them, or None."""
    _check_dims(problem, state.x, state.y)
    x, y = state.x, state.y
    n, m = (problem.primal_dim,), (problem.dual_dim,)
    out = PrimalDualState(None, None, None) if out is None else out
    # The order x, x_bar, y is load-bearing, here and in solve, which allocates
    # its spare's x and x_bar itself: it sets glibc's heap reuse, and a spare
    # set allocated as x, y, x_bar took about four times the minor page faults
    # of a 1024^2 p = 1 solve.  solve's two states share the spare's x_bar; in
    # a stream of 5-iteration 1024^2 p = 1 solves the median job took 623
    # minor faults with it allocated in this order after the copies of x0 and
    # y0 (as with an x_bar per state), 2,172 with it allocated before the
    # copies, and 1,138 with it allocated with the state, before the spare's
    # x and y.
    out.x = out_buffer(out.x, n, x, y)
    out.x_bar = out_buffer(out.x_bar, n, x, y, out.x)
    out.y = out_buffer(out.y, m, x, y, out.x, out.x_bar)
    return out, problem.step_plan(state, out)


def _over_relax(x_new: np.ndarray, x: np.ndarray, omega: float,
                out: np.ndarray) -> np.ndarray:
    """x_bar = x_new + omega * (x_new - x) into ``out``, in the operand
    order of every step plan."""
    np.subtract(x_new, x, out=out)
    np.multiply(omega, out, out=out)
    return np.add(x_new, out, out=out)


def step(problem: SaddleProblem, triple, state: PrimalDualState,
         out: Optional[PrimalDualState] = None, plan=None) -> PrimalDualState:
    """One primal-dual iteration with the step triple (tau, sigma, omega).

    ``triple`` is anything with ``tau``, ``sigma`` and ``omega``
    attributes.  The new iterates are written into the arrays of
    ``out`` and ``out`` is returned with the new iteration count; with
    ``out=None`` they go into new arrays.  Each array of ``out`` must
    pass :func:`out_buffer` against ``state.x``, ``state.y`` and the
    arrays before it.  The arithmetic is the plain update with every
    operand order kept, so both forms give the same bits, and so does a
    problem's :meth:`SaddleProblem.step_plan`.  A ``plan`` from
    :func:`plan_step` is run without the checks if it is bound to exactly
    the arrays of ``state`` and ``out``, and then ``out.x_bar`` is
    unspecified, the plan's scratch (see :meth:`SaddleProblem.step_plan`);
    otherwise the checks run, a plan is built for this call and x_bar is
    written in full.  Raises :class:`DivergenceError` if the
    new iterates contain non-finite entries, carrying the 1-based
    iteration index.
    """
    bound = plan is not None and out is not None and all(map(
        operator.is_, plan.arrays, (state.x, state.y, out.x, out.x_bar, out.y)))
    if not bound:
        out, plan = plan_step(problem, state, out)
    out.iteration = it = state.iteration + 1
    if plan is not None:
        plan(triple, it)
        if not bound:
            _over_relax(out.x, state.x, triple.omega, out.x_bar)
        return out
    x, y = state.x, state.y
    tau, sigma, omega = triple.tau, triple.sigma, triple.omega

    # x_bar holds x - tau * grad_x(x, y) until x_new is known.
    v = problem.grad_x(x, y, out=out.x_bar)
    np.multiply(tau, v, out=v)
    np.subtract(x, v, out=v)
    x_new = problem.prox_primal(tau, v, out=out.x)
    x_bar = _over_relax(x_new, x, omega, out.x_bar)
    w = problem.grad_y(x_bar, y, out=out.y)
    np.multiply(sigma, w, out=w)
    np.add(y, w, out=w)
    y_new = problem.prox_dual(sigma, w, out=w)
    if not (np.isfinite(x_new).all() and np.isfinite(y_new).all()):
        raise DivergenceError(it)
    return out


def _distance(problem: SaddleProblem, x: np.ndarray, y: np.ndarray,
              x0: np.ndarray, y0: np.ndarray, scratch: PrimalDualState) -> float:
    """Norm of (x - x0, y - y0) in the problem's inner products.  The
    differences are written into the arrays of ``scratch``: :func:`solve`
    takes x+ - x from ``scratch.x`` for x_bar, in the operand order of
    the step plans' x_bar."""
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
    The loop recycles two sets of (x, y) arrays, with the problem's
    :meth:`~SaddleProblem.step_plan` from each into the other, so ``x0``
    and ``y0`` are copied first.  The two sets share one x_bar, which
    each step overwrites: no plan, and no generic step, reads the x_bar
    of the state it starts from.  A plan leaves x_bar unspecified, so
    the whole x_bar of iteration ``max_iters`` is written once, from
    the difference x+ - x that its step norm leaves in the spare set.
    The returned state and reference belong to the caller, and hold no
    plan.
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
    # spare: after each step, the state one step back, which the next
    # overwrites.  plan is the step from state into spare, back the other.
    # No plan reads the x_bar of the state it starts from, so the two sets
    # share the spare's, allocated in plan_step's order (see there).
    state = PrimalDualState(_flat(x0).copy(), _flat(y0).copy(), None)
    n = (problem.primal_dim,)
    spare = PrimalDualState(np.empty(n), None, np.empty(n))
    state.x_bar = spare.x_bar
    spare, plan = plan_step(problem, state, spare)
    _, back = plan_step(problem, spare, state)
    if ref is not None:
        # Flat views, not copies: the reference is only read.
        ref = _flat(ref[0]), _flat(ref[1])
        _check_dims(problem, *ref)

    max_iters = options.max_iters
    records: list[IterationRecord] = []
    pending = []  # (record, x, y) of the kept iterations before iteration ref_at
    end = None  # the log's last state, copied if the run goes on to ref_at
    for i in range(max(max_iters, ref_at or 0)):
        trip = schedule.triple(i)
        state, spare = step(problem, trip, state, spare, plan), state
        plan, back = back, plan
        n = state.iteration
        if n == ref_at:
            # Past the log, no step follows R and the log's end is returned as a copy.
            ref = (state.x, state.y) if n > max_iters else (state.x.copy(), state.y.copy())
        if n > max_iters or (n % options.log_stride and n < max_iters):
            continue
        # spare's arrays, which the next step overwrites, take the differences.
        step_norm = _distance(problem, state.x, state.y, spare.x, spare.y, spare)
        if n == max_iters:  # x_bar from x+ - x, before a distance overwrites it
            np.multiply(trip.omega, spare.x, out=state.x_bar)
            np.add(state.x, state.x_bar, out=state.x_bar)
        dist = None
        if ref is not None:
            dist = _distance(problem, state.x, state.y, *ref, spare)
        obj = problem.primal_objective(state.x) if options.record_objective else None
        records.append(IterationRecord(n, trip.tau, trip.sigma, trip.omega,
                                       step_norm, dist, obj))
        if ref is None and ref_at is not None:
            pending.append((records[-1], state.x.copy(), state.y.copy()))
            if n == max_iters:
                end = PrimalDualState(*pending[-1][1:], state.x_bar.copy(), n)
    for rec, x, y in pending:
        rec.dist_to_ref = _distance(problem, x, y, *ref, spare)
    return SolveResult(state if end is None else end, records, ref)
