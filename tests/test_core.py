"""Engine tests on problems small enough to step through by hand."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox.core import (
    ConfigurationError,
    DivergenceError,
    IterationRecord,
    PrimalDualState,
    SaddleProblem,
    SolveOptions,
    solve,
    step,
)
from saddleprox.schedules import StepTriple


class ScalarBilinear(SaddleProblem):
    """K(x, y) = x*y on scalars, G = F* = 0 (identity proxes)."""

    def __init__(self):
        self.primal_dim = 1
        self.dual_dim = 1

    def grad_x(self, x, y):
        return y.copy()

    def grad_y(self, x, y):
        return x.copy()

    def prox_primal(self, tau, v):
        return v

    def prox_dual(self, sigma, w):
        return w

    def value(self, x, y):
        return float(x[0] * y[0])


class CountingObjective(ScalarBilinear):
    """ScalarBilinear with a primal objective that counts its calls."""

    calls = 0

    def primal_objective(self, x):
        self.calls += 1
        return float(x[0] ** 2)


class NanGradient(ScalarBilinear):
    def grad_x(self, x, y):
        return np.array([np.nan])


UNIT = StepTriple(1.0, 1.0, 1.0)


def test_single_step_hand_value():
    # x1 = x0 - tau*y0 = 1, xbar = 1, y1 = y0 + sigma*xbar = 1.
    state = PrimalDualState.initial(np.array([1.0]), np.array([0.0]))
    out = step(ScalarBilinear(), UNIT, state)
    assert out.iteration == 1
    assert out.x == pytest.approx(1.0, abs=0)
    assert out.y == pytest.approx(1.0, abs=0)
    assert out.x_bar == pytest.approx(1.0, abs=0)


def test_second_step_reaches_saddle():
    # From (1, 1): x2 = 0, xbar = -1, y2 = 1 - 1 = 0, the saddle of x*y.
    prob = ScalarBilinear()
    state = PrimalDualState.initial(np.array([1.0]), np.array([0.0]))
    state = step(prob, UNIT, state)
    state = step(prob, UNIT, state)
    assert state.x[0] == 0.0
    assert state.y[0] == 0.0
    assert state.x_bar[0] == -1.0


def test_extrapolation_uses_omega():
    state = PrimalDualState.initial(np.array([1.0]), np.array([1.0]))
    out = step(ScalarBilinear(), StepTriple(0.5, 0.25, 0.75), state)
    x1 = 1.0 - 0.5 * 1.0
    assert out.x[0] == pytest.approx(x1, abs=0)
    assert out.x_bar[0] == pytest.approx(x1 + 0.75 * (x1 - 1.0), abs=0)
    assert out.y[0] == pytest.approx(1.0 + 0.25 * out.x_bar[0], rel=1e-15)


def test_solve_early_stop_at_exact_fixpoint():
    final, records = solve(
        ScalarBilinear(),
        UNIT,
        np.array([1.0]),
        np.array([0.0]),
        SolveOptions(max_iters=50, step_tol=1e-15),
    )
    # (0, 0) is reached at iteration 2 and repeated at 3, where the step
    # norm vanishes and the loop stops.
    assert final.iteration == 3
    assert [r.iteration for r in records] == [1, 2, 3]
    assert records[0].step_norm == pytest.approx(1.0, abs=0)
    assert records[1].step_norm == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert records[2].step_norm == 0.0


def test_solve_log_stride_plus_final():
    final, records = solve(
        ScalarBilinear(), UNIT, np.array([1.0]), np.array([0.0]),
        SolveOptions(max_iters=7, log_stride=3),
    )
    assert final.iteration == 7
    assert [r.iteration for r in records] == [3, 6, 7]
    # A final iteration landing on the stride is not logged twice.
    _, records6 = solve(
        ScalarBilinear(), UNIT, np.array([1.0]), np.array([0.0]),
        SolveOptions(max_iters=6, log_stride=3),
    )
    assert [r.iteration for r in records6] == [3, 6]


def every_iteration_then_thin(problem, triple, x0, y0, options):
    """Reference for ``solve``: record every iteration in the Euclidean
    norm, then keep the stride hits plus the last record."""
    state = PrimalDualState.initial(x0, y0)
    ref_x, ref_y = options.reference
    every = []
    for _ in range(options.max_iters):
        new = step(problem, triple, state)
        dx, dy = new.x - state.x, new.y - state.y
        step_norm = math.sqrt(float(np.dot(dx, dx)) + float(np.dot(dy, dy)))
        ex, ey = new.x - ref_x, new.y - ref_y
        dist = math.sqrt(float(np.dot(ex, ex)) + float(np.dot(ey, ey)))
        every.append(IterationRecord(new.iteration, triple.tau, triple.sigma,
                                     triple.omega, step_norm, dist))
        state = new
        if options.step_tol > 0 and step_norm <= options.step_tol:
            break
    kept = [r for r in every[:-1] if r.iteration % options.log_stride == 0]
    return state, kept + every[-1:]


@settings(max_examples=80, deadline=None)
@given(
    max_iters=st.integers(1, 40),
    log_stride=st.integers(1, 12),
    step_tol=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    tau=st.floats(0.1, 1.0),
    sigma=st.floats(0.1, 1.0),
)
def test_solve_keeps_stride_hits_and_last_of_every_iteration(
        max_iters, log_stride, step_tol, x0, y0, tau, sigma):
    triple = StepTriple(tau, sigma, 1.0)
    options = SolveOptions(max_iters=max_iters, log_stride=log_stride,
                           step_tol=step_tol,
                           reference=(np.array([0.25]), np.array([-0.5])))
    start = (np.array([x0]), np.array([y0]))
    final, records = solve(ScalarBilinear(), triple, *start, options)
    want_final, want = every_iteration_then_thin(ScalarBilinear(), triple, *start,
                                                 options)
    assert records == want
    assert final.iteration == want_final.iteration
    assert np.array_equal(final.x, want_final.x)
    assert np.array_equal(final.y, want_final.y)


def test_objective_is_evaluated_only_for_kept_iterations():
    prob = CountingObjective()
    _, records = solve(prob, StepTriple(0.5, 0.5, 1.0), np.array([1.0]),
                       np.array([0.0]),
                       SolveOptions(max_iters=10, log_stride=3, record_objective=True))
    assert [r.iteration for r in records] == [3, 6, 9, 10]
    assert prob.calls == len(records)


def test_records_carry_triple_and_reference_distance():
    ref = (np.array([0.0]), np.array([0.0]))
    trip = StepTriple(1.0, 1.0, 1.0)
    _, records = solve(
        ScalarBilinear(), trip, np.array([1.0]), np.array([0.0]),
        SolveOptions(max_iters=2, reference=ref),
    )
    assert all(isinstance(r, IterationRecord) for r in records)
    assert records[0].tau == trip.tau
    assert records[0].sigma == trip.sigma
    assert records[0].omega == trip.omega
    # Iterates are (1, 1) then (0, 0).
    assert records[0].dist_to_ref == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert records[1].dist_to_ref == 0.0
    assert records[0].objective is None


def test_objective_recording_defaults_to_none():
    _, records = solve(
        ScalarBilinear(), UNIT, np.array([1.0]), np.array([0.0]),
        SolveOptions(max_iters=1, record_objective=True),
    )
    # The toy problem does not define a primal objective.
    assert records[0].objective is None


def test_dimension_mismatch_rejected():
    prob = ScalarBilinear()
    with pytest.raises(ConfigurationError):
        step(prob, UNIT, PrimalDualState.initial(np.zeros(2), np.zeros(1)))
    with pytest.raises(ConfigurationError):
        solve(prob, UNIT, np.zeros(1), np.zeros(3), SolveOptions(max_iters=1))
    with pytest.raises(ConfigurationError):
        solve(prob, UNIT, np.zeros(1), np.zeros(1),
              SolveOptions(max_iters=1, reference=(np.zeros(2), np.zeros(1))))


def test_divergence_error_carries_iteration():
    with pytest.raises(DivergenceError) as exc:
        solve(NanGradient(), UNIT, np.array([1.0]), np.array([0.0]),
              SolveOptions(max_iters=5))
    assert exc.value.iteration == 1


@pytest.mark.parametrize(
    "kwargs",
    [dict(max_iters=0), dict(max_iters=-3), dict(log_stride=0), dict(step_tol=-1.0)],
)
def test_solve_options_validation(kwargs):
    with pytest.raises(ConfigurationError):
        SolveOptions(**kwargs)


def test_initial_state_is_detached_copy():
    x0 = np.array([2.0])
    y0 = np.array([3.0])
    state = PrimalDualState.initial(x0, y0)
    x0[0] = -1.0
    assert state.x[0] == 2.0
    assert state.iteration == 0
    assert state.x_bar[0] == 2.0
    assert state.y[0] == 3.0
