"""Engine tests on problems small enough to step through by hand."""

import copy
import dataclasses
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox import core, potts
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
from saddleprox.nash import NashProblem, manufacture
from saddleprox.potts import (PottsConfig, PottsProblem, dh, dht, gen_synthetic, kappa_y,
                              kappa_z)
from saddleprox.schedules import StepTriple, potts_steps
from saddleprox.verify import _BilinearProblem


def _filled(out, v):
    """``out`` holding ``v``, or a copy of ``v`` for ``out=None``."""
    out = np.empty_like(v) if out is None else out
    np.copyto(out, v)
    return out


class ScalarBilinear(SaddleProblem):
    """K(x, y) = x*y on scalars, G = F* = 0 (identity proxes)."""

    def __init__(self):
        self.primal_dim = 1
        self.dual_dim = 1

    def grad_x(self, x, y, out=None):
        return _filled(out, y)

    def grad_y(self, x, y, out=None):
        return _filled(out, x)

    def prox_primal(self, tau, v, out=None):
        return _filled(out, v)

    def prox_dual(self, sigma, w, out=None):
        return _filled(out, w)

    def value(self, x, y):
        return float(x[0] * y[0])


class CountingObjective(ScalarBilinear):
    """ScalarBilinear with a primal objective that counts its calls."""

    calls = 0

    def primal_objective(self, x):
        self.calls += 1
        return float(x[0] ** 2)


class NanGradient(ScalarBilinear):
    def grad_x(self, x, y, out=None):
        return _filled(out, np.array([np.nan]))


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
    kept = [r for r in every[:-1] if r.iteration % options.log_stride == 0]
    return state, kept + every[-1:]


@settings(max_examples=80, deadline=None)
@given(
    max_iters=st.integers(1, 40),
    log_stride=st.integers(1, 12),
    x0=st.floats(-1.0, 1.0),
    y0=st.floats(-1.0, 1.0),
    tau=st.floats(0.1, 1.0),
    sigma=st.floats(0.1, 1.0),
)
def test_solve_keeps_stride_hits_and_last_of_every_iteration(
        max_iters, log_stride, x0, y0, tau, sigma):
    triple = StepTriple(tau, sigma, 1.0)
    options = SolveOptions(max_iters=max_iters, log_stride=log_stride,
                           reference=(np.array([0.25]), np.array([-0.5])))
    start = (np.array([x0]), np.array([y0]))
    final, records = solve(ScalarBilinear(), triple, *start, options)
    want_final, want = every_iteration_then_thin(ScalarBilinear(), triple, *start,
                                                 options)
    assert records == want
    assert final.iteration == want_final.iteration
    assert np.array_equal(final.x, want_final.x)
    assert np.array_equal(final.y, want_final.y)


@settings(max_examples=80, deadline=None)
@given(
    max_iters=st.integers(1, 30),
    log_stride=st.integers(1, 12),
    ref_at=st.integers(1, 40),
    x0=st.floats(-1.0, 1.0),
    tau=st.floats(0.1, 1.0),
)
@pytest.mark.parametrize("budget", ["default", 0])
def test_reference_index_matches_a_separate_reference_run(
        budget, max_iters, log_stride, ref_at, x0, tau):
    # Iterate ref_at of the run itself is the final state of a run of
    # ref_at iterations from the same start, and the log is as with that
    # pair given as the reference.  Past the copy budget solve makes
    # that run itself, first.
    prob, triple = ScalarBilinear(), StepTriple(tau, 0.5, 1.0)
    start = (np.array([x0]), np.array([0.25]))
    ref_state, _ = solve(prob, triple, *start, SolveOptions(max_iters=ref_at))
    pair = (ref_state.x, ref_state.y)
    want_final, want = solve(prob, triple, *start,
                             SolveOptions(max_iters=max_iters, log_stride=log_stride,
                                          reference=pair))
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "step", counted)
        if budget != "default":
            mp.setattr(core, "_COPY_BUDGET", budget)
        result = solve(prob, triple, *start,
                       SolveOptions(max_iters=max_iters, log_stride=log_stride,
                                    reference=ref_at))
    final, records = result
    assert records == want
    assert _bits(final) == _bits(want_final)
    assert [a.tobytes() for a in result.reference] == [a.tobytes() for a in pair]
    logged = want_final.iteration
    assert len(calls) == (max(logged, ref_at) if budget == "default"
                          else ref_at + logged)


def test_reference_index_runs_max_iterations_and_keeps_the_log_end(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(core, "step", counted)
    f = gen_synthetic(6, 5, 1)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=math.inf), f)
    triple, _ = potts_steps(1.0, 1e-3, math.inf)
    x0, y0 = f.ravel(), np.zeros(prob.dual_dim)
    for max_iters, ref_at in ((4, 9), (9, 4), (6, 6)):
        want, _ = solve(prob, triple, x0, y0, SolveOptions(max_iters=max_iters))
        del calls[:]
        result = solve(prob, triple, x0, y0,
                       SolveOptions(max_iters=max_iters, log_stride=4, reference=ref_at))
        final, records = result
        assert len(calls) == max(max_iters, ref_at)
        assert records[-1].iteration == max_iters
        assert _bits(final) == _bits(want)
        # The returned state and reference share no memory, so neither writes the other.
        assert not any(np.may_share_memory(v, r) for v in (final.x, final.y, final.x_bar)
                       for r in result.reference)
        for r in result.reference:
            r[...] = np.nan
        assert _bits(final) == _bits(want)


def test_reference_index_past_the_copy_budget_is_made_first(monkeypatch):
    # A library call is bounded too: 10 // 1 + 3 pairs of 2 x 4 MiB pass
    # the 64 MiB budget, so iterate 10 is made in a run of its own.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    prob = ScalarBilinear()
    prob.primal_dim = prob.dual_dim = 1 << 19
    start = (np.linspace(-1.0, 1.0, 1 << 19), np.zeros(1 << 19))
    triple = StepTriple(0.5, 0.5, 1.0)
    ref_state, _ = solve(prob, triple, *start, SolveOptions(max_iters=10))
    monkeypatch.setattr(core, "step", counted)
    result = solve(prob, triple, *start, SolveOptions(max_iters=10, reference=10))
    assert len(calls) == 20
    assert [a.tobytes() for a in result.reference] == [ref_state.x.tobytes(),
                                                        ref_state.y.tobytes()]
    assert result[1][-1].dist_to_ref == 0.0


def test_reference_index_must_be_positive():
    for bad in (0, -2, True, False):
        with pytest.raises(ConfigurationError):
            SolveOptions(reference=bad)
    assert SolveOptions(reference=np.int64(3)).reference == 3


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
    [dict(max_iters=0), dict(max_iters=-3), dict(log_stride=0), dict(max_iters=2.5),
     dict(log_stride=1.5), dict(max_iters=True), dict(log_stride=True),
     dict(max_iters=np.bool_(True)), dict(reference=2.5), dict(reference=0.0),
     dict(reference=np.float64(3.0)), dict(reference=(np.zeros(1),)),
     dict(reference="abc")],
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


# ---------------------------------------------------------------------------
# Iterates written into recycled arrays.
# ---------------------------------------------------------------------------


def allocating_step(problem, triple, state):
    """The update written as plain expressions, every vector a new array."""
    tau, sigma, omega = triple.tau, triple.sigma, triple.omega
    x_new = problem.prox_primal(tau, state.x - tau * problem.grad_x(state.x, state.y))
    x_bar = x_new + omega * (x_new - state.x)
    y_new = problem.prox_dual(sigma, state.y + sigma * problem.grad_y(x_bar, state.y))
    return PrimalDualState(x=x_new, y=y_new, x_bar=x_bar, iteration=state.iteration + 1)


class _BlockedPotts(PottsProblem):
    """A PottsProblem whose step plans walk blocks of 4 rows: a plan then
    carries x_bar's row above each block in the head of ``out.x_bar`` and
    leaves the rest of it to ``step`` and ``solve``."""

    def step_plan(self, state, out, partner=None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(potts, "_BLOCK_BYTES", 64 * self.shape[1] * 4)
            return super().step_plan(state, out, partner)


def _engine_cases():
    f = gen_synthetic(24, 17, 2, n_shapes=3, noise_sigma=0.05)
    for p in (1, math.inf):
        triple, _ = potts_steps(1.0, 1e-3, p)
        prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
        yield "potts-p%g" % p, prob, triple, f.ravel(), np.zeros(prob.dual_dim)
    # 27 = 6 * 4 + 3 rows: six full blocks and a short last one.
    f = gen_synthetic(27, 17, 3, n_shapes=3, noise_sigma=0.05)
    y0 = 0.3 * np.random.default_rng(27).normal(size=2 * f.size)
    for p in (1, math.inf):
        triple, _ = potts_steps(1.0, 1e-3, p)
        prob = _BlockedPotts(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
        yield "potts-p%g-4-rows" % p, prob, triple, f.ravel(), y0
    config, _, _ = manufacture(7)
    prob = NashProblem(config)
    yield "nash-7", prob, StepTriple(0.5, 0.5, 1.0), np.zeros(prob.primal_dim), \
        np.full(prob.dual_dim, 0.1)
    rng = np.random.default_rng(15)
    a = rng.normal(size=(5, 4)) / 3.0
    prob = _BilinearProblem(lambda x: a @ x, lambda y: a.T @ y,
                            lambda tau, v: v / (1.0 + tau),
                            lambda sigma, w: w / (1.0 + 0.5 * sigma), 4, 5)
    yield "bilinear", prob, StepTriple(0.3, 0.3, 1.0), rng.normal(size=4), \
        rng.normal(size=5)


def _bits(state):
    return state.iteration, state.x.tobytes(), state.y.tobytes(), state.x_bar.tobytes()


# A lone step against allocating_step: the same bits, except where a case
# names a bound on the max-norm difference relative to the iterate's.  Nash's
# step plan sums its states' sine coefficients where the maps transform the sum.
COMPOSITION_RTOL = {"nash-7": 1e-15}


@pytest.mark.parametrize("case", list(_engine_cases()), ids=lambda c: c[0])
def test_recycled_step_and_solve_match_allocating_step_bit_for_bit(case):
    name, problem, triple, x0, y0 = case
    rtol = COMPOSITION_RTOL.get(name)
    want = [PrimalDualState.initial(x0, y0)]
    for _ in range(12):
        want.append(step(problem, triple, want[-1]))
        composed = allocating_step(problem, triple, want[-2])
        if rtol is None:
            assert _bits(want[-1]) == _bits(composed)
            continue
        for got, exact in ((want[-1].x, composed.x), (want[-1].y, composed.y),
                           (want[-1].x_bar, composed.x_bar)):
            assert np.max(np.abs(got - exact)) <= rtol * np.max(np.abs(exact))

    # step into the arrays of the state from two iterations back.
    states = [PrimalDualState.initial(x0, y0), PrimalDualState.initial(x0, y0)]
    states[1] = step(problem, triple, states[0], out=states[1])
    for expected in want[2:]:
        got = step(problem, triple, states[1], out=states[0])
        assert got is states[0]
        states.reverse()
        assert _bits(got) == _bits(expected)

    ref = (want[4].x + 0.25, want[4].y - 0.5)
    ref_bits = ref[0].tobytes(), ref[1].tobytes()
    final, records = solve(problem, triple, x0, y0,
                           SolveOptions(max_iters=12, log_stride=5, reference=ref))
    assert _bits(final) == _bits(want[-1])
    assert (ref[0].tobytes(), ref[1].tobytes()) == ref_bits
    assert [r.iteration for r in records] == [5, 10, 12]

    def norm(dx, dy):
        return math.sqrt(problem.inner_primal(dx, dx) + problem.inner_dual(dy, dy))

    for r in records:
        it = want[r.iteration]
        assert r.step_norm == norm(it.x - want[r.iteration - 1].x,
                                   it.y - want[r.iteration - 1].y)
        assert r.dist_to_ref == norm(it.x - ref[0], it.y - ref[1])


@pytest.mark.parametrize("case", [c for c in _engine_cases() if c[0] != "bilinear"],
                         ids=lambda c: c[0])
def test_solve_plans_hold_no_x_bar(monkeypatch, case):
    # x_bar feeds only the dual gradient of its own step, so neither plan
    # of a solve is given an x_bar array, and none is alive after the
    # return.  The returned x_bar is formed once, at the log's end, in
    # memory that the returned x and y do not share.
    name, problem, triple, x0, y0 = case
    plans, build = [], type(problem).step_plan

    def spy(self, state, out, partner=None):
        plan = build(self, state, out, partner)
        assert state.x_bar is None and out.x_bar is None and plan.arrays[3] is None
        plans.append(weakref.ref(plan))
        return plan

    monkeypatch.setattr(type(problem), "step_plan", spy)
    final, _ = solve(problem, triple, x0, y0, SolveOptions(max_iters=3))
    assert len(plans) == 2 and all(ref() is None for ref in plans)
    assert not any(np.may_share_memory(final.x_bar, v) for v in (final.x, final.y))


@pytest.mark.parametrize("case", list(_engine_cases()), ids=lambda c: c[0])
@pytest.mark.parametrize("reference", [None, 4, 7, 10], ids=lambda r: "R=%s" % r)
def test_solve_returns_the_x_bar_of_lone_steps(case, reference):
    # With max_iters N = 7: no reference, R < N, R = N and R > N, where the
    # run steps on past the returned state and its shared x_bar.
    name, problem, triple, x0, y0 = case
    want = PrimalDualState.initial(x0, y0)
    for _ in range(7):
        want = step(problem, triple, want)
    final, _ = solve(problem, triple, x0, y0,
                     SolveOptions(max_iters=7, log_stride=3, reference=reference))
    assert _bits(final) == _bits(want)


@pytest.mark.parametrize("case", [c for c in _engine_cases() if c[0] != "bilinear"],
                         ids=lambda c: c[0])
def test_a_bound_plan_step_writes_x_bar_unless_it_is_none(case):
    # A plan may use out.x_bar as scratch (the walk in 4-row blocks keeps
    # x_bar's head in its first 5 rows; the Nash plan leaves it as it is),
    # and step then writes all of it with a lone step's bits.  With
    # out.x_bar None, as in solve, it stays None.
    name, problem, triple, x0, y0 = case
    state = PrimalDualState.initial(x0, y0)
    want = step(problem, triple, state)
    out, plan = core.plan_step(problem, state)
    out.x_bar.fill(np.nan)
    if name.startswith("nash"):
        plan(triple, 1)
        assert np.isnan(out.x_bar).all()
    assert _bits(step(problem, triple, state, out, plan)) == _bits(want)
    bare = PrimalDualState(np.empty_like(out.x), np.empty_like(out.y), None)
    got = step(problem, triple, state, bare, problem.step_plan(state, bare))
    assert got.x_bar is None
    assert (got.x.tobytes(), got.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())


def _other_problems():
    config = PottsConfig(alpha=1.0, gamma=1e-3, p=1)
    yield "potts", *(PottsProblem(config, gen_synthetic(16, 16, seed)) for seed in (1, 2)), \
        potts_steps(1.0, 1e-3, 1)[0]
    config, _, _ = manufacture(7)
    yield "nash", NashProblem(config), NashProblem(dataclasses.replace(config, f=config.f + 1.0)), \
        StepTriple(0.5, 0.5, 1.0)


@pytest.mark.parametrize("case", list(_other_problems()), ids=lambda c: c[0])
def test_step_ignores_a_plan_bound_to_another_problem(case):
    # A plan of p1 bound to exactly the arrays given is not p2's step: step
    # checks and plans anew for p2 and writes a lone step's bits.
    _, p1, p2, triple = case
    state = PrimalDualState.initial(np.linspace(0.0, 1.0, p1.primal_dim),
                                    np.full(p1.dual_dim, 0.1))
    want = step(p2, triple, state)
    out, plan = core.plan_step(p1, state)
    assert _bits(step(p2, triple, state, out, plan)) == _bits(want)
    assert _bits(step(p1, triple, state, out, plan)) != _bits(want)


@pytest.mark.parametrize("case", [c for c in _engine_cases() if c[0] != "bilinear"],
                         ids=lambda c: c[0])
def test_a_partner_runs_the_other_way_between_the_same_arrays(case):
    name, problem, triple, x0, y0 = case
    state = PrimalDualState.initial(x0, y0)
    out, plan = core.plan_step(problem, state)
    other, _ = core.plan_step(problem, state)
    for a, b in ((state, out), (out, other), (other, state),
                 (PrimalDualState(out.x, other.y, None), state)):
        with pytest.raises(ConfigurationError, match="partner"):
            problem.step_plan(a, b, plan)
    with pytest.raises(ConfigurationError, match="partner"):
        copy.copy(problem).step_plan(out, state, plan)
    assert problem.step_plan(out, state, plan).arrays[2] is state.x


class OutRecorder(SaddleProblem):
    """K(x, y) = <y, x> on R^3 with identity proxes.  Keeps every ``out``
    that step hands it, and every vector whose inner product is taken."""

    primal_dim = dual_dim = 3

    def __init__(self):
        self.outs, self.inner = [], []

    def _into(self, out, v):
        self.outs.append(out)
        np.copyto(out, v)
        return out

    def grad_x(self, x, y, out=None):
        return self._into(out, y)

    def grad_y(self, x, y, out=None):
        return self._into(out, x)

    def prox_primal(self, tau, v, out=None):
        return self._into(out, v)

    def prox_dual(self, sigma, w, out=None):
        return self._into(out, w)

    def inner_primal(self, v, w):
        self.inner += [v, w]
        return float(np.dot(v, w))

    inner_dual = inner_primal


def test_solve_measures_norms_in_recycled_arrays():
    # Step norms and reference distances are taken in the iterate arrays
    # that the next step overwrites, not in new primal- or dual-size arrays.
    prob = OutRecorder()
    ref = (np.ones(3), np.ones(3))
    _, records = solve(prob, StepTriple(0.5, 0.5, 1.0), np.arange(1.0, 4.0), np.zeros(3),
                       SolveOptions(max_iters=6, log_stride=1, reference=ref))
    assert [r.iteration for r in records] == [1, 2, 3, 4, 5, 6]
    assert all(r.dist_to_ref is not None for r in records)
    recycled = {out.ctypes.data for out in prob.outs}
    assert len(prob.inner) == 6 * 4 + 6 * 4
    assert {v.ctypes.data for v in prob.inner} <= recycled


def test_solve_does_not_write_into_its_inputs():
    x0, y0 = np.array([1.0]), np.array([0.0])
    final, _ = solve(ScalarBilinear(), UNIT, x0, y0, SolveOptions(max_iters=5))
    assert (x0[0], y0[0]) == (1.0, 0.0)
    assert not np.may_share_memory(final.x, x0)


class _StartWatch:
    """A constant schedule that notes, at each call, which of the arrays
    passed through :meth:`start` are still alive."""

    def __init__(self, triple):
        self.steps, self.refs, self.alive = triple, [], []

    def start(self, v):
        self.refs.append(weakref.ref(v))
        return v

    def triple(self, i):
        self.alive.append([ref() is not None for ref in self.refs])
        return self.steps


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 the caller holds a call's arguments until it returns")
@pytest.mark.parametrize("case", ["potts-p1", "potts-pinf", "nash-7"])
def test_solve_frees_a_temporary_start_after_its_copies(case):
    _, prob, triple, x0, y0 = next(c for c in _engine_cases() if c[0] == case)
    watch = _StartWatch(triple)
    solve(prob, watch, watch.start(x0.copy()), watch.start(y0.copy()),
          SolveOptions(max_iters=3))
    assert watch.alive == [[False, False]] * 3


def test_step_rejects_out_sharing_memory():
    prob = ScalarBilinear()
    state = PrimalDualState.initial(np.array([1.0]), np.array([0.0]))
    other = PrimalDualState.initial(np.array([1.0]), np.array([0.0]))
    bad = [state,
           PrimalDualState(x=other.x, y=state.y, x_bar=other.x_bar),
           PrimalDualState(x=other.x, y=other.y, x_bar=state.x),
           PrimalDualState(x=other.x, y=other.y, x_bar=other.x),
           PrimalDualState(x=other.x, y=other.y, x_bar=np.zeros(1, dtype=np.float32)),
           PrimalDualState(x=other.x, y=np.zeros(2), x_bar=other.x_bar)]
    for out in bad:
        with pytest.raises(ConfigurationError):
            step(prob, UNIT, state, out=out)
    # The state's x_bar is not read, so its arrays may be reused.
    out = PrimalDualState(x=state.x_bar, y=other.y, x_bar=other.x_bar)
    assert step(prob, UNIT, state, out=out).x[0] == 1.0


def _read_only(shape):
    a = np.full(shape, 7.0)
    a.flags.writeable = False
    return a


def test_read_only_out_is_rejected_before_anything_is_written():
    # numpy would raise its own ValueError from inside the map, and in
    # ``step`` only after x+ had been written into the other arrays.
    f = gen_synthetic(6, 5, 1, n_shapes=1)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), f)
    n, m = prob.primal_dim, prob.dual_dim
    state = PrimalDualState.initial(f.ravel(), np.ones(m))
    step(prob, UNIT, state, out=PrimalDualState(np.empty(n), np.empty(m), np.empty(n)))
    for k in range(3):
        arrays = [np.full(n, 7.0), np.full(m, 7.0), np.full(n, 7.0)]  # x, y, x_bar
        arrays[k].flags.writeable = False
        with pytest.raises(ConfigurationError):
            step(prob, UNIT, state, out=PrimalDualState(*arrays))
        assert all((a == 7.0).all() for a in arrays)
    img, z, y = f, dh(f), np.ones((6, 5, 2))
    nash_prob = NashProblem(manufacture(7)[0])
    u, v = np.zeros(nash_prob.primal_dim), np.zeros(nash_prob.dual_dim)
    calls = [lambda o: dht(z, out=o(img.shape)),
             lambda o: kappa_z(1, z, y, out=o(z.shape)),
             lambda o: kappa_y(math.inf, z, y, out=o(z.shape)),
             lambda o: prob.grad_x(state.x, state.y, out=o(n)),
             lambda o: prob.grad_y(state.x, state.y, out=o(m)),
             lambda o: prob.prox_primal(0.5, state.x, out=o(n)),
             lambda o: prob.prox_dual(0.5, state.y, out=o(m)),
             lambda o: nash_prob.grad_x(u, v, out=o(u.size)),
             lambda o: nash_prob.grad_y(u, v, out=o(v.size)),
             lambda o: nash_prob.prox_primal(0.5, u, out=o(u.size)),
             lambda o: nash_prob.prox_dual(0.5, v, out=o(v.size))]
    for call in calls:
        call(np.empty)  # the same call with a writeable out is fine
        with pytest.raises(ConfigurationError):
            call(_read_only)
