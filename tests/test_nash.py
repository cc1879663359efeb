"""Poisson solver, game construction, and equilibrium convergence tests."""

import math
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox import nash
from saddleprox.core import (ConfigurationError, DivergenceError, PrimalDualState,
                             SolveOptions, plan_step, solve, step)
from saddleprox.nash import (
    CONTROL_BOX,
    CONTROL_COST,
    Grid,
    NashConfig,
    NashProblem,
    PoissonSolver,
    apply_laplacian,
    half_masks,
    manufacture,
    poisson_solve,
    sine_transform,
)
from saddleprox.schedules import StepTriple
from saddleprox.verify import fd_grad_check

GAME_TRIPLE = StepTriple(0.99, 1.0, 1.0)


def proj_box(u: np.ndarray, mask: np.ndarray, a: float, b: float) -> np.ndarray:
    """Oracle of the Nash prox: clamp to [a, b] on the mask, zero elsewhere."""
    return np.where(mask, np.clip(u, a, b), 0.0)


def dense_laplacian(n: int) -> np.ndarray:
    """Independent 5-point Dirichlet Laplacian as a dense matrix."""
    h = 1.0 / (n + 1)
    a = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            k = i * n + j
            a[k, k] = 4.0
            if i > 0:
                a[k, k - n] = -1.0
            if i < n - 1:
                a[k, k + n] = -1.0
            if j > 0:
                a[k, k - 1] = -1.0
            if j < n - 1:
                a[k, k + 1] = -1.0
    return a / h**2


# ---------------------------------------------------------------------------
# Grid and Poisson solver.
# ---------------------------------------------------------------------------


def test_grid_mesh_and_coordinates():
    grid = Grid(3)
    assert grid.h == 0.25
    xx, yy = grid.coords()
    assert xx.shape == (3, 3)
    assert xx[1, 0] == 0.5
    assert yy[0, 2] == 0.75
    with pytest.raises(ConfigurationError):
        Grid(1)


@pytest.mark.parametrize("n", [63, 127])
def test_laplacian_eigenpairs(n):
    grid = Grid(n)
    xx, yy = grid.coords()
    h = grid.h
    for k, l in ((1, 1), (3, 5), (n, n)):
        v = np.sin(k * np.pi * xx) * np.sin(l * np.pi * yy)
        lam = (2.0 - 2.0 * math.cos(k * np.pi * h)) / h**2 + (
            2.0 - 2.0 * math.cos(l * np.pi * h)) / h**2
        resid = apply_laplacian(grid, v) - lam * v
        assert np.max(np.abs(resid)) <= 1e-12 * lam * np.max(np.abs(v))
        back = poisson_solve(grid, lam * v)
        assert np.max(np.abs(back - v)) <= 1e-12 * np.max(np.abs(v))


@pytest.mark.parametrize("n", [63, 127])
def test_poisson_roundtrip(n):
    grid = Grid(n)
    rng = np.random.default_rng(n)
    w = rng.normal(size=(n, n))
    back = poisson_solve(grid, apply_laplacian(grid, w))
    assert np.max(np.abs(back - w)) <= 1e-12 * np.max(np.abs(w))


def test_solver_counts_solves():
    solver = PoissonSolver(Grid(15))
    rhs = np.ones((15, 15))
    assert solver.count == 0
    solver.solve(rhs)
    solver.solve(rhs)
    assert solver.count == 2
    with pytest.raises(ConfigurationError):
        solver.solve(np.ones((14, 15)))


@pytest.mark.parametrize("n", [15, 63])
def test_sine_transform_is_its_own_inverse(n):
    w = np.random.default_rng(n).normal(size=(n, n))
    back = sine_transform(sine_transform(w))
    assert np.max(np.abs(back - w)) <= 1e-15 * np.max(np.abs(w))


def test_solver_matches_dense_factorization():
    n = 7
    grid = Grid(n)
    a = dense_laplacian(n)
    rng = np.random.default_rng(10)
    w = rng.normal(size=(n, n))
    assert np.allclose(apply_laplacian(grid, w).ravel(), a @ w.ravel(),
                       rtol=1e-12, atol=1e-9)
    rhs = rng.normal(size=(n, n))
    direct = np.linalg.solve(a, rhs.ravel()).reshape(n, n)
    assert np.allclose(poisson_solve(grid, rhs), direct, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# Masks, projection, and problem data.
# ---------------------------------------------------------------------------


def test_half_masks_split_the_square():
    grid = Grid(15)
    m1, m2 = half_masks(grid)
    assert not np.any(m1 & m2)
    # n = 15 puts the dividing line y = 1/2 on the grid: neither player.
    assert not np.any(m1[:, 7]) and not np.any(m2[:, 7])
    assert np.all(m1[:, :7])
    assert np.all(m2[:, 8:])


def test_proj_box_clamps_on_mask_only():
    mask = np.array([[True, False], [True, True]])
    u = np.array([[0.9, 0.9], [-0.9, 0.1]])
    out = proj_box(u, mask, -0.5, 0.5)
    assert out[0, 0] == 0.5
    assert out[0, 1] == 0.0
    assert out[1, 0] == -0.5
    assert out[1, 1] == pytest.approx(0.1, abs=0)


def test_config_validation():
    grid = Grid(4)
    ones = np.ones((4, 4))
    mask = ones.astype(bool)
    with pytest.raises(ConfigurationError):
        NashConfig(grid=grid, mask1=mask, mask2=mask, z1=np.ones((3, 4)),
                   z2=ones, f=ones)
    # A float or int mask would fail later, in NashProblem's ~mask or where=.
    for masks in ((ones, mask), (mask, ones.astype(int))):
        with pytest.raises(ConfigurationError, match="boolean"):
            NashConfig(grid, *masks, z1=ones, z2=ones, f=ones)


# ---------------------------------------------------------------------------
# Manufactured equilibrium.
# ---------------------------------------------------------------------------


def test_equilibrium_is_interior_and_stationary():
    config, x_star, y_star = manufacture(15)
    assert np.array_equal(x_star, y_star)
    assert float(np.max(np.abs(x_star))) <= 0.8 * 0.5
    prob = NashProblem(config)
    scale = float(np.max(np.abs(x_star)))
    gx = prob.grad_x(x_star, y_star)
    gy = prob.grad_y(x_star, y_star)
    assert float(np.max(np.abs(gx))) <= 1e-10 * max(scale, 1.0)
    assert float(np.max(np.abs(gy))) <= 1e-10 * max(scale, 1.0)
    assert prob.psi(x_star, y_star) == 0.0


@pytest.mark.parametrize("n", [2, 63, 127, 255])
def test_manufacture_has_the_bits_of_the_mesh_form(n):
    # The sines over the n x n mesh, as manufacture built them before it
    # took outer products of 1-D sines: every field keeps its bits.
    grid = Grid(n)
    xx, yy = grid.coords()
    w1 = 0.4 * np.sin(np.pi * xx) * np.sin(2.0 * np.pi * yy)
    w2 = 0.4 * np.sin(2.0 * np.pi * xx) * np.sin(np.pi * yy)
    ys = np.sin(np.pi * xx) * np.sin(np.pi * yy)
    mask1, mask2 = half_masks(grid)
    u1, u2 = np.where(mask1, w1, 0.0), np.where(mask2, w2, 0.0)
    want = [apply_laplacian(grid, ys) - u1 - u2,
            ys - apply_laplacian(grid, -CONTROL_COST * w1),
            ys - apply_laplacian(grid, -CONTROL_COST * w2),
            np.concatenate([u1.ravel(), u2.ravel()])]
    config, x_star, y_star = manufacture(n)
    got = [config.f, config.z1, config.z2, x_star]
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    assert y_star.tobytes() == x_star.tobytes()


def test_equilibrium_is_a_fixed_point_of_the_iteration():
    config, x_star, y_star = manufacture(15)
    prob = NashProblem(config)
    state = PrimalDualState.initial(x_star, y_star)
    for _ in range(3):
        new = step(prob, GAME_TRIPLE, state)
        moved = np.sqrt(np.sum((new.x - state.x) ** 2) + np.sum((new.y - state.y) ** 2))
        assert moved <= 1e-12
        state = new


def test_psi_vanishes_on_the_diagonal():
    config, x_star, _ = manufacture(15)
    prob = NashProblem(config)
    rng = np.random.default_rng(11)
    x = x_star + 0.05 * rng.normal(size=prob.primal_dim)
    assert prob.psi(x, x) == 0.0


def test_psi_makes_three_solves_and_equals_its_four_payouts():
    config, x_star, y_star = manufacture(15)
    prob = NashProblem(config)
    rng = np.random.default_rng(14)
    x = x_star + 0.05 * rng.normal(size=prob.primal_dim)
    y = y_star + 0.05 * rng.normal(size=prob.dual_dim)
    (u1, u2), (v1, v2) = prob._split(x), prob._split(y)
    for k in range(1, 4):
        before = prob.pde_solves
        value = prob.psi(x, y)
        assert prob.pde_solves - before == 3
    assert value == (prob.payout(1, u1, u2) - prob.payout(1, v1, u2)
                     + prob.payout(2, u1, u2) - prob.payout(2, u1, v2))


def test_payout_matches_dense_recomputation():
    n = 7
    config, x_star, _ = manufacture(n)
    prob = NashProblem(config)
    rng = np.random.default_rng(12)
    u1 = 0.1 * rng.normal(size=(n, n))
    u2 = 0.1 * rng.normal(size=(n, n))
    a = dense_laplacian(n)
    rhs = np.where(config.mask1, u1, 0.0) + np.where(config.mask2, u2, 0.0) + config.f
    s = np.linalg.solve(a, rhs.ravel()).reshape(n, n)
    assert np.allclose(prob.state(u1, u2), s, rtol=1e-9, atol=1e-11)
    h2 = config.grid.h**2
    j1 = 0.5 * h2 * (np.sum((s - config.z1) ** 2)
                     + CONTROL_COST * np.sum(np.where(config.mask1, u1, 0.0) ** 2))
    assert prob.payout(1, u1, u2) == pytest.approx(j1, rel=1e-9)
    j2 = 0.5 * h2 * (np.sum((s - config.z2) ** 2)
                     + CONTROL_COST * np.sum(np.where(config.mask2, u2, 0.0) ** 2))
    assert prob.payout(2, u1, u2) == pytest.approx(j2, rel=1e-9)
    with pytest.raises(ConfigurationError):
        prob.payout(3, u1, u2)


def test_coupling_gradients_pass_directional_check():
    config, x_star, y_star = manufacture(15)
    prob = NashProblem(config)
    rng = np.random.default_rng(13)
    x = x_star + 0.05 * rng.normal(size=prob.primal_dim)
    y = y_star + 0.05 * rng.normal(size=prob.dual_dim)
    assert fd_grad_check(prob, x, y, h=1e-5, n_dirs=15, seed=2) <= 1e-6


def test_exactly_nine_solves_per_iteration():
    config, _, _ = manufacture(15)
    prob = NashProblem(config)
    state = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    before = prob.pde_solves
    for k in range(1, 5):
        state = step(prob, GAME_TRIPLE, state)
        assert prob.pde_solves - before == 9 * k


def _count_span_transforms(monkeypatch):
    """Counts the calls of ``nash._span_transform``, which the step plan
    makes for each of its sine transforms."""
    calls, transform = [], nash._span_transform

    def counted(w, cols, inverse):
        calls.append(inverse)
        transform(w, cols, inverse)

    monkeypatch.setattr(nash, "_span_transform", counted)
    return calls


def test_plan_makes_eight_span_transforms_per_carried_step(monkeypatch):
    # Nine solves per step either way.  Every call transforms its y, its
    # x+ and the four adjoints; a lone step, and the first call of a pair,
    # also transform x, where a later call takes its partner's coefficients.
    config, _, _ = manufacture(15)
    prob = NashProblem(config)
    calls = _count_span_transforms(monkeypatch)
    state = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    counts = []
    for _ in range(4):
        before = (len(calls), prob.pde_solves)
        state = step(prob, GAME_TRIPLE, state)
        counts.append((len(calls) - before[0], prob.pde_solves - before[1]))
    assert counts == [(10, 9)] * 4

    spare, plan = plan_step(prob, state)
    back = prob.step_plan(spare, state, plan)
    counts = []
    for _ in range(5):
        before = (len(calls), prob.pde_solves)
        step(prob, GAME_TRIPLE, state, spare, plan)
        state, spare, plan, back = spare, state, back, plan
        counts.append((len(calls) - before[0], prob.pde_solves - before[1]))
    assert counts == [(10, 9)] + [(8, 9)] * 4

    before = (len(calls), prob.pde_solves)
    solve(prob, GAME_TRIPLE, state.x, state.y, SolveOptions(max_iters=5))
    assert (len(calls) - before[0], prob.pde_solves - before[1]) == (10 + 4 * 8, 45)


def _composed_step(prob, triple, state):
    """The update as the plain composition of the four maps."""
    tau, sigma, omega = triple.tau, triple.sigma, triple.omega
    x_new = prob.prox_primal(tau, state.x - tau * prob.grad_x(state.x, state.y))
    x_bar = x_new + omega * (x_new - state.x)
    y_new = prob.prox_dual(sigma, state.y + sigma * prob.grad_y(x_bar, state.y))
    return x_new, x_bar, y_new


def _random_masks(config, rng):
    n = config.grid.n
    share = rng.uniform(0.05, 0.95)
    mask1, mask2 = (rng.random((n, n)) < share for _ in range(2))
    return NashConfig(config.grid, mask1, mask2, config.z1, config.z2, config.f)


# Largest difference of a planned step from the composition of the maps,
# relative to the max-norm of each of x+, x_bar and y+; measured up to 1.7e-15.
PLAN_RTOL = 4e-15


@pytest.mark.parametrize("n, masks", [(7, "halves"), (15, "halves"), (63, "halves"),
                                      (7, 0), (15, 1), (31, 2), (15, 3)])
def test_planned_step_matches_the_composed_maps(n, masks):
    # Per step from the same state, at the manufactured half masks and at
    # random boolean masks, which may overlap, leave gaps inside a span, or
    # (seed 3) be empty for player 2.  The start has entries off the masks.
    config, x_star, y_star = manufacture(n)
    rng = np.random.default_rng(n)
    if masks != "halves":
        rng = np.random.default_rng(masks)
        config = _random_masks(config, rng)
        if masks == 3:
            config.mask2[:] = False
    prob = NashProblem(config)
    state = PrimalDualState.initial(x_star + 0.3 * rng.normal(size=prob.primal_dim),
                                    y_star + 0.3 * rng.normal(size=prob.dual_dim))
    for _ in range(4):
        want = _composed_step(prob, GAME_TRIPLE, state)
        state = step(prob, GAME_TRIPLE, state)
        for got, exact in zip((state.x, state.x_bar, state.y), want):
            assert np.max(np.abs(got - exact)) <= PLAN_RTOL * np.max(np.abs(exact))


def _bits(state):
    return state.iteration, state.x.tobytes(), state.y.tobytes(), state.x_bar.tobytes()


@pytest.mark.parametrize("n", [7, 63])
def test_carried_solve_matches_lone_steps_bit_for_bit(n):
    config, x_star, y_star = manufacture(n)
    prob = NashProblem(config)
    rng = np.random.default_rng(5)
    x0, y0 = rng.normal(size=prob.primal_dim), rng.normal(size=prob.dual_dim)
    lone = [PrimalDualState.initial(x0, y0)]
    for _ in range(9):
        lone.append(step(prob, GAME_TRIPLE, lone[-1]))
    final, records = solve(prob, GAME_TRIPLE, x0, y0,
                           SolveOptions(max_iters=9, log_stride=4,
                                        reference=(x_star, y_star)))
    assert _bits(final) == _bits(lone[-1])
    h2 = config.grid.h**2
    for r in records:
        it = lone[r.iteration]
        assert r.dist_to_ref == math.sqrt(h2 * float(np.dot(it.x - x_star, it.x - x_star))
                                          + h2 * float(np.dot(it.y - y_star, it.y - y_star)))


def test_a_step_after_solve_takes_no_stale_coefficients():
    # The returned state's arrays were a plan's input; written into, a
    # step from them must transform them afresh, as on a new problem.
    config, _, _ = manufacture(15)
    prob = NashProblem(config)
    zeros = np.zeros(prob.primal_dim), np.zeros(prob.dual_dim)
    final, _ = solve(prob, GAME_TRIPLE, *zeros, SolveOptions(max_iters=3))
    final.x[::7] += 0.125
    final.y[::5] -= 0.25
    got = step(prob, GAME_TRIPLE, final)
    want = step(NashProblem(config), GAME_TRIPLE, final)
    assert _bits(got) == _bits(want)


def test_a_planned_call_between_partners_voids_the_carry():
    # A lone step writes into the arrays that the next plan of a pair reads;
    # that plan must transform them, not take its partner's coefficients.
    config, x_star, y_star = manufacture(15)
    prob = NashProblem(config)
    state = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    spare, plan = plan_step(prob, state)
    back = prob.step_plan(spare, state, plan)
    step(prob, GAME_TRIPLE, state, spare, plan)
    step(prob, GAME_TRIPLE, PrimalDualState.initial(x_star, y_star), out=spare)
    want = step(NashProblem(config), GAME_TRIPLE, spare)
    assert _bits(step(prob, GAME_TRIPLE, spare, state, back)) == _bits(want)


def test_a_chain_of_partners_carries_only_between_plans_that_run_opposite_ways():
    # A and C run from state into spare, B the other way, all three on one
    # set of coefficients.  Every call has the bits of a lone step on a new
    # problem: C takes B's coefficients of its x, never A's of the x that
    # A wrote, so a partner's side is the other one, not a fixed side.
    config, _, _ = manufacture(15)
    prob = NashProblem(config)
    rng = np.random.default_rng(3)
    state = PrimalDualState.initial(rng.normal(size=prob.primal_dim),
                                    rng.normal(size=prob.dual_dim))
    spare, a = plan_step(prob, state)
    b = prob.step_plan(spare, state, a)
    c = prob.step_plan(state, spare, b)
    ways = {a: (state, spare), b: (spare, state), c: (state, spare)}
    for plan in (a, c, b, c, a, b, c, c):
        src, dst = ways[plan]
        want = step(NashProblem(config), GAME_TRIPLE, src)
        assert _bits(step(prob, GAME_TRIPLE, src, dst, plan)) == _bits(want)


def test_solve_builds_two_partner_plans_and_keeps_none(monkeypatch):
    # One plan each way, the second built with the first as its partner and
    # sharing its coefficient buffers; after the return nothing of them is
    # alive, since the problem holds no plan.
    refs, shared, build = [], [], NashProblem.step_plan

    def spy(self, state, out, partner=None):
        plan = build(self, state, out, partner)
        coef = plan.coef
        refs.append([weakref.ref(o) for o in (plan, coef, *coef.u[0], *coef.u[1])])
        # both plans are alive while the second is built
        shared.append((id(plan), partner and id(partner), id(coef), plan.side))
        return plan

    monkeypatch.setattr(NashProblem, "step_plan", spy)
    config, _, _ = manufacture(7)
    prob = NashProblem(config)
    solve(prob, GAME_TRIPLE, np.zeros(prob.primal_dim), np.zeros(prob.dual_dim),
          SolveOptions(max_iters=3))
    (first, none, coef, side), (_, partner, coef_2, side_2) = shared
    assert (none, partner, coef_2, side_2) == (None, first, coef, 1 - side)
    assert all(ref() is None for plan_refs in refs for ref in plan_refs)


class _NanAt:
    """GAME_TRIPLE at every index but i, where ``name`` is NaN."""

    def __init__(self, name, i):
        self.name, self.i = name, i

    def triple(self, i):
        values = dict(tau=GAME_TRIPLE.tau, sigma=GAME_TRIPLE.sigma, omega=GAME_TRIPLE.omega)
        if i == self.i:
            values[self.name] = math.nan
        return types.SimpleNamespace(**values)


@pytest.mark.parametrize("name", ["tau", "sigma"])
@pytest.mark.parametrize("i", [0, 1, 4])
def test_solve_with_step_plans_diverges_as_the_generic_solve(monkeypatch, name, i):
    config, _, _ = manufacture(7)
    prob = NashProblem(config)
    errors = []
    for generic in (False, True):
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            if generic:
                m.setattr(NashProblem, "step_plan", lambda self, state, out, partner=None: None)
            with pytest.raises(DivergenceError) as exc:
                solve(prob, _NanAt(name, i), np.zeros(prob.primal_dim),
                      np.zeros(prob.dual_dim), SolveOptions(max_iters=8))
        errors.append((exc.value.iteration, str(exc.value)))
    assert errors == [(i + 1, "non-finite iterate at iteration %d" % (i + 1))] * 2


def test_planned_step_into_nan_filled_out_and_aliasing_out():
    config, x_star, y_star = manufacture(15)
    prob = NashProblem(config)
    state = PrimalDualState.initial(x_star + 0.1, y_star - 0.1)
    want = step(prob, GAME_TRIPLE, state)
    out = PrimalDualState(*(np.full(prob.primal_dim, np.nan) for _ in range(3)))
    assert _bits(step(prob, GAME_TRIPLE, state, out=out)) == _bits(want)
    bound_out, plan = plan_step(prob, state)
    with pytest.raises(ConfigurationError):  # out.y is state.y: the checks ran
        step(prob, GAME_TRIPLE, state,
             out=PrimalDualState(bound_out.x, state.y, bound_out.x_bar), plan=plan)


def test_planned_steps_allocate_no_grid_size_array():
    n = 63
    config, _, _ = manufacture(n)
    prob = NashProblem(config)
    state = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    spare, plan = plan_step(prob, state)
    back = prob.step_plan(spare, state, plan)
    step(prob, GAME_TRIPLE, state, spare, plan)
    state, spare, plan, back = spare, state, back, plan
    tracemalloc.start()
    try:
        for _ in range(5):
            step(prob, GAME_TRIPLE, state, spare, plan)
            state, spare, plan, back = spare, state, back, plan
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4  # a quarter of one n x n float array


def test_solve_holds_no_x_bar():
    # Traced peak of a 3-iteration solve at n = 63, in primal vectors of
    # 2 n^2 entries: the spare x and y (2), the copies of x0 and y0 (2),
    # the four n x n coefficient buffers that the two plans share (2), the
    # Laplacian's eigenvalues and per-call temporaries.  The eigenvalues'
    # cache is cleared first, so the figure does not depend on the tests
    # run before.  The plans run the tau update in the new x and the
    # returned x_bar is formed in the spare x; an x_bar array for the loop
    # adds a vector.
    n = 63
    config, _, _ = manufacture(n)
    prob = NashProblem(config)
    x0, y0 = np.zeros(prob.primal_dim), np.zeros(prob.dual_dim)
    nash._laplacian_eigenvalues.cache_clear()
    tracemalloc.start()
    try:
        solve(prob, GAME_TRIPLE, x0, y0, SolveOptions(max_iters=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / x0.nbytes <= 7.7


def _physical_state(prob, a1, a2):
    c = prob.config
    rhs = np.where(c.mask1, a1, 0.0) + np.where(c.mask2, a2, 0.0) + c.f
    return poisson_solve(c.grid, rhs)


def _physical_grad_x(prob, x, y):
    """The primal coupling gradient from five physical-space Poisson solves."""
    c = prob.config
    u1, u2 = prob._split(x)
    v1, v2 = prob._split(y)
    s_uu = _physical_state(prob, u1, u2)
    p1 = poisson_solve(c.grid, 2.0 * s_uu - _physical_state(prob, u1, v2) - c.z1)
    p2 = poisson_solve(c.grid, 2.0 * s_uu - _physical_state(prob, v1, u2) - c.z2)
    g1 = np.where(c.mask1, p1, 0.0) + CONTROL_COST * np.where(c.mask1, u1, 0.0)
    g2 = np.where(c.mask2, p2, 0.0) + CONTROL_COST * np.where(c.mask2, u2, 0.0)
    return np.concatenate([g1.ravel(), g2.ravel()])


def _physical_grad_y(prob, x, y):
    """The dual coupling gradient from four physical-space Poisson solves."""
    c = prob.config
    u1, u2 = prob._split(x)
    v1, v2 = prob._split(y)
    q1 = poisson_solve(c.grid, c.z1 - _physical_state(prob, v1, u2))
    q2 = poisson_solve(c.grid, c.z2 - _physical_state(prob, u1, v2))
    g1 = np.where(c.mask1, q1, 0.0) - CONTROL_COST * np.where(c.mask1, v1, 0.0)
    g2 = np.where(c.mask2, q2, 0.0) - CONTROL_COST * np.where(c.mask2, v2, 0.0)
    return np.concatenate([g1.ravel(), g2.ravel()])


@pytest.mark.parametrize("n", [15, 63])
@pytest.mark.parametrize("name, physical", [("grad_x", _physical_grad_x),
                                            ("grad_y", _physical_grad_y)])
def test_coefficient_space_gradients_match_physical_solves(n, name, physical):
    config, x_star, y_star = manufacture(n)
    prob = NashProblem(config)
    rng = np.random.default_rng(n)
    # Entries of size ~1 leave the box [-0.5, 0.5], off-mask entries are nonzero.
    x = x_star + rng.normal(size=x_star.size)
    y = y_star + rng.normal(size=y_star.size)
    want = physical(prob, x, y)
    scale = np.max(np.abs(want))
    got = getattr(prob, name)(x, y)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    for alias in (0, 1):
        xy = [x.copy(), y.copy()]
        got = getattr(prob, name)(*xy, out=xy[alias])
        assert got is xy[alias]
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


NASH_MAPS = {
    "grad_x": lambda prob, x, y, out: prob.grad_x(x, y, out=out),
    "grad_y": lambda prob, x, y, out: prob.grad_y(x, y, out=out),
    "prox_primal": lambda prob, x, y, out: prob.prox_primal(0.5, x, out=out),
    "prox_dual": lambda prob, x, y, out: prob.prox_dual(0.5, y, out=out),
}


def _nash_point(n: int = 7):
    config, x_star, y_star = manufacture(n)
    rng = np.random.default_rng(4)
    return (NashProblem(config), x_star + 0.3 * rng.normal(size=x_star.size),
            y_star + 0.3 * rng.normal(size=y_star.size))


@pytest.mark.parametrize("name", NASH_MAPS)
def test_nash_maps_reject_a_bad_out(name):
    prob, x, y = _nash_point()
    dim = prob.primal_dim
    for out in (np.empty(dim, np.float32), np.empty(2 * dim)[::2], np.empty(dim - 1)):
        with pytest.raises(ConfigurationError):
            NASH_MAPS[name](prob, x, y, out)


@pytest.mark.parametrize("name", NASH_MAPS)
def test_nash_maps_may_write_over_their_inputs(name):
    prob, x, y = _nash_point()
    want = NASH_MAPS[name](prob, x, y, None).tobytes()
    for alias in (0, 1):
        xy = [x.copy(), y.copy()]
        got = NASH_MAPS[name](prob, *xy, xy[alias])
        assert got is xy[alias]
        assert got.tobytes() == want


@pytest.mark.parametrize("name, alias", [("grad_x", 0), ("grad_x", 1), ("grad_y", 0),
                                         ("grad_y", 1), ("prox_primal", 0),
                                         ("prox_dual", 1)])
def test_nash_maps_reject_an_out_overlapping_an_input_in_part(name, alias):
    prob, x, y = _nash_point()
    buf = np.empty(x.size + 1)
    xy = [x, y]
    xy[alias] = buf[:-1]
    xy[alias][:] = (x, y)[alias]
    with pytest.raises(ConfigurationError):
        NASH_MAPS[name](prob, *xy, buf[1:])


def test_nash_prox_is_proj_box_on_each_half():
    prob, x, _ = _nash_point()
    x[:4] = [-0.0, np.nan, -np.inf, np.inf]
    c = prob.config
    u1, u2 = prob._split(x)
    want = np.concatenate([proj_box(u1, c.mask1, *CONTROL_BOX).ravel(),
                           proj_box(u2, c.mask2, *CONTROL_BOX).ravel()]).tobytes()
    assert prob.prox_primal(0.5, x).tobytes() == want
    assert prob.prox_dual(0.5, x, out=x).tobytes() == want


def test_step_rejects_a_strided_out_on_nash():
    prob, x, y = _nash_point()
    state = PrimalDualState.initial(x, y)
    out = PrimalDualState.initial(x, y)
    out.x = np.empty(2 * prob.primal_dim)[::2]
    with pytest.raises(ConfigurationError):
        step(prob, GAME_TRIPLE, state, out=out)


def _distance_run(n: int, iters: int = 10):
    config, x_star, y_star = manufacture(n)
    prob = NashProblem(config)
    h = config.grid.h
    state = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    dists = []
    for _ in range(iters):
        state = step(prob, GAME_TRIPLE, state)
        dists.append(h * math.sqrt(float(
            np.sum((state.x - x_star) ** 2) + np.sum((state.y - y_star) ** 2))))
    return dists


def test_iteration_converges_in_a_handful_of_steps():
    dists = _distance_run(15)
    assert dists[0] == pytest.approx(1.816632e-3, rel=1e-5)
    hit = next(i + 1 for i, d in enumerate(dists) if d <= 1e-12)
    assert hit <= 7
    for a, b in zip(dists, dists[1:hit]):
        assert b < a


def test_mesh_independence_of_the_distance_profile():
    d15 = _distance_run(15)
    d31 = _distance_run(31)
    assert d15[0] == pytest.approx(d31[0], rel=0.05)
    hit15 = next(i + 1 for i, d in enumerate(d15) if d <= 1e-12)
    hit31 = next(i + 1 for i, d in enumerate(d31) if d <= 1e-12)
    assert abs(hit15 - hit31) <= 1


def test_solve_integration_with_reference_logging():
    config, x_star, y_star = manufacture(15)
    prob = NashProblem(config)
    final, records = solve(
        prob, GAME_TRIPLE,
        np.zeros(prob.primal_dim), np.zeros(prob.dual_dim),
        SolveOptions(max_iters=8, reference=(x_star, y_star)),
    )
    assert final.iteration == 8
    assert len(records) == 8
    assert records[-1].dist_to_ref <= 1e-12
    assert records[0].dist_to_ref > records[3].dist_to_ref


def test_solve_norms_are_h_weighted_and_mesh_independent():
    stops = []
    for n in (15, 31):
        config, x_star, y_star = manufacture(n)
        prob = NashProblem(config)
        h = config.grid.h
        x0, y0 = np.zeros(prob.primal_dim), np.zeros(prob.dual_dim)
        _, records = solve(prob, GAME_TRIPLE, x0, y0,
                           SolveOptions(max_iters=12, reference=(x_star, y_star)))
        state = PrimalDualState.initial(x0, y0)
        for rec in records:
            new = step(prob, GAME_TRIPLE, state)
            euclid_step = math.sqrt(float(np.sum((new.x - state.x) ** 2)
                                          + np.sum((new.y - state.y) ** 2)))
            euclid_dist = math.sqrt(float(np.sum((new.x - x_star) ** 2)
                                          + np.sum((new.y - y_star) ** 2)))
            assert rec.step_norm == pytest.approx(h * euclid_step, rel=1e-12)
            assert rec.dist_to_ref == pytest.approx(h * euclid_dist, rel=1e-12)
            state = new
        stops.append(next(r.iteration for r in records if r.step_norm <= 1e-6))
    # The step norm falls to 1e-6 at the same iteration on both meshes.
    assert stops[0] == stops[1] < 12


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 1000),
       scale=st.sampled_from([0.1, 1.0, 10.0]))
def test_prox_is_firmly_nonexpansive(n, seed, scale):
    config, _, _ = manufacture(n)
    prob = NashProblem(config)
    rng = np.random.default_rng(seed)
    for prox, inner, dim in ((prob.prox_primal, prob.inner_primal, prob.primal_dim),
                             (prob.prox_dual, prob.inner_dual, prob.dual_dim)):
        a, b = scale * rng.normal(size=dim), scale * rng.normal(size=dim)
        pa, pb = prox(1.0, a), prox(1.0, b)
        lhs = inner(pa - pb, a - b)
        assert lhs >= inner(pa - pb, pa - pb) - 1e-12 * inner(a - b, a - b)


def test_default_profile_respects_interiority():
    _, x_star, _ = manufacture(31)
    assert float(np.max(np.abs(x_star))) <= 0.8 * min(abs(CONTROL_BOX[0]), CONTROL_BOX[1])
