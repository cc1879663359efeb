"""Discrete gradient, coupling, and denoising problem tests."""

import math
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox import cli, potts
from saddleprox.core import (
    ConfigurationError,
    DivergenceError,
    PrimalDualState,
    SolveOptions,
    plan_step,
    solve,
    step,
)
from saddleprox.potts import (
    PottsConfig,
    PottsProblem,
    dh,
    dht,
    gen_synthetic,
    huber_value,
    kappa_val,
    kappa_y,
    kappa_z,
)
from saddleprox.schedules import StepTriple, potts_steps
from saddleprox.verify import fd_grad_check

BOTH_P = pytest.mark.parametrize("p", [1, math.inf])


# ---------------------------------------------------------------------------
# Discrete gradient and its adjoint.
# ---------------------------------------------------------------------------


def test_dh_hand_values_and_boundary_rows():
    x = np.array([[0.0, 1.0], [3.0, 6.0]])
    g = dh(x)
    assert g.shape == (2, 2, 2)
    assert g[0, 0, 0] == 1.0   # horizontal difference
    assert g[1, 0, 0] == 3.0
    assert g[0, 0, 1] == 3.0   # vertical difference
    assert g[0, 1, 1] == 5.0
    assert np.all(g[:, -1, 0] == 0.0)
    assert np.all(g[-1, :, 1] == 0.0)


def test_dh_mesh_scaling_is_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 5))
    assert np.array_equal(dh(x, h=0.5), dh(x) / 0.5)
    out = dht(dh(x, h=0.5), h=0.5)
    assert np.allclose(out, dht(dh(x)) / 0.25, rtol=1e-15, atol=0)


def test_dh_dht_adjoint_fixed_case():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(9, 7))
    g = rng.normal(size=(9, 7, 2))
    lhs = float(np.sum(dh(x) * g))
    rhs = float(np.sum(x * dht(g)))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 12), n2=st.integers(1, 12), seed=st.integers(0, 100),
       h=st.sampled_from([1.0, 0.5, 0.125]))
def test_dh_dht_adjoint_generic(n1, n2, seed, h):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n1, n2))
    g = rng.normal(size=(n1, n2, 2))
    lhs = float(np.sum(dh(x, h) * g))
    rhs = float(np.sum(x * dht(g, h)))
    scale = max(abs(lhs), abs(rhs), 1.0)
    assert abs(lhs - rhs) <= 1e-12 * scale


def test_gradient_operator_norm_bound():
    # ||dht o dh|| <= 8/h^2; power iteration gets close on a square grid.
    rng = np.random.default_rng(2)
    for h in (1.0, 0.5):
        v = rng.normal(size=(16, 16))
        for _ in range(100):
            v = dht(dh(v, h), h)
            v /= np.linalg.norm(v)
        lam = float(np.sum(v * dht(dh(v, h), h)))
        assert lam <= 8.0 / h**2 + 1e-9
        assert lam >= 0.9 * 8.0 / h**2


def test_dh_dht_validation():
    with pytest.raises(ConfigurationError):
        dh(np.zeros(5))
    with pytest.raises(ConfigurationError):
        dh(np.zeros((3, 3)), h=0.0)
    with pytest.raises(ConfigurationError):
        dht(np.zeros((3, 3)))
    with pytest.raises(ConfigurationError):
        dht(np.zeros((3, 3, 2)), h=-1.0)
    with pytest.raises(ConfigurationError):
        dh(np.zeros((3, 3)), h=math.nan)
    with pytest.raises(ConfigurationError):
        dht(np.zeros((3, 3, 2)), h=math.nan)


@pytest.mark.parametrize("shape", [(1, 6), (6, 1), (1, 1)])
@pytest.mark.parametrize("h", [1.0, 0.5])
def test_dh_dht_adjoint_on_single_row_and_column(shape, h):
    rng = np.random.default_rng(3)
    x = rng.normal(size=shape)
    g = rng.normal(size=shape + (2,))
    lhs = float(np.sum(dh(x, h) * g))
    rhs = float(np.sum(x * dht(g, h)))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


# ---------------------------------------------------------------------------
# In-place kernels: bit parity with the plain expressions, and allocations.
# ---------------------------------------------------------------------------


def _dh_plain(x, h):
    g = np.zeros(x.shape + (2,))
    g[:, :-1, 0] = (x[:, 1:] - x[:, :-1]) / h
    g[:-1, :, 1] = (x[1:, :] - x[:-1, :]) / h
    return g


def _dht_plain(g, h):
    out = np.zeros(g.shape[:2])
    out[:, :-1] -= g[:, :-1, 0]
    out[:, 1:] += g[:, :-1, 0]
    out[:-1, :] -= g[:-1, :, 1]
    out[1:, :] += g[:-1, :, 1]
    return out / h


def _paired_plain(p, z, y):
    if p == 1:
        return z * y
    return z[..., :1] * y[..., :1] + z[..., 1:] * y[..., 1:]


def _prox_primal_plain(noisy, alpha, tau, v):
    r = tau / alpha
    return (v + r * noisy.ravel()) / (1.0 + r)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Signed zeros, infinities and NaNs of both signs: the in-place forms must
# keep every operand order of the plain ones, not just the values.
SPECIAL_ENTRIES = np.array([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf,
                            np.nan, -np.nan])


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 2), (33, 17),
                                   (3, 0), (0, 3)],
                         ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("h", [1.0, 0.5])
@BOTH_P
@pytest.mark.parametrize("entries", ["normal", "special"])
def test_kernels_are_bit_identical_to_plain_expressions(shape, h, p, entries):
    rng = np.random.default_rng(sum(shape))

    def draw(size):
        if entries == "normal":
            return rng.normal(size=size)
        return rng.choice(SPECIAL_ENTRIES, size=size)

    x, v = draw(shape), draw(shape).ravel()
    z, y = draw(shape + (2,)), draw(shape + (2,))
    v_before = v.copy()
    prob = PottsProblem(PottsConfig(alpha=0.7, gamma=1e-3, p=p), x)
    with np.errstate(all="ignore"):
        assert _same_bits(dh(x, h), _dh_plain(x, h))
        assert _same_bits(dht(z, h), _dht_plain(z, h))
        factor = 2.0 * (1.0 - _paired_plain(p, z, y))
        assert _same_bits(kappa_z(p, z, y), factor * y)
        assert _same_bits(kappa_y(p, z, y), factor * z)
        assert _same_bits(prob.prox_primal(0.3, v),
                          _prox_primal_plain(x, 0.7, 0.3, v))
    assert _same_bits(v, v_before)


@pytest.mark.parametrize("h", [1.0, 0.5])
@pytest.mark.parametrize("entries", ["normal", "special"])
def test_dh_and_dht_give_the_plain_bits_for_any_memory_layout(h, entries):
    # The kernels flatten rows with reshape(-1), a view of contiguous rows
    # and a copy of anything else; either way the bits are the plain ones.
    rng = np.random.default_rng(11)

    def draw(size):
        if entries == "normal":
            return rng.normal(size=size)
        return rng.choice(SPECIAL_ENTRIES, size=size)

    images = [draw((17, 9)).T, draw((9, 34))[:, ::2], np.asfortranarray(draw((9, 17))),
              draw((9, 17)).astype(np.float32)]
    fields = [draw((17, 9, 2)).transpose(1, 0, 2), draw((9, 34, 2))[:, ::2],
              draw((2, 9, 17)).transpose(1, 2, 0)]
    with np.errstate(all="ignore"):
        for x in images:
            assert _same_bits(dh(x, h), _dh_plain(np.array(x, dtype=float), h))
        for g in fields:
            assert _same_bits(dht(g, h), _dht_plain(np.array(g), h))


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (33, 17), (3, 0)],
                         ids=lambda s: "%dx%d" % s)
@BOTH_P
@pytest.mark.parametrize("entries", ["normal", "special"])
def test_kernels_fill_out_with_the_bits_they_return(shape, p, entries):
    # Every kernel and map gives the same bits into ``out`` as into a new
    # array, also where ``out`` is the operand it may overwrite.  Each
    # other ``out`` is a fresh NaN-filled array, so an entry left unwritten
    # shows.
    rng = np.random.default_rng(sum(shape) + 1)

    def draw(size):
        if entries == "normal":
            return rng.normal(size=size)
        return rng.choice(SPECIAL_ENTRIES, size=size)

    x, v = draw(shape), draw(shape).ravel()
    z, y, w = draw(shape + (2,)), draw(shape + (2,)), draw(shape + (2,)).ravel()
    prob = PottsProblem(PottsConfig(alpha=0.7, gamma=1e-3, p=p), x)
    with np.errstate(all="ignore"):
        for fresh, into, out in [
                (dht(z, 0.5), lambda o: dht(z, 0.5, out=o), np.full(x.shape, np.nan)),
                (kappa_z(p, z, y), lambda o: kappa_z(p, z, y, out=o), np.full(z.shape, np.nan)),
                (kappa_z(p, z, y), lambda o: kappa_z(p, o, y, out=o), z.copy()),
                (kappa_y(p, z, y), lambda o: kappa_y(p, z, y, out=o), np.full(z.shape, np.nan)),
                (kappa_y(p, z, y), lambda o: kappa_y(p, z, o, out=o), y.copy()),
                (prob.prox_primal(0.3, v), lambda o: prob.prox_primal(0.3, v, out=o),
                 np.full(x.size, np.nan)),
                (prob.prox_dual(0.3, w), lambda o: prob.prox_dual(0.3, o, out=o), w.copy()),
                (prob.grad_x(x.ravel(), y.ravel()),
                 lambda o: prob.grad_x(x.ravel(), y.ravel(), out=o), np.full(x.size, np.nan)),
                (prob.grad_y(x.ravel(), y.ravel()),
                 lambda o: prob.grad_y(x.ravel(), y.ravel(), out=o), np.full(y.size, np.nan))]:
            assert into(out) is out
            assert _same_bits(out, fresh)


def test_kernel_out_validation():
    x = np.zeros((4, 3))
    z, y = np.zeros((4, 3, 2)), np.zeros((4, 3, 2))
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), x)
    buf = np.zeros(24)
    bad = [lambda: dht(z, out=np.empty((4, 3, 2))),                  # shape
           lambda: dht(z, out=np.empty((4, 3), dtype=np.float32)),    # dtype
           lambda: dht(z, out=np.empty((4, 6))[:, ::2]),              # strided
           lambda: dht(z, out=z.reshape(-1)[:12].reshape(4, 3)),      # overlaps g
           lambda: kappa_z(1, z, y, out=y),                           # overlaps y
           lambda: kappa_y(math.inf, z, y, out=z),                    # overlaps z
           lambda: prob.prox_primal(0.1, x.ravel(), out=x.ravel()),   # overlaps v
           lambda: prob.grad_x(x.ravel(), y.ravel(), out=np.empty((12, 2))[:, 0]),
           # The gradients' out shares memory with neither x nor y.
           lambda: prob.grad_x(x.ravel(), y.ravel(), out=y.reshape(-1)[:12]),
           lambda: prob.grad_y(x.ravel(), y.ravel(), out=y.reshape(-1)),
           lambda: prob.grad_y(buf[:12], y.ravel(), out=buf)]
    for call in bad:
        with pytest.raises(ConfigurationError):
            call()


def _traced_peak_in_images(call, image_bytes):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / image_bytes
    finally:
        tracemalloc.stop()


def test_kernels_allocate_one_result_buffer():
    # Traced peak of one call, in units of one 128x128 image.  The plain
    # expressions peak at 4 (dh), 4 (kappa_z, p = 1) and 2 (prox_primal);
    # a temporary brought back adds at least one image.  dht into ``out``
    # allocates nothing but views.  A gradient into ``out`` holds D x, one
    # field (2 images), and at p = inf also rho_pair's t (1 image).
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(128, 128))
    z, y = rng.normal(size=(128, 128, 2)), rng.normal(size=(128, 128, 2))
    v = rng.normal(size=x.size)
    img, gx, gy = np.empty(x.shape), np.empty(x.size), np.empty(y.size)
    prob, prob_inf = (PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), x)
                      for p in (1, math.inf))
    limits = [("dh", lambda: dh(x), 2.1),
              ("dh h=0.5", lambda: dh(x, 0.5), 2.1),
              ("dht into out", lambda: dht(z, out=img), 0.1),
              ("dht h=0.5 into out", lambda: dht(z, 0.5, out=img), 0.1),
              ("kappa_z", lambda: kappa_z(1, z, y), 2.1),
              ("prox_primal", lambda: prob.prox_primal(0.1, v), 1.1),
              ("grad_x p=1", lambda: prob.grad_x(x.ravel(), y.ravel(), out=gx), 2.1),
              ("grad_y p=1", lambda: prob.grad_y(x.ravel(), y.ravel(), out=gy), 2.1),
              ("grad_x p=inf", lambda: prob_inf.grad_x(x.ravel(), y.ravel(), out=gx), 3.1),
              ("grad_y p=inf", lambda: prob_inf.grad_y(x.ravel(), y.ravel(), out=gy), 3.1)]
    for name, call, limit in limits:
        assert _traced_peak_in_images(call, x.nbytes) <= limit, name


def test_step_with_out_allocates_at_most_one_field():
    # Traced peak of one engine step into recycled arrays, 128x128, p = 1,
    # in images: the step plan's scratch holds D x of one block (the whole
    # image here) in two planes, 2 images, and the walk writes everything
    # else in place.  Allocating every iterate and temporary peaks at 8.
    f = gen_synthetic(128, 128, 5, n_shapes=3, noise_sigma=0.05)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), f)
    trip = StepTriple(0.01, 1.0, 0.99)
    state = step(prob, trip, PrimalDualState.initial(f.ravel(), np.zeros(prob.dual_dim)))
    out = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    assert _traced_peak_in_images(lambda: step(prob, trip, state, out=out),
                                  f.nbytes) <= 2.1


def test_solve_holds_one_x_bar():
    # Traced peak of a 3-iteration 128x128 p = 1 solve, in images: the
    # copies of x0 and y0 (3), the spare x and y (3), the one x_bar both
    # sets share (1) and each plan's two planes (4).  An x_bar per set
    # adds an image.
    f = gen_synthetic(128, 128, 5, n_shapes=3, noise_sigma=0.05)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), f)
    trip, _ = potts_steps(1.0, 1e-3, 1)
    y0 = np.zeros(prob.dual_dim)
    assert _traced_peak_in_images(
        lambda: solve(prob, trip, f, y0, SolveOptions(max_iters=3)), f.nbytes) <= 11.2


def _rows_per_block(monkeypatch, n2, rows):
    """Set the step plan's block budget to ``rows`` rows of an image n2 wide."""
    monkeypatch.setattr(potts, "_BLOCK_BYTES", 64 * max(n2, 1) * rows)


@pytest.mark.parametrize("shape", [(33, 17), (9, 1), (1, 9), (2, 2), (1, 1), (65, 64),
                                   (3, 0), (0, 3)],
                         ids=lambda s: "%dx%d" % s)
@pytest.mark.parametrize("into", ["new", "nan-filled-out"])
@BOTH_P
@pytest.mark.parametrize("entries", ["normal", "special"])
def test_blocked_gradients_are_bit_identical_to_whole_image_kernels(shape, into, p, entries):
    # The gradient maps are the composition of the kernels: grad_x is
    # dht(kappa_z(p, dh(x), y)) and grad_y is kappa_y(p, dh(x), y), bit
    # for bit, NaN signs included.  A NaN-filled ``out`` shows any entry
    # that a map leaves unwritten.
    rng = np.random.default_rng(sum(shape))

    def draw(size):
        if entries == "normal":
            return rng.normal(size=size)
        return rng.choice(SPECIAL_ENTRIES, size=size)

    x, y = draw(shape), draw(shape + (2,))
    prob = PottsProblem(PottsConfig(alpha=0.7, gamma=1e-3, p=p), x)
    with np.errstate(all="ignore"):
        want_x = dht(kappa_z(p, dh(x), y)).ravel()
        want_y = kappa_y(p, dh(x), y).ravel()
        outs = ((np.full(x.size, np.nan), np.full(y.size, np.nan))
                if into == "nan-filled-out" else (None, None))
        got_x = prob.grad_x(x.ravel(), y.ravel(), out=outs[0])
        got_y = prob.grad_y(x.ravel(), y.ravel(), out=outs[1])
    assert _same_bits(got_x, want_x)
    assert _same_bits(got_y, want_y)


# ---------------------------------------------------------------------------
# The fused step (the step plan's walk) against the generic one.
# ---------------------------------------------------------------------------


def _generic_only(monkeypatch):
    """Make core.step take its generic path through the four maps: the
    problem builds no step plan.  Returns the list that each ``grad_x``
    call then appends to, so a test can show that the generic path ran."""
    calls, grad_x = [], PottsProblem.grad_x

    def counted(self, *args, **kwargs):
        calls.append(None)
        return grad_x(self, *args, **kwargs)

    monkeypatch.setattr(PottsProblem, "step_plan", lambda self, state, out: None)
    monkeypatch.setattr(PottsProblem, "grad_x", counted)
    return calls


def _step_bits(prob, trip, state, steps, into):
    got = []
    for _ in range(steps):
        out = None
        if into == "nan-filled-out":
            out = PrimalDualState(*(np.full(v.size, np.nan)
                                    for v in (state.x, state.y, state.x_bar)))
        state = step(prob, trip, state, out=out)
        got.append((state.iteration, state.x.tobytes(), state.y.tobytes(),
                    state.x_bar.tobytes()))
    return got


def _fused_and_generic(monkeypatch, p, f, steps, into):
    """x, y and x_bar bits of ``steps`` fused steps and of as many generic
    ones, from f and a random dual field."""
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    trip, _ = potts_steps(1.0, 1e-3, p)
    y0 = 0.3 * np.random.default_rng(f.size).normal(size=prob.dual_dim)
    state = PrimalDualState.initial(f.ravel(), y0)
    fused = _step_bits(prob, trip, state, steps, into)
    with monkeypatch.context() as m:
        calls = _generic_only(m)
        generic = _step_bits(prob, trip, state, steps, into)
    assert len(calls) == steps
    return fused, generic


@pytest.mark.parametrize("n, p, steps", [(64, 1, 5), (64, math.inf, 5),
                                         (257, math.inf, 5), (300, math.inf, 5),
                                         (1024, 1, 3)])
@pytest.mark.parametrize("into", ["new", "nan-filled-out"])
def test_fused_step_is_bit_identical_to_generic_step(monkeypatch, n, p, steps, into):
    f = gen_synthetic(n, n, 3, n_shapes=3, noise_sigma=0.05)
    fused, generic = _fused_and_generic(monkeypatch, p, f, steps, into)
    assert fused == generic


@pytest.mark.parametrize("shape, rows", [((33, 17), 4), ((33, 17), 2), ((9, 1), 2),
                                         ((9, 1), 4), ((1, 9), 1), ((2, 2), 1),
                                         ((65, 64), 4), ((65, 64), 64), ((5, 1), 1),
                                         ((3, 5), 1)],
                         ids=lambda v: "%dx%d" % v if isinstance(v, tuple) else str(v))
@pytest.mark.parametrize("into", ["new", "nan-filled-out"])
@BOTH_P
def test_fused_step_in_blocks_is_bit_identical_to_generic_step(
        monkeypatch, shape, rows, into, p):
    # Several blocks of the walk, the last of them one row (33 = 8*4 + 1,
    # 9 = 4*2 + 1, 65 = 16*4 + 1 = 64 + 1); the dual rows trail one row
    # behind each block.  In one-row blocks the first block has no dual
    # part and the last one's spans exactly the rows it gathers.  A
    # NaN-filled ``out`` shows an entry no block writes.
    _rows_per_block(monkeypatch, shape[1], rows)
    f = np.random.default_rng(rows).uniform(size=shape)
    fused, generic = _fused_and_generic(monkeypatch, p, f, 5, into)
    assert fused == generic


@pytest.mark.parametrize("vector, row, value", [("x", 0, np.nan), ("x", 8, np.nan),
                                                ("y", 0, np.inf), ("y", 8, -np.inf),
                                                ("y", 4, np.nan)])
@BOTH_P
def test_fused_and_generic_step_diverge_at_the_same_iteration(monkeypatch, vector, row,
                                                              value, p):
    _rows_per_block(monkeypatch, 9, 2)
    rng = np.random.default_rng(row)
    f = rng.uniform(size=(9, 9))
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    trip, _ = potts_steps(1.0, 1e-3, p)
    state = PrimalDualState(f.ravel().copy(), 0.3 * rng.normal(size=prob.dual_dim),
                            f.ravel().copy(), iteration=6)
    v = state.x if vector == "x" else state.y
    v[v.size // 9 * row + 3] = value
    errors, calls = [], []
    for generic in (False, True):
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            if generic:
                calls = _generic_only(m)
            with pytest.raises(DivergenceError) as exc:
                step(prob, trip, state)
        errors.append((exc.value.iteration, str(exc.value)))
    assert errors == [(7, "non-finite iterate at iteration 7")] * 2
    assert len(calls) == 1


@BOTH_P
def test_fused_step_keeps_finite_iterates_whose_squares_overflow(monkeypatch, p):
    # Every entry is finite, but x.x and y.y overflow to inf: a finiteness
    # check through a sum or a norm would warn, or raise, where the generic
    # step does neither.
    f = np.random.default_rng(5).uniform(-1e155, 1e155, size=(9, 9))
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    trip, _ = potts_steps(1.0, 1e-3, p)
    state = PrimalDualState.initial(f.ravel(), np.zeros(prob.dual_dim))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fused = _step_bits(prob, trip, state, 1, "new")
    with monkeypatch.context() as m, np.errstate(over="ignore"):
        calls = _generic_only(m)
        assert _step_bits(prob, trip, state, 1, "new") == fused
        assert len(calls) == 1
        new = step(prob, trip, state)
        assert not math.isfinite(np.dot(new.x, new.x) + np.dot(new.y, new.y))


@BOTH_P
def test_fused_step_calls_none_of_the_four_maps(monkeypatch, p):
    # The generic path's bits come from the maps; with the maps made to
    # raise, the step must still give them, so it cannot fall back.
    prob, f = _small_problem(p)
    trip, _ = potts_steps(1.0, 1e-3, p)
    state = PrimalDualState.initial(f.ravel(), np.zeros(prob.dual_dim))
    with monkeypatch.context() as m:
        calls = _generic_only(m)
        want = _step_bits(prob, trip, state, 3, "new")
    assert len(calls) == 3

    def refuse(*args, **kwargs):
        raise AssertionError("the fused step called a map")

    for name in ("grad_x", "grad_y", "prox_primal", "prox_dual"):
        monkeypatch.setattr(PottsProblem, name, refuse)
    assert _step_bits(prob, trip, state, 3, "new") == want


def _built_plan(monkeypatch, p, shape, rows):
    """A problem on a random image of ``shape``, a state from it and a
    random dual field, and the step plan out of that state, in blocks of
    ``rows`` rows (None: the default budget)."""
    if rows is not None:
        _rows_per_block(monkeypatch, shape[1], rows)
    rng = np.random.default_rng(sum(shape))
    f = rng.uniform(size=shape)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    state = PrimalDualState.initial(f.ravel(), 0.3 * rng.normal(size=prob.dual_dim))
    out, plan = plan_step(prob, state)
    return prob, state, out, plan


@pytest.mark.parametrize("shape, rows", [((128, 128), None), ((12, 2048), 4)],
                         ids=["128x128", "12x2048-in-4-rows"])
@BOTH_P
def test_plan_calls_allocate_nothing(monkeypatch, shape, rows, p):
    # Once built, a plan writes only into its own planes and the arrays of
    # ``out``.  An operand that overlaps its ufunc's output other than
    # entry for entry makes numpy copy it first: at least a block's
    # dual planes, 96 KiB here.  numpy also buffers ufunc calls of at most
    # np.getbufsize() = 8192 entries whose operands differ in layout (the
    # 64^2 walk does); every pass here is larger.  What is left is numpy's
    # per-call bookkeeping (0-d scalars, iterators), about 1.4 KB.
    prob, _, _, plan = _built_plan(monkeypatch, p, shape, rows)
    trip, _ = potts_steps(1.0, 1e-3, p)
    plan(trip, 1)
    tracemalloc.start()
    try:
        for i in range(3):
            plan(trip, i + 2)
        assert tracemalloc.get_traced_memory()[1] < 4096
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(33, 17), (12, 2048)], ids=["33x17", "12x2048"])
@BOTH_P
def test_plan_writes_only_the_head_rows_of_x_bar(monkeypatch, shape, p):
    # x_bar is read only by the dual rows of its own block, so a plan keeps
    # it in the first rows + 1 rows of out.x_bar, which stay in cache, and
    # writes no other entry of it.  x+ and y+ keep the bits of lone steps.
    rows, n2 = 4, shape[1]
    prob, state, out, plan = _built_plan(monkeypatch, p, shape, rows)
    trip, _ = potts_steps(1.0, 1e-3, p)
    want = step(prob, trip, state)
    out.x_bar.fill(np.nan)
    for i in range(3):
        plan(trip, i + 1)
        assert np.isnan(out.x_bar[(rows + 1) * n2:]).all()
        assert (out.x.tobytes(), out.y.tobytes()) == (want.x.tobytes(), want.y.tobytes())


def _planes_contiguous(a):
    """Whether each (rows, n2) plane of an operand is C-contiguous."""
    return all(v.flags.c_contiguous for v in (a if a.ndim == 3 else [a]))


@pytest.mark.parametrize("shape, rows", [((128, 128), None), ((33, 17), 4), ((3, 5), 1)],
                         ids=["128x128", "33x17-in-4-rows", "3x5-in-1-row"])
@BOTH_P
def test_walk_gathers_y_once_and_writes_the_new_y_once_per_block(monkeypatch, shape,
                                                                   rows, p):
    # Every kappa pass runs on contiguous planes.  Apart from the column
    # edits of D and D^T (one entry a row), the only strided operands of a
    # block are the source of its gather (y's rows, interleaved) and the
    # target of the last op of its dual part (the new y's rows).  The
    # gathered planes are bytes of the new y, never of y.
    _, state, out, plan = _built_plan(monkeypatch, p, shape, rows)
    for primal, dual in plan.blocks:
        parts = [primal[0]] + ([] if dual is None else [dual[0]])
        strided = [[a for fn, args in ops for a in args
                    if isinstance(a, np.ndarray) and a.shape[-1] > 1
                    and not _planes_contiguous(a)] for ops in parts]
        (fn, (planes, source)), last = primal[0][0], parts[-1][-1]
        assert fn is np.copyto and planes.flags.c_contiguous
        assert np.shares_memory(planes, out.y) and not np.shares_memory(planes, state.y)
        assert [id(a) for a in strided[0]] == [id(source)]
        assert np.shares_memory(source, state.y)
        if dual is not None:
            assert [id(a) for a in strided[1]] == [id(last[1][-1])]
            assert np.shares_memory(last[1][-1], out.y)
    assert sum(dual is None for _, dual in plan.blocks) == (rows == 1)


@BOTH_P
def test_walk_builds_its_plane_views_once_per_block_geometry(monkeypatch, p):
    # All interior blocks lay out the same rows of the plan's planes, and
    # share one set of views of them: the views do not grow with the
    # number of blocks.
    counts = []
    for n1 in (65, 129):
        _, _, _, plan = _built_plan(monkeypatch, p, (n1, 64), 4)
        scratch = plan.blocks[0][0][-1].base  # the primal isfinite mask's planes
        views = {id(a) for primal, dual in plan.blocks for part in (primal, dual)
                 for a in [*part[1:], *(a for _, args in part[0] for a in args)]
                 if isinstance(a, np.ndarray) and a.base is scratch}
        counts.append((len(plan.blocks), len(views)))
    assert counts[0][0] == 17 and counts[1][0] == 33
    assert counts[0][1] == counts[1][1]


# ---------------------------------------------------------------------------
# Step plans in solve.
# ---------------------------------------------------------------------------


def _solve_bits(prob, schedule, f, y0, options):
    """Bits of the final x, y and x_bar of a solve and of every record field."""
    state, records = solve(prob, schedule, f.ravel(), y0, options)
    fields = [tuple(None if v is None else float(v).hex() for v in vars(r).values())
              for r in records]
    return state.iteration, state.x.tobytes(), state.y.tobytes(), state.x_bar.tobytes(), fields


def _planned_and_generic(monkeypatch, p, f, options):
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    trip, _ = potts_steps(1.0, 1e-3, p)
    y0 = 0.3 * np.random.default_rng(f.size).normal(size=prob.dual_dim)
    planned = _solve_bits(prob, trip, f, y0, options)
    with monkeypatch.context() as m:
        calls = _generic_only(m)
        generic = _solve_bits(prob, trip, f, y0, options)
    assert calls
    return planned, generic


@pytest.mark.parametrize("n, p, iters", [(64, 1, 5), (64, math.inf, 5),
                                         (257, math.inf, 5), (300, math.inf, 5),
                                         (1024, 1, 3)])
def test_solve_with_step_plans_is_bit_identical_to_generic_solve(monkeypatch, n, p, iters):
    # The log ends before the reference iterate, so both plans also run
    # after it; the objective and the distances read the planned iterates.
    f = gen_synthetic(n, n, 3, n_shapes=3, noise_sigma=0.05)
    options = SolveOptions(max_iters=iters, log_stride=2, reference=iters + 2,
                           record_objective=True)
    planned, generic = _planned_and_generic(monkeypatch, p, f, options)
    assert planned == generic


@pytest.mark.parametrize("shape, rows", [((33, 17), 4), ((33, 17), 2), ((9, 1), 2),
                                         ((9, 1), 4), ((1, 9), 1), ((2, 2), 1),
                                         ((65, 64), 4), ((65, 64), 64)],
                         ids=lambda v: "%dx%d" % v if isinstance(v, tuple) else str(v))
@BOTH_P
def test_solve_with_step_plans_in_blocks_is_bit_identical_to_generic_solve(
        monkeypatch, shape, rows, p):
    _rows_per_block(monkeypatch, shape[1], rows)
    f = np.random.default_rng(rows).uniform(size=shape)
    options = SolveOptions(max_iters=7, log_stride=3, reference=5, record_objective=True)
    planned, generic = _planned_and_generic(monkeypatch, p, f, options)
    assert planned == generic


def test_solve_builds_two_step_plans_and_keeps_none(monkeypatch):
    # One plan from each set of arrays into the other, built at the start;
    # after the return only the returned state's arrays are alive.
    plans, arrays, build = [], [], PottsProblem.step_plan

    def spy(self, state, out):
        plan = build(self, state, out)
        plans.append(weakref.ref(plan))
        arrays.extend(weakref.ref(v) for s in (state, out) for v in (s.x, s.y, s.x_bar))
        return plan

    monkeypatch.setattr(PottsProblem, "step_plan", spy)
    prob, f = _small_problem(math.inf)
    trip, _ = potts_steps(1.0, 1e-3, math.inf)
    result = solve(prob, trip, f.ravel(), np.zeros(prob.dual_dim),
                   SolveOptions(max_iters=10, log_stride=3))
    state = result[0]
    assert len(plans) == 2 and all(ref() is None for ref in plans)
    alive = {id(ref()) for ref in arrays if ref() is not None}
    assert alive == {id(state.x), id(state.y), id(state.x_bar)}
    assert result.reference is None


@pytest.mark.parametrize("into", ["new", "nan-filled-out"])
@BOTH_P
def test_step_ignores_a_plan_bound_to_other_arrays(monkeypatch, into, p):
    # The plan writes into its own out arrays; a step into other arrays, or
    # from another state, must check, plan anew and leave those untouched.
    _rows_per_block(monkeypatch, 8, 2)
    prob, f = _small_problem(p)
    trip, _ = potts_steps(1.0, 1e-3, p)
    y0 = 0.3 * np.random.default_rng(4).normal(size=prob.dual_dim)
    state = PrimalDualState.initial(f.ravel(), y0)
    other = PrimalDualState.initial(f.ravel() + 0.25, -y0)
    bound_out, plan = plan_step(prob, state)
    kept = [v.copy() for v in (bound_out.x, bound_out.y, bound_out.x_bar)]
    for source in (state, other):
        want = _step_bits(prob, trip, source, 1, into)
        out = None
        if into == "nan-filled-out":
            out = PrimalDualState(*(np.full(v.size, np.nan) for v in (f, y0, f)))
        got = step(prob, trip, source, out=out, plan=plan)
        assert [(got.iteration, got.x.tobytes(), got.y.tobytes(), got.x_bar.tobytes())] == want
    assert all(np.array_equal(v, k, equal_nan=True)
               for v, k in zip((bound_out.x, bound_out.y, bound_out.x_bar), kept))
    with pytest.raises(ConfigurationError):  # out.y is state.y: the checks ran
        step(prob, trip, state, out=PrimalDualState(bound_out.x, state.y, bound_out.x_bar),
             plan=plan)


class _NanAt:
    """A schedule that gives the potts steps but a NaN ``name`` at index i."""

    def __init__(self, p, name, i):
        self.trip, _ = potts_steps(1.0, 1e-3, p)
        self.name, self.i = name, i

    def triple(self, i):
        if i != self.i:
            return self.trip
        values = dict(tau=self.trip.tau, sigma=self.trip.sigma, omega=self.trip.omega)
        values[self.name] = math.nan
        return types.SimpleNamespace(**values)


@pytest.mark.parametrize("name", ["tau", "sigma"])
@pytest.mark.parametrize("i", [0, 1, 4])
@BOTH_P
def test_solve_with_step_plans_diverges_as_the_generic_solve(monkeypatch, name, i, p):
    # A NaN step size at index i makes iterate i + 1 non-finite, through
    # the plan from either set of arrays and through the generic step.
    _rows_per_block(monkeypatch, 9, 2)
    f = np.random.default_rng(i).uniform(size=(9, 9))
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    errors, calls = [], []
    for generic in (False, True):
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            if generic:
                calls = _generic_only(m)
            with pytest.raises(DivergenceError) as exc:
                solve(prob, _NanAt(p, name, i), f.ravel(), np.zeros(prob.dual_dim),
                      SolveOptions(max_iters=8))
        errors.append((exc.value.iteration, str(exc.value)))
    assert errors == [(i + 1, "non-finite iterate at iteration %d" % (i + 1))] * 2
    assert len(calls) == i + 1


@BOTH_P
def test_potts_solve_and_command_call_none_of_the_four_maps(monkeypatch, tmp_path, p):
    # The step plans carry every Potts iteration of a solve and of the
    # potts command; the whole-image maps are only oracles.  A run that
    # fell back to them would be slower at scale, and fails here.
    calls = []

    def counted(name):
        method = getattr(PottsProblem, name)

        def call(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)
        return call

    for name in ("grad_x", "grad_y", "prox_primal", "prox_dual"):
        monkeypatch.setattr(PottsProblem, name, counted(name))
    _rows_per_block(monkeypatch, 17, 4)
    f = np.random.default_rng(7).uniform(size=(33, 17))
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f)
    trip, _ = potts_steps(1.0, 1e-3, p)
    solve(prob, trip, f.ravel(), np.zeros(prob.dual_dim),
          SolveOptions(max_iters=7, log_stride=3, reference=5, record_objective=True))
    assert cli.main(["potts", "--synthetic", "33", "17", "7", "--p", str(p),
                     "--reference-iters", "6", "--iters", "4",
                     "--out-prefix", str(tmp_path / "run")]) == 0
    assert calls == []
    prob.grad_y(f.ravel(), np.zeros(prob.dual_dim))  # the counting is in place
    assert calls == ["grad_y"]


# ---------------------------------------------------------------------------
# Coupling and smoothed penalty.
# ---------------------------------------------------------------------------


def test_kappa_scalar_hand_values():
    z = np.zeros((1, 1, 2))
    y = np.zeros((1, 1, 2))
    z[0, 0] = (0.5, 2.0)
    y[0, 0] = (1.0, 0.25)
    # p = 1 pairs componentwise: rho(0.5) + rho(0.5) with rho(t) = 2t - t^2.
    assert kappa_val(1, z, y) == pytest.approx(2 * (1.0 - 0.25), rel=1e-15)
    # p = inf pairs per pixel: t = 0.5 + 0.5 = 1, rho(1) = 1.
    assert kappa_val(math.inf, z, y) == pytest.approx(1.0, rel=1e-15)
    # Derivatives at these points: 2*(1 - t) times the other field.
    gz1 = kappa_z(1, z, y)
    assert gz1[0, 0, 0] == pytest.approx(2 * 0.5 * 1.0, rel=1e-15)
    assert gz1[0, 0, 1] == pytest.approx(2 * 0.5 * 0.25, rel=1e-15)
    assert np.allclose(kappa_z(math.inf, z, y), 0.0, atol=1e-15)
    gy1 = kappa_y(1, z, y)
    assert gy1[0, 0, 0] == pytest.approx(2 * 0.5 * 0.5, rel=1e-15)
    assert gy1[0, 0, 1] == pytest.approx(2 * 0.5 * 2.0, rel=1e-15)


@BOTH_P
def test_kappa_derivatives_match_finite_differences(p):
    rng = np.random.default_rng(3)
    z = 0.6 * rng.normal(size=(4, 5, 2))
    y = 0.6 * rng.normal(size=(4, 5, 2))
    eps = 1e-6
    gz = kappa_z(p, z, y)
    gy = kappa_y(p, z, y)
    for _ in range(10):
        dz = rng.normal(size=z.shape)
        fd = (kappa_val(p, z + eps * dz, y) - kappa_val(p, z - eps * dz, y)) / (2 * eps)
        assert fd == pytest.approx(float(np.sum(gz * dz)), rel=1e-7, abs=1e-7)
        dy = rng.normal(size=y.shape)
        fd = (kappa_val(p, z, y + eps * dy) - kappa_val(p, z, y - eps * dy)) / (2 * eps)
        assert fd == pytest.approx(float(np.sum(gy * dy)), rel=1e-7, abs=1e-7)


def test_kappa_p1_is_separable():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(3, 4, 2))
    y = rng.normal(size=(3, 4, 2))
    total = 0.0
    for idx in np.ndindex(z.shape):
        zc = np.zeros((1, 1, 2))
        yc = np.zeros((1, 1, 2))
        zc[0, 0, 0] = z[idx]
        yc[0, 0, 0] = y[idx]
        total += kappa_val(1, zc, yc)
    assert total == pytest.approx(kappa_val(1, z, y), rel=1e-12)


def test_kappa_shape_validation():
    with pytest.raises(ConfigurationError):
        kappa_val(1, np.zeros((2, 2, 2)), np.zeros((2, 3, 2)))
    with pytest.raises(ConfigurationError):
        kappa_val(1, np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ConfigurationError):
        kappa_val(3, np.zeros((2, 2, 2)), np.zeros((2, 2, 2)))


def test_huber_value_hand_cases():
    z = np.zeros((1, 1, 2))
    z[0, 0, 0] = 1.0
    assert huber_value(1, z, 1e-3) == pytest.approx(2.0 / 2.001, rel=1e-15)
    # Same magnitude split across components: p = inf sees one unit jump.
    z[0, 0] = (0.6, 0.8)
    assert huber_value(math.inf, z, 1e-3) == pytest.approx(2.0 / 2.001, rel=1e-14)
    assert huber_value(1, np.zeros((2, 2, 2)), 1e-3) == 0.0
    with pytest.raises(ConfigurationError):
        huber_value(1, z, 0.0)
    # A field must be (n1, n2, 2), as for kappa_val.
    for p in (1, math.inf):
        for bad in (np.ones((4, 4, 3)), np.ones(4), np.ones((4, 4))):
            with pytest.raises(ConfigurationError, match="shape"):
                huber_value(p, bad, 1.0)


@BOTH_P
def test_huber_is_envelope_of_coupling_minus_quadratic(p):
    # huber(z) = kappa(z, yhat) - gamma/2 ||yhat||^2 at the maximizer.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 6))
    z = dh(x)
    gamma = 1e-2
    # The maximizer 2z/(2|z|^2 + gamma), |z| per component (p = 1) or per pixel.
    s2 = z**2 if p == 1 else np.sum(z**2, axis=-1, keepdims=True)
    y_hat = 2.0 * z / (2.0 * s2 + gamma)
    envelope = kappa_val(p, z, y_hat) - 0.5 * gamma * float(np.sum(y_hat**2))
    assert huber_value(p, z, gamma) == pytest.approx(envelope, rel=1e-12)
    # and yhat is the critical point: gamma*y = kappa_y(z, y).
    resid = np.max(np.abs(gamma * y_hat - kappa_y(p, z, y_hat)))
    assert resid <= 1e-12


# ---------------------------------------------------------------------------
# Saddle form of the denoising problem.
# ---------------------------------------------------------------------------


def _small_problem(p):
    f = gen_synthetic(8, 8, 3, n_shapes=2, noise_sigma=0.02)
    return PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), f), f


@BOTH_P
def test_first_iteration_from_clean_start(p):
    # From x0 = f, y0 = 0: the primal prox fixes f, so
    # y1 = 2*sigma*dh(f) / (1 + gamma*sigma).
    prob, f = _small_problem(p)
    trip = StepTriple(1e-3, 1.0, 1.0)
    state = PrimalDualState.initial(f.ravel(), np.zeros(prob.dual_dim))
    out = step(prob, trip, state)
    assert np.allclose(out.x, f.ravel(), rtol=0, atol=1e-14)
    expected = (2.0 * trip.sigma * dh(f) / (1.0 + 1e-3 * trip.sigma)).ravel()
    assert np.allclose(out.y, expected, rtol=1e-11, atol=1e-14)


def test_prox_formulas():
    prob, f = _small_problem(1)
    rng = np.random.default_rng(6)
    v = rng.normal(size=prob.primal_dim)
    tau = 0.37
    expected = (v + tau * f.ravel()) / (1.0 + tau)
    assert np.allclose(prob.prox_primal(tau, v), expected, rtol=1e-15, atol=0)
    w = rng.normal(size=prob.dual_dim)
    sigma = 2.3
    assert np.allclose(prob.prox_dual(sigma, w), w / (1.0 + 1e-3 * sigma),
                       rtol=1e-15, atol=0)


@settings(max_examples=40, deadline=None)
@given(n1=st.integers(1, 8), n2=st.integers(1, 8), seed=st.integers(0, 1000),
       alpha=st.floats(1e-2, 10.0), gamma=st.floats(1e-4, 10.0),
       step=st.floats(1e-3, 100.0), p=st.sampled_from([1.0, math.inf]))
def test_prox_maps_are_firmly_nonexpansive(n1, n2, seed, alpha, gamma, step, p):
    rng = np.random.default_rng(seed)
    prob = PottsProblem(PottsConfig(alpha=alpha, gamma=gamma, p=p),
                        rng.uniform(size=(n1, n2)))
    for prox, inner, dim in ((prob.prox_primal, prob.inner_primal, prob.primal_dim),
                             (prob.prox_dual, prob.inner_dual, prob.dual_dim)):
        a, b = rng.normal(size=dim), rng.normal(size=dim)
        pa, pb = prox(step, a), prox(step, b)
        lhs = inner(pa - pb, a - b)
        assert lhs >= inner(pa - pb, pa - pb) - 1e-12 * inner(a - b, a - b)


def test_prox_primal_weights_data_term_by_alpha():
    f = np.full((2, 2), 0.5)
    prob = PottsProblem(PottsConfig(alpha=0.25, gamma=1e-3, p=1), f)
    v = np.zeros(4)
    tau = 1.0
    r = tau / 0.25
    assert np.allclose(prob.prox_primal(tau, v), r * 0.5 / (1.0 + r), rtol=1e-15)


@BOTH_P
def test_problem_keeps_the_noisy_image_in_c_order(p):
    # A C-contiguous float image is kept as given; another layout is copied
    # into C order once, so the walk reads contiguous rows of it and
    # prox_primal's ravel is a view.  Either way a solve has the same bits.
    f = gen_synthetic(40, 33, 3, n_shapes=3, noise_sigma=0.05)
    config = PottsConfig(alpha=1.0, gamma=1e-3, p=p)
    prob = PottsProblem(config, f)
    assert prob.noisy is f
    fortran = PottsProblem(config, np.asfortranarray(f))
    strided = PottsProblem(config, np.repeat(f, 2, axis=1)[:, ::2])
    assert fortran.noisy.flags.c_contiguous and strided.noisy.flags.c_contiguous
    trip, _ = potts_steps(1.0, 1e-3, p)
    y0 = 0.3 * np.random.default_rng(3).normal(size=prob.dual_dim)
    options = SolveOptions(max_iters=6, log_stride=2, reference=8, record_objective=True)
    want = _solve_bits(prob, trip, f, y0, options)
    assert _solve_bits(fortran, trip, f, y0, options) == want
    assert _solve_bits(strided, trip, f, y0, options) == want
    out = np.empty(f.size)
    assert _traced_peak_in_images(lambda: fortran.prox_primal(0.1, f.ravel(), out=out),
                                  f.nbytes) < 0.1


@BOTH_P
def test_objective_assembled_independently(p):
    prob, f = _small_problem(p)
    rng = np.random.default_rng(7)
    x = f.ravel() + 0.1 * rng.normal(size=f.size)
    img = x.reshape(f.shape)
    gamma = 1e-3
    z = dh(img)
    if p == 1:
        s2 = z * z
    else:
        s2 = z[..., 0] ** 2 + z[..., 1] ** 2
    expected = 0.5 * float(np.sum((img - f) ** 2)) + float(
        np.sum(2.0 * s2 / (2.0 * s2 + gamma)))
    assert prob.primal_objective(x) == pytest.approx(expected, rel=1e-12)


@BOTH_P
def test_gradients_pass_directional_check(p):
    prob, f = _small_problem(p)
    rng = np.random.default_rng(8)
    x = f.ravel() + 0.05 * rng.normal(size=prob.primal_dim)
    y = 0.3 * rng.normal(size=prob.dual_dim)
    assert fd_grad_check(prob, x, y, h=1e-5, n_dirs=20, seed=1) <= 1e-6


def test_config_validation():
    with pytest.raises(ConfigurationError):
        PottsConfig(alpha=0.0, gamma=1e-3, p=1)
    with pytest.raises(ConfigurationError):
        PottsConfig(alpha=1.0, gamma=-1e-3, p=1)
    with pytest.raises(ConfigurationError):
        PottsConfig(alpha=1.0, gamma=1e-3, p=2)
    with pytest.raises(ConfigurationError):
        PottsConfig(alpha=math.nan, gamma=1e-3, p=1)
    with pytest.raises(ConfigurationError):
        PottsConfig(alpha=1.0, gamma=math.nan, p=1)
    with pytest.raises(ConfigurationError):
        PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), np.zeros(4))


# ---------------------------------------------------------------------------
# Synthetic images.
# ---------------------------------------------------------------------------


def test_gen_synthetic_is_deterministic():
    a = gen_synthetic(16, 12, seed=11)
    b = gen_synthetic(16, 12, seed=11)
    assert np.array_equal(a, b)
    c = gen_synthetic(16, 12, seed=12)
    assert not np.array_equal(a, c)


def _gen_synthetic_on_index_grids(n1, n2, seed, n_shapes, noise_sigma):
    """gen_synthetic with its disks tested on full n1 x n2 index grids,
    the noise added into a new array and the clip into another."""
    rng = np.random.default_rng(seed)
    img = np.full((n1, n2), rng.uniform(0.1, 0.4))
    ii, jj = np.meshgrid(np.arange(n1), np.arange(n2), indexing="ij")
    for _ in range(n_shapes):
        level = rng.uniform(0.0, 1.0)
        if rng.uniform() < 0.5:
            i0 = rng.integers(0, max(1, n1 - 2))
            j0 = rng.integers(0, max(1, n2 - 2))
            di = rng.integers(max(2, n1 // 8), max(3, n1 // 2))
            dj = rng.integers(max(2, n2 // 8), max(3, n2 // 2))
            img[i0 : i0 + di, j0 : j0 + dj] = level
        else:
            ci = rng.uniform(0, n1 - 1)
            cj = rng.uniform(0, n2 - 1)
            r = rng.uniform(min(n1, n2) / 8.0, min(n1, n2) / 3.0)
            img[(ii - ci) ** 2 + (jj - cj) ** 2 <= r * r] = level
    if noise_sigma > 0:
        img = img + rng.normal(0.0, noise_sigma, size=img.shape)
    return np.clip(img, 0.0, 1.0)


@pytest.mark.parametrize("n1, n2, seed, n_shapes, noise_sigma", [
    (64, 64, 7, 1, 0.0), (57, 60, 3, 6, 0.05), (5, 7, 1, 3, 0.1), (1, 1, 0, 2, 0.0),
    (1, 9, 2, 6, 0.3), (9, 1, 4, 6, 0.3), (1, 40, 5, 8, 0.0), (40, 1, 6, 8, 0.05)])
def test_gen_synthetic_is_bit_identical_to_index_grids(n1, n2, seed, n_shapes, noise_sigma):
    got = gen_synthetic(n1, n2, seed, n_shapes=n_shapes, noise_sigma=noise_sigma)
    want = _gen_synthetic_on_index_grids(n1, n2, seed, n_shapes, noise_sigma)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_gen_synthetic_piecewise_constant_level_count():
    for seed in range(6):
        img = gen_synthetic(24, 24, seed=seed, n_shapes=3, noise_sigma=0.0)
        assert len(np.unique(img)) <= 4


def test_gen_synthetic_shape_and_range():
    img = gen_synthetic(10, 14, seed=0, noise_sigma=0.3)
    assert img.shape == (10, 14)
    assert float(img.min()) >= 0.0 and float(img.max()) <= 1.0


def test_gen_synthetic_background_only():
    img = gen_synthetic(8, 8, seed=5, n_shapes=0, noise_sigma=0.0)
    assert len(np.unique(img)) == 1


def test_gen_synthetic_validation():
    with pytest.raises(ConfigurationError):
        gen_synthetic(0, 4, seed=0)
    with pytest.raises(ConfigurationError):
        gen_synthetic(4, 4, seed=0, n_shapes=-1)
    with pytest.raises(ConfigurationError):
        gen_synthetic(4, 4, seed=0, noise_sigma=-0.1)
    with pytest.raises(ConfigurationError):
        gen_synthetic(4, 4, seed=0, noise_sigma=math.nan)
    for args, kwargs in [((4, 4, 0), dict(n_shapes=2.5)), ((4.0, 4, 0), {}),
                         ((4, 4.5, 0), {}), ((4, "4", 0), {}), ((4, 4, 0.5), {}),
                         ((4, 4, -1), {}), ((True, 4, 0), {})]:
        with pytest.raises(ConfigurationError):
            gen_synthetic(*args, **kwargs)
