"""Discrete gradient, coupling, and denoising problem tests."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddleprox import potts
from saddleprox.core import ConfigurationError, PrimalDualState, step
from saddleprox.potts import (
    PottsConfig,
    PottsProblem,
    dh,
    dht,
    dual_from_primal,
    gen_synthetic,
    huber_value,
    kappa_val,
    kappa_y,
    kappa_z,
)
from saddleprox.schedules import StepTriple
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


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (33, 17), (3, 0)],
                         ids=lambda s: "%dx%d" % s)
@BOTH_P
@pytest.mark.parametrize("entries", ["normal", "special"])
def test_kernels_fill_out_with_the_bits_they_return(shape, p, entries):
    # Every kernel and map gives the same bits into ``out`` as into a new
    # array, also where ``out`` is the operand it may overwrite.
    rng = np.random.default_rng(sum(shape) + 1)

    def draw(size):
        if entries == "normal":
            return rng.normal(size=size)
        return rng.choice(SPECIAL_ENTRIES, size=size)

    x, v = draw(shape), draw(shape).ravel()
    z, y, w = draw(shape + (2,)), draw(shape + (2,)), draw(shape + (2,)).ravel()
    prob = PottsProblem(PottsConfig(alpha=0.7, gamma=1e-3, p=p), x)
    field, image = np.empty(shape + (2,)), np.empty(shape)
    with np.errstate(all="ignore"):
        for fresh, into, out in [
                (dh(x, 0.5), lambda o: dh(x, 0.5, out=o), field),
                (dht(z, 0.5), lambda o: dht(z, 0.5, out=o), image),
                (kappa_z(p, z, y), lambda o: kappa_z(p, z, y, out=o), field),
                (kappa_z(p, z, y), lambda o: kappa_z(p, o, y, out=o), z.copy()),
                (kappa_y(p, z, y), lambda o: kappa_y(p, z, y, out=o), field),
                (kappa_y(p, z, y), lambda o: kappa_y(p, z, o, out=o), y.copy()),
                (prob.prox_primal(0.3, v), lambda o: prob.prox_primal(0.3, v, out=o),
                 image.ravel()),
                (prob.prox_dual(0.3, w), lambda o: prob.prox_dual(0.3, o, out=o), w.copy()),
                (prob.grad_x(x.ravel(), y.ravel()),
                 lambda o: prob.grad_x(x.ravel(), y.ravel(), out=o), image.ravel()),
                (prob.grad_y(x.ravel(), y.ravel()),
                 lambda o: prob.grad_y(x.ravel(), y.ravel(), out=o), field.ravel())]:
            assert into(out) is out
            assert _same_bits(out, fresh)


def test_kernel_out_validation():
    x = np.zeros((4, 3))
    z, y = np.zeros((4, 3, 2)), np.zeros((4, 3, 2))
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), x)
    buf = np.zeros(24)
    bad = [lambda: dh(x, out=np.empty((4, 3))),                      # shape
           lambda: dh(x, out=np.empty((4, 3, 2), dtype=np.float32)),  # dtype
           lambda: dh(x, out=np.empty((4, 3, 4))[..., ::2]),          # strided
           lambda: dht(z, out=z.reshape(-1)[:12].reshape(4, 3)),      # overlaps g
           lambda: kappa_z(1, z, y, out=y),                           # overlaps y
           lambda: kappa_y(math.inf, z, y, out=z),                    # overlaps z
           lambda: prob.prox_primal(0.1, x.ravel(), out=x.ravel()),   # overlaps v
           lambda: prob.grad_x(x.ravel(), y.ravel(), out=np.empty((12, 2))[:, 0]),
           # The gradients write out block by block while still reading x, y.
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
    # a temporary brought back adds at least one image.
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(128, 128))
    z, y = rng.normal(size=(128, 128, 2)), rng.normal(size=(128, 128, 2))
    v = rng.normal(size=x.size)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), x)
    limits = [("dh", lambda: dh(x), 2.1),
              ("dh h=0.5", lambda: dh(x, 0.5), 2.1),
              ("kappa_z", lambda: kappa_z(1, z, y), 2.1),
              ("prox_primal", lambda: prob.prox_primal(0.1, v), 1.1)]
    for name, call, limit in limits:
        assert _traced_peak_in_images(call, x.nbytes) <= limit, name


def test_step_with_out_allocates_at_most_one_field():
    # Traced peak of one engine step into recycled arrays, 128x128, p = 1,
    # in images: each gradient builds D x of its one block (the whole
    # image here) in a field of its own, 2 images.  dht runs along the
    # flattened image, so no ufunc needs numpy's iterator buffers.
    # Allocating every iterate and temporary peaks at 8.
    f = gen_synthetic(128, 128, 5, n_shapes=3, noise_sigma=0.05)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=1), f)
    trip = StepTriple(0.01, 1.0, 0.99)
    state = step(prob, trip, PrimalDualState.initial(f.ravel(), np.zeros(prob.dual_dim)))
    out = PrimalDualState.initial(np.zeros(prob.primal_dim), np.zeros(prob.dual_dim))
    assert _traced_peak_in_images(lambda: step(prob, trip, state, out=out),
                                  f.nbytes) <= 2.1


def _rows_per_block(monkeypatch, n2, rows):
    """Set the gradients' block budget to ``rows`` rows of an n2-wide field."""
    monkeypatch.setattr(potts, "_BLOCK_BYTES", 16 * max(n2, 1) * rows)


@pytest.mark.parametrize("shape, rows", [((33, 17), 4), ((33, 17), 2), ((9, 1), 2),
                                         ((9, 1), 4), ((1, 9), 1), ((2, 2), 1)],
                         ids=lambda v: "%dx%d" % v if isinstance(v, tuple) else str(v))
@pytest.mark.parametrize("into", ["new", "nan-filled-out"])
@BOTH_P
@pytest.mark.parametrize("entries", ["normal", "special"])
def test_blocked_gradients_are_bit_identical_to_whole_image_kernels(
        monkeypatch, shape, rows, into, p, entries):
    # Several blocks, the last of them one row (33 = 8*4 + 1, 9 = 4*2 + 1),
    # must give the bits of the kernels applied to the whole image, up to
    # the sign of a NaN: numpy's contiguous add and multiply loops return
    # one operand's NaN in their vector body and the other's in the
    # remainder, so a NaN met by a NaN takes a sign that depends on the
    # entry's place in the loop, which a block moves.  A NaN-filled ``out``
    # shows any entry that no block writes, or that a halo row leaves stale.
    rng = np.random.default_rng(sum(shape) + rows)

    def draw(size):
        if entries == "normal":
            return rng.normal(size=size)
        return rng.choice(SPECIAL_ENTRIES, size=size)

    x, y = draw(shape), draw(shape + (2,))
    prob = PottsProblem(PottsConfig(alpha=0.7, gamma=1e-3, p=p), x)
    with np.errstate(all="ignore"):
        want_x = dht(kappa_z(p, dh(x), y)).ravel()
        want_y = kappa_y(p, dh(x), y).ravel()
        _rows_per_block(monkeypatch, shape[1], rows)
        outs = ((np.full(x.size, np.nan), np.full(y.size, np.nan))
                if into == "nan-filled-out" else (None, None))
        got_x = prob.grad_x(x.ravel(), y.ravel(), out=outs[0])
        got_y = prob.grad_y(x.ravel(), y.ravel(), out=outs[1])
    for got, want in ((got_x, want_x), (got_y, want_y)):
        assert _same_bits(*(np.where(np.isnan(a), np.nan, a) for a in (got, want)))


@BOTH_P
def test_blocked_gradients_hold_one_block_of_field(monkeypatch, p):
    # 128x128 in blocks of 16 rows: a gradient call holds one block's
    # field with its halo rows (18 rows; for p = inf also rho_pair's
    # half-size t), not a field of the whole image (128 rows).
    rng = np.random.default_rng(6)
    x, y = rng.normal(size=128 * 128), rng.normal(size=128 * 128 * 2)
    prob = PottsProblem(PottsConfig(alpha=1.0, gamma=1e-3, p=p), x.reshape(128, 128))
    gx, gy = np.empty(x.size), np.empty(y.size)
    _rows_per_block(monkeypatch, 128, 16)
    block_field = 18 * 128 * 2 * 8
    for call in (lambda: prob.grad_x(x, y, out=gx), lambda: prob.grad_y(x, y, out=gy)):
        assert _traced_peak_in_images(call, block_field) <= 1.75


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


@BOTH_P
def test_huber_is_envelope_of_coupling_minus_quadratic(p):
    # huber(z) = kappa(z, yhat) - gamma/2 ||yhat||^2 at the maximizer.
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 6))
    z = dh(x)
    gamma = 1e-2
    y_hat = dual_from_primal(p, x, gamma)
    envelope = kappa_val(p, z, y_hat) - 0.5 * gamma * float(np.sum(y_hat**2))
    assert huber_value(p, z, gamma) == pytest.approx(envelope, rel=1e-12)
    # and yhat is the critical point: gamma*y = kappa_y(z, y).
    resid = np.max(np.abs(gamma * y_hat - kappa_y(p, z, y_hat)))
    assert resid <= 1e-12


def test_dual_from_primal_magnitude_cap():
    # |yhat| peaks at 1/sqrt(2 gamma) over all jump heights.
    gamma = 1e-3
    zstar = math.sqrt(gamma / 2.0)
    x = np.array([[0.0, zstar]])
    y_hat = dual_from_primal(1, x, gamma)
    assert abs(y_hat[0, 0, 0]) == pytest.approx(1.0 / math.sqrt(2.0 * gamma), rel=1e-12)


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
