"""Image denoising with a smoothed discontinuity-count penalty.

The primal variable is an image x on an n1 x n2 grid, the dual variable
a two-component field y on the same grid.  The problem is

    min_x max_y  ||x - f||^2 / (2*alpha) + kappa_p(D x, y) - gamma/2 ||y||^2

where D is the forward-difference gradient and the coupling applies
rho(t) = 2t - t^2 either per gradient component (p = 1) or to the
per-pixel inner product of gradient and dual (p = inf), through the row
kernel ``rho_pair``/``rho_grad`` that :mod:`verify` shares.  Maximizing
the dual exactly turns the coupling into the smoothed counting penalty
sum 2s^2/(2s^2 + gamma) of the gradient magnitudes s.

Arrays: images have shape (n1, n2); gradient-like fields have shape
(n1, n2, 2) with component 0 the horizontal difference (along axis 1)
and component 1 the vertical difference (along axis 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigurationError, DivergenceError, SaddleProblem, is_int, out_buffer


def _check_p(p: float) -> None:
    if p != 1 and p != math.inf:
        raise ConfigurationError("penalty flavour p must be 1 or inf, got %r" % (p,))


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # also rejects NaN
        raise ConfigurationError("%s must be positive, got %r" % (name, value))


def dh(x: np.ndarray, h: float = 1.0) -> np.ndarray:
    """Forward-difference gradient with zero rows/columns at the far edge.

    [dh x]_{ij0} = (x[i, j+1] - x[i, j]) / h for j < n2-1, else 0;
    [dh x]_{ij1} = (x[i+1, j] - x[i, j]) / h for i < n1-1, else 0.

    One new (n1, n2, 2) field, filled by :func:`_d_planes` and divided by
    h in place: bit-identical to the plain expression.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError("image must be 2-d, got shape %s" % (x.shape,))
    _check_positive("mesh width h", h)
    g = np.empty(x.shape + (2,))
    for fn, args in _d_planes(x, 0, x.shape[0], g.transpose(2, 0, 1)):
        fn(*args)
    if h != 1.0:  # x / 1.0 is exact
        g /= h
    return g


def dht(g: np.ndarray, h: float = 1.0,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint of :func:`dh` (negative discrete divergence).

    One result buffer (``out``, if given), filled by :func:`_dt_rows` and
    divided by h in place, in the summation order given there.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[2] != 2:
        raise ConfigurationError("gradient field must have shape (n1, n2, 2)")
    _check_positive("mesh width h", h)
    out = out_buffer(out, g.shape[:2], g)
    for fn, args in _dt_rows(g[..., 0], g[..., 1], 0, g.shape[0], out):
        fn(*args)
    if h != 1.0:
        out /= h
    return out


def _pair(p: float, z: np.ndarray, y: np.ndarray):
    _check_p(p)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape or z.ndim != 3 or z.shape[2] != 2:
        raise ConfigurationError(
            "gradient/dual fields must share shape (n1, n2, 2); got %s and %s"
            % (z.shape, y.shape)
        )
    return z, y


def rho(t: np.ndarray) -> np.ndarray:
    """rho(t) = 2t - t^2, entrywise."""
    return 2.0 * t - t * t


def rho_pair(z: np.ndarray, y: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """Paired products t = <z, y> of rows: arrays of shape (..., m)
    paired over the last axis, which t keeps with size 1.

    The products z * y are taken in one pass, into ``out`` (of z's shape)
    if given, and summed in component order, which gives the bits of
    ``np.sum(z * y, axis=-1)`` for the m used here (1 and 2).  For m = 1
    the products are t; for m > 1, t is a new (..., 1) array."""
    prod = np.multiply(z, y, out=out)
    if z.shape[-1] == 1:
        return prod
    t = prod[..., :1] + prod[..., 1:2]
    for k in range(2, z.shape[-1]):
        t += prod[..., k:k + 1]
    return t


def rho_grad(z: np.ndarray, y: np.ndarray, w: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """rho'(t) w = 2(1 - t) w with t = <z, y>: with w = y the gradient of
    rho(<z, y>) in z, with w = z the one in y.

    Written into ``out`` (new if None), one component of w at a time.
    ``out`` holds products of z and y before w is read, so it may be z or
    y but not w."""
    if out is None:
        out = np.empty(w.shape)
    t = rho_pair(z, y, out)
    np.subtract(1.0, t, out=t)
    np.multiply(2.0, t, out=t)
    for k in range(w.shape[-1]):
        np.multiply(t, w[..., k:k + 1], out=out[..., k:k + 1])
    return out


def rho_mixed(z: np.ndarray, y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The derivative in z of the y-gradient, applied to v:
    2(v - t v - z <y, v>).  ``rho_mixed(y, z, v)`` is the other block."""
    return 2.0 * (v - rho_pair(z, y) * v - z * rho_pair(y, v))


def _rows(p: float, *fields: np.ndarray):
    """(n1, n2, 2) fields as kernel rows: p = 1 pairs each component on
    its own (m = 1), p = inf the two components of a pixel (m = 2)."""
    return [f[..., None] for f in fields] if p == 1 else fields


def kappa_val(p: float, z: np.ndarray, y: np.ndarray) -> float:
    """Coupling value: sum of rho(t) = 2t - t^2 over the paired entries.

    p = 1 pairs componentwise, t = z_ijk * y_ijk; p = inf pairs per
    pixel, t = z_ij1*y_ij1 + z_ij2*y_ij2.
    """
    z, y = _pair(p, z, y)
    return float(np.sum(rho(rho_pair(*_rows(p, z, y)))))


# kappa_z/kappa_y keep rho_grad's rows: numpy buffers _rho_grad_planes on interleaved views.
def kappa_z(p: float, z: np.ndarray, y: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Derivative of :func:`kappa_val` in z: 2*(1 - t)*y with t as there.

    Written into ``out`` if given; ``out`` may be z itself, not y.
    """
    z, y = _pair(p, z, y)
    out = out_buffer(out, z.shape, y)
    rho_grad(*_rows(p, z, y, y, out))
    return out


def kappa_y(p: float, z: np.ndarray, y: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Derivative of :func:`kappa_val` in y: 2*(1 - t)*z with t as there.

    Written into ``out`` if given; ``out`` may be y itself, not z.
    """
    z, y = _pair(p, z, y)
    out = out_buffer(out, z.shape, z)
    rho_grad(*_rows(p, z, y, z, out))
    return out


def huber_value(p: float, z: np.ndarray, gamma: float) -> float:
    """Smoothed discontinuity count of a field z: sum of 2s^2/(2s^2 + gamma).

    s runs over the components of z for p = 1 and over the per-pixel
    Euclidean magnitudes for p = inf.  Approaches the number of nonzero
    entries/pixels as gamma -> 0.
    """
    _check_positive("gamma", gamma)
    z, _ = _pair(p, z, z)
    s2 = rho_pair(*_rows(p, z, z))
    return float(np.sum(2.0 * s2 / (2.0 * s2 + gamma)))


@dataclass
class PottsConfig:
    """Denoising problem parameters: data weight alpha, penalty smoothing
    gamma, penalty flavour p (1 or inf).  The grid has unit mesh width,
    which the step calculator ``schedules.potts_steps`` assumes."""

    alpha: float
    gamma: float
    p: float

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_positive("gamma", self.gamma)
        _check_p(self.p)


# Bytes of a row block of the step plan's walk, counted as 64 bytes a
# pixel: about four dual fields' worth of the arrays a row touches (y, new
# y, planes, x, x_bar, new x, noisy image), so that a block's D x stays in
# cache between the kernels applied to it.  At 1024^2 that is 16 rows; on a
# 2-vCPU Intel host, 16 rows beat 4, 8, 32 and 64.
_BLOCK_BYTES = 1 << 20


# Kernels of the step plan on (rows, n2) planes, one per field component.
# Each returns its ufunc calls as (function, arguments) pairs, to be made
# in order.  D and D^T are written only here: the plan runs them on its row
# blocks, dh and dht on the whole image as one block.

def _d_planes(img: np.ndarray, a: int, b: int, g: np.ndarray) -> list:
    """Rows [a, b) of dh(img) at h = 1, horizontal into g[0] and vertical
    into g[1]; g[0] must flatten to a view (entries one stride apart).

    The horizontal differences are taken along the flattened rows, one
    ufunc loop that also writes a difference across each row end into
    the far-edge column; that column is zeroed afterwards.  A non-finite
    entry at a row end can make numpy warn there (``dh([[0, inf], [inf,
    0]])``: "invalid value encountered in subtract"); the result is
    right, and ``solve``'s iterates are finite.
    """
    n1, n2 = img.shape
    flat, m = img.reshape(-1), min(b, n1 - 1) - a
    return [(np.subtract, (flat[a * n2 + 1:b * n2], flat[a * n2:b * n2 - 1],
                           g[0].reshape(-1)[:-1])),
            (np.copyto, (g[0, :, -1:], 0.0)),
            (np.subtract, (img[a + 1:a + 1 + m], img[a:a + m], g[1, :m])),
            (np.copyto, (g[1, m:], 0.0))]


def _dt_rows(gh: np.ndarray, gv: np.ndarray, a: int, n1: int, out: np.ndarray) -> list:
    """Rows [a, a + len(out)) of dht at h = 1 into the C-contiguous
    ``out``, from the field's components gh on the same rows and gv on
    those and, for a > 0, row a - 1.

    Per pixel the sum is that of accumulating into zeros, (((0 - g_ij0)
    + g_i,j-1,0) - g_ij1) + g_i-1,j,1 with terms past an edge left out,
    bit for bit and signed zeros included (g_i,j-1,0 - g_ij0 would turn
    +0 into -0 where g_ij0 = +0 and g_i,j-1,0 = -0).  The horizontal
    terms are taken along the flattened rows, one ufunc loop each: 0 -
    g_ij0 everywhere, the far column zeroed, g_i,j-1,0 added from the
    previous flat entry.  That adds g_i-1,n2-1,0 across each row start,
    so column 0 is recomputed as 0 - g_i00 (for n2 = 1 it is the far
    column).  A non-finite entry can make numpy warn of a sum across a
    row start that column 0 then recomputes; the result is right.
    """
    rows, n2 = out.shape
    flat, gflat = out.reshape(-1), gh.reshape(-1)
    ops = [(np.subtract, (0.0, gflat, flat)), (np.copyto, (out[:, -1:], 0.0))]
    if n2 > 1:
        tail = flat[1:]
        ops += [(np.add, (tail, gflat[:-1], tail)),
                (np.subtract, (0.0, gh[:, :1], out[:, :1]))]
    k, m = min(a, 1), min(a + rows, n1 - 1) - a
    top, bottom = out[:m], out[1 - k:]
    return ops + [(np.subtract, (top, gv[k:k + m], top)),
                  (np.add, (bottom, gv[:rows - 1 + k], bottom))]


def _rho_grad_planes(p: float, z: np.ndarray, y: np.ndarray, w: np.ndarray,
                     prod: np.ndarray, t: np.ndarray, out: np.ndarray) -> list:
    """rho_grad on (2, rows, n2) views, one component each: out = 2(1 - t) w.
    The products z y go into ``prod`` first, so prod may be z or y but not
    w; they are t at p = 1, and at p = inf t is their sum, in the plane
    ``t``.  Only the last multiply writes ``out``: it may be t or w, and
    must not overlap them otherwise (numpy would copy the operand)."""
    ops = [(np.multiply, (z, y, prod))]
    if p == 1:
        t = prod
    else:
        ops.append((np.add, (prod[0], prod[1], t)))
    return ops + [(np.subtract, (1.0, t, t)), (np.multiply, (2.0, t, t)),
                  (np.multiply, (t, w, out))]


def _scratch_places(ops: list, scratch: np.ndarray) -> list:
    """Where an op list holds views of ``scratch``: (op index, argument
    indices) pairs."""
    places = [(i, [j for j, v in enumerate(args)
                   if type(v) is np.ndarray and v.base is scratch])
              for i, (fn, args) in enumerate(ops)]
    return [(i, js) for i, js in places if js]


def _share_views(ops: list, like: list, places: list) -> list:
    """``ops`` with the views at ``places`` taken from ``like``, the op list
    of a block over the same rows of the scratch (see _scratch_places)."""
    for i, js in places:
        fn, args = ops[i]
        args, kargs = list(args), like[i][1]
        for j in js:
            args[j] = kargs[j]
        ops[i] = fn, tuple(args)
    return ops


class _WalkPlan:
    """PottsProblem's step plan: one walk over row blocks from the arrays
    of ``state`` into those of ``out``, every view laid out at build.
    Per block of rows [a, b): y's rows [a - 1, b) gathered into two
    planes, D x on those rows, kappa_z, dht, the primal update; then the
    dual rows, one row behind (D x_bar reads row b), written into the new
    y in one pass (at p = 1 the update's sigma multiply).  Every kappa
    pass runs on contiguous planes of one layout per block (numpy buffers
    small ufunc calls whose operands differ in layout).  The scratch is
    the plan's own planes (the isfinite masks go into their bytes) and
    the new y's rows [a - 1, b), which hold the gathered y: no dual row
    has reached them, since the dual part of each block starts at row
    a - 1, and it reads the gathered rows before its last pass writes
    over them.

    x_bar is read only by the dual rows of its own block, so it lives in
    the head of ``out.x_bar``, its first ``rows + 1`` rows, which stay in
    cache: the first block writes its rows from row 0, each later block
    copies row a - 1 to row 0 and writes its rows after it.  Past one
    block, the rest of ``out.x_bar`` is left as it was; ``step`` and
    ``solve`` write the whole x_bar where they return it."""

    def __init__(self, problem: "PottsProblem", state, out):
        c, (n1, n2) = problem.config, problem.shape
        x, y = (np.ascontiguousarray(v, dtype=float) for v in (state.x, state.y))
        self.arrays = x, y, out.x, out.x_bar, out.y
        self.alpha, self.gamma, self.p = c.alpha, c.gamma, c.p
        self.sigma = np.empty(1)  # the call's sigma, which the p = 1 dual ops read
        rows = max(1, _BLOCK_BYTES // (64 * max(n2, 1)))
        img, field = problem._img(x), problem._field(y)
        x_new, y_new = problem._img(out.x), problem._field(out.y)
        head = problem._img(out.x_bar)[:rows + 1]
        k = 2 if c.p == 1 else 3
        planes = np.empty(k * min(rows + 1, n1) * n2)
        mask = planes.view(bool)
        self.blocks, done, shared = [], 0, {}  # done: rows of out.y laid out
        for a in range(0, n1, rows):
            b, lo = min(a + rows, n1), max(a - 1, 0)
            d = b - 1 if b < n1 else n1
            yb = out.y[2 * lo * n2:2 * b * n2].reshape(2, b - lo, n2)
            g, v = planes[:k * (b - lo) * n2].reshape(k, b - lo, n2), head[a - lo:b - lo]
            g2 = g[:2]
            ops = ([(np.copyto, (yb, field[lo:b].transpose(2, 0, 1)))] + _d_planes(img, lo, b, g)
                   + _rho_grad_planes(c.p, g2, yb, yb, g2, g[-1], g2))
            # Row a - 1 of x_bar goes to head row 0: the first block left it
            # in head row rows - 1, a later one in head row rows.
            if a > 0:
                ops.append((np.copyto, (head[0], head[min(a - 1, rows)])))
            ops += _dt_rows(g[0, a - lo:], g[1], a, n1, v)
            dops = None
            if d > done:  # done == lo: the dual rows lead the gathered planes
                z, t, y_out = g[:, :d - lo], yb[:, :d - lo], y_new[done:d].transpose(2, 0, 1)
                z2 = z[:2]
                dops = _d_planes(head[:b - lo], 0, d - lo, z)
                if c.p == 1:  # t is y_out's bytes: a direct write would copy
                    dops += (_rho_grad_planes(1, z2, t, z2, t, t, z2)
                             + [(np.multiply, (self.sigma, z2, y_out))])
                else:
                    dops += _rho_grad_planes(c.p, z2, t, z2, t, z[-1], y_out)
            # The views of the planes in a block's ops depend only on its
            # halo, its rows, its dual rows and whether it ends the image: a
            # block with the key of an earlier one takes that block's views.
            key = (a - lo, b - lo, d - done, b == n1)
            if key in shared:
                (like, places), (dlike, dplaces), xmask, ymask = shared[key]
                ops = _share_views(ops, like, places)
                dops = dops and _share_views(dops, dlike, dplaces)
            else:
                xmask, ymask = mask[:v.size].reshape(v.shape), mask[:2 * (d - done) * n2]
                shared[key] = ((ops, _scratch_places(ops, planes)),
                               (dops, dops and _scratch_places(dops, planes)), xmask, ymask)
            ys = slice(2 * done * n2, 2 * d * n2)
            self.blocks.append(((ops, v, x_new[a:b], img[a:b], problem.noisy[a:b], xmask),
                                dops and (dops, out.y[ys], y[ys], ymask)))
            done = d

    def __call__(self, triple, iteration: int) -> None:
        tau, omega, sigma = triple.tau, triple.omega, triple.sigma
        r = tau / self.alpha
        primal_div, dual_div = 1.0 + r, 1.0 + self.gamma * sigma
        self.sigma[0] = sigma
        for (ops, v, xn, xa, f, xmask), dual in self.blocks:
            for fn, args in ops:
                fn(*args)
            # step's tau update, prox_primal and x_bar, in their operand order.
            np.multiply(tau, v, out=v)
            np.subtract(xa, v, out=v)
            np.multiply(r, f, out=xn)
            np.add(v, xn, out=xn)
            np.divide(xn, primal_div, out=xn)
            np.subtract(xn, xa, out=v)
            np.multiply(omega, v, out=v)
            np.add(xn, v, out=v)
            if not np.isfinite(xn, out=xmask).all():
                raise DivergenceError(iteration)
            if dual is None:
                continue
            ops, w, ya, ymask = dual
            for fn, args in ops:
                fn(*args)
            # step's sigma update (at p = 1 the ops' last pass made it) and prox_dual.
            if self.p != 1:
                np.multiply(sigma, w, out=w)
            np.add(ya, w, out=w)
            np.divide(w, dual_div, out=w)
            if not np.isfinite(w, out=ymask).all():
                raise DivergenceError(iteration)


class PottsProblem(SaddleProblem):
    """Saddle-point form of the discontinuity-penalized denoising problem.

    The coupling is the composition kappa_p(D x, y), and the gradient maps
    say so: ``grad_x`` is D^T kappa_z(D x, y) and ``grad_y`` is
    kappa_y(D x, y), through the whole-image kernels.  A call builds D x
    in one new field, which ``kappa_z`` then overwrites, and at p = inf
    ``rho_pair`` adds its t, half a field.  The maps write into ``out`` as
    :class:`SaddleProblem` describes; the gradients' ``out`` shares memory
    with neither x nor y.

    :meth:`step_plan` lays out a whole iteration, with the maps' bits, as
    one walk over row blocks of at most ``_BLOCK_BYTES``, once for a pair
    of states; ``solve`` builds two plans, one each way, runs them and
    calls none of the four maps.  Each plan owns its planar scratch: D x
    of a block as contiguous (rows, n2) planes, horizontal and vertical,
    and at p = inf a third for t.  y and the new y keep their interleaved
    layout; each block gathers its rows of y into two planes in the new
    y's bytes and writes the new y back in one pass.
    """

    def __init__(self, config: PottsConfig, noisy: np.ndarray):
        # C order: the walk's rows of it run contiguous, and prox_primal's
        # ravel is a view.  A C-contiguous float image is kept, not copied.
        noisy = np.ascontiguousarray(noisy, dtype=float)
        if noisy.ndim != 2:
            raise ConfigurationError("noisy image must be 2-d")
        self.config = config
        self.noisy = noisy
        self.shape = noisy.shape
        self.primal_dim = noisy.size
        self.dual_dim = noisy.size * 2

    def _img(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(self.shape)

    def _field(self, y: np.ndarray) -> np.ndarray:
        return y.reshape(self.shape + (2,))

    def grad_x(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        out = out_buffer(out, (self.primal_dim,), x, y)
        z = dh(self._img(x))
        kappa_z(self.config.p, z, self._field(y), out=z)
        dht(z, out=self._img(out))
        return out

    def grad_y(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        out = out_buffer(out, (self.dual_dim,), x, y)
        kappa_y(self.config.p, dh(self._img(x)), self._field(y), out=self._field(out))
        return out

    def step_plan(self, state, out) -> _WalkPlan:
        return _WalkPlan(self, state, out)

    def prox_primal(self, tau: float, v: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        r = tau / self.config.alpha
        out = out_buffer(out, (self.primal_dim,), v)  # r * noisy goes in before v is read
        np.multiply(r, self.noisy.ravel(), out=out)
        np.add(v, out, out=out)
        out /= 1.0 + r
        return out

    def prox_dual(self, sigma: float, w: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.divide(w, 1.0 + self.config.gamma * sigma,
                         out=out_buffer(out, (self.dual_dim,)))

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        return kappa_val(self.config.p, dh(self._img(x)), self._field(y))

    def primal_objective(self, x: np.ndarray) -> float:
        c = self.config
        img = self._img(x)
        data = float(np.sum((img - self.noisy) ** 2)) / (2.0 * c.alpha)
        return data + huber_value(c.p, dh(img), c.gamma)


def gen_synthetic(
    n1: int,
    n2: int,
    seed: int,
    n_shapes: int = 6,
    noise_sigma: float = 0.05,
) -> np.ndarray:
    """Seeded piecewise-constant test image with additive Gaussian noise.

    A constant background is overpainted with ``n_shapes`` opaque
    axis-aligned rectangles and disks at random gray levels, so the
    noise-free image has at most n_shapes + 1 distinct values.  Noise is
    then added and the result clamped to [0, 1].
    """
    for name, value, least in (("n1", n1, 1), ("n2", n2, 1), ("seed", seed, 0),
                               ("n_shapes", n_shapes, 0)):
        if not is_int(value) or value < least:
            raise ConfigurationError("%s must be an integer >= %d, got %r"
                                     % (name, least, value))
    if not noise_sigma >= 0:  # also rejects NaN
        raise ConfigurationError("noise_sigma must be >= 0, got %r" % (noise_sigma,))
    rng = np.random.default_rng(seed)
    img = np.full((n1, n2), rng.uniform(0.1, 0.4))
    ii, jj = np.arange(n1)[:, None], np.arange(n2)[None, :]
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
        img += rng.normal(0.0, noise_sigma, size=img.shape)
    return np.clip(img, 0.0, 1.0, out=img)
