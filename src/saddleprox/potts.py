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

from .core import ConfigurationError, SaddleProblem, is_int, out_buffer


def _check_p(p: float) -> None:
    if p != 1 and p != math.inf:
        raise ConfigurationError("penalty flavour p must be 1 or inf, got %r" % (p,))


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # also rejects NaN
        raise ConfigurationError("%s must be positive, got %r" % (name, value))


def dh(x: np.ndarray, h: float = 1.0,
       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Forward-difference gradient with zero rows/columns at the far edge.

    [dh x]_{ij0} = (x[i, j+1] - x[i, j]) / h for j < n2-1, else 0;
    [dh x]_{ij1} = (x[i+1, j] - x[i, j]) / h for i < n1-1, else 0.

    Fills one result buffer in place (``out``, if given), with the same
    subtraction and division per entry as the plain expression, so the
    result is bit-identical to it.  The horizontal differences are taken
    along the flattened image, which also writes a difference across
    each row end into the far-edge column; that column is zeroed
    afterwards.  A non-finite entry at a row end can make numpy warn
    there (``dh([[0, inf], [inf, 0]])``: "invalid value encountered in
    subtract"); the result is right, and ``solve``'s iterates are finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError("image must be 2-d, got shape %s" % (x.shape,))
    _check_positive("mesh width h", h)
    g = out_buffer(out, x.shape + (2,), x)
    flat = x.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=g.reshape(-1, 2)[:-1, 0])
    np.subtract(x[1:, :], x[:-1, :], out=g[:-1, :, 1])
    if h != 1.0:  # x / 1.0 is exact
        g /= h
    g[:, -1:, 0] = 0.0  # -1: rather than -1 keeps empty images working
    g[-1:, :, 1] = 0.0
    return g


def dht(g: np.ndarray, h: float = 1.0,
        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Adjoint of :func:`dh` (negative discrete divergence).

    Fills one result buffer in place (``out``, if given) and keeps the
    summation order of accumulating into zeros: per pixel ((((0 - g_ij0)
    + g_i,j-1,0) - g_ij1) + g_i-1,j,1) / h, terms past an edge left out.
    The result is therefore bit-identical to that form, signed zeros
    included; the shorter g_i,j-1,0 - g_ij0 would turn +0 into -0 where
    g_ij0 = +0 and g_i,j-1,0 = -0.

    The horizontal terms are taken along the flattened image, as in
    :func:`dh`, so each is one ufunc loop: 0 - g_ij0 for every pixel,
    then the far column zeroed, then g_i,j-1,0 added from the previous
    flat entry.  That also adds g_i-1,n2-1,0 across each row start, so
    column 0 is recomputed as 0 - g_i00.  For n2 = 1 column 0 is the far
    column: it has no horizontal term and stays 0.  As in :func:`dh`, a
    non-finite entry can make numpy warn of a sum across a row start that
    column 0 then recomputes; the result is right.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[2] != 2:
        raise ConfigurationError("gradient field must have shape (n1, n2, 2)")
    _check_positive("mesh width h", h)
    out = out_buffer(out, g.shape[:2], g)
    flat, gx, gy = out.reshape(-1), g.reshape(-1, 2)[:, 0], g[:-1, :, 1]
    np.subtract(0.0, gx, out=flat)
    out[:, -1:] = 0.0
    if g.shape[1] > 1:
        np.add(flat[1:], gx[:-1], out=flat[1:])
        np.subtract(0.0, g[:, :1, 0], out=out[:, :1])
    out[:-1, :] -= gy
    out[1:, :] += gy
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
    """Smoothed discontinuity count: sum of 2s^2/(2s^2 + gamma).

    s runs over the components of z for p = 1 and over the per-pixel
    Euclidean magnitudes for p = inf.  Approaches the number of nonzero
    entries/pixels as gamma -> 0.
    """
    _check_p(p)
    _check_positive("gamma", gamma)
    z = np.asarray(z, dtype=float)
    s2 = rho_pair(*_rows(p, z, z))
    return float(np.sum(2.0 * s2 / (2.0 * s2 + gamma)))


def dual_from_primal(p: float, x: np.ndarray, gamma: float) -> np.ndarray:
    """Dual field maximizing the coupling at a fixed image: 2z/(2|z|^2 + gamma).

    For p = 1 the magnitude is taken per component, for p = inf per
    pixel.  The result satisfies gamma*y = kappa_y(p, dh(x), y).
    """
    _check_p(p)
    _check_positive("gamma", gamma)
    z = dh(x)
    zr = _rows(p, z)[0]
    return (2.0 * zr / (2.0 * rho_pair(zr, zr) + gamma)).reshape(z.shape)


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


# Dual field held as scratch by one gradient call.  The gradients walk
# the image in row blocks of at most this many bytes of field, so that a
# block's D x stays in cache between the kernels applied to it.
_BLOCK_BYTES = 1 << 20


class PottsProblem(SaddleProblem):
    """Saddle-point form of the discontinuity-penalized denoising problem.

    The maps write into ``out`` as :class:`SaddleProblem` describes and
    keep no workspace between calls.  Each gradient walks the image in
    row blocks of at most ``_BLOCK_BYTES`` of field (an image of up to
    65,536 pixels is one block) and builds D x of one block, with its
    halo rows, in a field of its own: the scratch of a call is one
    block's field, not a field of the whole image.  Every entry keeps
    the operand order of the whole-image kernels, so the result has
    their bits for any block size, up to the sign of a NaN met by a NaN
    (numpy's add and multiply loops pick that operand by the entry's
    place in the loop).  A block writes ``out`` while later blocks still
    read x and y, so the gradients' ``out`` shares memory with neither.
    (A field kept on the problem raised the peak RSS of a 1024^2 solve
    by 8%, through heap fragmentation.)
    """

    def __init__(self, config: PottsConfig, noisy: np.ndarray):
        noisy = np.asarray(noisy, dtype=float)
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

    def _blocks(self, halo: int):
        """The rows of a block, and scratch for one block's field with
        ``halo`` extra rows."""
        n1, n2 = self.shape
        rows = max(1, _BLOCK_BYTES // (16 * max(n2, 1)))
        return rows, np.empty((min(rows + halo, n1), n2, 2))

    def grad_x(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        # Rows [a, b) of D^T kappa_z(D x, y) read kappa_z on rows
        # [a - 1, b), which reads x on rows [a - 1, b + 1).  dht writes
        # the halo rows too: row a - 1, already final, is put back, and
        # row b is written again by the next block.
        c, n1 = self.config, self.shape[0]
        out = out_buffer(out, (self.primal_dim,), x, y)
        img, field, res = self._img(x), self._field(y), self._img(out)
        rows, scratch = self._blocks(2)
        for a in range(0, n1, rows):
            lo, hi = max(a - 1, 0), min(a + rows + 1, n1)
            z = dh(img[lo:hi], out=scratch[:hi - lo])
            kappa_z(c.p, z, field[lo:hi], out=z)
            kept = res[lo:a].copy()
            dht(z, out=res[lo:hi])
            res[lo:a] = kept
        return out

    def grad_y(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        # Rows [a, b) of D x read x on rows [a, b + 1).
        c, n1 = self.config, self.shape[0]
        out = out_buffer(out, (self.dual_dim,), x, y)
        img, field, res = self._img(x), self._field(y), self._field(out)
        rows, scratch = self._blocks(1)
        for a in range(0, n1, rows):
            b, hi = min(a + rows, n1), min(a + rows + 1, n1)
            z = dh(img[a:hi], out=scratch[:hi - a])
            kappa_y(c.p, z[:b - a], field[a:b], out=res[a:b])
        return out

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
