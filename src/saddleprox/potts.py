"""Image denoising with a smoothed discontinuity-count penalty.

The primal variable is an image x on an n1 x n2 grid, the dual variable
a two-component field y on the same grid.  The problem is

    min_x max_y  ||x - f||^2 / (2*alpha) + kappa_p(D x, y) - gamma/2 ||y||^2

where D is the forward-difference gradient and the coupling applies
rho(t) = 2t - t^2 either per gradient component (p = 1) or to the
per-pixel inner product of gradient and dual (p = inf).  Maximizing the
dual exactly turns the coupling into the smoothed counting penalty
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

from .core import ConfigurationError, SaddleProblem


def _check_p(p: float) -> None:
    if p != 1 and p != math.inf:
        raise ConfigurationError("penalty flavour p must be 1 or inf, got %r" % (p,))


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # also rejects NaN
        raise ConfigurationError("%s must be positive, got %r" % (name, value))


def _out(out: Optional[np.ndarray], shape: tuple, *inputs: np.ndarray) -> np.ndarray:
    """The result buffer of a kernel: a new array for ``out=None``, else
    ``out`` itself, which must be a C-contiguous float64 array of
    ``shape`` that shares no memory with ``inputs``."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ConfigurationError("out must be a C-contiguous float64 array of shape %s"
                                 % (shape,))
    if any(np.may_share_memory(out, a) for a in inputs):
        raise ConfigurationError("out must not share memory with this operand")
    return out


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
    afterwards.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError("image must be 2-d, got shape %s" % (x.shape,))
    _check_positive("mesh width h", h)
    g = _out(out, x.shape + (2,), x)
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
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[2] != 2:
        raise ConfigurationError("gradient field must have shape (n1, n2, 2)")
    _check_positive("mesh width h", h)
    gx, gy = g[:, :-1, 0], g[:-1, :, 1]
    out = _out(out, g.shape[:2], g)
    np.subtract(0.0, gx, out=out[:, :-1])
    out[:, -1:] = 0.0
    out[:, 1:] += gx
    out[:-1, :] -= gy
    out[1:, :] += gy
    if h != 1.0:
        out /= h
    return out


def _pair(z: np.ndarray, y: np.ndarray):
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    if z.shape != y.shape or z.ndim != 3 or z.shape[2] != 2:
        raise ConfigurationError(
            "gradient/dual fields must share shape (n1, n2, 2); got %s and %s"
            % (z.shape, y.shape)
        )
    return z, y


def _paired(p: float, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Paired products t, keeping the last axis: t = z*y per component
    for p = 1, t = z_ij1*y_ij1 + z_ij2*y_ij2 per pixel for p = inf.

    The p = inf sum is accumulated in the buffer of its first product,
    which keeps the order of the plain two-product sum."""
    if p == 1:
        return z * y
    t = z[..., :1] * y[..., :1]
    t += z[..., 1:] * y[..., 1:]
    return t


def kappa_val(p: float, z: np.ndarray, y: np.ndarray) -> float:
    """Coupling value: sum of rho(t) = 2t - t^2 over the paired entries.

    p = 1 pairs componentwise, t = z_ijk * y_ijk; p = inf pairs per
    pixel, t = z_ij1*y_ij1 + z_ij2*y_ij2.
    """
    _check_p(p)
    z, y = _pair(z, y)
    t = _paired(p, z, y)
    return float(np.sum(2.0 * t - t * t))


def _rho_prime_times(p: float, z: np.ndarray, y: np.ndarray, w: np.ndarray,
                     out: Optional[np.ndarray]) -> np.ndarray:
    """2*(1 - t)*w with t the paired products of z and y, in the order of
    the plain expression.  ``out`` holds products of z and y before w is
    read, so it may be z or y but not w.  For p = inf the per-pixel t is
    one contiguous image and each component of w is multiplied into its
    strided view of ``out``, with no broadcast over the size-2 axis."""
    out = _out(out, z.shape, w)
    if p == 1:
        t = np.multiply(z, y, out=out)
    else:
        t = z[..., :1] * y[..., :1]
        t += np.multiply(z[..., 1:], y[..., 1:], out=out[..., 1:])
    np.subtract(1.0, t, out=t)
    np.multiply(2.0, t, out=t)
    if p == 1:
        return np.multiply(t, w, out=out)
    np.multiply(t, w[..., :1], out=out[..., :1])
    np.multiply(t, w[..., 1:], out=out[..., 1:])
    return out


def kappa_z(p: float, z: np.ndarray, y: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Derivative of :func:`kappa_val` in z: 2*(1 - t)*y with t as there.

    Written into ``out`` if given; ``out`` may be z itself, not y.
    """
    _check_p(p)
    z, y = _pair(z, y)
    return _rho_prime_times(p, z, y, y, out)


def kappa_y(p: float, z: np.ndarray, y: np.ndarray,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Derivative of :func:`kappa_val` in y: 2*(1 - t)*z with t as there.

    Written into ``out`` if given; ``out`` may be y itself, not z.
    """
    _check_p(p)
    z, y = _pair(z, y)
    return _rho_prime_times(p, z, y, z, out)


def huber_value(p: float, z: np.ndarray, gamma: float) -> float:
    """Smoothed discontinuity count: sum of 2s^2/(2s^2 + gamma).

    s runs over the components of z for p = 1 and over the per-pixel
    Euclidean magnitudes for p = inf.  Approaches the number of nonzero
    entries/pixels as gamma -> 0.
    """
    _check_p(p)
    _check_positive("gamma", gamma)
    z = np.asarray(z, dtype=float)
    s2 = _paired(p, z, z)
    return float(np.sum(2.0 * s2 / (2.0 * s2 + gamma)))


def dual_from_primal(p: float, x: np.ndarray, gamma: float,
                     h: float = 1.0) -> np.ndarray:
    """Dual field maximizing the coupling at a fixed image: 2z/(2|z|^2 + gamma).

    For p = 1 the magnitude is taken per component, for p = inf per
    pixel.  The result satisfies gamma*y = kappa_y(p, dh(x), y).
    """
    _check_p(p)
    _check_positive("gamma", gamma)
    z = dh(x, h)
    return 2.0 * z / (2.0 * _paired(p, z, z) + gamma)


@dataclass
class PottsConfig:
    """Denoising problem parameters: data weight alpha, penalty smoothing
    gamma, penalty flavour p (1 or inf), mesh width h."""

    alpha: float
    gamma: float
    p: float
    h: float = 1.0

    def __post_init__(self):
        _check_positive("alpha", self.alpha)
        _check_positive("gamma", self.gamma)
        _check_positive("h", self.h)
        _check_p(self.p)


class PottsProblem(SaddleProblem):
    """Saddle-point form of the discontinuity-penalized denoising problem.

    The maps write into ``out`` as :class:`SaddleProblem` describes and
    keep no workspace between calls: each gradient builds D x in a field
    of its own.  (A field kept on the problem raised the peak RSS of a
    1024^2 solve by 8%, through heap fragmentation.)
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

    def grad_x(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        c = self.config
        out = _out(out, (self.primal_dim,))
        z = dh(self._img(x), c.h)
        kappa_z(c.p, z, self._field(y), out=z)
        dht(z, c.h, out=self._img(out))
        return out

    def grad_y(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        c = self.config
        out = _out(out, (self.dual_dim,))
        kappa_y(c.p, dh(self._img(x), c.h), self._field(y), out=self._field(out))
        return out

    def prox_primal(self, tau: float, v: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        r = tau / self.config.alpha
        out = _out(out, (self.primal_dim,), v)  # r * noisy goes in before v is read
        np.multiply(r, self.noisy.ravel(), out=out)
        np.add(v, out, out=out)
        out /= 1.0 + r
        return out

    def prox_dual(self, sigma: float, w: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.divide(w, 1.0 + self.config.gamma * sigma,
                         out=_out(out, (self.dual_dim,)))

    def value(self, x: np.ndarray, y: np.ndarray) -> float:
        c = self.config
        return kappa_val(c.p, dh(self._img(x), c.h), self._field(y))

    def primal_objective(self, x: np.ndarray) -> float:
        c = self.config
        img = self._img(x)
        data = float(np.sum((img - self.noisy) ** 2)) / (2.0 * c.alpha)
        return data + huber_value(c.p, dh(img, c.h), c.gamma)

    def dual_from_primal(self, x: np.ndarray) -> np.ndarray:
        c = self.config
        return dual_from_primal(c.p, self._img(x), c.gamma, c.h).ravel()


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
    if n1 < 1 or n2 < 1:
        raise ConfigurationError("image dimensions n1, n2 must be positive, got %d, %d"
                                 % (n1, n2))
    if n_shapes < 0 or not noise_sigma >= 0:
        raise ConfigurationError("n_shapes and noise_sigma must be >= 0")
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
