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

import numpy as np

from .core import ConfigurationError, SaddleProblem


def _check_p(p: float) -> None:
    if p != 1 and p != math.inf:
        raise ConfigurationError("penalty flavour p must be 1 or inf, got %r" % (p,))


def dh(x: np.ndarray, h: float = 1.0) -> np.ndarray:
    """Forward-difference gradient with zero rows/columns at the far edge.

    [dh x]_{ij0} = (x[i, j+1] - x[i, j]) / h for j < n2-1, else 0;
    [dh x]_{ij1} = (x[i+1, j] - x[i, j]) / h for i < n1-1, else 0.

    Fills one result buffer in place, with the same subtraction and
    division per entry as the plain expression, so the result is
    bit-identical to it.  The horizontal differences are taken along the
    flattened image, which also writes a difference across each row end
    into the far-edge column; that column is zeroed afterwards.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ConfigurationError("image must be 2-d, got shape %s" % (x.shape,))
    if h <= 0:
        raise ConfigurationError("mesh width h must be positive")
    g = np.empty(x.shape + (2,))
    flat = x.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=g.reshape(-1, 2)[:-1, 0])
    np.subtract(x[1:, :], x[:-1, :], out=g[:-1, :, 1])
    if h != 1.0:  # x / 1.0 is exact
        g /= h
    g[:, -1:, 0] = 0.0  # -1: rather than -1 keeps empty images working
    g[-1:, :, 1] = 0.0
    return g


def dht(g: np.ndarray, h: float = 1.0) -> np.ndarray:
    """Adjoint of :func:`dh` (negative discrete divergence).

    Fills one result buffer in place and keeps the summation order of
    accumulating into zeros: per pixel ((((0 - g_ij0) + g_i,j-1,0)
    - g_ij1) + g_i-1,j,1) / h, terms past an edge left out.  The result
    is therefore bit-identical to that form, signed zeros included;
    the shorter g_i,j-1,0 - g_ij0 would turn +0 into -0 where
    g_ij0 = +0 and g_i,j-1,0 = -0.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 3 or g.shape[2] != 2:
        raise ConfigurationError("gradient field must have shape (n1, n2, 2)")
    if h <= 0:
        raise ConfigurationError("mesh width h must be positive")
    gx, gy = g[:, :-1, 0], g[:-1, :, 1]
    out = np.empty(g.shape[:2])
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
    for p = 1, t = z_ij1*y_ij1 + z_ij2*y_ij2 per pixel for p = inf."""
    if p == 1:
        return z * y
    return z[..., :1] * y[..., :1] + z[..., 1:] * y[..., 1:]


def kappa_val(p: float, z: np.ndarray, y: np.ndarray) -> float:
    """Coupling value: sum of rho(t) = 2t - t^2 over the paired entries.

    p = 1 pairs componentwise, t = z_ijk * y_ijk; p = inf pairs per
    pixel, t = z_ij1*y_ij1 + z_ij2*y_ij2.
    """
    _check_p(p)
    z, y = _pair(z, y)
    t = _paired(p, z, y)
    return float(np.sum(2.0 * t - t * t))


# dh, dht, kappa_z and prox_primal fill one buffer each.  Three further
# in-place edits were tried and left out because they raised the peak RSS
# of a 1024^2 solve by 4-13% through heap fragmentation, not a larger live
# set: kappa_y in place, the update arithmetic of core.step in place, and
# kappa_z computed inside the buffer of dh in grad_x (no faster either).
def kappa_z(p: float, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of :func:`kappa_val` in z: 2*(1 - t)*y with t as there.

    Computed in the buffer of t, in the order of the plain expression.
    """
    _check_p(p)
    z, y = _pair(z, y)
    t = _paired(p, z, y)
    np.subtract(1.0, t, out=t)
    np.multiply(2.0, t, out=t)
    if p == 1:
        t *= y
        return t
    return t * y  # t has shape (..., 1) here


def kappa_y(p: float, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Derivative of :func:`kappa_val` in y: 2*(1 - t)*z with t as there."""
    _check_p(p)
    z, y = _pair(z, y)
    return 2.0 * (1.0 - _paired(p, z, y)) * z


def huber_value(p: float, z: np.ndarray, gamma: float) -> float:
    """Smoothed discontinuity count: sum of 2s^2/(2s^2 + gamma).

    s runs over the components of z for p = 1 and over the per-pixel
    Euclidean magnitudes for p = inf.  Approaches the number of nonzero
    entries/pixels as gamma -> 0.
    """
    _check_p(p)
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
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
    if gamma <= 0:
        raise ConfigurationError("gamma must be positive")
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
        if self.alpha <= 0:
            raise ConfigurationError("alpha must be positive")
        if self.gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        if self.h <= 0:
            raise ConfigurationError("h must be positive")
        _check_p(self.p)


class PottsProblem(SaddleProblem):
    """Saddle-point form of the discontinuity-penalized denoising problem."""

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

    def grad_x(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c = self.config
        z = dh(self._img(x), c.h)
        return dht(kappa_z(c.p, z, self._field(y)), c.h).ravel()

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        c = self.config
        z = dh(self._img(x), c.h)
        return kappa_y(c.p, z, self._field(y)).ravel()

    def prox_primal(self, tau: float, v: np.ndarray) -> np.ndarray:
        r = tau / self.config.alpha
        out = r * self.noisy.ravel()
        np.add(v, out, out=out)
        out /= 1.0 + r
        return out

    def prox_dual(self, sigma: float, w: np.ndarray) -> np.ndarray:
        return w / (1.0 + self.config.gamma * sigma)

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
