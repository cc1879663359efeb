"""Plain-numpy transcription of the Potts denoising iteration.

Written from the problem statement, independently of ``saddleprox.potts``
and ``saddleprox.core``, so that the benchmark can check the package's
iterates and logged values against it:

    x+ = (x - tau * D^T kappa_z(D x, y) + (tau/alpha) f) / (1 + tau/alpha)
    xb = x+ + omega * (x+ - x)
    y+ = (y + sigma * kappa_y(D xb, y)) / (1 + gamma * sigma)

D is the forward-difference gradient (unit mesh) with zero differences
past the last row and column; kappa(z, y) sums rho(t) = 2t - t^2 with
t = z*y per component (p = 1) or t = <z, y> per pixel (p = inf).
"""

from __future__ import annotations

import math

import numpy as np


def grad(u):
    """Forward differences along columns (component 0) and rows (component 1)."""
    return np.stack([np.diff(u, axis=1, append=u[:, -1:]),
                     np.diff(u, axis=0, append=u[-1:, :])], axis=-1)


def grad_adjoint(g):
    """Transpose of :func:`grad`: minus the backward-difference divergence."""
    gx = g[..., 0].copy()
    gy = g[..., 1].copy()
    gx[:, -1] = 0.0
    gy[-1, :] = 0.0
    return -(np.diff(gx, axis=1, prepend=0.0) + np.diff(gy, axis=0, prepend=0.0))


def _weight(p, z, y):
    """The factor 2(1 - t), broadcast against the field shape."""
    if p == 1:
        return 2.0 * (1.0 - z * y)
    return 2.0 * (1.0 - np.sum(z * y, axis=-1, keepdims=True))


def objective(p, alpha, gamma, f, x):
    """||x - f||^2 / (2 alpha) + sum 2 s^2 / (2 s^2 + gamma)."""
    z = grad(x)
    s2 = z * z if p == 1 else np.sum(z * z, axis=-1)
    return np.sum((x - f) ** 2) / (2.0 * alpha) + np.sum(2.0 * s2 / (2.0 * s2 + gamma))


def iterate(p, alpha, gamma, f, tau, sigma, omega, iters):
    """Yield (x, y) after each of ``iters`` iterations from (f, 0)."""
    if p != 1 and p != math.inf:
        raise ValueError("p must be 1 or inf")
    r = tau / alpha
    x = f.copy()
    y = np.zeros(f.shape + (2,))
    for _ in range(iters):
        x_new = (x - tau * grad_adjoint(_weight(p, grad(x), y) * y) + r * f) / (1.0 + r)
        x_bar = x_new + omega * (x_new - x)
        z_bar = grad(x_bar)
        y = (y + sigma * _weight(p, z_bar, y) * z_bar) / (1.0 + gamma * sigma)
        x = x_new
        yield x, y
