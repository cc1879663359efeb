"""Two-player Nash equilibrium for distributed elliptic control.

Each player k steers the shared state s = A^{-1}(B1 u1 + B2 u2 + f),
where A is the 5-point Dirichlet Laplacian on the unit square and B_k
restricts player k's control to its subdomain (lower half for player 1,
upper half for player 2), toward a private target z_k at quadratic
control cost:

    payout_k(u1, u2) = 1/2 ||s(u1, u2) - z_k||^2 + alpha_k/2 ||B_k u_k||^2.

Equilibria are computed through the saddle-point formulation with the
regularized gap coupling

    psi(u, v) = payout_1(u1, u2) - payout_1(v1, u2)
              + payout_2(u1, u2) - payout_2(u1, v2),

whose gradients cost nine Poisson solves per iteration (five for the
primal side, four for the dual side).  All inner products carry the h^2
quadrature weight, and the coupling gradients are returned as their
mesh-function representers, so iteration counts are mesh independent.

Controls and fields live on the n x n interior grid (h = 1/(n+1)) and
are stored full-grid; off-mask control entries are structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import ConfigurationError, SaddleProblem, out_buffer


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform grid on the unit square: n x n points,
    mesh width h = 1/(n+1), coordinates (i*h, j*h) for i, j = 1..n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ConfigurationError("grid needs an integer n >= 2, got %r" % (self.n,))

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        t = np.arange(1, self.n + 1) * self.h
        return np.meshgrid(t, t, indexing="ij")


@lru_cache(maxsize=8)
def _laplacian_eigenvalues(n: int) -> np.ndarray:
    h = 1.0 / (n + 1)
    lam = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) * h)) / h**2
    return lam[:, None] + lam[None, :]


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs with the 5-point Dirichlet Laplacian A on ``grid``.

    The spectral data is cached per grid size, so repeated solves on the
    same grid reuse it.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (grid.n, grid.n):
        raise ConfigurationError(
            "rhs shape %s does not match grid n=%d" % (rhs.shape, grid.n)
        )
    from scipy.fft import dstn, idstn  # here, so importing the package skips scipy
    lam = _laplacian_eigenvalues(grid.n)
    return idstn(dstn(rhs, type=1, norm="ortho") / lam, type=1, norm="ortho")


class PoissonSolver:
    """:func:`poisson_solve` on a fixed grid that counts its solves."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.count = 0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        self.count += 1
        return poisson_solve(self.grid, rhs)


def apply_laplacian(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Apply the 5-point Dirichlet Laplacian (zero outside the grid)."""
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n, grid.n):
        raise ConfigurationError("field shape does not match grid")
    out = 4.0 * w.copy()
    out[:-1, :] -= w[1:, :]
    out[1:, :] -= w[:-1, :]
    out[:, :-1] -= w[:, 1:]
    out[:, 1:] -= w[:, :-1]
    return out / grid.h**2


def half_masks(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Player subdomains: second coordinate below 1/2 for player 1, above
    for player 2.  Nodes exactly on the dividing line belong to neither."""
    _, yy = grid.coords()
    return yy < 0.5, yy > 0.5


def proj_box(u: np.ndarray, mask: np.ndarray, a: float, b: float) -> np.ndarray:
    """Clamp to [a, b] on the mask, zero elsewhere."""
    return np.where(mask, np.clip(u, a, b), 0.0)


@dataclass
class NashConfig:
    """Problem data for the two-player control game."""

    grid: Grid
    mask1: np.ndarray
    mask2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    f: np.ndarray
    a: float = -0.5
    b: float = 0.5
    alpha1: float = 1.0
    alpha2: float = 1.0

    def __post_init__(self):
        n = self.grid.n
        for name in ("mask1", "mask2", "z1", "z2", "f"):
            arr = getattr(self, name)
            if arr.shape != (n, n):
                raise ConfigurationError("%s has shape %s, expected (%d, %d)"
                                         % (name, arr.shape, n, n))
        if not (self.a < 0 < self.b):
            raise ConfigurationError("control box must contain 0: a < 0 < b")
        if not (self.alpha1 > 0 and self.alpha2 > 0):  # also rejects NaN
            raise ConfigurationError("control costs alpha_k must be positive")


class NashProblem(SaddleProblem):
    """Saddle formulation of the control game for the iteration engine.

    Primal x stacks (u1, u2), dual y stacks (v1, v2), each flattened from
    (n, n).  ``pde_solves`` counts Poisson solves across all gradient
    evaluations.  The maps compute both halves, then concatenate them into
    ``out`` (``out_buffer``, no operands), so ``out`` may be the input itself.
    """

    def __init__(self, config: NashConfig):
        self.config = config
        self.solver = PoissonSolver(config.grid)
        n2 = config.grid.n**2
        self.primal_dim = 2 * n2
        self.dual_dim = 2 * n2

    @property
    def pde_solves(self) -> int:
        return self.solver.count

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.config.grid.n
        return x[: n * n].reshape(n, n), x[n * n :].reshape(n, n)

    def state(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Shared PDE state s(u1, u2) = A^{-1}(B1 u1 + B2 u2 + f)."""
        c = self.config
        rhs = np.where(c.mask1, u1, 0.0) + np.where(c.mask2, u2, 0.0) + c.f
        return self.solver.solve(rhs)

    def payout(self, k: int, u1: np.ndarray, u2: np.ndarray) -> float:
        """Player k's cost at the control pair (u1, u2); h^2-weighted."""
        c = self.config
        s = self.state(u1, u2)
        if k == 1:
            track = s - c.z1
            ctrl = c.alpha1 * np.sum(np.where(c.mask1, u1, 0.0) ** 2)
        elif k == 2:
            track = s - c.z2
            ctrl = c.alpha2 * np.sum(np.where(c.mask2, u2, 0.0) ** 2)
        else:
            raise ConfigurationError("player index must be 1 or 2")
        return 0.5 * c.grid.h**2 * (float(np.sum(track**2)) + float(ctrl))

    def psi(self, x: np.ndarray, y: np.ndarray) -> float:
        """Regularized-gap coupling via four payout evaluations."""
        u1, u2 = self._split(x)
        v1, v2 = self._split(y)
        return (
            self.payout(1, u1, u2)
            - self.payout(1, v1, u2)
            + self.payout(2, u1, u2)
            - self.payout(2, u1, v2)
        )

    value = psi

    def grad_x(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Primal coupling gradient; five Poisson solves, s(u1, u2) shared."""
        c = self.config
        out = out_buffer(out, (self.primal_dim,))
        u1, u2 = self._split(x)
        v1, v2 = self._split(y)
        s_uu = self.state(u1, u2)
        s_uv = self.state(u1, v2)
        s_vu = self.state(v1, u2)
        p1 = self.solver.solve(2.0 * s_uu - s_uv - c.z1)
        p2 = self.solver.solve(2.0 * s_uu - s_vu - c.z2)
        g1 = np.where(c.mask1, p1, 0.0) + c.alpha1 * np.where(c.mask1, u1, 0.0)
        g2 = np.where(c.mask2, p2, 0.0) + c.alpha2 * np.where(c.mask2, u2, 0.0)
        return np.concatenate([g1.ravel(), g2.ravel()], out=out)

    def grad_y(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dual coupling gradient; four Poisson solves."""
        c = self.config
        out = out_buffer(out, (self.dual_dim,))
        u1, u2 = self._split(x)
        v1, v2 = self._split(y)
        q1 = self.solver.solve(c.z1 - self.state(v1, u2))
        q2 = self.solver.solve(c.z2 - self.state(u1, v2))
        g1 = np.where(c.mask1, q1, 0.0) - c.alpha1 * np.where(c.mask1, v1, 0.0)
        g2 = np.where(c.mask2, q2, 0.0) - c.alpha2 * np.where(c.mask2, v2, 0.0)
        return np.concatenate([g1.ravel(), g2.ravel()], out=out)

    def prox_primal(self, tau: float, v: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        c = self.config
        out = out_buffer(out, (self.primal_dim,))
        u1, u2 = self._split(v)
        return np.concatenate([
            proj_box(u1, c.mask1, c.a, c.b).ravel(),
            proj_box(u2, c.mask2, c.a, c.b).ravel(),
        ], out=out)

    prox_dual = prox_primal

    def inner_primal(self, v: np.ndarray, w: np.ndarray) -> float:
        return self.config.grid.h**2 * float(np.dot(v, w))

    inner_dual = inner_primal


@dataclass(frozen=True)
class Profile:
    """Smooth shape functions on the unit square for manufactured data:
    per-player control profiles w1, w2 and the target state ys, all
    vanishing on the boundary."""

    w1: Callable[[np.ndarray, np.ndarray], np.ndarray]
    w2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ys: Callable[[np.ndarray, np.ndarray], np.ndarray]


def default_profile() -> Profile:
    return Profile(
        w1=lambda x, y: 0.4 * np.sin(np.pi * x) * np.sin(2.0 * np.pi * y),
        w2=lambda x, y: 0.4 * np.sin(2.0 * np.pi * x) * np.sin(np.pi * y),
        ys=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )


def manufacture(
    n: int,
    profile: Optional[Profile] = None,
    a: float = -0.5,
    b: float = 0.5,
    alpha1: float = 1.0,
    alpha2: float = 1.0,
) -> tuple[NashConfig, np.ndarray, np.ndarray]:
    """Build problem data with a known equilibrium.

    Samples the profile on the grid, sets the equilibrium controls
    u*_k = mask_k(w_k) and the adjoint fields p_k = -alpha_k * w_k, then
    chooses the source f = A ys - B1 u*_1 - B2 u*_2 and the targets
    z_k = ys - A p_k so that both coupling gradients vanish at
    (u*, u*).  Returns (config, x_star, y_star) with x_star = y_star the
    stacked equilibrium pair.

    The profile must keep max |w_k| <= 0.8 * min(|a|, b) so the box
    constraints stay inactive at the equilibrium.
    """
    grid = Grid(n)
    if profile is None:
        profile = default_profile()
    xx, yy = grid.coords()
    w1 = np.asarray(profile.w1(xx, yy), dtype=float)
    w2 = np.asarray(profile.w2(xx, yy), dtype=float)
    ys = np.asarray(profile.ys(xx, yy), dtype=float)

    cap = 0.8 * min(abs(a), b)
    worst = max(float(np.max(np.abs(w1))), float(np.max(np.abs(w2))))
    if worst > cap:
        raise ConfigurationError(
            "profile max |w| = %g exceeds interiority cap 0.8*min(|a|,b) = %g"
            % (worst, cap)
        )

    mask1, mask2 = half_masks(grid)
    u1 = np.where(mask1, w1, 0.0)
    u2 = np.where(mask2, w2, 0.0)
    p1 = -alpha1 * w1
    p2 = -alpha2 * w2

    f = apply_laplacian(grid, ys) - u1 - u2
    z1 = ys - apply_laplacian(grid, p1)
    z2 = ys - apply_laplacian(grid, p2)

    config = NashConfig(grid=grid, mask1=mask1, mask2=mask2, z1=z1, z2=z2,
                        f=f, a=a, b=b, alpha1=alpha1, alpha2=alpha2)
    x_star = np.concatenate([u1.ravel(), u2.ravel()])
    return config, x_star, x_star.copy()
