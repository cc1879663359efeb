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
from typing import Optional

import numpy as np

from .core import ConfigurationError, SaddleProblem, is_int, out_buffer

# The box [a, b] that holds each control on its player's half, and the
# cost alpha_1 = alpha_2 of a control.
CONTROL_BOX = (-0.5, 0.5)
CONTROL_COST = 1.0


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a uniform grid on the unit square: n x n points,
    mesh width h = 1/(n+1), coordinates (i*h, j*h) for i, j = 1..n."""

    n: int

    def __post_init__(self):
        if not is_int(self.n) or self.n < 2:
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


def _on_grid(grid: Grid, w: np.ndarray, name: str) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (grid.n, grid.n):
        raise ConfigurationError(
            "%s shape %s does not match grid n=%d" % (name, w.shape, grid.n)
        )
    return w


def sine_transform(w: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Orthonormal 2-D DST-I of ``w``, which is its own inverse.

    It diagonalizes the 5-point Dirichlet Laplacian: the coefficients of
    A w are those of w times :func:`_laplacian_eigenvalues`.  With
    ``overwrite`` the transform may reuse the memory of ``w``.
    """
    from scipy.fft import dstn  # here, so importing the package skips scipy
    return dstn(w, type=1, norm="ortho", overwrite_x=overwrite)


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs with the 5-point Dirichlet Laplacian A on ``grid``:
    the solve of :class:`PoissonSolver` between two sine transforms.
    """
    rhs = _on_grid(grid, rhs, "rhs")
    return sine_transform(PoissonSolver(grid).solve(sine_transform(rhs)), overwrite=True)


class PoissonSolver:
    """Counted Poisson solves on a fixed grid, in sine coefficients:
    ``solve`` divides the coefficients of a right-hand side by the
    Laplacian's eigenvalues, which are cached per grid size."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.count = 0

    def solve(self, rhs_hat: np.ndarray) -> np.ndarray:
        rhs_hat = _on_grid(self.grid, rhs_hat, "rhs")
        self.count += 1
        return rhs_hat / _laplacian_eigenvalues(self.grid.n)


def apply_laplacian(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Apply the 5-point Dirichlet Laplacian (zero outside the grid)."""
    w = _on_grid(grid, w, "field")
    out = 4.0 * w
    out[:-1, :] -= w[1:, :]
    out[1:, :] -= w[:-1, :]
    out[:, :-1] -= w[:, 1:]
    out[:, 1:] -= w[:, :-1]
    out /= grid.h**2
    return out


def half_masks(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Player subdomains: second coordinate below 1/2 for player 1, above
    for player 2.  Nodes exactly on the dividing line belong to neither."""
    _, yy = grid.coords()
    return yy < 0.5, yy > 0.5


def _out(out: Optional[np.ndarray], dim: int, *inputs: np.ndarray) -> np.ndarray:
    """``out_buffer`` against the ``inputs`` that are not ``out`` itself."""
    return out_buffer(out, (dim,), *(a for a in inputs if a is not out))


def proj_box(u: np.ndarray, mask: np.ndarray, a: float, b: float) -> np.ndarray:
    """Clamp to [a, b] on the mask, zero elsewhere."""
    return np.where(mask, np.clip(u, a, b), 0.0)


@dataclass
class NashConfig:
    """Problem data for the two-player control game.  The control box and
    the control costs are the module's ``CONTROL_BOX`` and ``CONTROL_COST``."""

    grid: Grid
    mask1: np.ndarray
    mask2: np.ndarray
    z1: np.ndarray
    z2: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        n = self.grid.n
        for name in ("mask1", "mask2", "z1", "z2", "f"):
            arr = getattr(self, name)
            if arr.shape != (n, n):
                raise ConfigurationError("%s has shape %s, expected (%d, %d)"
                                         % (name, arr.shape, n, n))


class NashProblem(SaddleProblem):
    """Saddle formulation of the control game for the iteration engine.

    Primal x stacks (u1, u2), dual y stacks (v1, v2), each flattened from
    (n, n).  ``pde_solves`` counts Poisson solves across all gradient
    evaluations.  The coupling gradients keep the states in sine
    coefficients (the adjoint right-hand sides are linear in them), so
    an iteration makes nine solves with nine transforms.  Each map reads
    all of its inputs before it writes the halves of ``out``, so ``out``
    may be an input itself; otherwise it must pass ``out_buffer``
    against the inputs.
    """

    def __init__(self, config: NashConfig):
        self.config = config
        self.solver = PoissonSolver(config.grid)
        n2 = config.grid.n**2
        self.primal_dim = 2 * n2
        self.dual_dim = 2 * n2
        self._z1_hat = sine_transform(config.z1)
        self._z2_hat = sine_transform(config.z2)
        self._off1 = ~config.mask1
        self._off2 = ~config.mask2

    @property
    def pde_solves(self) -> int:
        return self.solver.count

    def _split(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.config.grid.n
        return x[: n * n].reshape(n, n), x[n * n :].reshape(n, n)

    def _state_hat(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Sine coefficients of s(u1, u2); one solve."""
        c = self.config
        rhs = np.where(c.mask1, u1, 0.0)
        rhs += np.where(c.mask2, u2, 0.0)
        rhs += c.f
        return self.solver.solve(sine_transform(rhs, overwrite=True))

    def _adjoint(self, rhs_hat: np.ndarray) -> np.ndarray:
        """A^{-1} of the field with sine coefficients ``rhs_hat``; one solve."""
        return sine_transform(self.solver.solve(rhs_hat), overwrite=True)

    def _write_half(self, half: np.ndarray, k: int, adjoint: np.ndarray,
                    combine: np.ufunc, ctrl: np.ndarray) -> None:
        """half = combine(adjoint, alpha_k * ctrl) on player k's mask, +0 off
        it: the bits of ``np.where``, where a float mask would leave -0."""
        c = self.config
        mask, off = (c.mask1, self._off1) if k == 1 else (c.mask2, self._off2)
        np.multiply(ctrl, CONTROL_COST, out=half, where=mask)
        combine(adjoint, half, out=half, where=mask)
        np.copyto(half, 0.0, where=off)

    def state(self, u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        """Shared PDE state s(u1, u2) = A^{-1}(B1 u1 + B2 u2 + f)."""
        return sine_transform(self._state_hat(u1, u2), overwrite=True)

    def payout(self, k: int, u1: np.ndarray, u2: np.ndarray) -> float:
        """Player k's cost at the control pair (u1, u2); h^2-weighted."""
        if k not in (1, 2):
            raise ConfigurationError("player index must be 1 or 2")
        return self._payout(k, self.state(u1, u2), u1 if k == 1 else u2)

    def _payout(self, k: int, s: np.ndarray, u: np.ndarray) -> float:
        """Player k's cost with state ``s`` and own control ``u``."""
        c = self.config
        z, mask = (c.z1, c.mask1) if k == 1 else (c.z2, c.mask2)
        track = s - z
        ctrl = CONTROL_COST * np.sum(np.where(mask, u, 0.0) ** 2)
        return 0.5 * c.grid.h**2 * (float(np.sum(track**2)) + float(ctrl))

    def psi(self, x: np.ndarray, y: np.ndarray) -> float:
        """Regularized-gap coupling: four payouts on three states, since
        both players' first payout is at s(u1, u2)."""
        u1, u2 = self._split(x)
        v1, v2 = self._split(y)
        s_uu = self.state(u1, u2)
        return (
            self._payout(1, s_uu, u1)
            - self.payout(1, v1, u2)
            + self._payout(2, s_uu, u2)
            - self.payout(2, u1, v2)
        )

    value = psi

    def grad_x(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Primal coupling gradient; five Poisson solves, s(u1, u2) shared,
        three forward and two inverse transforms."""
        out = _out(out, self.primal_dim, x, y)
        u1, u2 = self._split(x)
        v1, v2 = self._split(y)
        two_s_uu = 2.0 * self._state_hat(u1, u2)
        r1 = two_s_uu - self._state_hat(u1, v2)
        r1 -= self._z1_hat
        r2 = two_s_uu - self._state_hat(v1, u2)
        r2 -= self._z2_hat
        p1, p2 = self._adjoint(r1), self._adjoint(r2)
        g1, g2 = self._split(out)
        self._write_half(g1, 1, p1, np.add, u1)
        self._write_half(g2, 2, p2, np.add, u2)
        return out

    def grad_y(self, x: np.ndarray, y: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """Dual coupling gradient; four Poisson solves, two forward and
        two inverse transforms."""
        out = _out(out, self.dual_dim, x, y)
        u1, u2 = self._split(x)
        v1, v2 = self._split(y)
        q1 = self._adjoint(self._z1_hat - self._state_hat(v1, u2))
        q2 = self._adjoint(self._z2_hat - self._state_hat(u1, v2))
        g1, g2 = self._split(out)
        self._write_half(g1, 1, q1, np.subtract, v1)
        self._write_half(g2, 2, q2, np.subtract, v2)
        return out

    def prox_primal(self, tau: float, v: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
        """Clamp to ``CONTROL_BOX`` on each player's mask, +0 off it
        (``proj_box``)."""
        out = _out(out, self.primal_dim, v)
        for u, half, off in zip(self._split(v), self._split(out), (self._off1, self._off2)):
            np.clip(u, *CONTROL_BOX, out=half)
            np.copyto(half, 0.0, where=off)
        return out

    prox_dual = prox_primal

    def inner_primal(self, v: np.ndarray, w: np.ndarray) -> float:
        return self.config.grid.h**2 * float(np.dot(v, w))

    inner_dual = inner_primal


def manufacture(n: int) -> tuple[NashConfig, np.ndarray, np.ndarray]:
    """Build problem data with a known equilibrium.

    Samples the control profiles and the target state on the grid,

        w1 = 0.4 sin(pi x) sin(2 pi y),   w2 = 0.4 sin(2 pi x) sin(pi y),
        ys = sin(pi x) sin(pi y),

    all vanishing on the boundary, sets the equilibrium controls
    u*_k = mask_k(w_k) and the adjoint fields p_k = -alpha_k * w_k, then
    chooses the source f = A ys - B1 u*_1 - B2 u*_2 and the targets
    z_k = ys - A p_k so that both coupling gradients vanish at
    (u*, u*).  Returns (config, x_star, y_star) with x_star = y_star the
    stacked equilibrium pair.  The costs alpha_k are ``CONTROL_COST``;
    since max |w_k| <= 0.4 = 0.8 * min(|a|, b) for the box [a, b] =
    ``CONTROL_BOX``, the box constraints stay inactive at the equilibrium.
    """
    grid = Grid(n)
    xx, yy = grid.coords()
    w1 = 0.4 * np.sin(np.pi * xx) * np.sin(2.0 * np.pi * yy)
    w2 = 0.4 * np.sin(2.0 * np.pi * xx) * np.sin(np.pi * yy)
    ys = np.sin(np.pi * xx) * np.sin(np.pi * yy)

    mask1, mask2 = half_masks(grid)
    u1 = np.where(mask1, w1, 0.0)
    u2 = np.where(mask2, w2, 0.0)
    p1 = -CONTROL_COST * w1
    p2 = -CONTROL_COST * w2

    f = apply_laplacian(grid, ys) - u1 - u2
    z1 = ys - apply_laplacian(grid, p1)
    z2 = ys - apply_laplacian(grid, p2)

    config = NashConfig(grid=grid, mask1=mask1, mask2=mask2, z1=z1, z2=z2, f=f)
    x_star = np.concatenate([u1.ravel(), u2.ravel()])
    return config, x_star, x_star.copy()
