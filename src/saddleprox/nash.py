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
primal side, four for the dual side).  A solve is a division in sine
coefficients, so the cost of an iteration is its sine transforms.  All
inner products carry the h^2 quadrature weight, and the coupling
gradients are returned as their mesh-function representers, so
iteration counts are mesh independent.

Controls and fields live on the n x n interior grid (h = 1/(n+1)) and
are stored full-grid; off-mask control entries are structurally zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .core import (ConfigurationError, DivergenceError, SaddleProblem, check_partner, is_int,
                   out_buffer)

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


def _span_transform(w: np.ndarray, cols: slice, inverse: bool) -> None:
    """The orthonormal 2-D DST-I of the (n, n) array ``w``, in place, as
    two one-axis passes of which the column pass (axis 0) runs on the
    columns ``cols`` only.  Forward, ``w`` must be zero outside ``cols``,
    whose column passes would give zeros.  Inverse, only ``cols`` of the
    result are the field's; the other columns hold the row pass alone.
    An empty ``cols`` leaves ``w`` as it is: zero forward, unread inverse.
    """
    from scipy.fft import dst

    if cols.start == cols.stop:
        return
    passes = [(w[:, cols], 0), (w, 1)]
    for part, axis in reversed(passes) if inverse else passes:
        dst(part, type=1, axis=axis, norm="ortho", overwrite_x=True)


def _column_span(mask: np.ndarray) -> slice:
    """The columns from the first to the last that hold a ``mask`` entry."""
    cols = np.flatnonzero(mask.any(axis=0))
    return slice(cols[0], cols[-1] + 1) if cols.size else slice(0, 0)


def poisson_solve(grid: Grid, rhs: np.ndarray) -> np.ndarray:
    """Solve A w = rhs with the 5-point Dirichlet Laplacian A on ``grid``:
    the solve of :class:`PoissonSolver` between two sine transforms.
    """
    rhs_hat = sine_transform(_on_grid(grid, rhs, "rhs"))
    return sine_transform(PoissonSolver(grid).solve(rhs_hat, out=rhs_hat), overwrite=True)


class PoissonSolver:
    """Counted Poisson solves on a fixed grid, in sine coefficients:
    ``solve`` divides the coefficients of a right-hand side by the
    Laplacian's eigenvalues, which are cached per grid size."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.count = 0

    def solve(self, rhs_hat: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The coefficients of A^{-1} of the field with coefficients
        ``rhs_hat``, in a new array for ``out=None``, else in ``out``: a
        buffer that :func:`out_buffer` accepts, or ``rhs_hat`` itself."""
        rhs = _on_grid(self.grid, rhs_hat, "rhs")
        if out is not None:
            out = out_buffer(out, rhs.shape, *(() if out is rhs_hat else (rhs,)))
        self.count += 1
        return np.divide(rhs, _laplacian_eigenvalues(self.grid.n), out=out)


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
            if name.startswith("mask") and arr.dtype != bool:
                raise ConfigurationError("%s must be boolean, got %s" % (name, arr.dtype))


class _SineCoefficients:
    """The n x n buffers that a pair of Nash step plans share.

    ``u[side]`` holds the sine coefficients of the two masked controls of
    the plan on that side's input x, and is its scratch once they are
    used; ``u[1 - side]`` takes the coefficients of its new x, which are
    the partner's input; each plan's new y holds those of its masked
    duals.  ``last`` is (side, call number) of the planned call that
    wrote ``u``, or None.
    """

    def __init__(self, n: int):
        # Four arrays, not one block of four, which kept 1 MB more peak RSS
        # in a stream of nash-mesh jobs: it changes glibc's heap reuse.
        self.u = [[np.empty((n, n)) for _ in range(2)] for _ in range(2)]
        self.last: Optional[tuple[int, int]] = None


class _SinePlan:
    """NashProblem's step plan: a whole iteration in sine coefficients,
    from the arrays of ``state`` into those of ``out``.

    It makes the nine solves of the two gradients and eight span
    transforms (:func:`_span_transform`): y and x+ come out of the grid,
    and the coefficients of the masked x_bar follow from those of x+ and
    x by linearity; the two adjoints of each gradient go back to the grid
    on their player's column span.  A call that does not take its
    partner's coefficients of x first transforms x, two more.  The grid
    x_bar is never formed, and ``out.x_bar`` is not touched: the tau
    update runs in the new x, and the coefficients of the masked y in
    the new y, whose halves the dual gradient reads before it writes
    them.  A plan with a ``partner`` shares its
    :class:`_SineCoefficients` and takes the other side, so every plan
    of a side runs the same way between the same arrays, and a call
    takes carried coefficients only if the problem's previous planned
    call was by a plan of the other side, which wrote its x.
    """

    def __init__(self, problem: "NashProblem", state, out, partner: Optional["_SinePlan"]):
        x, y = (np.ascontiguousarray(v, dtype=float) for v in (state.x, state.y))
        self.arrays = x, y, out.x, out.x_bar, out.y
        self.problem = problem
        if partner is None:
            self.coef, self.side = _SineCoefficients(problem.config.grid.n), 0
        else:
            check_partner(problem, partner, state, out)
            self.coef, self.side = partner.coef, 1 - partner.side
        c = problem.config
        self.cols = _column_span(c.mask1), _column_span(c.mask2)
        self.halves = [problem._split(a) for a in (x, y, out.x, out.y)]
        # isfinite masks of x+ and y+, in the bytes of a buffer that is free by then
        self.x_finite = self.coef.u[1 - self.side][0].reshape(-1).view(bool)[:x.size]
        self.y_finite = self.coef.u[self.side][0].reshape(-1).view(bool)[:y.size]

    def _transform(self, dest: np.ndarray, k: int, field: np.ndarray) -> None:
        """dest = coefficients of player k's masked half ``field``."""
        np.copyto(dest, field)
        np.copyto(dest, 0.0, where=self.problem._offs[k])
        _span_transform(dest, self.cols[k], inverse=False)

    def _state(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """out = coefficients of the state whose controls have the
        coefficients ``a`` and ``b``; one solve."""
        np.add(a, b, out=out)
        out += self.problem._f_hat
        self.problem.solver.solve(out, out=out)

    def _adjoint(self, rhs_hat: np.ndarray, k: int) -> np.ndarray:
        """A^{-1} of the field with coefficients ``rhs_hat``, in place, on
        player k's column span; one solve."""
        self.problem.solver.solve(rhs_hat, out=rhs_hat)
        _span_transform(rhs_hat, self.cols[k], inverse=True)
        return rhs_hat

    def __call__(self, triple, iteration: int) -> None:
        problem, coef, side = self.problem, self.coef, self.side
        write_half, z_hat = problem._write_half, (problem._z1_hat, problem._z2_hat)
        x, y, x_new, _, y_new = self.arrays
        (x1, x2), (y1, y2), new_x, new_y = self.halves
        u, s, v = coef.u[side], coef.u[1 - side], new_y
        calls = problem._planned_calls
        carried = coef.last == (1 - side, calls)
        problem._planned_calls = calls = calls + 1
        coef.last = None
        for k, (xk, yk) in enumerate(zip((x1, x2), (y1, y2))):
            if not carried:
                self._transform(u[k], k, xk)
            self._transform(v[k], k, yk)

        # grad_x(x, y) into x+, the operand order of NashProblem.grad_x.
        two_s = s[0]
        self._state(u[0], u[1], two_s)
        np.multiply(2.0, two_s, out=two_s)
        for k, (a, b, g, xk) in enumerate(((u[0], v[1], new_x[0], x1),
                                           (v[0], u[1], new_x[1], x2))):
            r = s[1]
            self._state(a, b, r)
            np.subtract(two_s, r, out=r)
            r -= z_hat[k]
            write_half(g, k + 1, self._adjoint(r, k), np.add, xk)

        # step's tau update and prox_primal, in their operand order, in place.
        np.multiply(triple.tau, x_new, out=x_new)
        np.subtract(x, x_new, out=x_new)
        problem._clamp(x_new, x_new)
        if not np.isfinite(x_new, out=self.x_finite).all():
            raise DivergenceError(iteration)

        # Coefficients of x+ for the partner, then of the masked x_bar in u.
        for k in 0, 1:
            np.copyto(s[k], new_x[k])  # x+ is +0 off the mask
            _span_transform(s[k], self.cols[k], inverse=False)
            np.subtract(s[k], u[k], out=u[k])
            np.multiply(triple.omega, u[k], out=u[k])
            np.add(s[k], u[k], out=u[k])

        # grad_y(x_bar, y) into new y, the operand order of NashProblem.grad_y.
        for k, (a, b, q, g, yk) in enumerate(((v[0], u[1], u[1], new_y[0], y1),
                                              (u[0], v[1], u[0], new_y[1], y2))):
            self._state(a, b, q)
            np.subtract(z_hat[k], q, out=q)
            write_half(g, k + 1, self._adjoint(q, k), np.subtract, yk)

        # step's sigma update and prox_dual.
        np.multiply(triple.sigma, y_new, out=y_new)
        np.add(y, y_new, out=y_new)
        problem._clamp(y_new, y_new)
        if not np.isfinite(y_new, out=self.y_finite).all():
            raise DivergenceError(iteration)
        coef.last = side, calls


class NashProblem(SaddleProblem):
    """Saddle formulation of the control game for the iteration engine.

    Primal x stacks (u1, u2), dual y stacks (v1, v2), each flattened from
    (n, n).  ``pde_solves`` counts Poisson solves across all gradient
    evaluations.  The coupling gradients keep the states in sine
    coefficients (the adjoint right-hand sides are linear in them), so
    the two maps make nine solves with nine transforms.  Each map reads
    all of its inputs before it writes the halves of ``out``, so ``out``
    may be an input itself; otherwise it must pass ``out_buffer``
    against the inputs.

    :meth:`step_plan` makes the whole iteration in sine coefficients,
    with the same nine solves, and transforms on column spans only (see
    :class:`_SinePlan`).  Its iterates differ from the maps' composition
    by rounding: the states sum the coefficients of their parts instead
    of transforming the sum.  The two plans of
    :func:`~saddleprox.core.solve` are partners: each hands the other the
    coefficients of the x it wrote, so a step of the loop makes eight
    span transforms, about six full ones, and a lone ``step`` ten.
    """

    def __init__(self, config: NashConfig):
        self.config = config
        self.solver = PoissonSolver(config.grid)
        n2 = config.grid.n**2
        self.primal_dim = 2 * n2
        self.dual_dim = 2 * n2
        self._z1_hat = sine_transform(config.z1)
        self._z2_hat = sine_transform(config.z2)
        self._f_hat = sine_transform(config.f)
        self._offs = ~config.mask1, ~config.mask2
        self._planned_calls = 0

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
        rhs_hat = sine_transform(rhs, overwrite=True)
        return self.solver.solve(rhs_hat, out=rhs_hat)

    def _adjoint(self, rhs_hat: np.ndarray) -> np.ndarray:
        """A^{-1} of the field with sine coefficients ``rhs_hat``, which it
        overwrites; one solve."""
        return sine_transform(self.solver.solve(rhs_hat, out=rhs_hat), overwrite=True)

    def _write_half(self, half: np.ndarray, k: int, adjoint: np.ndarray,
                    combine: np.ufunc, ctrl: np.ndarray) -> None:
        """half = combine(adjoint, alpha_k * ctrl) on player k's mask, +0 off
        it: the bits of ``np.where``, where a float mask would leave -0."""
        c = self.config
        mask, off = (c.mask1 if k == 1 else c.mask2), self._offs[k - 1]
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
        """Clamp to ``CONTROL_BOX`` on each player's mask, +0 off it."""
        return self._clamp(v, _out(out, self.primal_dim, v))

    def _clamp(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        for u, half, off in zip(self._split(v), self._split(out), self._offs):
            np.clip(u, *CONTROL_BOX, out=half)
            np.copyto(half, 0.0, where=off)
        return out

    prox_dual = prox_primal

    def step_plan(self, state, out, partner=None) -> _SinePlan:
        return _SinePlan(self, state, out, partner)

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
    # Outer products of sines on the grid's 1-D coordinates: the bits of
    # the same products over the n x n mesh, with 2n sines instead of 2n^2.
    t = np.arange(1, n + 1) * grid.h
    s1, s2 = np.sin(np.pi * t), np.sin(2.0 * np.pi * t)
    w1 = (0.4 * s1)[:, None] * s2[None, :]
    w2 = (0.4 * s2)[:, None] * s1[None, :]
    ys = s1[:, None] * s1[None, :]

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
