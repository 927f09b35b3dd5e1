"""Torus-grid quadrature: the analytic route to the exact counts.

The count at (n, xi) equals the mean over the d-torus of
exp(-i xi.theta) * p^(n+|xi^+|) * conj(p)^(n+|xi^-|) with p = sum_j e^(i theta_j).
That integrand is a trigonometric polynomial, so a uniform grid with more
points per axis than twice its degree integrates it exactly up to rounding;
the grid threshold below turns the quadrature into an exact method.  The
spectral density itself is analytic near the torus, so for the non-polynomial
integrands the same grids converge geometrically and are validated by
doubling (M against 2M).

Grid means are reduced with numpy's pairwise summation, so results are
deterministic from run to run to well below the asserted tolerances.  numpy
is imported by the functions that use it, so importing the package does not
load it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import as_offset, sign_split
from .errors import BudgetExceededError, StabilityError

if TYPE_CHECKING:
    import numpy as np

_GRID_POINT_CAP = 40_000_000

# Grid doubling stops once two successive grid means agree within this.
_DOUBLING_TOL = 1e-8


@dataclass(frozen=True)
class TorusGrid:
    """Uniform grid theta_k = 2 pi k / M on each of d axes.

    Discrete orthogonality: averaging over the grid kills every nonzero
    frequency not divisible by M, so the grid mean is exact for trigonometric
    polynomials of per-axis degree below M.
    """

    d: int
    points_per_axis: int

    def __post_init__(self):
        if self.d < 1 or self.points_per_axis < 1:
            raise ValueError("need d >= 1 and at least one point per axis")
        if self.points_per_axis**self.d > _GRID_POINT_CAP:
            raise BudgetExceededError(
                f"grid of {self.points_per_axis}^{self.d} points exceeds cap {_GRID_POINT_CAP}"
            )

    def axis(self) -> np.ndarray:
        import numpy as np

        return 2.0 * np.pi * np.arange(self.points_per_axis) / self.points_per_axis

    def phase_sum(self, r: int = 1) -> np.ndarray:
        """p(theta) = sum_j e^(i r theta_j) over the full grid, shape (M,)*d."""
        import numpy as np

        M, d = self.points_per_axis, self.d
        unit = np.exp(1j * r * self.axis())
        total = np.zeros((M,) * d, dtype=complex)
        for j in range(d):
            shape = [1] * d
            shape[j] = M
            total = total + unit.reshape(shape)
        return total

    def mean_with_phase(self, values: np.ndarray, xi) -> complex:
        """Grid mean of exp(-i xi.theta) * values, contracted one axis at a time."""
        import numpy as np

        xi = as_offset(xi)
        M = self.points_per_axis
        work = np.asarray(values, dtype=complex)
        for component in xi.components:
            phase = np.exp(-1j * component * self.axis()) / M
            work = np.tensordot(phase, work, axes=(0, 0))
        return complex(work)


def quadrature_threshold(n: int, xi) -> int:
    """Smallest per-axis grid size that integrates the count integrand exactly."""
    xi = as_offset(xi)
    return 2 * (2 * n + xi.one_norm) + 1


def integral_mean(n: int, xi, grid_size: int) -> complex:
    """Raw grid mean of the count integrand (complex; imaginary part is noise)."""
    import numpy as np

    xi = as_offset(xi)
    plus, minus = sign_split(xi)
    grid = TorusGrid(xi.d, grid_size)
    p = grid.phase_sum(r=1)
    integrand = p ** (n + sum(plus)) * np.conj(p) ** (n + sum(minus))
    return grid.mean_with_phase(integrand, xi)


def integral_count(n: int, xi, grid_size: int | None = None) -> float:
    """Approximate the offset-word count via the torus integral representation.

    The grid must meet the exactness threshold; the returned real part then
    matches the exact count to floating accuracy.
    """
    if n < 0:
        raise ValueError("order n must be nonnegative")
    xi = as_offset(xi)
    threshold = quadrature_threshold(n, xi)
    if grid_size is None:
        grid_size = threshold
    if grid_size < threshold:
        raise ValueError(
            f"grid size {grid_size} below exactness threshold {threshold} for (n={n}, xi={xi.components})"
        )
    return float(integral_mean(n, xi, grid_size).real)


def spectral_density_eval(x: float, theta, r: int = 1) -> float:
    """|1 - x sum_j e^(i r theta_j)|^(-2) at a torus point of d = len(theta)
    angles; needs |x| < 1/d."""
    import numpy as np

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = theta.shape[-1]
    if abs(x) >= 1.0 / d:
        raise StabilityError(f"|x| = {abs(x)} is outside the stability region |x| < 1/{d}")
    p = np.exp(1j * r * theta).sum(axis=-1)
    return float(1.0 / np.abs(1.0 - x * p) ** 2)


@functools.lru_cache(maxsize=8)
def _density_grid(d: int, r: int, x: float, grid_size: int) -> np.ndarray:
    import numpy as np

    grid = TorusGrid(d, grid_size)
    p = grid.phase_sum(r=r)
    return 1.0 / np.abs(1.0 - x * p) ** 2


def _density_mean(xi, x: float, r: int, grid_size: int, power: int = 1) -> complex:
    xi = as_offset(xi)
    density = _density_grid(xi.d, r, float(x), grid_size)
    if power != 1:
        density = density**power
    return TorusGrid(xi.d, grid_size).mean_with_phase(density, xi)


def _doubled_until_stable(evaluate, start: int) -> complex:
    """Double the grid until two successive grid means agree within _DOUBLING_TOL.

    The integrands here are analytic on a neighborhood of the torus, so the
    means converge geometrically and the doubling test is a reliable stop; the
    grid-point budget bounds the escalation (near the stability boundary the
    convergence rate degrades and the budget may refuse).
    """
    coarse = evaluate(start)
    size = start
    while True:
        fine = evaluate(2 * size)
        if abs(fine - coarse) <= _DOUBLING_TOL:
            return fine
        size *= 2
        coarse = fine


def fourier_coefficient_numeric(xi, x: float, r: int = 1, grid_size: int | None = None) -> complex:
    """Grid quadrature of the xi-th Fourier coefficient of the spectral density.

    With no explicit grid size, starts at 64 points per axis and doubles until
    successive grids agree within _DOUBLING_TOL.
    """
    xi = as_offset(xi)
    if abs(x) >= 1.0 / xi.d:
        raise StabilityError(f"|x| = {abs(x)} is outside the stability region |x| < 1/{xi.d}")
    if grid_size is not None:
        return _density_mean(xi, x, r, grid_size)
    return _doubled_until_stable(lambda m: _density_mean(xi, x, r, m), 64)


def density_square_mean(d: int, sqrt_x: float, grid_size: int | None = None) -> float:
    """Grid mean of the squared spectral density at parameter sqrt_x (used by
    the Parseval check)."""
    zero = (0,) * d
    if abs(sqrt_x) >= 1.0 / d:
        raise StabilityError(f"sqrt(x) = {sqrt_x} outside the stability region")
    if grid_size is not None:
        return float(_density_mean(zero, sqrt_x, 1, grid_size, power=2).real)
    value = _doubled_until_stable(lambda m: _density_mean(zero, sqrt_x, 1, m, power=2), 64)
    return float(value.real)
