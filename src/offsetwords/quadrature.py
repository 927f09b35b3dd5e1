"""Torus-grid quadrature: the analytic route to the exact counts.

The count at (n, xi) equals the mean over the d-torus of
exp(-i xi.theta) * p^(n+|xi^+|) * conj(p)^(n+|xi^-|) with p = sum_j e^(i theta_j).
That integrand is a trigonometric polynomial, so a uniform grid with more
points per axis than twice its degree integrates it exactly up to rounding;
the grid threshold below turns the quadrature into an exact method.  The
spectral density itself is analytic near the torus, so for the non-polynomial
integrands the same grids converge geometrically, and one routine
(_density_coefficient) checks r and stability for both density entry points
and doubles their grid (M against 2M) until two means agree.

Both kinds of mean are iterated integrals with one axis exact, so only the
first d-1 axes are gridded.  For the count, with s = sum_(j<d) e^(i theta_j),
the mean over the last angle of e^(-ik theta) (s + e^(i theta))^a
conj(s + e^(i theta))^b is a finite binomial sum in s and conj(s).  For the
density, with a = 1 - x sum_(j<d) e^(i r theta_j), the mean over the last
angle of e^(-ik theta) |a - x e^(ir theta)|^(-2) has a closed form (|a| > |x|
by stability).  The grid-point cap still applies to the nominal M^d grid; the
arrays hold M^(d-1) points.

Grid means are reduced with numpy's pairwise summation, so results are
deterministic from run to run to well below the asserted tolerances.  numpy
is imported by the functions that use it, so importing the package does not
load it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
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
        for component in xi:
            phase = np.exp(-1j * component * self.axis()) / M
            work = (phase.reshape((M,) + (1,) * (work.ndim - 1)) * work).sum(axis=0)
        return complex(work)


def quadrature_threshold(n: int, xi) -> int:
    """Smallest per-axis grid size that integrates the count integrand exactly."""
    xi = as_offset(xi)
    return 2 * (2 * n + sum(map(abs, xi))) + 1


def _last_axis_count_mean(s, a: int, b: int, k: int):
    """Exact mean over theta of e^(-ik theta) (s + e^(i theta))^a conj(s + e^(i theta))^b.

    Expanding both powers binomially leaves frequency k only where the
    exponent of e^(i theta) exceeds that of e^(-i theta) by k, so the mean is
    sum_j C(a, j+k) C(b, j) s^(a-j-k) conj(s)^(b-j) over
    max(0, -k) <= j <= top = min(b, a-k).  Each term is s^(a-k-top)
    conj(s)^(b-top) times |s|^(2(top-j)), so the sum is a polynomial with
    nonnegative coefficients in |s|^2, evaluated by Horner's rule.
    """
    conj_s = s.conjugate()
    modulus = (s * conj_s).real
    top = min(b, a - k)
    poly = 0
    for j in range(max(0, -k), top + 1):
        poly = poly * modulus + comb(a, j + k) * comb(b, j)
    return poly * s ** (a - k - top) * conj_s ** (b - top)


def _head_grid_mean(xi, r: int, grid_size: int, last_axis) -> complex:
    """Mean over the d-torus of exp(-i xi.theta) f, f a function of the e^(i r theta_j).

    last_axis(s, k) is the exact mean over the last angle of e^(-ik theta) f given
    s = sum_(j<d) e^(i r theta_j) (the integer 0 when d = 1); the other d-1 angles
    are gridded at grid_size points per axis, and the grid-point cap is checked on
    the nominal grid_size^d grid before allocating.  The mean vanishes unless r | k.
    """
    TorusGrid(len(xi), grid_size)  # refuses above the cap; allocates nothing
    *head, k = xi
    if k % r:
        return 0j
    if not head:
        return complex(last_axis(0, k))
    grid = TorusGrid(len(head), grid_size)
    return grid.mean_with_phase(last_axis(grid.phase_sum(r=r), k), head)


def integral_mean(n: int, xi, grid_size: int) -> complex:
    """Grid mean of the count integrand (complex; imaginary part is noise),
    with the last axis integrated exactly (_last_axis_count_mean)."""
    xi = as_offset(xi)
    plus, minus = sign_split(xi)
    a, b = n + sum(plus), n + sum(minus)
    return _head_grid_mean(xi, 1, grid_size, lambda s, k: _last_axis_count_mean(s, a, b, k))


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
            f"grid size {grid_size} below exactness threshold {threshold} for (n={n}, xi={xi})"
        )
    return float(integral_mean(n, xi, grid_size).real)


def spectral_density_eval(x: float, theta, r: int = 1) -> float:
    """|1 - x sum_j e^(i r theta_j)|^(-2) at a torus point of d = len(theta)
    angles; needs |x| < 1/d."""
    import numpy as np

    r = operator.index(r)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = theta.shape[-1]
    if d < 1:
        raise ValueError("need d >= 1")
    if abs(x) >= 1.0 / d:
        raise StabilityError(f"|x| = {abs(x)} is outside the stability region |x| < 1/{d}")
    p = np.exp(1j * r * theta).sum(axis=-1)
    return float(1.0 / np.abs(1.0 - x * p) ** 2)


def _last_axis_mean(a, x: float, k: int, r: int, power: int):
    """Exact mean over theta of e^(-ik theta) |a - x e^(ir theta)|^(-2 power),
    power 1 or 2, for complex a with |a| > |x| and r dividing k.

    Expanding 1/(a - x u) in powers of u = e^(ir theta) leaves only the
    frequencies r*j, so the mean vanishes unless r divides k; then, with
    q = |k|/r, s = |a|^2 - x^2 and b = a (b = conj(a) when k < 0), it is
    (x/b)^q / s at power 1 and (x/b)^q ((|a|^2 + x^2)/s^3 + q/s^2) at power 2.
    """
    import numpy as np

    q = abs(k) // r
    modulus = np.abs(a) ** 2
    s = modulus - x * x
    weight = 1.0 / s if power == 1 else (modulus + x * x) / s**3 + q / s**2
    return (x / (a if k >= 0 else np.conj(a))) ** q * weight


def _density_mean(xi, x: float, r: int, grid_size: int, power: int = 1) -> complex:
    """Mean of exp(-i xi.theta) |1 - x sum_j e^(i r theta_j)|^(-2 power) over
    the d-torus, with the last axis integrated exactly (_last_axis_mean)."""

    def last_axis(s, k):
        # a = 1 - x s in place, without a second grid: s is the helper's own phase sum (or 0)
        s *= -x
        s += 1.0
        return _last_axis_mean(s, x, k, r, power)

    return _head_grid_mean(as_offset(xi), r, grid_size, last_axis)


def _density_coefficient(xi, x: float, r: int, grid_size: int | None, power: int) -> complex:
    """xi-th Fourier coefficient of |1 - x sum_j e^(i r theta_j)|^(-2 power) by grid quadrature.

    On the given grid, or else from 64 points per axis, doubled until two
    successive grid means agree within _DOUBLING_TOL.  The integrand is
    analytic on a neighborhood of the torus, so the means converge
    geometrically and the doubling test is a reliable stop; the grid-point cap
    bounds the escalation (near the stability boundary the convergence rate
    degrades and the cap may refuse).
    """
    xi = as_offset(xi)
    r = operator.index(r)
    if r < 1:
        raise ValueError(f"need r >= 1, got r = {r}")
    if abs(x) >= 1.0 / len(xi):
        raise StabilityError(f"|x| = {abs(x)} is outside the stability region |x| < 1/{len(xi)}")
    if grid_size is not None:
        return _density_mean(xi, x, r, grid_size, power)
    size = 64
    coarse = _density_mean(xi, x, r, size, power)
    while True:
        size *= 2
        fine = _density_mean(xi, x, r, size, power)
        if abs(fine - coarse) <= _DOUBLING_TOL:
            return fine
        coarse = fine


def fourier_coefficient_numeric(xi, x: float, r: int = 1, grid_size: int | None = None) -> complex:
    """Grid quadrature of the xi-th Fourier coefficient of the spectral density
    (_density_coefficient: the given grid, or doubling from 64 points per axis)."""
    return _density_coefficient(xi, x, r, grid_size, 1)


def density_square_mean(d: int, sqrt_x: float, grid_size: int | None = None) -> float:
    """Grid mean of the squared spectral density at parameter sqrt_x (used by
    the Parseval check)."""
    return float(_density_coefficient((0,) * d, sqrt_x, 1, grid_size, 2).real)
