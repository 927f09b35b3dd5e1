import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from offsetwords.core import count_offset_words
from offsetwords.errors import BudgetExceededError, StabilityError
from offsetwords.quadrature import (
    TorusGrid,
    _density_mean,
    density_square_mean,
    fourier_coefficient_numeric,
    integral_count,
    integral_mean,
    quadrature_threshold,
    spectral_density_eval,
)


def test_integral_count_examples():
    assert abs(integral_count(2, (0, 0, 0), 9) - 15.0) < 1e-9 * 15
    assert abs(integral_count(1, (1, 0), 7) - 3.0) < 1e-9 * 3
    for n, xi in ((0, (0,)), (3, (2,)), (5, (-4,))):
        assert abs(integral_count(n, xi) - 1.0) < 1e-9


def test_grid_threshold_enforced():
    assert quadrature_threshold(2, (0, 0, 0)) == 9
    with pytest.raises(ValueError):
        integral_count(2, (0, 0, 0), 8)


def test_exactness_beyond_threshold():
    for n, xi in ((2, (0, 0)), (1, (1, -1)), (3, (0, 0))):
        base = quadrature_threshold(n, xi)
        w = count_offset_words(n, xi)
        v1 = integral_count(n, xi, base)
        v2 = integral_count(n, xi, 2 * base + 3)
        assert abs(v1 - v2) / w < 1e-12
        assert abs(v1 - w) / w < 1e-9


def test_imaginary_parts_are_noise():
    for n, xi in ((2, (0, 0, 0)), (1, (1, 0)), (2, (2, -1))):
        mean = integral_mean(n, xi, quadrature_threshold(n, xi))
        assert abs(mean.imag) < 1e-9


def test_spectral_density_eval():
    assert spectral_density_eval(0.0, [0.7, 2.1, -0.3]) == 1.0
    for d, x in ((2, 0.3), (3, 0.2)):
        expected = (1 - x * d) ** -2
        assert abs(spectral_density_eval(x, [0.0] * d) - expected) < 1e-12
    assert abs(spectral_density_eval(0.25, [0.0, math.pi]) - 1.0) < 1e-12
    with pytest.raises(StabilityError):
        spectral_density_eval(0.5, [0.0, 0.0])


def test_spectral_density_eval_refuses_an_empty_alphabet():
    # before the stability bound 1/d
    with pytest.raises(ValueError, match=r"^need d >= 1$"):
        spectral_density_eval(0.1, [])


def test_fourier_numeric_examples():
    assert abs(fourier_coefficient_numeric((0, 0), 0.0)) == 1.0
    # vanishing when r does not divide xi
    for xi, r in (((1, 0), 2), ((1, 1, 0), 3), ((2, 1), 2)):
        assert abs(fourier_coefficient_numeric(xi, 0.15 if len(xi) == 2 else 0.1, r=r)) < 1e-9
    with pytest.raises(StabilityError):
        fourier_coefficient_numeric((0, 0), 0.5)
    # r < 1 is refused before any grid is built, on both routes through the grid
    for r in (0, -1):
        with pytest.raises(ValueError, match="need r >= 1"):
            fourier_coefficient_numeric((1, 0), 0.1, r=r)
        with pytest.raises(ValueError, match="need r >= 1"):
            fourier_coefficient_numeric((1, 0), 0.1, r=r, grid_size=64)


def test_fourier_numeric_matches_series_partial_sum(suite_runs):
    # the tail-bounded comparison at d = 3, xi = 0, x = 0.1, truncation 14 is a
    # quadrature suite row; abelian-square counts give 1 + 3 x^2 + 15 x^4 + ...
    suite_runs.check("quadrature", "density coefficients match series partial sums")
    numeric = fourier_coefficient_numeric((0, 0, 0), 0.1)
    assert abs(numeric.real - 1.0315998934) < 1e-9
    assert abs(numeric.imag) < 1e-12


def test_density_square_mean_escalates_near_boundary():
    # sqrt(0.2) is close to the d=2 stability edge; the 64-point grid is not
    # converged there and the doubling loop must escalate, not fail
    value = density_square_mean(2, math.sqrt(0.2))
    finer = density_square_mean(2, math.sqrt(0.2), grid_size=1024)
    assert abs(value - finer) < 1e-6 * abs(finer)


def test_grid_budget():
    with pytest.raises(BudgetExceededError):
        TorusGrid(4, 600)
    with pytest.raises(StabilityError):
        density_square_mean(2, 0.6)
    # r is checked before stability, so an unstable x with r = 0 names r
    with pytest.raises(ValueError, match="need r >= 1"):
        fourier_coefficient_numeric((0, 0), 0.6, r=0)


def full_grid_mean(xi, x, r, grid_size, power):
    """Reference: the density on the full grid_size^d grid, contracted with
    the phase on every axis (no axis integrated in closed form)."""
    grid = TorusGrid(len(xi), grid_size)
    density = 1.0 / np.abs(1.0 - x * grid.phase_sum(r=r)) ** 2
    return grid.mean_with_phase(density**power, xi)


# Per d, the reference grid size and the largest d|x| drawn.  The two means
# share the aliasing of the first d-1 axes and differ by that of the last,
# about rho^(M/r) with rho = |x| / (1 - (d-1)|x|); these pairs keep it near
# 1e-15 or below for r <= 3.
REFERENCE_GRID = {1: (4096, 0.95), 2: (512, 0.9), 3: (96, 0.6)}


@st.composite
def density_cases(draw):
    d = draw(st.integers(1, 3))
    r = draw(st.integers(1, 3))
    head = draw(st.lists(st.integers(-3, 3), min_size=d - 1, max_size=d - 1))
    last = draw(st.sampled_from((0, r, -r, 2 * r, -2 * r)) | st.integers(-7, 7))
    grid_size, edge = REFERENCE_GRID[d]
    x = draw(st.just(0.0) | st.floats(-edge, edge)) / d
    return tuple(head) + (last,), x, r, grid_size


@settings(max_examples=60, deadline=None)
@given(density_cases(), st.sampled_from((1, 2)))
@example(case=((1,), 0.9375, 2, 4096), power=2)  # exactly 0 against 2.5e-12 of rounding
def test_density_mean_matches_full_grid(case, power):
    xi, x, r, grid_size = case
    got = _density_mean(xi, x, r, grid_size, power=power)
    want = full_grid_mean(xi, x, r, grid_size, power)
    # the reference sums grid values up to the density's peak (1 - d|x|)^(-2 power)
    peak = (1 - len(xi) * abs(x)) ** (-2 * power)
    assert abs(got - want) <= 1e-12 * max(abs(want), peak)


@pytest.mark.parametrize("x", (0.0, 0.3, -0.5, 0.9, -0.99))
def test_density_mean_closed_form_at_d1(x):
    for k in range(-4, 5):
        assert _density_mean((k,), x, 1, 64) == pytest.approx(x ** abs(k) / (1 - x * x), rel=1e-15)
    for k in (1, -3, 5):
        assert _density_mean((k,), x, 2, 64) == 0
    assert _density_mean((0,), x, 1, 64, power=2) == pytest.approx((1 + x * x) / (1 - x * x) ** 3, rel=1e-15)
    assert density_square_mean(1, x) == pytest.approx((1 + x * x) / (1 - x * x) ** 3, rel=1e-15)


def test_density_grid_is_one_dimension_down(monkeypatch):
    # the cap is checked on the nominal M^d grid, and the array built has d-1 axes
    built = []
    phase_sum = TorusGrid.phase_sum
    monkeypatch.setattr(TorusGrid, "phase_sum", lambda self, r=1: built.append(self.d) or phase_sum(self, r))
    fourier_coefficient_numeric((1, 0, -1), 0.1)
    density_square_mean(2, 0.3)
    assert built and set(built) == {1, 2}
    built.clear()
    with pytest.raises(BudgetExceededError, match=r"400\^3"):
        fourier_coefficient_numeric((0, 0, 0), 0.1, grid_size=400)
    assert built == []


def full_grid_integral_mean(n, xi, grid_size):
    """Reference: the count integrand on the full grid_size^d grid, contracted
    with the phase on every axis (no axis integrated in closed form)."""
    plus = sum(max(c, 0) for c in xi)
    minus = sum(max(-c, 0) for c in xi)
    grid = TorusGrid(len(xi), grid_size)
    p = grid.phase_sum(r=1)
    return grid.mean_with_phase(p ** (n + plus) * np.conj(p) ** (n + minus), xi)


# The reference holds its whole grid, several complex arrays deep; grids
# above this many points are left out of the property to keep memory small.
REFERENCE_POINTS = 1 << 20


@st.composite
def count_cases(draw):
    d = draw(st.integers(1, 4))
    last = draw(st.integers(-3, 3))
    head = []
    for _ in range(d - 1):  # ||xi||_1 <= 3
        room = 3 - abs(last) - sum(map(abs, head))
        head.append(draw(st.integers(-room, room)))
    xi = tuple(head) + (last,)
    n = draw(st.integers(0, 4))
    threshold = quadrature_threshold(n, xi)
    sizes = [m for m in (threshold, 2 * threshold + 1) if m**d <= REFERENCE_POINTS]
    return n, xi, draw(st.sampled_from(sizes))


@settings(max_examples=80, deadline=None)
@given(count_cases())
def test_integral_mean_matches_full_grid(case):
    n, xi, grid_size = case
    got = integral_mean(n, xi, grid_size)
    want = full_grid_integral_mean(n, xi, grid_size)
    tol = 1e-12 * max(abs(want), 1.0)
    assert abs(got.real - want.real) <= tol and abs(got.imag - want.imag) <= tol


def test_integral_grid_is_one_dimension_down(monkeypatch):
    # the cap is checked on the nominal M^d grid, and the array built has d-1 axes
    built = []
    phase_sum = TorusGrid.phase_sum
    monkeypatch.setattr(TorusGrid, "phase_sum", lambda self, r=1: built.append(self.d) or phase_sum(self, r))
    assert integral_count(2, (1, 0, -1, 0)) == pytest.approx(count_offset_words(2, (1, 0, -1, 0)), rel=1e-12)
    assert integral_count(3, (1, 1)) == pytest.approx(count_offset_words(3, (1, 1)), rel=1e-12)
    assert built == [3, 1]
    built.clear()
    # at d = 1 the closed form alone is exact
    assert [integral_mean(n, (k,), 1) for n in range(4) for k in (-2, 0, 3)] == [1.0] * 12
    assert built == []
    with pytest.raises(BudgetExceededError, match=r"80\^4"):
        integral_count(1, (0, 0, 0, 0), grid_size=80)
    assert built == []
