import math

import pytest

from offsetwords.core import count_offset_words
from offsetwords.errors import BudgetExceededError, StabilityError
from offsetwords.quadrature import (
    TorusGrid,
    density_square_mean,
    fourier_coefficient_numeric,
    integral_count,
    integral_mean,
    quadrature_threshold,
    spectral_density_eval,
)
from offsetwords.series import fourier_coefficient_series


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


def test_fourier_numeric_examples():
    assert abs(fourier_coefficient_numeric((0, 0), 0.0)) == 1.0
    # vanishing when r does not divide xi
    for xi, r in (((1, 0), 2), ((1, 1, 0), 3), ((2, 1), 2)):
        assert abs(fourier_coefficient_numeric(xi, 0.15 if len(xi) == 2 else 0.1, r=r)) < 1e-9
    with pytest.raises(StabilityError):
        fourier_coefficient_numeric((0, 0), 0.5)


def test_fourier_numeric_matches_series_partial_sum():
    # abelian-square counts give 1 + 3 x^2 + 15 x^4 + ... ; evaluate at x = 0.1
    xi = (0, 0, 0)
    trunc = 14
    partial = fourier_coefficient_series(xi, 3, 1, trunc).eval_float(0.1)
    numeric = fourier_coefficient_numeric(xi, 0.1)
    q = (3 * 0.1) ** 2
    tail = q ** (trunc // 2 + 1) / (1 - q)
    assert abs(numeric - partial) <= tail + 1e-8
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
