"""Asymptotic estimates for offset-word counts and the exact Bessel/Bell machinery.

Three regimes:

* order n -> infinity, offset fixed (Laplace method over the root lattice
  A_{d-1}): count ~ d^(2n + d/2 + ||xi||_1) * (4 pi n)^((1-d)/2);
* offset ray lambda*xi, lambda -> infinity, order fixed (stationary phase).
  The closed form is exposed exactly as stated but is NOT asserted against
  exact counts: desk-scale enumeration contradicts its lambda-exponent (see
  the probe and README), so it is quarantined behind a caveat;
* alphabet size d -> infinity with order and a constant offset m*1_d fixed,
  driven by powers of the normalized modified Bessel series through complete
  Bell polynomials.

The Bessel-side quantities (Rayleigh/Bessel zeta values, Bell polynomial
evaluations, the power coefficients B_n) are computed with exact rationals;
estimates are evaluated in log space to dodge overflow.  Each function takes
one route; the second routes that check them (the Hessenberg determinant of
a complete Bell polynomial, the numeric phase-Hessian determinant) are rows
of ``verify``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import BigCount, as_offset, count_orders
from .series import XSeries

REGIMES = ("laplace", "stationary_phase", "large_d")


@dataclass(frozen=True)
class AsymptoticEstimate:
    """A positive estimate plus the regime that produced it."""

    value: float
    log_value: float
    regime: str


def laplace_estimate(n: int, xi) -> AsymptoticEstimate:
    """Leading-order count as the order grows: d^(2n + d/2 + ||xi||_1) (4 pi n)^((1-d)/2)."""
    if n < 1:
        raise ValueError("the order-asymptotic formula is degenerate at n = 0")
    xi = as_offset(xi)
    d = len(xi)
    log_value = (2 * n + d / 2 + sum(map(abs, xi))) * math.log(d) + ((1 - d) / 2) * math.log(
        4 * math.pi * n
    )
    return AsymptoticEstimate(value=math.exp(log_value), log_value=log_value, regime="laplace")


def stationary_phase_estimate(n: int, xi, lam: int) -> AsymptoticEstimate:
    """Closed-form estimate for the count at offset lambda*xi, lambda large, n fixed.

    Evaluates (2 pi)^(1 - 3d/2) / sqrt(||xi||_1 (d+1))
    * d^(lambda ||xi||_1 + 2n + d/2 + 1) * lambda^(-d/2) verbatim.  Known
    caveat: against exact counts the observed decay in lambda is
    lambda^(-(d-1)/2), not lambda^(-d/2); see ratio_probe and the README.
    """
    xi = as_offset(xi)
    if not any(xi):
        raise ValueError("stationary-phase estimate needs xi != 0")
    if lam < 1:
        raise ValueError("lambda must be a positive integer")
    d = len(xi)
    norm = sum(map(abs, xi))
    log_value = (
        (1 - 1.5 * d) * math.log(2 * math.pi)
        - 0.5 * math.log(norm * (d + 1))
        + (lam * norm + 2 * n + d / 2 + 1) * math.log(d)
        - (d / 2) * math.log(lam)
    )
    return AsymptoticEstimate(
        value=math.exp(log_value), log_value=log_value, regime="stationary_phase"
    )


def stationary_phase_hessian_det(xi) -> float:
    """Determinant (||xi||_1/d)^d (d+1) of the phase Hessian at the origin.

    The Hessian is the d x d tridiagonal Toeplitz matrix with diagonal
    2||xi||_1/d and off-diagonal -||xi||_1/d; verify's asymptotics suite
    builds that matrix and compares its numeric determinant with this value.
    """
    xi = as_offset(xi)
    d = len(xi)
    if d < 2:
        raise ValueError("the Hessian determinant needs d >= 2")
    return (sum(map(abs, xi)) / d) ** d * (d + 1)


def normalized_bessel_series(nu: int, order: int) -> XSeries:
    """Normalized modified Bessel series in u = (z/2)^2: sum_n nu!/(n!(n+nu)!) u^n."""
    if nu < 0:
        raise ValueError("need nu >= 0")
    nu_fact = math.factorial(nu)
    coeffs = [
        Fraction(nu_fact, math.factorial(k) * math.factorial(k + nu)) for k in range(order + 1)
    ]
    return XSeries(tuple(coeffs))


def bessel_zeta_even(nu: int, n: int) -> Fraction:
    """Rayleigh sum zeta_nu(2n) over the squared Bessel zeros, recovered exactly
    from the formal logarithm of the normalized Bessel series.

    log I~_nu(z) = sum_n ((-1)^(n+1)/n) zeta_nu(2n) z^(2n); in the u-variable
    z^(2n) = (4u)^n, so the u^n log-coefficient is ((-1)^(n+1)/n) zeta 4^n.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    log_series = normalized_bessel_series(nu, n).log()
    sign = 1 if (n + 1) % 2 == 0 else -1
    return sign * n * log_series[n] / Fraction(4**n)


def complete_bell(a: Sequence) -> Fraction:
    """n-th complete Bell polynomial of (a_1, ..., a_n): n! [z^n] exp(sum a_k z^k / k!).

    verify's bessel suite compares it with the lower-Hessenberg determinant
    route on seeded random rationals.
    """
    a = [Fraction(v) for v in a]
    n = len(a)
    if n == 0:
        return Fraction(1)
    gen = XSeries.from_list([Fraction(0)] + [a[k] / math.factorial(k + 1) for k in range(n)])
    return gen.exp()[n] * math.factorial(n)


def bell_B(n: int, nu: int, d: int) -> Fraction:
    """Bessel-power coefficient polynomial B_n^(nu)(d) via the Bell route:
    4^n ((n+nu)!/nu!) B_n(a_1, ..., a_n), with the exact arguments
    a_k = (-1)^(k-1) (k-1)! zeta_nu(2k) d."""
    d = operator.index(d)
    if n < 0 or nu < 0:
        raise ValueError("need n >= 0 and nu >= 0")
    if n == 0:
        return Fraction(1)
    a = [
        (-1) ** (k - 1) * math.factorial(k - 1) * bessel_zeta_even(nu, k) * d
        for k in range(1, n + 1)
    ]
    return Fraction(4**n * math.factorial(n + nu), math.factorial(nu)) * complete_bell(a)


def bell_B_via_power(n: int, nu: int, d: int) -> Fraction:
    """Independent route to B_n^(nu)(d): the u^n coefficient of the d-th power of
    the normalized Bessel series, times n!(n+nu)!/nu!."""
    if n < 0 or nu < 0:
        raise ValueError("need n >= 0 and nu >= 0")
    power = normalized_bessel_series(nu, n) ** d
    return power[n] * Fraction(
        math.factorial(n) * math.factorial(n + nu), math.factorial(nu)
    )


def w_via_bessel(n: int, m: int, d: int) -> BigCount:
    """Count at the constant offset m*1_d through the Bessel power series:
    n! (n+d|m|)!/(|m|!)^d * [u^n] (I~_|m|)^d.  Must clear denominators exactly."""
    if n < 0 or d < 1:
        raise ValueError("need n >= 0 and d >= 1")
    am = abs(m)
    coeff = (normalized_bessel_series(am, n) ** d)[n]
    value = (
        Fraction(math.factorial(n) * math.factorial(n + d * am), math.factorial(am) ** d) * coeff
    )
    if value.denominator != 1 or value < 0:
        raise ArithmeticError(f"Bessel-route count failed to clear denominators: {value}")
    return int(value)


def large_d_estimate(n: int, m: int, d: int) -> AsymptoticEstimate:
    """Leading-order count as the alphabet grows, at the constant offset m*1_d.

    m = 0: n! d^n.  m != 0: sqrt(2 pi) (|m|d)^(|m|d + 1/2) / (|m|! e^|m|)^d
    * (|m| d^2 / (|m|+1))^n.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    am = abs(m)
    if am == 0:
        log_value = math.log(math.factorial(n)) + n * math.log(d)
        value = float(math.factorial(n) * d**n)
    else:
        log_value = (
            0.5 * math.log(2 * math.pi)
            + (am * d + 0.5) * math.log(am * d)
            - d * (math.log(math.factorial(am)) + am)
            + n * math.log(am * d * d / (am + 1))
        )
        value = math.exp(log_value)
    return AsymptoticEstimate(value=value, log_value=log_value, regime="large_d")


class ProbeRow(NamedTuple):
    sweep: int
    exact: BigCount
    estimate: float
    ratio: float


def _ratio(exact: BigCount, estimate: AsymptoticEstimate) -> float:
    return math.exp(math.log(exact) - estimate.log_value)


def ratio_probe(regime: str, sweep: Sequence[int], **params) -> list:
    """Convergence table (sweep value, exact count, estimate, exact/estimate).

    laplace: sweep the order n at fixed xi.
    stationary_phase: sweep lambda at fixed xi != 0 and order n (diagnostic
    output only; the ratios document the lambda-exponent discrepancy).
    large_d: sweep the alphabet size d at fixed order n and constant offset m.

    Every count is a grouped-letter fold of count_orders: laplace folds once
    for the whole sweep, the other regimes fold once per case.  Every estimate
    is formed before any count, so a sweep whose float estimate overflows
    raises OverflowError("estimate at sweep=<v> overflows a float") without
    counting; a finite estimate keeps 2n log d below about 709, which bounds
    the fold.
    """
    if regime == "laplace":
        xi = as_offset(params["xi"])
        estimate = partial(laplace_estimate, xi=xi)
    elif regime == "stationary_phase":
        xi = as_offset(params["xi"])
        n = params.get("n", 0)
        estimate = partial(stationary_phase_estimate, n, xi)
        case = lambda lam: (n, tuple(lam * c for c in xi))
    elif regime == "large_d":
        n = params["n"]
        m = params.get("m", 0)
        estimate = partial(large_d_estimate, n, m)
        case = lambda d: (n, (m,) * d)
    else:
        raise ValueError(f"unknown regime {regime!r}; expected one of {REGIMES}")
    estimates = []
    for value in sweep:
        try:
            estimates.append(estimate(value))
        except OverflowError:
            raise OverflowError(f"estimate at sweep={value} overflows a float") from None
    if regime == "laplace":
        exacts = count_orders(sweep, xi)  # one fold serves the whole sweep
    else:
        exacts = [count_orders((order,), offset)[0] for order, offset in map(case, sweep)]
    return [
        ProbeRow(value, exact, est.value, _ratio(exact, est))
        for value, exact, est in zip(sweep, exacts, estimates)
    ]
