"""Combinatorial Parseval identity for offset-word generating functions.

Summing the squared by-length generating functions over every offset xi gives
the generating function, by half total length, for ordered pairs of words
sharing an offset class.  A pair at orders (n1, n2) with offset xi lands at
x^(n1 + n2 + ||xi||_1), i.e. total string length twice the x-power; the
half-power substitution that motivates this is pure exponent bookkeeping, so
no fractional powers ever appear.  Three independent computations meet here:
the direct double sum over counts, squaring the spectral-density expansion,
and brute-force pair enumeration (oracle module).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple

from .config import DEFAULT_BUDGET, Budget
from .core import count_row, weak_compositions
from .errors import BudgetExceededError
from .oracle import _labelled_words
from .quadrature import density_square_mean
from .series import XSeries, check_table_size, spectral_rows


def offsets_with_norm_at_most(d: int, bound: int) -> Iterator[tuple]:
    """All xi in Z^d with ||xi||_1 <= bound."""
    for norm in range(bound + 1):
        for mags in weak_compositions(norm, d):
            support = [j for j, v in enumerate(mags) if v > 0]
            for signs in product((1, -1), repeat=len(support)):
                xi = list(mags)
                for j, s in zip(support, signs):
                    xi[j] *= s
                yield tuple(xi)


def _canonical(xi: tuple) -> tuple:
    """Counts are invariant under coordinate permutation and global negation."""
    a = tuple(sorted(xi))
    b = tuple(sorted(-c for c in xi))
    return min(a, b)


def parseval_lhs(d: int, k_max: int, *, budget: Budget = DEFAULT_BUDGET) -> XSeries:
    """Coefficient of x^k: sum over xi and n1+n2+||xi||_1 = k of w_(n1,xi) w_(n2,xi).

    Counts ordered pairs of offset-xi words with total length 2k, summed over
    xi with multiplicity.  ``budget.parseval_k_cap`` bounds k_max, and the
    cell cap of the length-2k spectral table that parseval_rhs_series builds
    is checked before the walk starts.
    """
    budget.check_parseval(k_max)
    check_table_size(d, 2 * k_max)
    cache: dict = {}
    coeffs = [Fraction(0)] * (k_max + 1)
    for xi in offsets_with_norm_at_most(d, k_max):
        norm = sum(abs(c) for c in xi)
        top = k_max - norm
        key = _canonical(xi)
        counts = cache.get(key)
        if counts is None or len(counts) < top + 1:
            counts = count_row(top, xi)
            cache[key] = counts
        for n1 in range(top + 1):
            for n2 in range(top + 1 - n1):
                coeffs[n1 + n2 + norm] += counts[n1] * counts[n2]
    return XSeries(tuple(coeffs))


def parseval_rhs_series(d: int, k_max: int, *, budget: Budget = DEFAULT_BUDGET) -> XSeries:
    """Same coefficients obtained by squaring the spectral-density expansion.

    Every integer row of the by-length table is squared and summed; surviving
    exponents are even and are halved to land on the common index.
    ``budget.parseval_k_cap`` bounds k_max.
    """
    budget.check_parseval(k_max)
    acc = [0] * (2 * k_max + 1)
    for row in spectral_rows(d, 1, 2 * k_max).values():
        for i, a in enumerate(row):
            if a:
                for j in range(len(row) - i):
                    acc[i + j] += a * row[j]
    for k in range(1, 2 * k_max + 1, 2):
        if acc[k] != 0:
            raise ArithmeticError(f"odd-length coefficient {k} should vanish, got {acc[k]}")
    return XSeries(tuple(acc[2 * k] for k in range(k_max + 1)))


class ParsevalCheck(NamedTuple):
    lhs: float
    rhs: float
    tail_bound: float


def parseval_numeric_check(d: int, x: float, grid_size: int | None = None, k_max: int = 10) -> ParsevalCheck:
    """Truncated series evaluation against quadrature of the squared density.

    lhs is the pair-count series at x truncated at k_max plus nothing; the
    returned tail bound dominates the dropped terms: the x^k coefficient is at
    most (2k+1)(k+1) d^(2k) (pairs of strings times shared labels), so the
    tail is bounded by the elementary series sum_{k>k_max} (2k+1)(k+1)(d^2 x)^k.
    rhs is the grid quadrature of the squared density at sqrt(x).
    """
    if not 0.0 <= x < 1.0 / d**2:
        raise ValueError(f"x = {x} outside [0, 1/d^2) for d = {d}")
    series = parseval_lhs(d, k_max)
    lhs = series.eval_float(x)
    q = d * d * x
    tail = 0.0
    k = k_max + 1
    while True:
        term = (2 * k + 1) * (k + 1) * q**k
        # term ratios decrease toward q < 1, so once below 1 the rest of the
        # tail is dominated by a geometric series
        ratio = q * (2 * k + 3) * (k + 2) / ((2 * k + 1) * (k + 1))
        if ratio < 1.0 and term / (1.0 - ratio) < 1e-16 * max(lhs, 1.0):
            tail += term / (1.0 - ratio)
            break
        tail += term
        k += 1
    rhs = density_square_mean(d, math.sqrt(x), grid_size=grid_size)
    return ParsevalCheck(lhs=lhs, rhs=rhs, tail_bound=tail)


def pair_roster(d: int, total_length: int) -> list:
    """Explicit (u, v, xi) roster of same-offset pairs at a given total length.

    Gives the explicit length-0/2/4 rosters for d = 2; intended for small
    lengths only (the roster grows like d^length).
    """
    if total_length < 0 or total_length % 2:
        raise ValueError("combined length must be even and nonnegative")
    if d**total_length > 100_000:
        raise BudgetExceededError("roster requested above listing budget")
    labelled = {length: list(_labelled_words(d, length)) for length in range(total_length + 1)}
    roster = []
    for left_len in range(total_length + 1):
        for u, u_offsets in labelled[left_len]:
            for v, v_offsets in labelled[total_length - left_len]:
                for xi in sorted(u_offsets & v_offsets):
                    roster.append((u, v, xi))
    return roster
