"""Combinatorial Parseval identity for offset-word generating functions.

Summing the squared by-length generating functions over every offset xi gives
the generating function, by half total length, for ordered pairs of words
sharing an offset class.  A pair at orders (n1, n2) with offset xi lands at
x^(n1 + n2 + ||xi||_1), i.e. total string length twice the x-power, so no
fractional powers ever appear.  Four independent routes meet here:

- the direct double sum over counts (parseval_lhs);
- the squared spectral expansion (parseval_rhs_series), whose x^m
  coefficient is sum_(i+j=m) <Q_i, Q_j> over layers of the spectral walk; the
  walk keeps each layer once per symmetry orbit, so the inner product weights
  every orbit by its size, and it builds no table and never calls the
  counting kernel;
- brute-force pair enumeration (oracle module);
- abelian squares with two cuts.  Offset-xi words u = u1 u2, v = v1 v2 of
  total length 2k have rho(u1) - rho(u2) = xi = rho(v1) - rho(v2), so
  (u1 v2)(v1 u2) is an abelian square of length 2k, and a cut in each half
  gives back u1, v2, v1, u2 and the shared offset.  The x^k coefficient is
  therefore (k+1)^2 w(k, 0_d), read from one constant-offset row.

The direct double sum counts its own offset classes (a Counter over
offsets_with_norm_at_most) rather than share the walk's orbit sizes, so an
error in the sizes cannot cancel out of the comparison of the first two.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from itertools import product
from typing import Iterator, NamedTuple

from .config import DEFAULT_BUDGET, Budget
from .core import count_row, weak_compositions
from .errors import BudgetExceededError
from .oracle import _labelled_words
from .quadrature import density_square_mean
from .series import XSeries, _orbit_plan, _orbit_walk, check_table_size

# Highest series order parseval_numeric_check accepts; a fixed limit, not a
# Budget cap, so no config key or environment variable raises it.
_NUMERIC_K_LIMIT = 12


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


def _check_order(k_max: int) -> None:
    """Refuse a negative pair order k."""
    if k_max < 0:
        raise ValueError(f"pair order k must be nonnegative, got k = {k_max}")


def _offset_classes(d: int, k_max: int) -> Counter:
    """The class (_canonical) of every xi with ||xi||_1 <= k_max, with the
    number of offsets in it, counted one offset at a time."""
    return Counter(_canonical(xi) for xi in offsets_with_norm_at_most(d, k_max))


def parseval_lhs(d: int, k_max: int, *, budget: Budget = DEFAULT_BUDGET) -> XSeries:
    """Coefficient of x^k: sum over xi and n1+n2+||xi||_1 = k of w_(n1,xi) w_(n2,xi).

    Counts ordered pairs of offset-xi words with total length 2k, summed over
    xi with multiplicity.  Counts are invariant under coordinate permutation
    and global negation, so the pair sum runs once per class (_canonical) and
    is scaled by the class size, which ``_offset_classes`` counts on its own.
    ``budget.parseval_k_cap`` bounds k_max, and the cell cap of the
    length-2k walk that parseval_rhs_series makes is checked before anything
    is counted.
    """
    _check_order(k_max)
    budget.check_parseval(k_max)
    check_table_size(d, 2 * k_max)
    classes = _offset_classes(d, k_max)
    coeffs = [0] * (k_max + 1)
    for xi, size in classes.items():
        norm = sum(abs(c) for c in xi)
        counts = count_row(k_max - norm, xi)
        for n1, a in enumerate(counts):
            a *= size
            for n2 in range(len(counts) - n1):
                coeffs[n1 + n2 + norm] += a * counts[n2]
    return XSeries(tuple(coeffs))


def parseval_rhs_series(d: int, k_max: int, *, budget: Budget = DEFAULT_BUDGET) -> XSeries:
    """Same coefficients obtained by squaring the spectral-density expansion.

    The x^m coefficient of sum_eta row_eta(x)^2 is sum_(i+j=m) <Q_i, Q_j>,
    with Q_n the x^n layer of the length-2k_max walk (``series._orbit_walk``).
    The walk keeps each layer once per orbit, so <Q_i, Q_j> is
    sum_o size(o) Q_i[o] Q_j[o], with the orbit sizes read from the walk's
    plan (``series._orbit_plan``, fetched once); pairs i < j are summed once
    and doubled.
    Surviving exponents are even and are halved to land on the common
    index.  ``budget.parseval_k_cap`` bounds k_max.
    """
    _check_order(k_max)
    budget.check_parseval(k_max)
    plan = _orbit_plan(d, 2 * k_max)
    layers = _orbit_walk(plan)
    acc = [0] * len(layers)
    for i, small in enumerate(layers[: k_max + 1]):
        weighted = list(map(operator.mul, plan.sizes, small))
        for j, big in enumerate(layers[i : len(layers) - i], i):
            dot = sum(map(operator.mul, weighted, big))
            acc[i + j] += dot if i == j else 2 * dot
    for k in range(1, len(acc), 2):
        if acc[k] != 0:
            raise ArithmeticError(f"odd-length coefficient {k} should vanish, got {acc[k]}")
    return XSeries(tuple(acc[2 * k] for k in range(k_max + 1)))


def _square_pair_counts(d: int, k_max: int) -> tuple:
    """The pair-count coefficients (k+1)^2 w(k, 0_d), k <= k_max, read as
    abelian squares with two cuts (module docstring) from one row."""
    return tuple((k + 1) ** 2 * w for k, w in enumerate(count_row(k_max, (0,) * d)))


class ParsevalCheck(NamedTuple):
    lhs: float
    rhs: float
    tail_bound: float


def parseval_numeric_check(d: int, x: float, grid_size: int | None = None, k_max: int = 10) -> ParsevalCheck:
    """Truncated series evaluation against quadrature of the squared density.

    lhs is the pair-count series at x truncated at k_max, with the
    coefficients of parseval_lhs read from _square_pair_counts; the returned
    tail bound dominates the dropped terms: the x^k coefficient is at
    most (2k+1)(k+1) d^(2k) (pairs of strings times shared labels), so the
    tail is at most sum_{k>k_max} (2k+1)(k+1)(d^2 x)^k, returned in closed form.
    rhs is the grid quadrature of the squared density at sqrt(x).  k_max is
    at most 12, a fixed limit.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if not 0.0 <= x < 1.0 / d**2:
        raise ValueError(f"x = {x} outside [0, 1/d^2) for d = {d}")
    _check_order(k_max)
    if k_max > _NUMERIC_K_LIMIT:
        raise BudgetExceededError(
            f"numeric check order k = {k_max} is above the fixed limit of {_NUMERIC_K_LIMIT}"
        )
    lhs = XSeries(_square_pair_counts(d, k_max)).eval_float(x)
    # With k = K+1+j, K = k_max: (2k+1)(k+1) = (2K+3)(K+2) + (4K+7) j + 2 j^2,
    # and sum_j q^j, j q^j, j^2 q^j are 1/(1-q), q/(1-q)^2, q(1+q)/(1-q)^3.
    q, K = d * d * x, k_max
    tail = q ** (K + 1) * (
        2 * q * (1 + q) / (1 - q) ** 3 + (4 * K + 7) * q / (1 - q) ** 2 + (2 * K + 3) * (K + 2) / (1 - q)
    )
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
        raise BudgetExceededError(
            f"roster at d = {d}, length {total_length} needs d^length = {d**total_length} words, "
            "above the fixed limit of 100000"
        )
    labelled = {length: list(_labelled_words(d, length)) for length in range(total_length + 1)}
    roster = []
    for left_len in range(total_length + 1):
        for u, u_offsets in labelled[left_len]:
            for v, v_offsets in labelled[total_length - left_len]:
                for xi in sorted(u_offsets & v_offsets):
                    roster.append((u, v, xi))
    return roster
