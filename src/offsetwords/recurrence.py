"""Split-alphabet recurrence and divisibility certificates for offset-word counts.

Conditioning an offset word on how many of its characters come from a chosen
subset S of the alphabet factors the count into binomial-weighted products of
lower-dimensional counts.  Divisibility follows from grouping the composition
sum into orbits under cyclic permutation: counts at a constant offset m*1_d
are divisible by d, and in general by lcm(1..t) where t is the largest number
of repeats among the nonzero offset entries.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

from .core import BigCount, as_offset, count_orders, count_row, sign_split


def _check_split(split, d: int) -> tuple:
    """The split letters s_1 < ... < s_t of [1:d], 1 <= t <= d-1, as a tuple of ints."""
    s = tuple(map(operator.index, split))
    if d < 2:
        raise ValueError("alphabet splits need d >= 2")
    if not 1 <= len(s) <= d - 1:
        raise ValueError(f"split size must be in [1:{d - 1}], got {len(s)}")
    if any(not 1 <= v <= d for v in s):
        raise ValueError(f"split letters must lie in [1:{d}]: {s}")
    if any(a >= b for a, b in zip(s, s[1:])):
        raise ValueError(f"split letters must be strictly increasing: {s}")
    return s


def all_splits(d: int) -> list:
    """The letters of every proper nonempty subset of [1:d], as tuples, in the
    order of the bitmask whose bit j - 1 selects letter j."""
    return [tuple(j + 1 for j in range(d) if mask >> j & 1) for mask in range(1, 2**d - 1)]


def recurrence_count(n: int, xi, split: Sequence[int]) -> BigCount:
    """Evaluate the split-alphabet recurrence at (n, xi).

    Sums over j (the number of S-characters in the first half beyond the
    forced xi^+ occurrences) the product of two binomials choosing the
    positions and the two sub-alphabet counts.  The sub-counts are read from
    one grouped-letter fold per side (count_row of xi_S and of xi_T), so a
    call costs two folds.  The identity is checked against
    count_offset_words, whose composition sum at a non-constant xi is a route
    independent of the fold.
    """
    xi = as_offset(xi)
    d = len(xi)
    split = _check_split(split, d)
    plus, minus = sign_split(xi)
    s_idx = [s - 1 for s in split]
    t_idx = [j for j in range(d) if j + 1 not in split]
    xi_s = tuple(xi[i] for i in s_idx)
    xi_t = tuple(xi[i] for i in t_idx)
    plus_s = sum(plus[i] for i in s_idx)
    minus_s = sum(minus[i] for i in s_idx)
    top_plus = n + sum(plus)
    top_minus = n + sum(minus)
    left, right = count_row(n, xi_s), count_row(n, xi_t)
    return sum(
        math.comb(top_plus, j + plus_s) * math.comb(top_minus, j + minus_s) * left[j] * right[n - j]
        for j in range(n + 1)
    )


def divisibility_modulus(xi) -> int:
    """lcm(1, ..., t) where t is the maximal multiplicity of a nonzero entry of xi."""
    xi = as_offset(xi)
    if len(xi) < 2:
        raise ValueError("divisibility certificate needs d >= 2")
    if not any(xi):
        raise ValueError("divisibility certificate needs xi != 0")
    occurrences: dict = {}
    for c in xi:
        if c != 0:
            occurrences[c] = occurrences.get(c, 0) + 1
    top = max(occurrences.values())
    return math.lcm(*range(1, top + 1))


def _certified(n: int, xi: tuple, w: BigCount) -> bool:
    """True iff the given count w at (n, xi) passes every applicable modular
    certificate."""
    ok = True
    if any(xi) and len(xi) >= 2:
        ok = ok and w % divisibility_modulus(xi) == 0
    if len(set(xi)) == 1 and (n, xi[0]) != (0, 0):
        ok = ok and w % len(xi) == 0
    return ok


def check_divisibility(n: int, xi) -> bool:
    """True iff the count at (n, xi), read from one grouped-letter fold
    (count_orders), passes every applicable modular certificate."""
    xi = as_offset(xi)
    return _certified(n, xi, count_orders((n,), xi)[0])
