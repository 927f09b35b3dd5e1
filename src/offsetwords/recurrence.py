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
from dataclasses import dataclass
from typing import Sequence

from .core import BigCount, OffsetVector, as_offset, count_offset_words, sign_split


@dataclass(frozen=True)
class AlphabetSplit:
    """A strictly increasing selection s_1 < ... < s_t from [1:d], 1 <= t <= d-1."""

    selected: tuple

    def __post_init__(self):
        object.__setattr__(self, "selected", tuple(int(s) for s in self.selected))

    def validate(self, d: int) -> None:
        s = self.selected
        if d < 2:
            raise ValueError("alphabet splits need d >= 2")
        if not 1 <= len(s) <= d - 1:
            raise ValueError(f"split size must be in [1:{d - 1}], got {len(s)}")
        if any(not 1 <= v <= d for v in s):
            raise ValueError(f"split letters must lie in [1:{d}]: {s}")
        if any(a >= b for a, b in zip(s, s[1:])):
            raise ValueError(f"split letters must be strictly increasing: {s}")

    def complement(self, d: int) -> tuple:
        chosen = set(self.selected)
        return tuple(j for j in range(1, d + 1) if j not in chosen)


def all_splits(d: int) -> list:
    """An AlphabetSplit for every proper nonempty subset of [1:d], in the order
    of the bitmask whose bit j - 1 selects letter j."""
    return [
        AlphabetSplit(tuple(j + 1 for j in range(d) if mask >> j & 1))
        for mask in range(1, 2**d - 1)
    ]


def recurrence_count(n: int, xi, split: AlphabetSplit | Sequence[int]) -> BigCount:
    """Evaluate the split-alphabet recurrence at (n, xi).

    Sums over j (the number of S-characters in the first half beyond the
    forced xi^+ occurrences) the product of two binomials choosing the
    positions and the two sub-alphabet counts.  Agrees with
    count_offset_words; sub-counts are themselves computed by the direct
    composition sum, so this is an identity check rather than a shortcut.
    """
    if not isinstance(split, AlphabetSplit):
        split = AlphabetSplit(tuple(split))
    xi = as_offset(xi)
    d = xi.d
    split.validate(d)
    plus, minus = sign_split(xi)
    s_idx = [s - 1 for s in split.selected]
    t_idx = [s - 1 for s in split.complement(d)]
    xi_s = OffsetVector(tuple(xi.components[i] for i in s_idx))
    xi_t = OffsetVector(tuple(xi.components[i] for i in t_idx))
    plus_s = sum(plus[i] for i in s_idx)
    minus_s = sum(minus[i] for i in s_idx)
    top_plus = n + sum(plus)
    top_minus = n + sum(minus)
    total = 0
    for j in range(n + 1):
        total += (
            math.comb(top_plus, j + plus_s)
            * math.comb(top_minus, j + minus_s)
            * count_offset_words(j, xi_s)
            * count_offset_words(n - j, xi_t)
        )
    return total


def divisibility_modulus(xi) -> int:
    """lcm(1, ..., t) where t is the maximal multiplicity of a nonzero entry of xi."""
    xi = as_offset(xi)
    if xi.d < 2:
        raise ValueError("divisibility certificate needs d >= 2")
    if xi.is_zero():
        raise ValueError("divisibility certificate needs xi != 0")
    occurrences: dict = {}
    for c in xi.components:
        if c != 0:
            occurrences[c] = occurrences.get(c, 0) + 1
    top = max(occurrences.values())
    return math.lcm(*range(1, top + 1))


def _certified(n: int, xi: OffsetVector, w: BigCount) -> bool:
    """True iff the given count w at (n, xi) passes every applicable modular
    certificate."""
    ok = True
    if not xi.is_zero() and xi.d >= 2:
        ok = ok and w % divisibility_modulus(xi) == 0
    if xi.is_constant() and (n, xi.components[0]) != (0, 0):
        ok = ok and w % xi.d == 0
    return ok


def check_divisibility(n: int, xi) -> bool:
    """True iff the count at (n, xi) passes every applicable modular certificate."""
    xi = as_offset(xi)
    return _certified(n, xi, count_offset_words(n, xi))
