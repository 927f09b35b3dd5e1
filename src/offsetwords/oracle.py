"""Brute-force ground truth: count offset words straight from the definition.

Nothing here touches the multinomial formula.  Strings are generated
exhaustively (as tuples of ints over [1:d]) and counted by comparing actual
Parikh vectors, so these routines serve as the independent oracle for the
closed-form counting paths.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from typing import Iterator, Sequence

from .config import DEFAULT_BUDGET, Budget
from .core import BigCount, as_offset, classify_splits, parikh, sign_split


def _parikh_census(d: int, length: int) -> Counter:
    """Histogram of Parikh vectors over all d^length strings, by generation."""
    census: Counter = Counter()
    for word in product(range(1, d + 1), repeat=length):
        census[parikh(word, d)] += 1
    return census


def oracle_count(n: int, xi, budget: Budget = DEFAULT_BUDGET) -> BigCount:
    """Count strings ww' with |w| = n+|xi^+|, |w'| = n+|xi^-| and
    rho(w) - rho(w') = xi, by exhaustively generating both halves."""
    if n < 0:
        raise ValueError("order n must be nonnegative")
    xi = as_offset(xi)
    d = xi.d
    plus, minus = sign_split(xi)
    total_length = 2 * n + xi.one_norm
    budget.check_oracle(d, total_length)
    left = _parikh_census(d, n + sum(plus))
    right = _parikh_census(d, n + sum(minus))
    total = 0
    for rho_w, cnt in left.items():
        rho_wp = tuple(a - c for a, c in zip(rho_w, xi.components))
        if all(v >= 0 for v in rho_wp):
            total += cnt * right.get(rho_wp, 0)
    return total


def oracle_words(n: int, xi, budget: Budget = DEFAULT_BUDGET, limit: int | None = None) -> Iterator[tuple]:
    """Yield the actual offset words ww' (capped listing for the CLI)."""
    xi = as_offset(xi)
    d = xi.d
    plus, minus = sign_split(xi)
    budget.check_oracle(d, 2 * n + xi.one_norm)
    emitted = 0
    for w in product(range(1, d + 1), repeat=n + sum(plus)):
        rho_w = parikh(w, d)
        for wp in product(range(1, d + 1), repeat=n + sum(minus)):
            if tuple(a - b for a, b in zip(rho_w, parikh(wp, d))) == xi.components:
                yield w + wp
                emitted += 1
                if limit is not None and emitted >= limit:
                    return


def is_abelian_square(word: Sequence[int]) -> bool:
    """True iff the word has even length and its halves are anagrams."""
    if len(word) % 2:
        return False
    half = len(word) // 2
    return Counter(word[:half]) == Counter(word[half:])


def _labelled_words(d: int, length: int) -> Iterator[tuple]:
    """(word, offsets) for every word of the given length over [1:d], where
    offsets is the set of offset vectors of its labellings (classify_splits).

    A set loses nothing: consecutive splits move prefix - suffix by 2 e_c, so
    no word carries the same offset at two split points.
    """
    for word in product(range(1, d + 1), repeat=length):
        yield word, {label.offset.components for label in classify_splits(word, d)}


def enumerate_pairs_by_length(
    d: int, total_length: int, budget: Budget = DEFAULT_BUDGET
) -> BigCount:
    """Size of the length-``total_length`` slice of the disjoint union over all
    offsets xi of (words offset by xi) x (words offset by xi).

    A pair (u, v) is counted once for every xi under which both u and v carry
    an offset-xi labelling; labellings come from classify_splits so the
    membership test is the definitional one.
    """
    if total_length < 0 or total_length % 2:
        raise ValueError("combined length must be even and nonnegative")
    if d < 1:
        raise ValueError("need d >= 1")
    budget.check_oracle(d, total_length)
    label_census: dict[int, Counter] = {}
    for length in range(total_length + 1):
        census: Counter = Counter()
        for _, offsets in _labelled_words(d, length):
            census.update(offsets)
        label_census[length] = census
    total = 0
    for left_len in range(total_length + 1):
        left = label_census[left_len]
        right = label_census[total_length - left_len]
        for offset, cnt in left.items():
            total += cnt * right.get(offset, 0)
    return total
