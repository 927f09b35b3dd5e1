"""Exact enumeration of offset words and the supporting multi-index arithmetic.

An offset word of order n with offset xi in Z^d is a string ww' over the
alphabet [1:d] of length 2n + ||xi||_1 whose two halves have Parikh vectors
differing by exactly xi.  Abelian squares are the xi = 0 case.  Counts are
obtained by summing products of multinomial coefficients over the weak
compositions of n into d parts, or, for whole rows and constant offsets, by
folding the split-alphabet recurrence over groups of equal letters;
everything here is exact integer arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

# Exact counts are plain Python integers (arbitrary precision).
BigCount = int

# A Parikh vector is the tuple of character multiplicities over [1:d].
ParikhVector = tuple


class SignSplit(NamedTuple):
    """Componentwise positive/negative parts of an integer vector."""

    plus: tuple
    minus: tuple


@dataclass(frozen=True)
class OffsetVector:
    """An integer vector xi in Z^d labelling an offset class.

    Immutable; d >= 1 is enforced (there is no empty alphabet).
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        if len(comps) < 1:
            raise ValueError("offset vector must have dimension d >= 1")
        object.__setattr__(self, "components", comps)

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def one_norm(self) -> int:
        return sum(abs(c) for c in self.components)

    def abs(self) -> tuple:
        return tuple(abs(c) for c in self.components)

    def is_constant(self) -> bool:
        return all(c == self.components[0] for c in self.components)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.components)

    def divisible_by(self, r: int) -> bool:
        return all(c % r == 0 for c in self.components)

    def __neg__(self) -> "OffsetVector":
        return OffsetVector(tuple(-c for c in self.components))

    def __mul__(self, k: int) -> "OffsetVector":
        return OffsetVector(tuple(k * c for c in self.components))

    __rmul__ = __mul__

    def scale_down(self, r: int) -> "OffsetVector":
        if not self.divisible_by(r):
            raise ValueError(f"{r} does not divide {self.components}")
        return OffsetVector(tuple(c // r for c in self.components))

    def __iter__(self):
        return iter(self.components)


class SplitLabel(NamedTuple):
    """Order/offset pair carried by a string: the string has length 2n + ||xi||_1."""

    order: int
    offset: OffsetVector


def as_offset(xi) -> OffsetVector:
    """Coerce an int sequence (or OffsetVector) to an OffsetVector."""
    if isinstance(xi, OffsetVector):
        return xi
    return OffsetVector(tuple(xi))


def sign_split(xi) -> SignSplit:
    """Split xi componentwise into (max(xi_j,0), max(-xi_j,0)); plus - minus = xi."""
    xi = as_offset(xi)
    plus = tuple(max(c, 0) for c in xi.components)
    minus = tuple(max(-c, 0) for c in xi.components)
    return SignSplit(plus, minus)


def multinomial(alpha: Sequence[int]) -> BigCount:
    """|alpha|! / prod(alpha_j!), computed as a product of binomials C(prefix sum, a_j).

    Factorization-free and exact; no factorial tables are kept.
    """
    total = 0
    out = 1
    for a in alpha:
        if a < 0:
            raise ValueError(f"multinomial parts must be nonnegative, got {a}")
        total += a
        out *= math.comb(total, a)
    return out


def weak_compositions(n: int, d: int) -> Iterator[tuple]:
    """All nu in N_0^d with sum nu = n, in colexicographic order.

    Emits exactly C(n+d-1, d-1) vectors.  Colex order (last coordinate most
    significant) is fixed so that streams are deterministic.
    """
    if d < 1:
        raise ValueError("need d >= 1")
    if n < 0:
        raise ValueError("need n >= 0")
    if d == 1:
        yield (n,)
        return
    nu = [n] + [0] * (d - 1)
    while True:
        yield tuple(nu)
        # successor: move one unit to the lowest position with mass before it
        acc = 0
        t = -1
        for j in range(d - 1):
            acc += nu[j]
            if acc > 0:
                t = j + 1
                break
        if t < 0:
            return
        for j in range(t):
            nu[j] = 0
        nu[0] = acc - 1
        nu[t] += 1


def parikh(word: Sequence[int], d: int) -> tuple:
    """Multiplicity vector of the characters 1..d within ``word``."""
    counts = [0] * d
    for c in word:
        if not 1 <= c <= d:
            raise ValueError(f"character {c!r} outside alphabet [1:{d}]")
        counts[c - 1] += 1
    return tuple(counts)


def mutuality(p: Sequence[int], q: Sequence[int]) -> tuple:
    """Componentwise minimum of two Parikh vectors."""
    if len(p) != len(q):
        raise ValueError(f"dimension mismatch: {len(p)} vs {len(q)}")
    return tuple(min(a, b) for a, b in zip(p, q))


def classify_splits(word: Sequence[int], d: int) -> list:
    """Label ``word`` at every split point k = 0..len(word).

    At split k the offset is rho(prefix) - rho(suffix) and the order is
    (len(word) - ||offset||_1) / 2, which is always an integer: the length and
    the one-norm of the offset have the same parity.
    """
    suffix = list(parikh(word, d))
    prefix = [0] * d
    length = len(word)
    labels = []
    for k in range(length + 1):
        xi = tuple(a - b for a, b in zip(prefix, suffix))
        norm = sum(abs(c) for c in xi)
        order2 = length - norm
        assert order2 % 2 == 0 and order2 >= 0
        labels.append(SplitLabel(order2 // 2, OffsetVector(xi)))
        if k < length:
            c = word[k] - 1
            prefix[c] += 1
            suffix[c] -= 1
    return labels


def _composition_term(nu: tuple, plus: tuple, minus: tuple) -> BigCount:
    a = multinomial(tuple(v + p for v, p in zip(nu, plus)))
    b = multinomial(tuple(v + m for v, m in zip(nu, minus)))
    return a * b


class _Row(NamedTuple):
    """Counts w_A(0..n) of a sub-alphabet A, with the sums P = |xi_A^+| and
    M = |xi_A^-| of its offset parts."""

    counts: list
    plus: int
    minus: int


def _binomials(top: int, low: int, count: int) -> list:
    """[C(top, low), C(top, low + 1), ..., C(top, low + count - 1)]."""
    out = [math.comb(top, low)]
    for k in range(low, low + count - 1):
        out.append(out[-1] * (top - k) // (k + 1))
    return out


def _merge(a: _Row, b: _Row, orders) -> _Row:
    """Counts of the disjoint union of A and B at each order s in ``orders``,
    by the split-alphabet recurrence
    w(s) = sum_i C(s+P, i+P_A) C(s+M, i+M_A) w_A(i) w_B(s-i)."""
    plus = a.plus + b.plus
    minus = a.minus + b.minus
    x, y = a.counts, b.counts
    out = []
    for s in orders:
        cp = _binomials(s + plus, a.plus, s + 1)
        cm = _binomials(s + minus, a.minus, s + 1)
        out.append(sum(cp[i] * cm[i] * x[i] * y[s - i] for i in range(s + 1)))
    return _Row(out, plus, minus)


def count_orders(orders: Sequence[int], xi) -> list:
    """[w(s, xi) for s in orders], from one fold of the alphabet up to the
    largest order, one group of equal letters at a time.

    Letters with equal offset parts (xi_j^+, xi_j^-) have equal rows, so a
    group of k of them is the k-th power of one letter under the merge and is
    built by repeated squaring.  The top square of each group is left as two
    factors, so the last merge computes only the orders asked for.
    """
    orders = list(orders)
    if any(s < 0 for s in orders):
        raise ValueError("order n must be nonnegative")
    if not orders:
        return []
    plus, minus = sign_split(xi)
    top = max(orders)
    full = range(top + 1)
    factors = []
    for (p, q), k in sorted(Counter(zip(plus, minus)).items()):
        base = _Row([1] * (top + 1), p, q)  # one letter: w(s) = 1 at every order
        while k > 1:
            if k & 1:
                factors.append(base)
            k >>= 1
            if k > 1:
                base = _merge(base, base, full)
            else:
                factors.append(base)
        factors.append(base)
    if len(factors) == 1:  # d = 1
        return [1] * len(orders)
    row = factors[0]
    for factor in factors[1:-1]:
        row = _merge(row, factor, full)
    return _merge(row, factors[-1], orders).counts


def count_row(n: int, xi) -> list:
    """[w(0, xi), ..., w(n, xi)]: every order up to n from one grouped-letter fold."""
    if n < 0:
        raise ValueError("order n must be nonnegative")
    return count_orders(range(n + 1), xi)


def count_offset_words(n: int, xi) -> BigCount:
    """Number of order-n words offset by xi: the exact sum over weak
    compositions nu of n of multinomial(nu + xi^+) * multinomial(nu + xi^-).

    Constant offsets m*1_d take the grouped-letter fold of count_orders;
    other offsets sum the compositions.
    """
    if n < 0:
        raise ValueError("order n must be nonnegative")
    xi = as_offset(xi)
    if xi.is_constant():
        return count_orders((n,), xi)[0]
    plus, minus = sign_split(xi)
    total = 0
    for nu in weak_compositions(n, xi.d):
        total += _composition_term(nu, plus, minus)
    return total
