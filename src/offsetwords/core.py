"""Exact enumeration of offset words and the supporting multi-index arithmetic.

An offset word of order n with offset xi in Z^d is a string ww' over the
alphabet [1:d] of length 2n + ||xi||_1 whose two halves have Parikh vectors
differing by exactly xi.  Abelian squares are the xi = 0 case.  Counts are
obtained by summing products of multinomial coefficients over the weak
compositions of n into d parts, or, for whole rows and constant offsets, by
folding the split-alphabet recurrence over groups of equal letters.  The
fold's merge of two single letters is the closed form
C(2s + ||xi_A||_1, s + p_a + m_b), the count of offset words over a
two-letter alphabet (Vandermonde's identity, see _merge); everything here is
exact integer arithmetic.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

# Exact counts are plain Python integers (arbitrary precision).
BigCount = int


class SplitLabel(NamedTuple):
    """Order/offset pair carried by a string: the string has length 2n + ||xi||_1."""

    order: int
    offset: tuple


def as_offset(xi) -> tuple:
    """An offset xi in Z^d as a tuple of ints, d >= 1 (there is no empty alphabet).

    Each component passes operator.index, so ints, bools and numpy ints are
    taken and a float or string component raises TypeError, not truncated.
    """
    xi = tuple(map(operator.index, xi))
    if not xi:
        raise ValueError("offset vector must have dimension d >= 1")
    return xi


def sign_split(xi) -> tuple:
    """Split xi componentwise into (max(xi_j,0), max(-xi_j,0)); plus - minus = xi."""
    xi = as_offset(xi)
    plus = tuple(max(c, 0) for c in xi)
    minus = tuple(max(-c, 0) for c in xi)
    return plus, minus


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
    if d < 1:
        raise ValueError("need d >= 1")
    suffix = list(parikh(word, d))
    prefix = [0] * d
    length = len(word)
    labels = []
    for k in range(length + 1):
        xi = tuple(a - b for a, b in zip(prefix, suffix))
        norm = sum(abs(c) for c in xi)
        order2 = length - norm
        assert order2 % 2 == 0 and order2 >= 0
        labels.append(SplitLabel(order2 // 2, xi))
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
    M = |xi_A^-| of its offset parts; ``letter`` marks a one-letter A."""

    counts: list
    plus: int
    minus: int
    letter: bool = False


def _binomials(top: int, low: int, count: int) -> list:
    """[C(top, low), C(top, low + 1), ..., C(top, low + count - 1)]."""
    out = [math.comb(top, low)]
    for k in range(low, low + count - 1):
        out.append(out[-1] * (top - k) // (k + 1))
    return out


def _merge(a: _Row, b: _Row, orders) -> _Row:
    """Counts of the disjoint union of A and B at each order s in ``orders``,
    by the split-alphabet recurrence
    w(s) = sum_i C(s+P, i+P_A) C(s+M, i+M_A) w_A(i) w_B(s-i).

    A square (``a is b``, so P = 2 P_A and M = 2 M_A) has
    C(s+P, i+P_A) = C(s+P, s-i+P_A), likewise for M: terms i and s-i are
    equal, so the terms below s/2 are summed and doubled and the middle term
    of an even s is added once.  When the plus and minus parts coincide
    (P = M and P_A = M_A) the two binomial weights are one list.

    Two single letters a = (p_a, m_a) and b = (p_b, m_b), a square among
    them, have w_A = w_B = 1, and C(s+M, i+m_a) = C(s+M, s-i+m_b), so by
    Vandermonde's identity the sum is the one binomial
    C(2s+P+M, s+p_a+m_b) at each order.  The identity sums over all
    integers i; a term is nonzero only for -min(p_a, m_a) <= i <=
    s + min(p_b, m_b), and a letter's sign split has min(p, m) = 0, so
    those are exactly the terms 0 <= i <= s above.
    """
    plus = a.plus + b.plus
    minus = a.minus + b.minus
    if a.letter and b.letter:
        return _Row([math.comb(2 * s + plus + minus, s + a.plus + b.minus) for s in orders], plus, minus)
    x, y = a.counts, b.counts
    square = a is b
    shared = plus == minus and a.plus == a.minus
    out = []
    for s in orders:
        size = s // 2 + 1 if square else s + 1
        cp = _binomials(s + plus, a.plus, size)
        cm = cp if shared else _binomials(s + minus, a.minus, size)
        if square:
            h = (s + 1) // 2
            total = 2 * sum(cp[i] * cm[i] * x[i] * x[s - i] for i in range(h))
            if not s & 1:
                total += cp[h] * cm[h] * x[h] * x[h]
        else:
            total = sum(cp[i] * cm[i] * x[i] * y[s - i] for i in range(s + 1))
        out.append(total)
    return _Row(out, plus, minus)


def count_orders(orders: Sequence[int], xi) -> list:
    """[w(s, xi) for s in orders], from one fold of the alphabet up to the
    largest order, one group of equal letters at a time.

    Letters with equal offset parts (xi_j^+, xi_j^-) have equal rows, so a
    group of k of them is the k-th power of one letter under the merge and is
    built by repeated squaring.  The top square of each group is left as two
    factors, so the last merge computes only the orders asked for.  Each
    square sums half its terms, by the symmetry C(s+2p, i+p) = C(s+2p, s-i+p),
    and a group whose plus and minus parts are equal shares one list of
    binomial weights between them.  A merge of two single letters is one
    binomial per order by Vandermonde's identity (see _merge).  That covers
    the first square of every group of four or more letters and the first
    merge of two one-letter factors, so every d = 2 row, and the first merge
    of every fold, costs O(n) binomials instead of O(n^2) products.
    """
    orders = list(orders)
    if any(s < 0 for s in orders):
        raise ValueError("order n must be nonnegative")
    if not orders:
        return []
    plus, minus = sign_split(xi)
    if len(plus) == 1:  # d = 1: the only word of each order is one letter repeated
        return [1] * len(orders)
    top = max(orders)
    full = range(top + 1)
    factors = []
    for (p, q), k in sorted(Counter(zip(plus, minus)).items()):
        base = _Row([1] * (top + 1), p, q, True)  # one letter: w(s) = 1 at every order
        while k > 1:
            if k & 1:
                factors.append(base)
            k >>= 1
            if k > 1:
                base = _merge(base, base, full)
            else:
                factors.append(base)
        factors.append(base)
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
    other offsets sum the compositions, a route independent of the fold: the
    verify suites hold the fold-based routes (recurrence_count among them)
    to it.
    """
    if n < 0:
        raise ValueError("order n must be nonnegative")
    xi = as_offset(xi)
    if len(set(xi)) == 1:
        return count_orders((n,), xi)[0]
    plus, minus = sign_split(xi)
    total = 0
    for nu in weak_compositions(n, len(xi)):
        total += _composition_term(nu, plus, minus)
    return total
