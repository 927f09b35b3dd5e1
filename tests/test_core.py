import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetwords import core
from offsetwords.asymptotics import w_via_bessel
from offsetwords.oracle import oracle_count
from offsetwords.recurrence import check_divisibility, recurrence_count
from offsetwords.core import (
    as_offset,
    classify_splits,
    count_offset_words,
    count_orders,
    count_row,
    multinomial,
    mutuality,
    parikh,
    sign_split,
    weak_compositions,
)

A002893 = [1, 3, 15, 93, 639, 4653, 35169]


def test_as_offset():
    import numpy as np

    assert as_offset([3, -2, 0]) == (3, -2, 0)
    assert as_offset(np.array([2, -4])) == (2, -4)
    assert as_offset((True, 0)) == (1, 0)
    assert type(as_offset(np.array([1]))[0]) is int
    with pytest.raises(ValueError):
        as_offset(())
    with pytest.raises(TypeError):
        as_offset((1.0, 0))


@pytest.mark.parametrize(
    "fn, args",
    [
        (fn, (2, xi))
        for fn in (count_offset_words, count_row, oracle_count, check_divisibility)
        for xi in ((0.7, 0), ("1", 0))
    ]
    + [(recurrence_count, (2, (1, 0, 0), (1.9,)))],
)
def test_non_integer_input_is_refused(fn, args):
    # truncating each component to an int would answer for another offset or split
    with pytest.raises(TypeError):
        fn(*args)


def test_sign_split():
    assert sign_split((3, -2, 0)) == ((3, 0, 0), (0, 2, 0))
    assert sign_split((0, 0)) == ((0, 0), (0, 0))
    assert sign_split((-5,)) == ((0,), (5,))
    rng = random.Random(7)
    for _ in range(50):
        xi = tuple(rng.randint(-6, 6) for _ in range(rng.randint(1, 5)))
        plus, minus = sign_split(xi)
        assert tuple(p - m for p, m in zip(plus, minus)) == xi
        assert all(min(p, m) == 0 for p, m in zip(plus, minus))


def test_multinomial():
    assert multinomial((2, 1)) == 3
    assert multinomial((0, 0, 0)) == 1
    assert multinomial((1, 1, 1)) == 6
    assert multinomial(()) == 1
    assert multinomial((4, 3, 2)) == math.factorial(9) // (24 * 6 * 2)
    with pytest.raises(ValueError):
        multinomial((2, -1))


def test_weak_compositions_colex_order_and_count():
    assert list(weak_compositions(2, 3)) == [
        (2, 0, 0),
        (1, 1, 0),
        (0, 2, 0),
        (1, 0, 1),
        (0, 1, 1),
        (0, 0, 2),
    ]
    assert list(weak_compositions(0, 4)) == [(0, 0, 0, 0)]
    assert list(weak_compositions(3, 1)) == [(3,)]
    for n, d in ((2, 3), (5, 2), (4, 4), (0, 1)):
        comps = list(weak_compositions(n, d))
        assert len(comps) == math.comb(n + d - 1, d - 1)
        assert len(set(comps)) == len(comps)
        assert all(sum(c) == n for c in comps)


def test_count_known_values():
    assert [count_offset_words(n, (0, 0, 0)) for n in range(7)] == A002893
    assert count_offset_words(0, (2, -1)) == 1
    assert count_offset_words(1, (1, 0)) == 3
    assert count_offset_words(6, (0, 0, 0)) == 35169


def test_count_invariances():
    rng = random.Random(11)
    for _ in range(40):
        d = rng.randint(1, 4)
        xi = tuple(rng.randint(-3, 3) for _ in range(d))
        n = rng.randint(0, 4)
        w = count_offset_words(n, xi)
        perm = list(xi)
        rng.shuffle(perm)
        assert count_offset_words(n, tuple(perm)) == w
        assert count_offset_words(n, tuple(-c for c in xi)) == w
        plus, minus = sign_split(xi)
        assert count_offset_words(0, xi) == multinomial(plus) * multinomial(minus)


def test_count_is_one_for_single_letter_alphabet():
    for n in range(8):
        for xi in (-4, -1, 0, 2, 7):
            assert count_offset_words(n, (xi,)) == 1
    # d = 1 returns before any row is built, so a huge order costs nothing
    assert count_orders((10**12,), (5,)) == [1]
    assert count_orders((10**12, 0, 3), (-2,)) == [1, 1, 1]
    with pytest.raises(ValueError):
        count_orders((-1,), (5,))


def raw_count(n, xi):
    plus, minus = sign_split(xi)
    return sum(core._composition_term(nu, plus, minus) for nu in weak_compositions(n, len(xi)))


def test_constant_offset_path_matches_generic_sum():
    # the grouped-letter fold must produce the same sum as the raw
    # composition stream
    for d in (1, 2, 3, 4):
        for m in (-2, -1, 0, 1, 2):
            for n in range(6):
                xi = (m,) * d
                assert count_offset_words(n, xi) == raw_count(n, xi)


# Highest order per alphabet size that keeps the raw composition sums of a
# whole row near 10^4 terms.
RAW_ORDER_CAP = {1: 25, 2: 25, 3: 25, 4: 20, 5: 12, 6: 9}


@st.composite
def grouped_offsets(draw):
    """Offsets in dimension d <= 6 whose entries come from a pool of at most
    three values, so repeated letter groups and constant offsets are common."""
    d = draw(st.integers(1, 6))
    pool = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
    return tuple(draw(st.sampled_from(pool)) for _ in range(d))


@settings(max_examples=60, deadline=None)
@given(xi=grouped_offsets(), data=st.data())
def test_count_row_matches_point_counts_and_raw_sum(xi, data):
    n = data.draw(st.integers(0, RAW_ORDER_CAP[len(xi)]), label="n")
    row = count_row(n, xi)
    assert row == [raw_count(k, xi) for k in range(n + 1)]
    assert row == [count_offset_words(k, xi) for k in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(xi=grouped_offsets(), n=st.integers(0, 25), data=st.data())
def test_count_row_is_invariant_under_permutation_and_negation(xi, n, data):
    perm = data.draw(st.permutations(xi), label="permuted")
    row = count_row(n, xi)
    assert count_row(n, tuple(perm)) == row
    assert count_row(n, tuple(-c for c in xi)) == row


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 60), m=st.integers(-3, 3), n=st.integers(0, 12))
def test_constant_rows_match_bessel_route(d, m, n):
    assert count_row(n, (m,) * d) == [w_via_bessel(k, m, d) for k in range(n + 1)]


@settings(max_examples=60, deadline=None)
@given(xi=grouped_offsets(), orders=st.lists(st.integers(0, 25), max_size=6))
def test_count_orders_reads_the_row_in_request_order(xi, orders):
    # sparse, unsorted and repeated orders: the last merge, a square whenever
    # a letter group tops the fold, sees only these orders, odd and even
    row = count_row(max(orders, default=0), xi)
    counts = count_orders(orders, xi)
    assert counts == [row[s] for s in orders]
    cap = RAW_ORDER_CAP[len(xi)]
    assert [w for s, w in zip(orders, counts) if s <= cap] == [raw_count(s, xi) for s in orders if s <= cap]
    with pytest.raises(ValueError):
        count_orders([3, -1], xi)
    with pytest.raises(ValueError):
        count_row(-1, xi)


def explicit_merge(a, b, s):
    """The split-alphabet recurrence at order s, summed term by term."""
    plus, minus = a.plus + b.plus, a.minus + b.minus
    return sum(
        math.comb(s + plus, i + a.plus) * math.comb(s + minus, i + a.minus) * a.counts[i] * b.counts[s - i]
        for i in range(s + 1)
    )


one_letter = st.one_of(st.tuples(st.integers(0, 4), st.just(0)), st.tuples(st.just(0), st.integers(0, 4)))


@settings(max_examples=80, deadline=None)
@given(a=one_letter, b=one_letter, square=st.booleans(), orders=st.lists(st.integers(0, 60), max_size=6))
def test_letter_merge_is_the_double_sum(a, b, square, orders):
    # two single letters merge in closed form (Vandermonde); the double sum
    # it replaces is the reference, for the square a is b as well
    row_a = core._Row([1] * 61, *a, True)
    row_b = row_a if square else core._Row([1] * 61, *b, True)
    merged = core._merge(row_a, row_b, orders)
    assert merged.counts == [explicit_merge(row_a, row_b, s) for s in orders]
    assert merged.plus == row_a.plus + row_b.plus and merged.minus == row_a.minus + row_b.minus
    assert not merged.letter


@pytest.mark.parametrize("xi", [(0, 0), (1, -1), (2, 1), (-3, 0)])
def test_two_letter_row_matches_composition_sum(xi):
    # at d = 2 the composition sum has only n + 1 terms, so a whole row to
    # n = 300 is cheap to check against the fold's closed form
    assert count_row(300, xi) == [raw_count(n, xi) for n in range(301)]


@pytest.fixture
def quadratic_merges(monkeypatch):
    """The orders of every _merge call that sums terms (the branch that reads
    _binomials), in call order: a work count that needs no timing."""
    merges = []
    binomial_calls = []
    merge, binomials = core._merge, core._binomials

    def counted_binomials(*args):
        binomial_calls.append(None)
        return binomials(*args)

    def counted_merge(a, b, orders):
        before = len(binomial_calls)
        row = merge(a, b, orders)
        if len(binomial_calls) > before:
            merges.append(list(orders))
        return row

    monkeypatch.setattr(core, "_binomials", counted_binomials)
    monkeypatch.setattr(core, "_merge", counted_merge)
    return merges


def test_fold_work_guard(quadratic_merges):
    # a return to the O(n^2) sum for two single letters shows here as an
    # extra quadratic merge
    for xi in [(0, 0), (1, -1), (2, 1), (-3, 0), (0, 4), (3, 3), (-2, -2), (4, -1)]:
        count_row(40, xi)
    assert quadratic_merges == []
    count_orders([100, 200, 300], (1, -1, 2))
    assert quadratic_merges == [[100, 200, 300]]
    quadratic_merges.clear()
    count_orders((260,), (0,) * 4)
    assert quadratic_merges == [[260]]


def test_mutuality():
    assert mutuality((2, 0), (1, 1)) == (1, 0)
    assert mutuality((0, 0), (3, 5)) == (0, 0)
    assert mutuality((4, 1), (4, 1)) == (4, 1)
    with pytest.raises(ValueError):
        mutuality((1, 2), (1, 2, 3))
    rng = random.Random(13)
    for _ in range(60):
        d = rng.randint(1, 5)
        p = tuple(rng.randint(0, 6) for _ in range(d))
        q = tuple(rng.randint(0, 6) for _ in range(d))
        nu = mutuality(p, q)
        diff = tuple(a - b for a, b in zip(p, q))
        plus, minus = sign_split(diff)
        assert tuple(v + s for v, s in zip(nu, plus)) == p
        assert tuple(v + s for v, s in zip(nu, minus)) == q


def test_parikh():
    assert parikh((1, 3, 1, 2), 3) == (2, 1, 1)
    assert parikh((), 2) == (0, 0)
    with pytest.raises(ValueError):
        parikh((0,), 2)
    with pytest.raises(ValueError):
        parikh((3,), 2)


def test_classify_splits_examples():
    labels = classify_splits((1, 3, 1, 2), 3)
    assert len(labels) == 5
    assert labels[2].order == 1
    assert labels[2].offset == (0, -1, 1)
    assert classify_splits((), 3) == [(0, (0, 0, 0))]
    assert classify_splits((1, 1), 2) == [
        (0, (-2, 0)),
        (1, (0, 0)),
        (0, (2, 0)),
    ]
    with pytest.raises(ValueError):
        classify_splits((1, 4), 3)
    with pytest.raises(ValueError):
        classify_splits((), 0)


def test_classify_splits_orders_are_integral():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 4)
        word = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 8)))
        labels = classify_splits(word, d)
        assert len(labels) == len(word) + 1
        # offsets are pairwise distinct: the split point is recoverable
        assert len({l.offset for l in labels}) == len(labels)
        for label in labels:
            assert label.order >= 0
            assert 2 * label.order + sum(map(abs, label.offset)) == len(word)
