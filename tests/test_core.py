import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetwords import core
from offsetwords.asymptotics import w_via_bessel
from offsetwords.core import (
    OffsetVector,
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


def test_offset_vector_basics():
    xi = OffsetVector((3, -2, 0))
    assert xi.d == 3
    assert xi.one_norm == 5
    assert xi.abs() == (3, 2, 0)
    assert (-xi).components == (-3, 2, 0)
    assert (2 * xi).components == (6, -4, 0)
    assert OffsetVector((2, -4)).scale_down(2).components == (1, -2)
    with pytest.raises(ValueError):
        OffsetVector(())
    with pytest.raises(ValueError):
        OffsetVector((1, 3)).scale_down(2)


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


def test_count_orders_reads_the_row_in_request_order():
    xi = (2, -1, -1, 0)
    row = count_row(9, xi)
    assert count_orders([9, 0, 4, 9], xi) == [row[9], row[0], row[4], row[9]]
    assert count_orders([], xi) == []
    with pytest.raises(ValueError):
        count_orders([3, -1], xi)
    with pytest.raises(ValueError):
        count_row(-1, xi)


def test_parallel_reduction_is_bit_identical(monkeypatch):
    monkeypatch.setattr(core, "_PARALLEL_MIN_TERMS", 1)
    assert count_offset_words(5, (1, -1, 0), workers=2) == count_offset_words(5, (1, -1, 0))


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
    assert labels[2].offset.components == (0, -1, 1)
    assert classify_splits((), 3) == [(0, OffsetVector((0, 0, 0)))]
    assert [(l.order, l.offset.components) for l in classify_splits((1, 1), 2)] == [
        (0, (-2, 0)),
        (1, (0, 0)),
        (0, (2, 0)),
    ]
    with pytest.raises(ValueError):
        classify_splits((1, 4), 3)


def test_classify_splits_orders_are_integral():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 4)
        word = tuple(rng.randint(1, d) for _ in range(rng.randint(0, 8)))
        labels = classify_splits(word, d)
        assert len(labels) == len(word) + 1
        # offsets are pairwise distinct: the split point is recoverable
        assert len({l.offset.components for l in labels}) == len(labels)
        for label in labels:
            assert label.order >= 0
            assert 2 * label.order + label.offset.one_norm == len(word)
