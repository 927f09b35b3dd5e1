import math
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from offsetwords import core, parseval, series
from offsetwords.config import Budget
from offsetwords.core import count_row
from offsetwords.errors import BudgetExceededError
from offsetwords.oracle import enumerate_pairs_by_length
from offsetwords.parseval import (
    offsets_with_norm_at_most,
    pair_roster,
    parseval_lhs,
    parseval_numeric_check,
    parseval_rhs_series,
)

F = Fraction


def test_offsets_enumeration_counts():
    # d=2: 4*l offsets of norm l >= 1; d=3: 4l^2 + 2
    assert sum(1 for _ in offsets_with_norm_at_most(2, 3)) == 1 + 4 + 8 + 12
    assert sum(1 for _ in offsets_with_norm_at_most(3, 2)) == 1 + 6 + 18
    seen = list(offsets_with_norm_at_most(2, 2))
    assert len(seen) == len(set(seen))


def test_lhs_table_values():
    assert [int(c) for c in parseval_lhs(2, 2).coeffs] == [1, 8, 54]
    assert [int(c) for c in parseval_lhs(1, 3).coeffs] == [1, 4, 9, 16]
    assert [int(c) for c in parseval_lhs(3, 1).coeffs] == [1, 12]
    assert int(parseval_lhs(3, 0).coeffs[0]) == 1


def test_lhs_equals_rhs_exactly():
    for d in (1, 2, 3):
        for k in (2, 4):
            assert parseval_lhs(d, k).coeffs == parseval_rhs_series(d, k).coeffs, (d, k)
    for k in range(5):
        assert parseval_lhs(4, k).coeffs == parseval_rhs_series(4, k).coeffs, (4, k)


def test_rhs_never_counts_through_core(monkeypatch):
    # the squared expansion is its own route: with every core count refused,
    # it still lands on the pair sum
    want = [parseval_lhs(d, k).coeffs for d, k in ((1, 5), (2, 6), (3, 4), (4, 3))]

    def refuse(*args):
        raise AssertionError("parseval_rhs_series counted through core")

    monkeypatch.setattr(core, "count_orders", refuse)
    monkeypatch.setattr(core, "count_offset_words", refuse)
    got = [parseval_rhs_series(d, k).coeffs for d, k in ((1, 5), (2, 6), (3, 4), (4, 3))]
    assert got == want


def test_odd_parity_term_is_refused(monkeypatch):
    # Q_1 holds only odd |eta|_1; a stray term at eta = 0 meets Q_0 at x^1
    def odd_walk(plan):
        layers = series._orbit_walk(plan)
        layers[1][plan.reps.index((0, 0))] += 1
        return layers

    monkeypatch.setattr(parseval, "_orbit_walk", odd_walk)
    with pytest.raises(ArithmeticError, match="odd-length coefficient 1 should vanish, got 2"):
        parseval_rhs_series(2, 3)


def test_lhs_counts_its_own_class_sizes():
    # parseval_lhs's classes cover the ball once, and each class size is the
    # number of distinct arrangements of xi and -xi, found by brute force here
    # and not through the walk's orbit sizes, which lhs == rhs cross-checks
    brute = {}
    for d in range(1, 6):
        for k in range(7):
            classes = parseval._offset_classes(d, k)
            assert sum(classes.values()) == series.lattice_points(d, k), (d, k)
            for xi, size in classes.items():
                if xi not in brute:
                    brute[xi] = len({tuple(s * c for c in p) for p in permutations(xi) for s in (1, -1)})
                assert size == brute[xi], (d, k, xi)


def test_rhs_matches_lhs_at_larger_d():
    # the squared side weights each orbit by its size; parseval_lhs counts its
    # classes separately, so a wrong size cannot cancel out of the comparison
    for d in (5, 6):
        for k in range(4):
            assert parseval_rhs_series(d, k).coeffs == parseval_lhs(d, k).coeffs, (d, k)


def per_offset_lhs(d, k_max):
    """Reference: the pair sum over every offset separately, in Fraction."""
    coeffs = [Fraction(0)] * (k_max + 1)
    for xi in offsets_with_norm_at_most(d, k_max):
        norm = sum(abs(c) for c in xi)
        counts = count_row(k_max - norm, xi)
        for n1 in range(len(counts)):
            for n2 in range(len(counts) - n1):
                coeffs[n1 + n2 + norm] += counts[n1] * counts[n2]
    return tuple(coeffs)


def abelian_squares_with_two_cuts(d, k_max):
    """(k+1)^2 w(k, 0_d): a same-offset pair (u1 u2, v1 v2) of total length 2k
    is the abelian square (u1 v2)(v1 u2) with one cut in each half."""
    return tuple((k + 1) ** 2 * w for k, w in enumerate(count_row(k_max, (0,) * d)))


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_lhs_matches_per_offset_sum(d):
    for k in range(9):
        assert parseval_lhs(d, k).coeffs == per_offset_lhs(d, k) == abelian_squares_with_two_cuts(d, k), (d, k)


@pytest.mark.parametrize("d, k_max", ((2, 4), (3, 3)))
def test_pair_enumeration_counts_abelian_squares_with_two_cuts(d, k_max):
    brute = tuple(enumerate_pairs_by_length(d, 2 * k) for k in range(k_max + 1))
    assert brute == abelian_squares_with_two_cuts(d, k_max)


def test_triple_agreement_with_brute_force(suite_runs):
    suite_runs.check("parseval", "d=2: [1, 8, 54]")


def test_coefficients_are_positive_integers():
    for d in (1, 2, 3):
        for c in parseval_lhs(d, 4).coeffs:
            assert c.denominator == 1 and c > 0


def test_cap_refusal():
    with pytest.raises(BudgetExceededError):
        parseval_lhs(3, 13)
    with pytest.raises(BudgetExceededError):
        parseval_rhs_series(2, 40)
    raised = Budget(parseval_k_cap=14)
    with pytest.raises(BudgetExceededError, match="OFFSETWORDS_PARSEVAL_K_CAP"):
        parseval_rhs_series(2, 15, budget=raised)
    assert parseval_lhs(2, 13, budget=raised).coeffs == parseval_rhs_series(2, 13, budget=raised).coeffs
    # the roster's limit is fixed, and its refusal names d^length and the limit
    message = r"d = 2, length 18 needs d\^length = 262144 words, above the fixed limit of 100000"
    with pytest.raises(BudgetExceededError, match=message):
        pair_roster(2, 18)


def test_negative_order_is_refused_naming_k():
    message = "^pair order k must be nonnegative, got k = -1$"
    for check in (
        lambda: parseval_lhs(2, -1),
        lambda: parseval_rhs_series(2, -1),
        lambda: parseval_numeric_check(2, 0.1, k_max=-1),
    ):
        with pytest.raises(ValueError, match=message):
            check()


def test_numeric_check():
    chk = parseval_numeric_check(2, 0.0)
    assert chk.lhs == 1.0 and abs(chk.rhs - 1.0) < 1e-12
    for d, x in ((2, 0.1), (3, 0.05)):
        chk = parseval_numeric_check(d, x)
        assert abs(chk.lhs - chk.rhs) <= chk.tail_bound + 1e-8
        assert chk.tail_bound > 0
    with pytest.raises(ValueError):
        parseval_numeric_check(2, 0.25)
    with pytest.raises(ValueError):
        parseval_numeric_check(2, -0.01)


@pytest.mark.parametrize("d", [0, -1])
def test_numeric_check_refuses_an_empty_alphabet(d):
    # before the x range, which divides by d, and before any row is counted
    with pytest.raises(ValueError, match=r"^need d >= 1$"):
        parseval_numeric_check(d, 0.1)


@pytest.mark.parametrize("d, x, k_max", ((1, 0.6, 12), (2, 0.1, 10), (2, 0.24, 6), (3, 0.05, 10), (3, 0.1, 12)))
def test_numeric_check_series_is_the_pair_sum(d, x, k_max):
    # the check reads the abelian-square row; its float must be the pair sum's
    assert parseval_numeric_check(d, x, k_max=k_max).lhs == parseval_lhs(d, k_max).eval_float(x)


def test_numeric_check_refusals(monkeypatch):
    # a fixed limit, named in the message with no config key; the Parseval
    # cap's environment variable does not raise it
    message = "^numeric check order k = 13 is above the fixed limit of 12$"
    with pytest.raises(BudgetExceededError, match=message):
        parseval_numeric_check(2, 0.1, k_max=13)
    monkeypatch.setenv("OFFSETWORDS_PARSEVAL_K_CAP", "40")
    with pytest.raises(BudgetExceededError, match=message):
        parseval_numeric_check(2, 0.1, k_max=13)
    # the x range is checked first, with the same message as before
    for d, x in ((2, 0.25), (2, -0.01), (3, 0.2)):
        with pytest.raises(ValueError, match=re.escape(f"x = {x} outside [0, 1/d^2) for d = {d}")):
            parseval_numeric_check(d, x, k_max=13)


@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("k_max", (0, 6, 10, 12))
@pytest.mark.parametrize("scale", (0.0, 0.05, 0.5, 0.95))
def test_numeric_check_tail_is_the_closed_form_sum(d, k_max, scale):
    # the tail bound is sum_{k>K} (2k+1)(k+1) q^k, q = d^2 x <= 0.95; the terms
    # past k = K+4000 add less than 1e-80.  The grid size does not enter the tail.
    x = scale / d**2
    q = d * d * x
    want = math.fsum((2 * k + 1) * (k + 1) * q**k for k in range(k_max + 1, k_max + 4001))
    tail = parseval_numeric_check(d, x, grid_size=16, k_max=k_max).tail_bound
    assert tail == pytest.approx(want, rel=1e-12, abs=0)


def test_pair_roster_multiplicities():
    assert len(pair_roster(2, 0)) == 1
    assert len(pair_roster(2, 2)) == 8
    roster4 = pair_roster(2, 4)
    assert len(roster4) == 54
    multiplicity = Counter((u, v) for u, v, _ in roster4)
    # cloned pairs: (11,11) and (22,22) appear under three offsets each,
    # (12,12) under three, (12,21) under two
    assert multiplicity[((1, 1), (1, 1))] == 3
    assert multiplicity[((2, 2), (2, 2))] == 3
    assert multiplicity[((1, 2), (1, 2))] == 3
    assert multiplicity[((1, 2), (2, 1))] == 2
    assert multiplicity[((1, 1), (2, 2))] == 1
    offsets_11 = {xi for u, v, xi in roster4 if (u, v) == ((1, 1), (1, 1))}
    assert offsets_11 == {(0, 0), (2, 0), (-2, 0)}
