from collections import Counter
from fractions import Fraction

import pytest

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


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_lhs_matches_per_offset_sum(d):
    for k in range(9):
        assert parseval_lhs(d, k).coeffs == per_offset_lhs(d, k), (d, k)


def test_triple_agreement_with_brute_force():
    lhs = parseval_lhs(2, 2)
    for k in range(3):
        assert int(lhs.coeffs[k]) == enumerate_pairs_by_length(2, 2 * k)


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
