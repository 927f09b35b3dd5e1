import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetwords.core import count_offset_words, multinomial, sign_split
from offsetwords.recurrence import (
    check_divisibility,
    divisibility_modulus,
    recurrence_count,
)


def test_recurrence_examples():
    assert recurrence_count(2, (0, 0, 0), (1,)) == 15
    assert recurrence_count(2, (1, 1), (1,)) == 20
    for xi in ((1, -2), (0, 3, 0)):
        plus, minus = sign_split(xi)
        expected = multinomial(plus) * multinomial(minus)
        for split in ((1,), (2,)):
            assert recurrence_count(0, xi, split) == expected == count_offset_words(0, xi)


def test_recurrence_split_validation():
    with pytest.raises(ValueError):
        recurrence_count(1, (2,), (1,))  # d < 2
    with pytest.raises(ValueError):
        recurrence_count(1, (1, 0), (1, 2))  # t = d
    with pytest.raises(ValueError):
        recurrence_count(1, (1, 0, 0), (2, 2))  # not strictly increasing
    with pytest.raises(ValueError):
        recurrence_count(1, (1, 0), (3,))  # letter outside alphabet


def test_recurrence_matches_direct_count_sampled(suite_runs):
    # every split at d in 2..4, n <= 6, |xi| <= 4: the recurrence suite's row
    suite_runs.check("recurrence", "for every split")


@st.composite
def split_cases(draw):
    """(n, xi, split) with d <= 5, n <= 12 and ||xi||_1 <= 4."""
    d = draw(st.integers(2, 5))
    xi = [0] * d
    for _ in range(draw(st.integers(0, 4))):
        xi[draw(st.integers(0, d - 1))] += draw(st.sampled_from((-1, 1)))
    mask = draw(st.integers(1, 2**d - 2))
    split = tuple(j + 1 for j in range(d) if mask >> j & 1)
    return draw(st.integers(0, 12)), tuple(xi), split


@settings(max_examples=60, deadline=None)
@given(split_cases())
def test_recurrence_matches_composition_sum_beyond_suite_range(case):
    # the suite stops at n <= 6; the fold-row recurrence against the
    # composition sum (the fold itself at constant xi)
    n, xi, split = case
    assert recurrence_count(n, xi, split) == count_offset_words(n, xi)


def test_divisibility_modulus():
    assert divisibility_modulus((1, 1, 2)) == 2
    assert divisibility_modulus((3, 3, 3, -1)) == 6
    assert divisibility_modulus((1, -1)) == 1
    assert divisibility_modulus((2, 2, 2, 2, 0)) == 12  # lcm(1..4)
    with pytest.raises(ValueError):
        divisibility_modulus((0, 0))
    with pytest.raises(ValueError):
        divisibility_modulus((5,))


def test_check_divisibility_examples():
    assert check_divisibility(2, (1, 1))       # 20 = 0 mod 2
    assert check_divisibility(1, (0, 0, 0))    # 3 = 0 mod 3
    assert check_divisibility(3, (2, 2, 2))
    assert check_divisibility(0, (0, 0))       # vacuous: no certificate applies


def test_constant_offset_divisible_by_alphabet_size(suite_runs):
    # d <= 6, |m| <= 3, n <= 30: the divisibility suite's row
    suite_runs.check("divisibility", "constant offsets: d divides the count")
