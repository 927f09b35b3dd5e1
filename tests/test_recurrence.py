import pytest

from offsetwords.core import count_offset_words, multinomial, sign_split
from offsetwords.recurrence import (
    AlphabetSplit,
    check_divisibility,
    divisibility_modulus,
    recurrence_count,
)


def test_recurrence_examples():
    assert recurrence_count(2, (0, 0, 0), AlphabetSplit((1,))) == 15
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
