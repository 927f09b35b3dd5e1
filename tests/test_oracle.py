import random

import pytest

from offsetwords.config import Budget
from offsetwords.core import classify_splits
from offsetwords.errors import BudgetExceededError
from offsetwords.oracle import (
    enumerate_pairs_by_length,
    is_abelian_square,
    oracle_count,
    oracle_words,
)
from offsetwords.parseval import offsets_with_norm_at_most


def test_oracle_examples():
    assert oracle_count(1, (1, 0)) == 3
    assert oracle_count(0, (0, 0, 0)) == 1
    assert oracle_count(0, (0,)) == 1
    assert oracle_count(2, (0, 0)) == 6


def test_oracle_words_listing():
    words = sorted(oracle_words(1, (1, 0)))
    assert words == [(1, 1, 1), (1, 2, 2), (2, 1, 2)]
    assert len(list(oracle_words(2, (0, 0)))) == oracle_count(2, (0, 0))
    assert len(list(oracle_words(2, (0, 0), limit=2))) == 2
    assert list(oracle_words(1, (1, 0), limit=0)) == []
    assert list(oracle_words(1, (1, 0), limit=-2)) == []


def test_budget_refusal_is_loud():
    tight = Budget(oracle_max_total_length=4, oracle_max_alphabet=3, oracle_max_strings=50)
    with pytest.raises(BudgetExceededError):
        oracle_count(3, (0, 0), tight)  # length 6 > 4
    with pytest.raises(BudgetExceededError):
        oracle_count(1, (0, 0, 0, 0), Budget(oracle_max_alphabet=3))
    with pytest.raises(BudgetExceededError, match="oracle_max_strings in the config file or OFFSETWORDS_ORACLE_MAX_STRINGS"):
        oracle_count(2, (0, 0, 0), tight)  # 3^4 > 50
    # refusal happens before any work, not as silent truncation
    assert oracle_count(1, (0, 0), tight) == 2


def test_matches_formula_on_common_range(suite_runs):
    # d <= 3, n <= 4, |xi| <= 3: the oracle suite's row
    suite_runs.check("oracle", "count == brute force")


def test_is_abelian_square():
    assert is_abelian_square((1, 2, 1, 2))
    assert not is_abelian_square((1, 3, 1, 2))
    assert is_abelian_square(())
    assert not is_abelian_square((1, 2, 2))  # odd length


def test_abelian_square_iff_middle_split_offset_zero():
    rng = random.Random(23)
    for _ in range(80):
        d = rng.randint(1, 3)
        word = tuple(rng.randint(1, d) for _ in range(2 * rng.randint(0, 4)))
        middle = classify_splits(word, d)[len(word) // 2]
        assert is_abelian_square(word) == (not any(middle.offset))


def test_label_mass_identity():
    # every string of length L carries exactly L+1 labels
    for d in (2, 3):
        for length in range(6):
            total = 0
            for xi in offsets_with_norm_at_most(d, length):
                norm = sum(abs(c) for c in xi)
                if norm % 2 == length % 2:
                    total += oracle_count((length - norm) // 2, xi)
            assert total == (length + 1) * d**length


def test_enumerate_pairs_by_length():
    assert enumerate_pairs_by_length(2, 0) == 1
    assert enumerate_pairs_by_length(2, 2) == 8
    assert enumerate_pairs_by_length(2, 4) == 54
    with pytest.raises(ValueError):
        enumerate_pairs_by_length(2, 3)
    with pytest.raises(BudgetExceededError):
        enumerate_pairs_by_length(2, 10, Budget(oracle_max_total_length=8))
