import json
import math
import random
from fractions import Fraction

import pytest

from offsetwords import series
from offsetwords.core import OffsetVector, count_offset_words, multinomial, weak_compositions
from offsetwords.oracle import oracle_count
from offsetwords.parseval import offsets_with_norm_at_most
from offsetwords.errors import BudgetExceededError
from offsetwords.series import (
    LaurentTable,
    XSeries,
    check_table_size,
    fourier_coefficient_series,
    lattice_points,
    ogf_w,
    spectral_rows,
    spectral_series,
    verify_determinantal,
)

F = Fraction


class TestXSeries:
    def test_construction_and_truncation(self):
        s = XSeries.from_list([1, 2, 3], order=5)
        assert s.order == 5
        assert s.coeffs == (F(1), F(2), F(3), F(0), F(0), F(0))
        assert XSeries.from_list([1, 2, 3], order=1).coeffs == (F(1), F(2))
        assert XSeries.zero(3).is_zero()
        with pytest.raises(ValueError):
            XSeries(())
        with pytest.raises(TypeError):
            XSeries((0.5,))

    def test_arithmetic_respects_min_order(self):
        a = XSeries.from_list([1, 1, 1, 1])
        b = XSeries.from_list([1, 2], order=1)
        assert (a + b).order == 1
        assert (a * b).order == 1
        assert (a * b).coeffs == (F(1), F(3))
        assert (a - b).coeffs == (F(0), F(-1))

    def test_multiplication_and_powers(self):
        geom = XSeries.from_list([1] * 6)  # 1/(1-x)
        sq = geom * geom
        assert sq.coeffs == tuple(F(k + 1) for k in range(6))
        assert (geom**3).coeffs == tuple(F(math.comb(k + 2, 2)) for k in range(6))
        assert (geom**0).coeffs == (F(1),) + (F(0),) * 5

    def test_shift(self):
        s = XSeries.from_list([1, 2, 3], order=4)
        assert s.shift(2).coeffs == (F(0), F(0), F(1), F(2), F(3))

    def test_log_exp_roundtrip(self):
        rng = random.Random(5)
        coeffs = [F(1)] + [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(7)]
        s = XSeries.from_list(coeffs)
        assert s.log().exp().coeffs == s.coeffs
        with pytest.raises(ValueError):
            XSeries.from_list([2, 1]).log()
        with pytest.raises(ValueError):
            XSeries.from_list([1, 1]).exp()

    def test_log_of_geometric_series(self):
        geom = XSeries.from_list([1] * 7)
        expected = [F(0)] + [F(1, k) for k in range(1, 7)]  # -log(1-x)
        assert geom.log().coeffs == tuple(expected)

    def test_evaluation(self):
        s = XSeries.from_list([1, 3, 15])
        assert s.eval_fraction(F(1, 10)) == F(1) + F(3, 10) + F(15, 100)
        assert abs(s.eval_float(0.1) - 1.45) < 1e-15

    def test_json_roundtrip_and_determinism(self):
        s = XSeries.from_list([F(1), F(-3, 7), F(0), F(22)])
        data = s.to_json_dict()
        assert XSeries.from_json_dict(data).coeffs == s.coeffs
        assert s.to_json() == s.to_json()
        parsed = json.loads(s.to_json())
        assert parsed["coeffs"][1] == ["-3", "7"]


def test_fourier_coefficient_series_examples():
    s = fourier_coefficient_series((1, 0), 2, 1, 5)
    assert s.coeffs == (F(0), F(1), F(0), F(3), F(0), F(10))
    assert fourier_coefficient_series((1, 0), 2, 2, 5).is_zero()
    s = fourier_coefficient_series((0, 0, 0), 3, 1, 4)
    assert s.coeffs == (F(1), F(0), F(3), F(0), F(15))


def test_ogf_examples():
    assert ogf_w((0, 0, 0), 3).coeffs == (F(1), F(3), F(15), F(93))
    assert ogf_w((1, 0), 2).coeffs == (F(1), F(3), F(10))
    assert ogf_w((9,), 3).coeffs == (F(1), F(1), F(1), F(1))


def test_spectral_series_small_entries():
    # d=1, r=1: entry at (m) has a single 1 at each admissible power
    table = spectral_series(1, 1, 6)
    assert table.entry((0,)).coeffs == (F(1), F(0), F(1), F(0), F(1), F(0), F(1))
    assert table.entry((3,)).coeffs == (F(0), F(0), F(0), F(1), F(0), F(1), F(0))
    # d=2: the (0,0) entry counts abelian squares by length; cross-check the
    # x^2 coefficient against the brute-force oracle
    table2 = spectral_series(2, 1, 4)
    assert table2.entry((0, 0)).coeffs[2] == oracle_count(1, (0, 0)) == 2
    # r=2 kills exponents that 2 does not divide
    t_r2 = spectral_series(2, 2, 4)
    assert t_r2.entry((1, 0)).is_zero()
    assert (1, 0) not in t_r2.entries
    assert t_r2.entry((2, 0)).coeffs == table2.entry((1, 0)).coeffs


def pair_sum_table(d, r, truncation):
    """The MacMahon pair sum by definition: multinomial(kappa) * multinomial(kappa')
    at x^(|kappa| + |kappa'|) and exponent r * (kappa - kappa')."""
    layers = [{nu: multinomial(nu) for nu in weak_compositions(k, d)} for k in range(truncation + 1)]
    table = {}
    for n in range(truncation + 1):
        for k in range(n + 1):
            for kappa, a in layers[k].items():
                for kappa_p, b in layers[n - k].items():
                    eta = tuple(r * (x - y) for x, y in zip(kappa, kappa_p))
                    table.setdefault(eta, [0] * (truncation + 1))[n] += a * b
    return table


@pytest.mark.parametrize("d,truncation", [(1, 20), (2, 10), (3, 7), (4, 6)])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_spectral_series_matches_pair_sum(d, r, truncation):
    expected = pair_sum_table(d, r, truncation)
    table = spectral_series(d, r, truncation)
    assert set(table.entries) == set(expected)
    for eta, row in expected.items():
        assert table.entries[eta].coeffs == tuple(F(c) for c in row), eta


def test_table_cells_are_bounded_before_building(monkeypatch):
    # lattice_points(d, T) is the table's exponent count, so its size is known up front
    for d, truncation in ((1, 9), (2, 6), (3, 5), (4, 4)):
        points = lattice_points(d, truncation)
        assert points == len(spectral_rows(d, 1, truncation))
        assert points == sum(1 for _ in offsets_with_norm_at_most(d, truncation))
    check_table_size(3, 40)  # 3.6M cells
    check_table_size(6, 12)  # 4.8M cells
    with pytest.raises(BudgetExceededError, match="cells"):
        check_table_size(8, 24)
    # spectral_rows consults the cap; d=2, T=10 has 221 * 11 cells
    monkeypatch.setattr(series, "_TABLE_CELL_CAP", 2000)
    with pytest.raises(BudgetExceededError):
        spectral_rows(2, 1, 10)
    assert len(spectral_rows(2, 1, 9)) == lattice_points(2, 9)


def test_extraction_consistency():
    for d in (1, 2, 3):
        table = spectral_series(d, 1, 7)
        for xi in offsets_with_norm_at_most(d, 3):
            expected = fourier_coefficient_series(xi, d, 1, 7)
            assert table.entry(xi).coeffs == expected.coeffs, (d, xi)


def test_support_parity_and_norm_bound():
    table = spectral_series(3, 1, 6)
    for exp, series in table.entries.items():
        norm = sum(abs(c) for c in exp)
        assert norm <= 6
        for k, c in enumerate(series.coeffs):
            if c != 0:
                assert k >= norm and (k - norm) % 2 == 0


def test_mass_check():
    for d in (1, 2, 3):
        table = spectral_series(d, 1, 6)
        for k in range(7):
            total = sum(series[k] for series in table.entries.values())
            assert total == (k + 1) * d**k


def test_r_divisibility_of_series():
    for d in (2, 3):
        for r in (2, 3):
            for xi_t in offsets_with_norm_at_most(d, 4):
                xi = OffsetVector(xi_t)
                series = fourier_coefficient_series(xi, d, r, 8)
                if xi.divisible_by(r):
                    eta = xi.scale_down(r)
                    expected = fourier_coefficient_series(eta, d, 1, 8)
                    assert series.coeffs == expected.coeffs
                else:
                    assert series.is_zero()


def test_by_length_series_indexes_counts():
    for xi in ((0, 0), (1, -1), (2, 0, -1)):
        xi = OffsetVector(xi)
        series = fourier_coefficient_series(xi, xi.d, 1, 9)
        for n in range((9 - xi.one_norm) // 2 + 1):
            assert series[2 * n + xi.one_norm] == count_offset_words(n, xi)


def test_table_json_schema_and_determinism():
    table = spectral_series(2, 1, 3)
    data = table.to_json_dict()
    assert set(data) == {"d", "entries"}
    exps = [tuple(e["exp"]) for e in data["entries"]]
    assert exps == sorted(exps)
    assert table.to_json() == spectral_series(2, 1, 3).to_json()
    rebuilt = XSeries.from_json_dict(data["entries"][0]["series"])
    assert rebuilt.coeffs == table.entries[exps[0]].coeffs


def test_table_entry_dimension_mismatch():
    table = spectral_series(2, 1, 3)
    with pytest.raises(ValueError):
        table.entry((1, 0, 0))
    assert isinstance(table, LaurentTable)


def test_verify_determinantal_examples():
    assert verify_determinantal(0, [1.0, -1.0], 1)
    assert verify_determinantal(F(1, 3), [complex(math.cos(1), math.sin(1))], 4)
    assert verify_determinantal(F(1, 5), [1, 1j, -1], 1)
    with pytest.raises(ValueError):
        verify_determinantal(F(1, 5), [0.5, 1.0], 1)


def test_verify_determinantal_random():
    rng = random.Random(31)
    for _ in range(50):
        d = rng.randint(1, 6)
        z = [complex(math.cos(t), math.sin(t)) for t in (rng.uniform(0, 2 * math.pi) for _ in range(d))]
        assert verify_determinantal(F(rng.randint(-9, 9), 10), z, rng.randint(1, 3))
