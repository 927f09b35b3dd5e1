import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offsetwords import asymptotics, verify
from offsetwords.asymptotics import (
    bell_B,
    bell_B_via_power,
    bessel_zeta_even,
    complete_bell,
    laplace_estimate,
    large_d_estimate,
    normalized_bessel_series,
    ratio_probe,
    stationary_phase_estimate,
    stationary_phase_hessian_det,
    w_via_bessel,
)
from offsetwords.core import count_offset_words, multinomial

F = Fraction

# count_offset_words(60, (1, 0, -1, 0, 0, 0)): the composition sum over its
# 8.3M terms, computed once (about a minute) and pinned
W_60_PINNED = 1076450290569327300912655122210594831390490290790247050432356827134459550640827641017658896


class TestLaplace:
    def test_single_letter_alphabet_is_exact(self):
        for n in (1, 5, 40):
            assert abs(laplace_estimate(n, (3,)).value - 1.0) < 1e-12

    def test_central_binomial_leading_term(self):
        est = laplace_estimate(100, (0, 0))
        exact = count_offset_words(100, (0, 0))
        assert abs(exact / est.value - 1) < 0.002

    def test_degenerate_order_rejected(self):
        with pytest.raises(ValueError):
            laplace_estimate(0, (0, 0))

    def test_estimate_fields(self):
        est = laplace_estimate(6, (1, 0, -1))
        assert est.regime == "laplace"
        assert est.value > 0
        assert abs(math.log(est.value) - est.log_value) < 1e-9
        expected = 3 ** (12 + 1.5 + 2) * (4 * math.pi * 6) ** (-1.0)
        assert abs(est.value / expected - 1) < 1e-12


class TestStationaryPhase:
    def test_spot_values_by_direct_substitution(self):
        got = stationary_phase_estimate(0, (1, 1), 10).value
        expected = (2 * math.pi) ** -2 / math.sqrt(6) * 2**22 / 10
        assert abs(got / expected - 1) < 1e-12
        got = stationary_phase_estimate(0, (1, 0), 5).value
        expected = (2 * math.pi) ** -2 / math.sqrt(3) * 2**7 / 5
        assert abs(got / expected - 1) < 1e-12

    def test_scaling_identity(self):
        for lam in (2, 9):
            for xi in ((1, 1), (2, 0, -1)):
                d = len(xi)
                norm = sum(abs(c) for c in xi)
                ratio = (
                    stationary_phase_estimate(1, xi, 4 * lam).log_value
                    - stationary_phase_estimate(1, xi, lam).log_value
                )
                assert abs(ratio - (3 * lam * norm * math.log(d) - d / 2 * math.log(4))) < 1e-9

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            stationary_phase_estimate(1, (0, 0), 4)
        with pytest.raises(ValueError):
            stationary_phase_estimate(1, (1, 0), 0)


class TestHessian:
    def test_closed_form_values(self):
        assert stationary_phase_hessian_det((1, 1)) == 3.0
        assert abs(stationary_phase_hessian_det((1, 0, 0)) - 4 / 27) < 1e-15
        assert abs(stationary_phase_hessian_det((1, 1, 0, 0)) - 5 / 16) < 1e-15

    def test_numeric_agreement_up_to_d10(self):
        for d in range(2, 11):
            xi = (3,) + (0,) * (d - 1)
            expected = (3 / d) ** d * (d + 1)
            assert abs(stationary_phase_hessian_det(xi) - expected) < 1e-12 * expected

    def test_d1_rejected(self):
        with pytest.raises(ValueError):
            stationary_phase_hessian_det((2,))

    def test_a_wrong_closed_form_fails_its_row(self, monkeypatch):
        # the row compares the returned value itself, so a wrong value cannot pass quietly
        monkeypatch.setattr(verify, "stationary_phase_hessian_det", lambda xi: stationary_phase_hessian_det(xi) * (1 + 1e-9))
        (row,) = [r for r in verify.suite_asymptotics() if r.name.startswith("phase Hessian")]
        assert not row.passed and row.detail.startswith("d=2: closed form")


class TestBessel:
    def test_series_coefficients(self):
        s = normalized_bessel_series(0, 3)
        assert s.coeffs == (F(1), F(1), F(1, 4), F(1, 36))
        assert normalized_bessel_series(1, 2)[1] == F(1, 2)
        for nu in (0, 2, 5):
            assert normalized_bessel_series(nu, 4)[0] == 1

    def test_zeta_values(self):
        for nu in range(9):
            assert bessel_zeta_even(nu, 1) == F(1, 4 * (nu + 1))
        # frozen from the formal-log expansion of 1 + u + u^2/4: log = u - u^2/4
        assert bessel_zeta_even(0, 2) == F(1, 32)
        # classical Rayleigh second sum: zeta_nu(4) = 1/(16 (nu+1)^2 (nu+2))
        for nu in range(6):
            assert bessel_zeta_even(nu, 2) == F(1, 16 * (nu + 1) ** 2 * (nu + 2))


class TestCompleteBell:
    def test_small_cases(self):
        assert complete_bell([]) == 1
        assert complete_bell([F(5, 3)]) == F(5, 3)
        a1, a2 = F(2, 3), F(-5, 7)
        assert complete_bell([a1, a2]) == a1**2 + a2
        a3 = F(1, 2)
        assert complete_bell([a1, a2, a3]) == a1**3 + 3 * a1 * a2 + a3

    def test_bell_numbers(self):
        # B_n(1,...,1) are the Bell numbers
        assert [complete_bell([1] * n) for n in range(6)] == [1, 1, 2, 5, 15, 52]

    def test_homogeneity(self):
        rng = random.Random(41)
        a = [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(6)]
        c = F(3, 2)
        scaled = [c**k * a[k - 1] for k in range(1, 7)]
        assert complete_bell(scaled) == c**6 * complete_bell(a)

    def test_a_wrong_value_fails_its_row(self, monkeypatch):
        # the bessel suite takes the Hessenberg determinant and compares; a wrong value names every n
        monkeypatch.setattr(verify, "complete_bell", lambda a: complete_bell(a) + F(1, 10**9))
        (row,) = [r for r in verify.suite_bessel() if r.name == "complete Bell dual routes agree"]
        assert not row.passed and row.detail.startswith("n=1: exp-of-series")
        assert all(f"n={n}:" in row.detail for n in range(1, 11))


class TestBellB:
    def test_initial_values(self):
        for nu in range(4):
            for d in (1, 3, 6):
                assert bell_B(0, nu, d) == 1
                assert bell_B(1, nu, d) == d

    def test_frozen_value_from_series_oracle(self):
        # [u^2] of the d-th power of 1 + u + u^2/4 + ... is d(2d-1)/4, and the
        # n=2, nu=0 prefactor is 2!2! = 4, so B_2^(0)(d) = d(2d-1)
        for d in (2, 3, 5, 8):
            assert bell_B(2, 0, d) == d * (2 * d - 1)
            assert bell_B_via_power(2, 0, d) == d * (2 * d - 1)

    def test_routes_agree_exactly(self, suite_runs):
        # n <= 8, nu <= 4, d <= 6: the bessel suite's row
        suite_runs.check("bessel", "Bell route equals series-power route")


class TestWViaBessel:
    def test_examples(self):
        assert w_via_bessel(1, 1, 2) == 6
        assert w_via_bessel(2, 0, 3) == 15
        assert w_via_bessel(0, 2, 2) == multinomial((2, 2)) == 6

    def test_matches_direct_counts(self, suite_runs):
        # n <= 6, |m| <= 2, d <= 5: the bessel suite's row
        suite_runs.check("bessel", "Bessel-power counts equal direct counts")


class TestLargeD:
    def test_zero_offset_branch(self):
        assert large_d_estimate(1, 0, 17).value == 17.0
        assert large_d_estimate(2, 0, 10).value == 200.0
        for d in (50, 100):
            exact = count_offset_words(2, (0,) * d)
            assert exact == 2 * d * d - d
            assert abs(1 - exact / large_d_estimate(2, 0, d).value - 1 / (2 * d)) < 1e-12

    def test_nonzero_offset_branch_stirling(self):
        est = large_d_estimate(0, 1, 3)
        expected = math.sqrt(2 * math.pi) * 3**3.5 / math.e**3
        assert abs(est.value - expected) < 1e-9
        # crude sanity against the exact multinomial it approximates
        assert abs(est.value / multinomial((1, 1, 1)) - 1) < 0.05


class TestRatioProbe:
    def test_laplace_rows(self):
        rows = ratio_probe("laplace", [25, 50], xi=(0, 0))
        assert [r.sweep for r in rows] == [25, 50]
        for r in rows:
            assert r.exact == math.comb(2 * r.sweep, r.sweep)
            assert 0.9 < r.ratio < 1.0

    def test_large_d_rows(self):
        rows = ratio_probe("large_d", [10, 100, 200], n=2, m=0)
        for r in rows:
            assert abs((1 - r.ratio) - 1 / (2 * r.sweep)) < 1e-12

    def test_stationary_phase_rows_document_drift(self, suite_runs):
        # the ratios GROW like sqrt(lambda), each step within 6% of sqrt(2):
        # the quarantined formula is not asserted, only documented
        suite_runs.check("asymptotics", "ray regime probe")

    @pytest.mark.parametrize(
        "regime, sweep, params",
        [
            ("laplace", [265], {"xi": (0, 0, 0, 0)}),
            ("large_d", [10, 200], {"n": 30, "m": 2}),
            ("stationary_phase", [8, 600], {"xi": (1, 1), "n": 0}),
            ("laplace", [10_000], {"xi": (1, 0, -1, 0)}),
        ],
    )
    def test_overflowing_estimate_raises_before_any_count(self, monkeypatch, regime, sweep, params):
        def no_count(*args):
            raise AssertionError("exact count formed before every estimate")

        monkeypatch.setattr(asymptotics, "count_orders", no_count)
        with pytest.raises(OverflowError, match=f"^estimate at sweep={sweep[-1]} overflows a float$"):
            ratio_probe(regime, sweep, **params)

    def test_unknown_regime_and_large_fold(self):
        with pytest.raises(ValueError):
            ratio_probe("bogus", [1])
        # 8.3M composition terms; the fold answers in milliseconds with the
        # composition sum's pinned value
        (row,) = ratio_probe("laplace", [60], xi=(1, 0, -1, 0, 0, 0))
        assert row.exact == W_60_PINNED

    def test_single_letter_probe_is_free(self):
        (row,) = ratio_probe("laplace", [10**12], xi=(0,))
        assert (row.exact, row.estimate, row.ratio) == (1, 1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        xi=st.lists(st.integers(-2, 2), min_size=1, max_size=3).filter(any),
        n=st.integers(0, 4),
        lam=st.integers(1, 4),
    )
    def test_stationary_phase_rows_match_composition_sum(self, xi, n, lam):
        (row,) = ratio_probe("stationary_phase", [lam], xi=xi, n=n)
        assert row.exact == count_offset_words(n, tuple(lam * c for c in xi))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), n=st.integers(0, 8), m=st.integers(-2, 2))
    def test_large_d_rows_match_bessel_route(self, d, n, m):
        # count_offset_words folds at a constant offset too, so the
        # independent route here is the Bessel power series
        (row,) = ratio_probe("large_d", [d], n=n, m=m)
        assert row.exact == w_via_bessel(n, m, d)
