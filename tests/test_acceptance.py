"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; each test also enforces its runtime budget.
"""

import math
import time
from fractions import Fraction

from offsetwords.asymptotics import (
    bell_B,
    bell_B_via_power,
    bessel_zeta_even,
    ratio_probe,
    stationary_phase_estimate,
    w_via_bessel,
)
from offsetwords.cli import main as cli_main
from offsetwords.core import OffsetVector, count_offset_words
from offsetwords.oracle import enumerate_pairs_by_length, oracle_count
from offsetwords.parseval import offsets_with_norm_at_most, parseval_lhs, parseval_rhs_series
from offsetwords.quadrature import fourier_coefficient_numeric, integral_count
from offsetwords.recurrence import all_splits, recurrence_count
from offsetwords.series import fourier_coefficient_series
from offsetwords.verify import (
    DETERMINANTAL_SEED,
    DIVISIBILITY_SEED,
    suite_determinantal,
    suite_divisibility,
)

A002893 = [1, 3, 15, 93, 639, 4653, 35169]


def _finish(number: int, description: str, start: float, budget: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPTANCE {number:2d} PASS ({elapsed:6.2f}s): {description}")


def test_criterion_01_known_sequence_reproduction():
    start = time.perf_counter()
    got = [count_offset_words(n, (0, 0, 0)) for n in range(7)]
    assert got == A002893
    _finish(1, "three-letter abelian square counts 1..35169 exact", start, 1.0)


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for d in (1, 2, 3):
        splits = all_splits(d)
        for xi_t in offsets_with_norm_at_most(d, 3):
            xi = OffsetVector(xi_t)
            for n in range(5):
                w = count_offset_words(n, xi)
                assert oracle_count(n, xi) == w, (n, xi_t)
                for split in splits:
                    assert recurrence_count(n, xi, split) == w, (n, xi_t, split)
                quad = integral_count(n, xi)
                assert abs(quad - w) / w < 1e-9, (n, xi_t)
                checked += 1
    assert checked == 7 * 5 + 25 * 5 + 63 * 5
    _finish(2, "brute force == formula == recurrence == quadrature (d<=3)", start, 60.0)


def test_criterion_03_pair_table_triple_agreement():
    start = time.perf_counter()
    lhs = parseval_lhs(2, 2)
    rhs = parseval_rhs_series(2, 2)
    brute = [enumerate_pairs_by_length(2, 2 * k) for k in range(3)]
    assert [int(c) for c in lhs.coeffs] == [1, 8, 54]
    assert lhs.coeffs == rhs.coeffs
    assert brute == [1, 8, 54]
    _finish(3, "pair counts [1, 8, 54] from three independent routes", start, 10.0)


def test_criterion_04_divisibility():
    start = time.perf_counter()
    results = suite_divisibility()
    assert all(r.passed for r in results), results
    _finish(
        4,
        f"constant-offset and lcm certificates (seed {DIVISIBILITY_SEED}, 200 samples)",
        start,
        30.0,
    )


def test_criterion_05_order_asymptotics():
    start = time.perf_counter()
    rows = ratio_probe("laplace", [25, 50, 100, 200], xi=(0, 0))
    gaps = [abs(r.ratio - 1) for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 0.001, gaps
    for xi in ((0, 0, 0), (1, -1, 0)):
        rows = ratio_probe("laplace", [50, 300], xi=xi)
        gap50, gap300 = (abs(r.ratio - 1) for r in rows)
        assert gap300 < 0.05, (xi, gap300)
        assert gap300 < gap50, (xi, gap50, gap300)
    _finish(5, "order-regime ratios converge (d=2 to 1e-3 at n=200; d=3 at n=300)", start, 120.0)


def test_criterion_06_bessel_bell_machinery():
    start = time.perf_counter()
    for n in range(9):
        for nu in range(5):
            for d in range(1, 7):
                assert bell_B(n, nu, d) == bell_B_via_power(n, nu, d), (n, nu, d)
    for n in range(7):
        for m in range(-2, 3):
            for d in range(1, 6):
                assert w_via_bessel(n, m, d) == count_offset_words(n, (m,) * d), (n, m, d)
    for nu in range(9):
        assert bessel_zeta_even(nu, 1) == Fraction(1, 4 * (nu + 1))
    _finish(6, "Bell route == series power; Bessel counts == direct; zeta values", start, 10.0)


def test_criterion_07_alphabet_asymptotics():
    start = time.perf_counter()
    for d in (50, 100, 200):
        for n in range(4):
            ratio = Fraction(count_offset_words(n, (0,) * d), math.factorial(n) * d**n)
            assert Fraction(1) - Fraction(3, d) <= ratio <= 1, (n, d, ratio)
        deficit = 1 - Fraction(count_offset_words(2, (0,) * d), 2 * d * d)
        assert abs(float(deficit) - 1 / (2 * d)) < 1e-12, (d, deficit)
    _finish(7, "large-alphabet ratios in [1-3/d, 1]; exact n=2 deficit 1/(2d)", start, 5.0)


def test_criterion_08_r_divisibility():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3):
        x = 0.5 / d**2
        for r in (2, 3):
            for xi_t in offsets_with_norm_at_most(d, 4):
                xi = OffsetVector(xi_t)
                series = fourier_coefficient_series(xi, d, r, 8)
                if xi.divisible_by(r):
                    expected = fourier_coefficient_series(xi.scale_down(r), d, 1, 8)
                    assert series.coeffs == expected.coeffs, (d, r, xi_t)
                else:
                    assert series.is_zero(), (d, r, xi_t)
                    worst = max(worst, abs(fourier_coefficient_numeric(xi, x, r=r)))
    assert worst < 1e-9, worst
    _finish(8, f"coefficients vanish unless r | xi (worst numeric {worst:.1e})", start, 30.0)


def test_criterion_09_determinantal_identity():
    start = time.perf_counter()
    results = suite_determinantal()
    assert all(r.passed for r in results)
    _finish(9, f"determinant identity on 100 samples (seed {DETERMINANTAL_SEED})", start, 10.0)


def test_criterion_10_ray_regime_quarantined(capsys):
    start = time.perf_counter()
    # (a) the formula evaluates to its direct-substitution spot values
    for n, xi, lam, expected in (
        (0, (1, 1), 10, (2 * math.pi) ** -2 / math.sqrt(6) * 2**22 / 10),
        (0, (1, 0), 5, (2 * math.pi) ** -2 / math.sqrt(3) * 2**7 / 5),
    ):
        got = stationary_phase_estimate(n, xi, lam).value
        assert abs(got / expected - 1) < 1e-12
    # (b) the probe emits the convergence table; exact counts are central
    # binomials and the ratios drift like sqrt(lambda) -- the documented
    # discrepancy with the formula's lambda exponent
    rows = ratio_probe("stationary_phase", [8, 16, 32, 64], xi=(1, 1), n=0)
    assert all(r.exact == math.comb(2 * r.sweep, r.sweep) for r in rows)
    for a, b in zip(rows, rows[1:]):
        assert abs(b.ratio / a.ratio - math.sqrt(2)) < 0.1
    code = cli_main(["asympt", "--regime", "sphase", "--xi", "1,1", "--n", "0", "--sweep", "8,16,32,64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "caveat" in out and "lambda^(-(d-1)/2)" in out
    assert "8,12870," in out
    _finish(10, "ray-regime formula exposed verbatim; discrepancy documented, not asserted", start, 30.0)
