"""Self-check suites aggregating the invariants of every module.

Each suite returns a list of CheckResult rows; the CLI prints them and exits
nonzero when any check fails.  Randomized checks use fixed, recorded seeds so
runs are reproducible.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .asymptotics import (
    bell_B,
    bell_B_via_power,
    bessel_zeta_even,
    complete_bell,
    ratio_probe,
    stationary_phase_estimate,
    stationary_phase_hessian_det,
    w_via_bessel,
)
from .core import OffsetVector, as_offset, count_offset_words, count_row, multinomial, sign_split
from .oracle import enumerate_pairs_by_length, oracle_count
from .parseval import offsets_with_norm_at_most, parseval_lhs, parseval_numeric_check, parseval_rhs_series
from .quadrature import fourier_coefficient_numeric, integral_count, integral_mean, quadrature_threshold
from .recurrence import _certified, all_splits, recurrence_count
from .series import fourier_coefficient_series, spectral_series, verify_determinantal

DIVISIBILITY_SEED = 744627
DETERMINANTAL_SEED = 530414
BELL_SEED = 912870


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    detail: str


def _result(suite: str, name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(suite, name, bool(passed), detail)


def suite_oracle() -> list:
    """Brute force vs formula vs recurrence vs quadrature on the common range."""
    results = []
    worst_rel = 0.0
    mismatches = []
    for d in (1, 2, 3):
        splits = all_splits(d)
        for xi_t in offsets_with_norm_at_most(d, 3):
            xi = OffsetVector(xi_t)
            for n in range(5):
                w = count_offset_words(n, xi)
                if oracle_count(n, xi) != w:
                    mismatches.append(f"oracle({n},{xi_t})")
                for split in splits:
                    if recurrence_count(n, xi, split) != w:
                        mismatches.append(f"recurrence({n},{xi_t},{split.selected})")
                quad = integral_count(n, xi)
                worst_rel = max(worst_rel, abs(quad - w) / w)
    results.append(
        _result(
            "oracle",
            "count == brute force == every-split recurrence (d<=3, n<=4, |xi|<=3)",
            not mismatches,
            f"{len(mismatches)} mismatches" if mismatches else "all equal",
        )
    )
    results.append(
        _result(
            "oracle",
            "quadrature matches exact counts to 1e-9 relative",
            worst_rel < 1e-9,
            f"worst relative error {worst_rel:.3e}",
        )
    )
    # every string carries length+1 labels: summing counts over the label set
    # of a fixed length L must give (L+1) d^L
    mass_ok = True
    for d in (2, 3):
        for length in range(7):
            total = 0
            for xi_t in offsets_with_norm_at_most(d, length):
                norm = sum(abs(c) for c in xi_t)
                if norm % 2 == length % 2:
                    total += count_offset_words((length - norm) // 2, xi_t)
            mass_ok = mass_ok and total == (length + 1) * d**length
    results.append(
        _result("oracle", "label mass: sum over (n, xi) at length L is (L+1) d^L", mass_ok)
    )
    return results


def suite_recurrence() -> list:
    """Full split-alphabet recurrence identity on its documented range."""
    bad = []
    checked = 0
    for d in (2, 3, 4):
        splits = all_splits(d)
        for xi_t in offsets_with_norm_at_most(d, 4):
            xi = OffsetVector(xi_t)
            for n in range(7):
                w = count_offset_words(n, xi)
                for split in splits:
                    checked += 1
                    if recurrence_count(n, xi, split) != w:
                        bad.append((n, xi_t, split.selected))
    zero_order_ok = True
    for d in (2, 3):
        for xi_t in offsets_with_norm_at_most(d, 3):
            plus, minus = sign_split(xi_t)
            if count_offset_words(0, xi_t) != multinomial(plus) * multinomial(minus):
                zero_order_ok = False
    return [
        _result(
            "recurrence",
            "recurrence == direct count for every split (d in 2..4, n<=6, |xi|<=4)",
            not bad,
            f"{checked} identities checked" + (f", {len(bad)} failed" if bad else ""),
        ),
        _result("recurrence", "order-0 counts factor into the two multinomials", zero_order_ok),
    ]


def suite_divisibility() -> list:
    """Constant-offset divisibility by d, and the lcm certificate on random offsets."""
    results = []
    lemma_bad = []
    for d in range(1, 7):
        for m in range(-3, 4):
            for n, w in enumerate(count_row(30, (m,) * d)):
                if (n, m) != (0, 0) and w % d != 0:
                    lemma_bad.append((n, m, d))
    results.append(
        _result(
            "divisibility",
            "constant offsets: d divides the count (d<=6, n<=30, |m|<=3)",
            not lemma_bad,
            f"{len(lemma_bad)} failures" if lemma_bad else "all divisible",
        )
    )
    rng = random.Random(DIVISIBILITY_SEED)
    cert_bad = []
    for _ in range(200):
        d = rng.randint(2, 5)
        while True:
            norm = rng.randint(1, 6)
            cuts = sorted(rng.randint(0, norm) for _ in range(d - 1))
            mags = [b - a for a, b in zip([0] + cuts, cuts + [norm])]
            xi = tuple(mag * rng.choice((1, -1)) if mag else 0 for mag in mags)
            if any(xi):
                break
        offset = OffsetVector(xi)
        for n, w in enumerate(count_row(10, offset)):
            if not _certified(n, offset, w):
                cert_bad.append((n, xi))
    results.append(
        _result(
            "divisibility",
            "lcm certificate on 200 seeded random offsets (d<=5, |xi|<=6, n<=10)",
            not cert_bad,
            f"{len(cert_bad)} failures" if cert_bad else "seed %d" % DIVISIBILITY_SEED,
        )
    )
    return results


def suite_bessel() -> list:
    """Bell/Bessel machinery: the two routes agree and reproduce the counts."""
    results = []
    bell_bad = [
        (n, nu, d)
        for n in range(9)
        for nu in range(5)
        for d in range(1, 7)
        if bell_B(n, nu, d) != bell_B_via_power(n, nu, d)
    ]
    results.append(
        _result(
            "bessel",
            "Bell route equals series-power route for B_n (n<=8, nu<=4, d<=6)",
            not bell_bad,
            f"{len(bell_bad)} disagreements" if bell_bad else "exact rational equality",
        )
    )
    count_bad = [
        (n, m, d)
        for n in range(7)
        for m in range(-2, 3)
        for d in range(1, 6)
        if w_via_bessel(n, m, d) != count_offset_words(n, (m,) * d)
    ]
    results.append(
        _result(
            "bessel",
            "Bessel-power counts equal direct counts (n<=6, |m|<=2, d<=5)",
            not count_bad,
            f"{len(count_bad)} disagreements" if count_bad else "exact equality",
        )
    )
    zeta_ok = all(bessel_zeta_even(nu, 1) == Fraction(1, 4 * (nu + 1)) for nu in range(9))
    results.append(_result("bessel", "zeta_nu(2) == 1/(4(nu+1)) for nu <= 8", zeta_ok))
    rng = random.Random(BELL_SEED)
    try:
        for n in range(1, 11):
            complete_bell([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
        dual_ok, detail = True, "exp-of-series == determinant on random rationals, n <= 10"
    except ArithmeticError as exc:  # pragma: no cover - signals an implementation bug
        dual_ok, detail = False, str(exc)
    results.append(_result("bessel", "complete Bell dual routes agree", dual_ok, detail))
    return results


def suite_parseval() -> list:
    """Pair-count series: direct sum, squared expansion, brute force, quadrature."""
    results = []
    triple = [int(c) for c in parseval_lhs(2, 2).coeffs]
    rhs = [int(c) for c in parseval_rhs_series(2, 2).coeffs]
    brute = [enumerate_pairs_by_length(2, 2 * k) for k in range(3)]
    results.append(
        _result(
            "parseval",
            "d=2: [1, 8, 54] from direct sum, squared table and brute force",
            triple == rhs == brute == [1, 8, 54],
            f"lhs={triple} rhs={rhs} brute={brute}",
        )
    )
    eq_ok = True
    positive_ok = True
    for d in (1, 2, 3):
        for k in (3, 6):
            lhs = parseval_lhs(d, k)
            if lhs.coeffs != parseval_rhs_series(d, k).coeffs:
                eq_ok = False
            if any(c <= 0 or c.denominator != 1 for c in lhs.coeffs):
                positive_ok = False
    results.append(
        _result("parseval", "direct sum equals squared expansion exactly (d<=3, k<=6)", eq_ok)
    )
    results.append(_result("parseval", "all pair-count coefficients are positive integers", positive_ok))
    numeric_ok = True
    details = []
    for d, x in ((2, 0.1), (2, 0.2), (3, 0.05)):
        chk = parseval_numeric_check(d, x)
        gap = abs(chk.lhs - chk.rhs)
        numeric_ok = numeric_ok and gap <= chk.tail_bound + 1e-8
        details.append(f"d={d},x={x}: gap {gap:.2e} <= tail {chk.tail_bound:.2e}")
    results.append(
        _result("parseval", "series evaluation meets quadrature within the tail bound", numeric_ok, "; ".join(details))
    )
    return results


def suite_series() -> list:
    """Monomial expansion of the density against the count-built series."""
    results = []
    trunc = 8
    extract_bad = []
    parity_bad = []
    for d in (1, 2, 3):
        table = spectral_series(d, 1, trunc)
        for xi_t in offsets_with_norm_at_most(d, 3):
            direct = fourier_coefficient_series(xi_t, d, 1, trunc)
            if table.entry(xi_t).coeffs != direct.coeffs:
                extract_bad.append((d, xi_t))
            norm = sum(abs(c) for c in xi_t)
            for k, c in enumerate(direct.coeffs):
                if (k < norm or (k - norm) % 2) and c != 0:
                    parity_bad.append((d, xi_t, k))
    results.append(
        _result(
            "series",
            "table entries match count-built series (d<=3, |xi|<=3)",
            not extract_bad,
            f"{len(extract_bad)} mismatches" if extract_bad else "exact equality",
        )
    )
    results.append(
        _result(
            "series",
            "support/parity: x^k coefficient vanishes unless k >= |xi| and k = |xi| mod 2",
            not parity_bad,
        )
    )
    mass_ok = True
    for d in (1, 2, 3):
        table = spectral_series(d, 1, trunc)
        for k in range(trunc + 1):
            total = sum(table.entries[exp][k] for exp in table.entries)
            if total != (k + 1) * d**k:
                mass_ok = False
    results.append(
        _result("series", "mass: coefficients at x^k across all entries sum to (k+1) d^k", mass_ok)
    )
    rdiv_bad = []
    for d in (1, 2, 3):
        base = spectral_series(d, 1, trunc)
        for r in (2, 3):
            table = spectral_series(d, r, trunc)
            for xi_t in offsets_with_norm_at_most(d, 4):
                xi = OffsetVector(xi_t)
                entry = table.entry(xi)
                series = fourier_coefficient_series(xi, d, r, trunc)
                if xi.divisible_by(r):
                    expected = base.entry(xi.scale_down(r))
                    if entry.coeffs != expected.coeffs or series.coeffs != fourier_coefficient_series(xi.scale_down(r), d, 1, trunc).coeffs:
                        rdiv_bad.append((d, r, xi_t))
                elif not entry.is_zero() or not series.is_zero():
                    rdiv_bad.append((d, r, xi_t))
    results.append(
        _result(
            "series",
            "r-divisibility: coefficient at xi vanishes unless r | xi, else rescales (r in {2,3})",
            not rdiv_bad,
            f"{len(rdiv_bad)} failures" if rdiv_bad else "table and series agree",
        )
    )
    return results


def suite_quadrature() -> list:
    """Grid exactness, conjugate symmetry and tail-bounded density coefficients."""
    results = []
    doubling_ok = True
    imag_ok = True
    for n, xi_t in ((2, (0, 0, 0)), (1, (1, 0)), (3, (2, -1)), (4, (0, 0))):
        xi = as_offset(xi_t)
        base = quadrature_threshold(n, xi)
        v1 = integral_mean(n, xi, base)
        v2 = integral_mean(n, xi, 2 * base)
        w = count_offset_words(n, xi)
        doubling_ok = doubling_ok and abs(v1.real - v2.real) / w < 1e-12
        imag_ok = imag_ok and abs(v1.imag) < 1e-9 and abs(v2.imag) < 1e-9
    results.append(
        _result("quadrature", "doubling the grid beyond threshold moves results < 1e-12 relative", doubling_ok)
    )
    results.append(_result("quadrature", "imaginary parts below 1e-9", imag_ok))
    tail_ok = True
    details = []
    for d, xi_t, x in ((2, (1, 0), 0.2), (3, (0, 0, 0), 0.1), (3, (1, -1, 0), 0.12)):
        xi = as_offset(xi_t)
        numeric = fourier_coefficient_numeric(xi, x)
        trunc = 14
        partial = fourier_coefficient_series(xi, d, 1, trunc).eval_float(x)
        # counts are at most d^length, so the dropped terms are dominated by
        # the geometric series (d x)^k beyond the truncation
        q = (d * x) ** 2
        tail = (d * x) ** xi.one_norm * q ** ((trunc - xi.one_norm) // 2 + 1) / (1 - q)
        gap = abs(numeric - partial)
        tail_ok = tail_ok and gap <= tail + 1e-8
        details.append(f"d={d},xi={xi_t}: gap {gap:.2e} <= tail {tail:.2e}")
    results.append(
        _result("quadrature", "density coefficients match series partial sums within the tail", tail_ok, "; ".join(details))
    )
    vanish_worst = 0.0
    for d in (2, 3):
        for r in (2, 3):
            for xi_t in offsets_with_norm_at_most(d, 4):
                xi = OffsetVector(xi_t)
                if not xi.divisible_by(r):
                    vanish_worst = max(vanish_worst, abs(fourier_coefficient_numeric(xi, 0.9 / d**2, r=r)))
    results.append(
        _result(
            "quadrature",
            "numeric coefficients vanish below 1e-9 when r does not divide xi",
            vanish_worst < 1e-9,
            f"worst magnitude {vanish_worst:.3e}",
        )
    )
    return results


def suite_determinantal() -> list:
    """Determinant identity for the stabilized polynomial at random torus points."""
    rng = random.Random(DETERMINANTAL_SEED)
    bad = 0
    for _ in range(100):
        d = rng.randint(1, 5)
        r = rng.randint(1, 3)
        x = Fraction(rng.randint(-89, 89), 100)
        z = [complex(math.cos(t), math.sin(t)) for t in (rng.uniform(0, 2 * math.pi) for _ in range(d))]
        if not verify_determinantal(x, z, r):
            bad += 1
    return [
        _result(
            "determinantal",
            "det(I - x J diag(z^r)) == 1 - x sum z^r on 100 seeded samples",
            bad == 0,
            f"{bad} failures" if bad else "all within 1e-12",
        )
    ]


def suite_asymptotics() -> list:
    """Convergence of the order and alphabet asymptotics; stationary-phase caveat."""
    results = []
    rows = ratio_probe("laplace", [25, 50, 100, 200], xi=(0, 0))
    gaps = [abs(r.ratio - 1) for r in rows]
    results.append(
        _result(
            "asymptotics",
            "order regime, d=2: |ratio - 1| decreasing and < 0.001 at n=200",
            all(a > b for a, b in zip(gaps, gaps[1:])) and gaps[-1] < 1e-3,
            "gaps " + ", ".join(f"{g:.2e}" for g in gaps),
        )
    )
    for xi in ((0, 0, 0), (1, -1, 0)):
        rows = ratio_probe("laplace", [50, 300], xi=xi)
        gap50, gap300 = (abs(r.ratio - 1) for r in rows)
        results.append(
            _result(
                "asymptotics",
                f"order regime, d=3, xi={xi}: |ratio-1| < 0.05 at n=300 and below its n=50 value",
                gap300 < 0.05 and gap300 < gap50,
                f"n=50 gap {gap50:.3e}, n=300 gap {gap300:.3e}",
            )
        )
    ratio_ok = True
    deficit_ok = True
    for d in (50, 100, 200):
        for n in range(4):
            w = count_offset_words(n, (0,) * d)
            ratio = w / (math.factorial(n) * d**n)
            ratio_ok = ratio_ok and 1 - 3 / d <= ratio <= 1
        deficit = 1 - Fraction(count_offset_words(2, (0,) * d), 2 * d * d)
        deficit_ok = deficit_ok and abs(float(deficit) - 1 / (2 * d)) < 1e-12
    results.append(
        _result("asymptotics", "alphabet regime: count/(n! d^n) in [1-3/d, 1] (n<=3, d<=200)", ratio_ok)
    )
    results.append(
        _result("asymptotics", "alphabet regime: exact n=2 deficit 1/(2d) to 1e-12", deficit_ok)
    )
    hessian_ok = True
    for d in range(2, 11):
        xi = OffsetVector((2,) + (0,) * (d - 1))
        try:
            stationary_phase_hessian_det(xi)
        except ArithmeticError:
            hessian_ok = False
    results.append(
        _result("asymptotics", "phase Hessian closed form equals tridiagonal determinant (d<=10)", hessian_ok)
    )
    # stationary-phase formula: spot values from direct substitution, the
    # algebraic scaling identity, and the documented ratio drift (the exact
    # counts C(2 lambda, lambda) grow a factor ~sqrt(lambda) above the formula)
    spot_ok = True
    for n, xi_t, lam in ((0, (1, 1), 10), (0, (1, 0), 5)):
        xi = as_offset(xi_t)
        d, norm = xi.d, xi.one_norm
        expected = (
            (2 * math.pi) ** (1 - 1.5 * d)
            / math.sqrt(norm * (d + 1))
            * d ** (lam * norm + 2 * n + d / 2 + 1)
            * lam ** (-d / 2)
        )
        got = stationary_phase_estimate(n, xi, lam).value
        spot_ok = spot_ok and abs(got / expected - 1) < 1e-12
    results.append(_result("asymptotics", "ray regime: spot values match direct substitution", spot_ok))
    scaling_ok = True
    for lam in (3, 7):
        for xi_t in ((1, 1), (2, -1, 0)):
            xi = as_offset(xi_t)
            lhs = stationary_phase_estimate(1, xi, 4 * lam).log_value - stationary_phase_estimate(1, xi, lam).log_value
            rhs = 3 * lam * xi.one_norm * math.log(xi.d) - (xi.d / 2) * math.log(4)
            scaling_ok = scaling_ok and abs(lhs - rhs) < 1e-9
    results.append(_result("asymptotics", "ray regime: lambda -> 4 lambda scaling identity", scaling_ok))
    rows = ratio_probe("stationary_phase", [8, 16, 32, 64], xi=(1, 1), n=0)
    exact_ok = all(r.exact == math.comb(2 * r.sweep, r.sweep) for r in rows)
    drift = rows[-1].ratio / rows[-2].ratio
    results.append(
        _result(
            "asymptotics",
            "ray regime probe: exact counts are central binomials; ratios DRIFT (known caveat)",
            exact_ok and drift > 1.2,
            f"ratios {', '.join(f'{r.ratio:.3g}' for r in rows)} (each ~sqrt(2) above the last)",
        )
    )
    return results


SUITES: dict[str, Callable[[], list]] = {
    "oracle": suite_oracle,
    "recurrence": suite_recurrence,
    "divisibility": suite_divisibility,
    "bessel": suite_bessel,
    "parseval": suite_parseval,
    "series": suite_series,
    "quadrature": suite_quadrature,
    "determinantal": suite_determinantal,
    "asymptotics": suite_asymptotics,
}


def run_suites(selection: str) -> list:
    """Run one named suite, or every registered suite for 'all'."""
    if selection == "all":
        names = list(SUITES)
    elif selection in SUITES:
        names = [selection]
    else:
        raise ValueError(f"unknown suite {selection!r}")
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
