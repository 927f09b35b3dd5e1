"""Self-check suites aggregating the invariants of every module.

Each suite returns a list of CheckResult rows; the CLI prints them and exits
nonzero when any check fails.  These rows are the one definition of each
cross-route check: the tests read them rather than repeating the loops, so
row names are unique across suites.  Where a library function computes one
route, its second route lives here, in the row that compares the two.
Randomized checks use fixed, recorded seeds so runs are reproducible; numpy
is imported only by the checks that use it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

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
from .core import count_offset_words, count_row, multinomial, sign_split
from .oracle import enumerate_pairs_by_length, oracle_count
from .parseval import (
    ParsevalCheck,
    _square_pair_counts,
    offsets_with_norm_at_most,
    parseval_lhs,
    parseval_numeric_check,
    parseval_rhs_series,
)
from .quadrature import fourier_coefficient_numeric, integral_count, integral_mean, quadrature_threshold
from .recurrence import _certified, all_splits, recurrence_count
from .series import fourier_coefficient_series, spectral_series

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


def parseval_within_bound(chk: ParsevalCheck) -> bool:
    """The Parseval numeric verdict: series and quadrature differ by at most the tail bound."""
    return abs(chk.lhs - chk.rhs) <= chk.tail_bound + 1e-8


def verify_determinantal(x, z: Sequence[complex], r: int, tol: float = 1e-12) -> bool:
    """Check det(I_d - x J_d diag(z^r)) == 1 - x sum(z^r) at a point on the torus."""
    import numpy as np

    zarr = np.asarray(z, dtype=complex)
    if np.max(np.abs(np.abs(zarr) - 1.0)) > 1e-9:
        raise ValueError("points must lie on the unit polycircle")
    d = len(zarr)
    xf = float(x)
    zr = zarr**r
    mat = np.eye(d, dtype=complex) - xf * np.tile(zr, (d, 1))
    det_form = np.linalg.det(mat)
    direct = 1.0 - xf * np.sum(zr)
    return bool(abs(det_form - direct) < tol)


def _bell_via_determinant(a: list) -> Fraction:
    """Complete Bell polynomial of (a_1, ..., a_n) as the n x n lower-Hessenberg
    determinant with -1 on the superdiagonal, first column a_1..a_n and entry
    (i, j) = C(i-1, j-1) a_(i-j+1), by fraction-exact elimination."""
    n = len(a)
    mat = [[math.comb(i, j) * a[i - j] if j <= i else Fraction(-(j == i + 1)) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            factor = mat[r][col] / mat[col][col]
            for c in range(col, n):
                mat[r][c] -= factor * mat[col][c]
    return det


def suite_oracle() -> list:
    """Brute force vs formula vs quadrature on the common range."""
    results = []
    worst_rel = 0.0
    mismatches = []
    pairs = 0
    for d in (1, 2, 3):
        for xi in offsets_with_norm_at_most(d, 3):
            for n in range(5):
                pairs += 1
                w = count_offset_words(n, xi)
                if oracle_count(n, xi) != w:
                    mismatches.append((n, xi))
                worst_rel = max(worst_rel, abs(integral_count(n, xi) - w) / w)
    results.append(
        _result(
            "oracle",
            "count == brute force (d<=3, n<=4, |xi|<=3)",
            not mismatches,
            f"{pairs} (n, xi) pairs" + (f", {len(mismatches)} mismatches" if mismatches else ", all equal"),
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
    # two letters: the fold merges them in closed form, so hold that binomial
    # to brute force directly, without the fold
    two_letter = [(n, xi) for xi in offsets_with_norm_at_most(2, 4) for n in range(7)]
    two_letter_bad = []
    for n, xi in two_letter:
        (p1, _), (_, m2) = sign_split(xi)
        if oracle_count(n, xi) != math.comb(2 * n + sum(map(abs, xi)), n + p1 + m2):
            two_letter_bad.append((n, xi))
    results.append(
        _result(
            "oracle",
            "d=2 closed form C(2n+|xi|, n+xi_1^+ +xi_2^-) (n<=6, |xi|<=4)",
            not two_letter_bad,
            f"{len(two_letter)} (n, xi) pairs"
            + (f", {len(two_letter_bad)} mismatches" if two_letter_bad else ", all equal"),
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
        for xi in offsets_with_norm_at_most(d, 4):
            for n in range(7):
                w = count_offset_words(n, xi)
                for split in splits:
                    checked += 1
                    if recurrence_count(n, xi, split) != w:
                        bad.append((n, xi, split))
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
        for n, w in enumerate(count_row(10, xi)):
            if not _certified(n, xi, w):
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
    dual_bad = []
    for n in range(1, 11):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        via_exp, via_det = complete_bell(a), _bell_via_determinant(a)
        if via_exp != via_det:
            dual_bad.append(f"n={n}: exp-of-series {via_exp} vs determinant {via_det}")
    detail = "; ".join(dual_bad) or "exp-of-series == determinant on random rationals, n <= 10"
    results.append(_result("bessel", "complete Bell dual routes agree", not dual_bad, detail))
    return results


def suite_parseval() -> list:
    """Pair-count series: direct sum, squared expansion, brute force, quadrature."""
    results = []
    triple = parseval_lhs(2, 2).coeffs
    rhs = parseval_rhs_series(2, 2).coeffs
    brute = [enumerate_pairs_by_length(2, 2 * k) for k in range(3)]
    results.append(
        _result(
            "parseval",
            "d=2: [1, 8, 54] from direct sum, squared table and brute force",
            list(triple) == list(rhs) == brute == [1, 8, 54],
            f"lhs=[{', '.join(map(str, triple))}] rhs=[{', '.join(map(str, rhs))}] brute={brute}",
        )
    )
    lhs = {(d, k): parseval_lhs(d, k).coeffs for d in (1, 2, 3, 4) for k in (3, 6)}
    small = [(d, k) for d, k in lhs if d <= 3]
    eq_ok = all(lhs[d, k] == parseval_rhs_series(d, k).coeffs for d, k in small)
    positive_ok = all(c > 0 and c.denominator == 1 for key in small for c in lhs[key])
    results.append(
        _result("parseval", "direct sum equals squared expansion exactly (d<=3, k<=6)", eq_ok)
    )
    results.append(_result("parseval", "all pair-count coefficients are positive integers", positive_ok))
    # the numeric check's series: a same-offset pair is an abelian square
    # with one cut in each half
    squares_ok = all(coeffs == _square_pair_counts(d, k) for (d, k), coeffs in lhs.items())
    results.append(
        _result("parseval", "pair counts equal (k+1)^2 x abelian squares (d<=4, k<=6)", squares_ok)
    )
    numeric_ok = True
    details = []
    for d, x in ((2, 0.1), (2, 0.2), (3, 0.05)):
        chk = parseval_numeric_check(d, x)
        numeric_ok = numeric_ok and parseval_within_bound(chk)
        details.append(f"d={d},x={x}: gap {abs(chk.lhs - chk.rhs):.2e} <= tail {chk.tail_bound:.2e}")
    results.append(
        _result("parseval", "series evaluation meets quadrature within the tail bound", numeric_ok, "; ".join(details))
    )
    return results


def suite_series() -> list:
    """Monomial expansion of the density against the count-built series."""
    results = []
    trunc = 8
    bases = {d: spectral_series(d, 1, trunc) for d in (1, 2, 3)}
    extract_bad = []
    parity_bad = []
    for d, table in bases.items():
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
    mass_ok = all(
        sum(entry[k] for entry in table.entries.values()) == (k + 1) * d**k
        for d, table in bases.items()
        for k in range(trunc + 1)
    )
    results.append(
        _result("series", "mass: coefficients at x^k across all entries sum to (k+1) d^k", mass_ok)
    )
    rdiv_bad = []
    for d, base in bases.items():
        for r in (2, 3):
            table = spectral_series(d, r, trunc)
            for xi in offsets_with_norm_at_most(d, 4):
                entry = table.entry(xi)
                series = fourier_coefficient_series(xi, d, r, trunc)
                if not any(c % r for c in xi):
                    eta = tuple(c // r for c in xi)
                    if entry.coeffs != base.entry(eta).coeffs or series.coeffs != fourier_coefficient_series(eta, d, 1, trunc).coeffs:
                        rdiv_bad.append((d, r, xi))
                elif not entry.is_zero() or not series.is_zero():
                    rdiv_bad.append((d, r, xi))
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
    for n, xi in ((2, (0, 0, 0)), (1, (1, 0)), (3, (2, -1)), (4, (0, 0))):
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
    for d, xi, x in ((2, (1, 0), 0.2), (3, (0, 0, 0), 0.1), (3, (1, -1, 0), 0.12)):
        numeric = fourier_coefficient_numeric(xi, x)
        trunc = 14
        partial = fourier_coefficient_series(xi, d, 1, trunc).eval_float(x)
        # counts are at most d^length, so the dropped terms are dominated by
        # the geometric series (d x)^k beyond the truncation
        q = (d * x) ** 2
        norm = sum(map(abs, xi))
        tail = (d * x) ** norm * q ** ((trunc - norm) // 2 + 1) / (1 - q)
        gap = abs(numeric - partial)
        tail_ok = tail_ok and gap <= tail + 1e-8
        details.append(f"d={d},xi={xi}: gap {gap:.2e} <= tail {tail:.2e}")
    results.append(
        _result("quadrature", "density coefficients match series partial sums within the tail", tail_ok, "; ".join(details))
    )
    vanish_worst = max(
        abs(fourier_coefficient_numeric(xi, scale / d**2, r=r))
        for d in (1, 2, 3)
        for scale in (0.5, 0.9)
        for r in (2, 3)
        for xi in offsets_with_norm_at_most(d, 4)
        if any(c % r for c in xi)
    )
    results.append(
        _result(
            "quadrature",
            "numeric coefficients vanish below 1e-9 when r does not divide xi (d<=3, |xi|<=4, x = 0.5/d^2, 0.9/d^2)",
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
    ratio_ok = all(
        1 - Fraction(3, d) <= Fraction(count_offset_words(n, (0,) * d), math.factorial(n) * d**n) <= 1
        for d in (50, 100, 200)
        for n in range(4)
    )
    deficit_ok = all(
        abs(float(1 - Fraction(count_offset_words(2, (0,) * d), 2 * d * d)) - 1 / (2 * d)) < 1e-12
        for d in (50, 100, 200)
    )
    results.append(
        _result("asymptotics", "alphabet regime: count/(n! d^n) in [1-3/d, 1] exactly (n<=3, d<=200)", ratio_ok)
    )
    results.append(
        _result("asymptotics", "alphabet regime: exact n=2 deficit 1/(2d) to 1e-12", deficit_ok)
    )
    import numpy as np

    hessian_bad = []
    for d in range(2, 11):
        # xi = (2, 0, ..., 0): diagonal 2c and off-diagonal -c with c = 2/d
        c = 2 / d
        numeric = float(np.linalg.det(2 * c * np.eye(d) - c * (np.eye(d, k=1) + np.eye(d, k=-1))))
        closed = stationary_phase_hessian_det((2,) + (0,) * (d - 1))
        if abs(numeric - closed) > 1e-12 * max(1.0, abs(closed)):
            hessian_bad.append(f"d={d}: closed form {closed!r} vs determinant {numeric!r}")
    name = "phase Hessian closed form equals tridiagonal determinant (d<=10)"
    results.append(_result("asymptotics", name, not hessian_bad, "; ".join(hessian_bad)))
    # stationary-phase formula: spot values from direct substitution, the
    # algebraic scaling identity, and the documented ratio drift (the exact
    # counts C(2 lambda, lambda) grow a factor ~sqrt(lambda) above the formula)
    spot_ok = True
    for n, xi, lam in ((0, (1, 1), 10), (0, (1, 0), 5)):
        d, norm = len(xi), sum(map(abs, xi))
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
        for xi in ((1, 1), (2, -1, 0)):
            lhs = stationary_phase_estimate(1, xi, 4 * lam).log_value - stationary_phase_estimate(1, xi, lam).log_value
            rhs = 3 * lam * sum(map(abs, xi)) * math.log(len(xi)) - (len(xi) / 2) * math.log(4)
            scaling_ok = scaling_ok and abs(lhs - rhs) < 1e-9
    results.append(_result("asymptotics", "ray regime: lambda -> 4 lambda scaling identity", scaling_ok))
    rows = ratio_probe("stationary_phase", [8, 16, 32, 64], xi=(1, 1), n=0)
    exact_ok = all(r.exact == math.comb(2 * r.sweep, r.sweep) for r in rows)
    steps = [b.ratio / a.ratio / math.sqrt(2) - 1 for a, b in zip(rows, rows[1:])]
    results.append(
        _result(
            "asymptotics",
            "ray regime probe: exact counts are central binomials; ratios DRIFT by sqrt(2) per doubling, to 6% (known caveat)",
            exact_ok and all(abs(step) <= 0.06 for step in steps),
            f"ratios {', '.join(f'{r.ratio:.3g}' for r in rows)}; steps off sqrt(2) by {', '.join(f'{s:+.1%}' for s in steps)}",
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
