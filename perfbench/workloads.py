"""Seeded input streams, library calls and untimed result checks for the
offsetwords benchmark.

A workload is a fixed list of strata.  Round k of a workload holds one query
per stratum.  The values that set a query's cost (order, truncation, alphabet
size, |m|, the x of a density grid) follow a fixed schedule per stratum: the
Weyl sequence u_k = frac(u_0 + k * golden), which covers the stratum's range
evenly from the first rounds on.  The seed picks everything else -- offsets,
signs, positions -- so runs on different seeds do the same amount of work on
different inputs, and their spread is the host's, not the draw's.  Nothing
here is timed; run.py times the calls.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from offsetwords import asymptotics, core, oracle, parseval, quadrature, recurrence, series
from offsetwords.asymptotics import AsymptoticEstimate
from offsetwords.series import LaurentTable, XSeries

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# The public functions the workloads call, named "<module>.<function>".
FUNCTIONS = {
    f"{module.__name__.rsplit('.', 1)[1]}.{name}": getattr(module, name)
    for module, names in (
        (core, ("count_offset_words",)),
        (oracle, ("oracle_count",)),
        (recurrence, ("recurrence_count", "check_divisibility")),
        (quadrature, ("integral_count", "fourier_coefficient_numeric")),
        (series, ("ogf_w", "fourier_coefficient_series", "spectral_series")),
        (parseval, ("parseval_lhs", "parseval_rhs_series", "parseval_numeric_check")),
        (asymptotics, ("w_via_bessel", "large_d_estimate", "ratio_probe")),
    )
    for name in names
}

# A documented defect: both estimates call math.exp on their log-space value
# and raise OverflowError -- large_d_estimate at n = 4 from d = 164 for
# |m| = 1 and from d = 88 for |m| = 2 (at n = 30 from d = 118 and d = 67),
# laplace_estimate (inside ratio_probe) at d = 4 from n = 260.  Such calls
# count against ok_frac and are listed by input, but they are not the
# unexpected failures that the result's "failed" field reports.
KNOWN_FAILURES = {
    "asymptotics.large_d_estimate": OverflowError,
    "asymptotics.ratio_probe": OverflowError,
}

# Truncation of the series partial sum that numeric Fourier coefficients are
# compared with, and the slack verify's quadrature suite adds to its tail.
SERIES_TRUNCATION = 30
NUMERIC_SLACK = 1e-8
# Library defaults: the grid-doubling tolerance of the numeric-density calls
# and the number of pair-count terms parseval_numeric_check sums.
DOUBLING_TOL = 1e-8
PARSEVAL_CHECK_K = 10
# Bytes per grid point: the grids are complex128 arrays.
GRID_POINT_BYTES = 16
# Rounds over which quadrature.repeat_frac is counted.
REPEAT_ROUNDS = 8


class Call(NamedTuple):
    name: str
    args: tuple
    kwargs: tuple = ()

    def __str__(self) -> str:
        parts = [repr(a) for a in self.args] + [f"{k}={v!r}" for k, v in self.kwargs]
        return f"{self.name}({', '.join(parts)})"


class Query(NamedTuple):
    stratum: str
    calls: tuple
    # True where the inputs reach the documented overflow and the call would
    # return exact results once it is fixed: the reference digest skips it.
    overflows: bool = False


def is_known_failure(call: Call, error: Exception) -> bool:
    return isinstance(error, KNOWN_FAILURES.get(call.name, ()))


def canonical(xi) -> tuple:
    """Class of an offset under coordinate permutation and negation."""
    return min(tuple(sorted(xi)), tuple(sorted(-c for c in xi)))


def is_constant(xi) -> bool:
    return all(c == xi[0] for c in xi)


def lattice_points(d: int, radius: int) -> int:
    """Number of xi in Z^d with ||xi||_1 <= radius."""
    return sum(2**k * math.comb(d, k) * math.comb(radius, k) for k in range(min(d, radius) + 1))


@lru_cache(maxsize=None)
def partitions_at_most(n: int, parts: int) -> int:
    """Partitions of n into at most ``parts`` parts (the orbit count of the
    constant-offset path)."""
    ways = [1] + [0] * n
    for k in range(1, min(parts, n) + 1):
        for total in range(k, n + 1):
            ways[total] += ways[total - k]
    return ways[n]


def certified(n: int, xi, w: int) -> bool:
    """The divisibility certificates of recurrence.check_divisibility, applied
    to a count that is already known."""
    if any(xi) and len(xi) >= 2 and w % recurrence.divisibility_modulus(xi):
        return False
    if is_constant(xi) and (n, xi[0]) != (0, 0) and w % len(xi):
        return False
    return True


class Stream:
    """The input stream of one workload and seed; round k is the same in
    every process."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.rng = random.Random(f"{workload}/{seed}")
        self.schedule = random.Random(workload)
        self.phases: dict = {}
        self.seen: set = set()
        self.rounds: list = []

    def round(self, k: int) -> tuple:
        while len(self.rounds) <= k:
            index = len(self.rounds)
            self.rounds.append(
                tuple(self.workload.query(self, stratum, index) for stratum in self.workload.STRATA)
            )
        return self.rounds[k]

    def spread(self, key, k: int, lo: int, hi: int) -> int:
        """Integer in [lo, hi] for round k from the schedule of ``key``; the
        same for every seed."""
        if key not in self.phases:
            self.phases[key] = self.schedule.random()
        u = (self.phases[key] + k * GOLDEN) % 1.0
        return lo + int(u * (hi - lo + 1))

    def fresh_offset(self, d: int, draw) -> tuple:
        """A non-constant offset whose class under permutation and negation
        no earlier query of the stream used; ``draw(d, bound)`` proposes one
        with entries in [-bound, bound], and the bound grows when classes run
        out."""
        bound = 2
        while True:
            for _ in range(64):
                xi = draw(d, bound)
                key = canonical(xi)
                if not is_constant(xi) and key not in self.seen:
                    self.seen.add(key)
                    return xi
            bound += 1

    def dense(self, d: int, bound: int) -> tuple:
        return tuple(self.rng.randint(-bound, bound) for _ in range(d))

    def sparse(self, d: int, bound: int) -> tuple:
        xi = [0] * d
        for j in self.rng.sample(range(d), self.rng.randint(1, 3)):
            xi[j] = self.rng.choice((1, -1)) * self.rng.randint(1, bound)
        return tuple(xi)

    def small_offset(self, d: int, norm_cap: int, constant: bool = True) -> tuple:
        """An offset with entries in [-2, 2] and one-norm at most norm_cap;
        ``constant=False`` keeps it off the orbit path, whose cost differs."""
        while True:
            xi = self.dense(d, 2)
            if sum(map(abs, xi)) <= norm_cap and (constant or not is_constant(xi)):
                return xi


# ---------------------------------------------------------------------------
# point-counts: independent count_offset_words queries, almost no shared work.


class PointCounts:
    # (regime, d, lowest n, highest n); the two regimes alternate in a round.
    STRATA = (
        ("small-alphabet", 3, 100, 150),
        ("large-alphabet", 6, 8, 12),
        ("small-alphabet", 3, 30, 100),
        ("large-alphabet", 7, 6, 11),
        ("small-alphabet", 4, 20, 50),
        ("large-alphabet", 8, 5, 10),
        ("small-alphabet", 4, 50, 90),
        ("large-alphabet", 9, 4, 10),
        ("small-alphabet", 5, 10, 30),
        ("large-alphabet", 10, 4, 10),
        ("small-alphabet", 5, 30, 45),
        ("large-alphabet", 6, 4, 12),
    )

    @staticmethod
    def query(stream: Stream, stratum, k: int) -> Query:
        regime, d, lo, hi = stratum
        n = stream.spread(stratum, k, lo, hi)
        xi = stream.fresh_offset(d, stream.dense if regime == "small-alphabet" else stream.sparse)
        return Query(f"{regime} d={d}", (Call("core.count_offset_words", (n, xi)),))

    @staticmethod
    def check(query: Query, outcomes: list, deep: bool) -> list:
        n, xi = query.calls[0].args
        (w,) = outcomes
        if isinstance(w, Exception):
            return []
        if w <= 0 or not certified(n, xi, w):
            return [(0, f"count {w} fails the divisibility certificate")]
        if deep:
            mirrored = tuple(-c for c in xi[1:] + xi[:1])
            if core.count_offset_words(n, mirrored) != w:
                return [(0, f"count changes under permutation and negation ({mirrored})")]
        return []


# ---------------------------------------------------------------------------
# wide-alphabet: constant offsets m*1_d, the orbit path and the Bessel route.


class WideAlphabet:
    # Band edges sit at large_d_estimate's documented overflow thresholds at
    # n = 4; at larger n the bands below them overflow too, from a d that
    # falls with n (see KNOWN_FAILURES).
    BANDS = ((3, 20), (21, 87), (88, 163), (164, 300))
    STRATA = tuple((abs_m, band) for band in BANDS for abs_m in (0, 1, 2))

    @staticmethod
    def query(stream: Stream, stratum, k: int) -> Query:
        abs_m, (lo, hi) = stratum
        d = stream.spread((stratum, "d"), k, lo, hi)
        n = stream.spread((stratum, "n"), k, 10, 30)
        m = abs_m * stream.rng.choice((1, -1))
        calls = (
            Call("core.count_offset_words", (n, (m,) * d)),
            Call("asymptotics.w_via_bessel", (n, m, d)),
            Call("asymptotics.large_d_estimate", (n, m, d)),
        )
        return Query(f"|m|={abs_m} d={lo}..{hi}", calls)

    @staticmethod
    def check(query: Query, outcomes: list, deep: bool) -> list:
        n, m, d = query.calls[1].args
        w, bessel, estimate = outcomes
        problems = []
        if not isinstance(w, Exception):
            if w <= 0 or not certified(n, (m,) * d, w):
                problems.append((0, f"count {w} fails the divisibility certificate"))
            if not isinstance(bessel, Exception) and bessel != w:
                problems.append((1, f"Bessel route {bessel} != count {w}"))
        if isinstance(estimate, AsymptoticEstimate) and not _finite_estimate(estimate):
            problems.append((2, f"estimate {estimate.value} disagrees with its log {estimate.log_value}"))
        return problems


def _finite_estimate(estimate: AsymptoticEstimate) -> bool:
    value, log_value = estimate.value, estimate.log_value
    return (
        math.isfinite(value)
        and value > 0
        and abs(math.log(value) - log_value) <= 1e-9 * max(1.0, abs(log_value))
    )


# ---------------------------------------------------------------------------
# gf-sweeps: all-orders traffic; core is reached many times per offset.


class GfSweeps:
    STRATA = (
        ("row", 2, 40, 80),
        ("table", 2, 12, 24),
        ("parseval", 2, 6, 12),
        ("probe", 2, 150, 300),
        ("row", 3, 40, 60),
        ("table", 3, 6, 12),
        ("parseval", 3, 4, 8),
        ("probe", 3, 150, 300),
        ("row", 4, 40, 80),
        ("table", 4, 4, 8),
        ("parseval", 4, 3, 5),
        ("probe", 4, 60, 150),
        # laplace_estimate overflows from n = 260 at d = 4 (documented); the
        # count before it costs seconds, so the stratum stays near that edge.
        ("probe", 4, 260, 270),
    )

    @staticmethod
    def query(stream: Stream, stratum, k: int) -> Query:
        kind, d, lo, hi = stratum
        size = stream.spread(stratum, k, lo, hi)
        label = f"{kind} d={d} {lo}..{hi}"
        rng = stream.rng
        if kind == "row":
            # d = 4 rows take the constant-offset path: a non-constant row
            # to order 80 would sum about two million composition terms.
            if d == 4:
                xi = (rng.choice((1, -1)) * stream.spread((stratum, "m"), k, 0, 2),) * d
            else:
                xi = stream.small_offset(d, 4, constant=False)
            r = rng.choice((1, 2))
            length = stream.spread((stratum, "length"), k, lo, hi)
            calls = (
                Call("series.ogf_w", (xi, size)),
                Call("series.fourier_coefficient_series", (tuple(r * c for c in xi), d, r, length)),
            )
        elif kind == "table":
            calls = (Call("series.spectral_series", (d, rng.choice((1, 2, 3)), size)),)
        elif kind == "parseval":
            calls = (Call("parseval.parseval_lhs", (d, size)), Call("parseval.parseval_rhs_series", (d, size)))
        else:
            if lo >= 260:
                sweep = [size]
                xi = (0,) * d
            else:
                sweep = [size // 3, 2 * size // 3, size]
                if d == 4:
                    xi = (rng.choice((1, -1)) * stream.spread((stratum, "m"), k, 0, 1),) * d
                else:
                    xi = stream.small_offset(d, 3, constant=False)
            calls = (Call("asymptotics.ratio_probe", ("laplace", sweep), (("xi", xi),)),)
        return Query(label, calls, overflows=lo >= 260)

    @staticmethod
    def check(query: Query, outcomes: list, deep: bool) -> list:
        kind = query.stratum.split()[0]
        if any(isinstance(v, Exception) for v in outcomes):
            return []
        if kind == "row":
            return _check_row(query, *outcomes)
        if kind == "table":
            return _check_table(query, outcomes[0], deep)
        if kind == "parseval":
            lhs, rhs = outcomes
            if lhs.coeffs != rhs.coeffs:
                return [(1, "squared expansion differs from the direct pair sum")]
            if any(c <= 0 or c.denominator != 1 for c in lhs.coeffs):
                return [(0, "pair counts are not positive integers")]
            return []
        (rows,) = outcomes
        sweep = query.calls[0].args[1]
        xi = query.calls[0].kwargs[0][1]
        if [row.sweep for row in rows] != sweep:
            return [(0, f"probe rows {[row.sweep for row in rows]} do not follow the sweep {sweep}")]
        for row in rows:
            if row.exact <= 0 or not certified(row.sweep, xi, row.exact):
                return [(0, f"exact count at n={row.sweep} fails the divisibility certificate")]
            if not (math.isfinite(row.ratio) and row.ratio > 0 and math.isfinite(row.estimate)):
                return [(0, f"ratio {row.ratio} at n={row.sweep} is not a finite positive number")]
        return []


def _check_row(query: Query, ogf: XSeries, by_length: XSeries) -> list:
    xi, order = query.calls[0].args
    norm = sum(map(abs, xi))
    counts = ogf.coeffs
    for n, c in enumerate(counts):
        if c <= 0 or c.denominator != 1 or not certified(n, xi, int(c)):
            return [(0, f"order-{n} count {c} is not a certified positive integer")]
    for power, c in enumerate(by_length.coeffs):
        n, odd = divmod(power - norm, 2)
        if power < norm or odd:
            expected = 0
        elif n <= order:
            expected = counts[n]
        else:
            continue
        if c != expected:
            return [(1, f"x^{power} coefficient {c} != order-{n} count {expected}")]
    return []


def _check_table(query: Query, table: LaurentTable, deep: bool) -> list:
    d, r, trunc = query.calls[0].args
    entries = table.entries
    if len(entries) != lattice_points(d, trunc):
        return [(0, f"{len(entries)} exponents, expected {lattice_points(d, trunc)}")]
    for exp, entry in entries.items():
        if any(c % r for c in exp):
            return [(0, f"exponent {exp} not divisible by r={r}")]
        for image in (tuple(-c for c in exp), exp[::-1]):
            if entries.get(image) != entry:
                return [(0, f"entry {exp} differs from its image {image}")]
    if deep:
        probe = (r,) + (0,) * (d - 1)
        if series.fourier_coefficient_series(probe, d, r, trunc).coeffs != table.entry(probe).coeffs:
            return [(0, f"entry {probe} differs from fourier_coefficient_series")]
    return []


# ---------------------------------------------------------------------------
# crosscheck: small inputs validated through every independent route.


class Crosscheck:
    # (d, largest total length 2n + ||xi||_1); lengths stay inside the oracle
    # budget (d^length <= 10^7).
    STRATA = ((2, 20), (3, 12), (4, 10), (2, 12), (3, 9), (4, 7))
    # Numeric routes run at d <= 3 only: at d = 4 the first grid doubling
    # (128^4 points) exceeds the quadrature grid cap, which refuses by design.
    FOURIER_X = {2: (0.1, 0.2, 0.3), 3: (0.05, 0.1, 0.2)}
    PARSEVAL_X = {2: (0.05, 0.1, 0.2), 3: (0.02, 0.05, 0.08)}

    @classmethod
    def query(cls, stream: Stream, stratum, k: int) -> Query:
        d, longest = stratum
        xi = stream.small_offset(d, 3)
        n = stream.spread(stratum, k, 0, (longest - sum(map(abs, xi))) // 2)
        splits = [tuple(j + 1 for j in range(d) if mask >> j & 1) for mask in range(1, 2**d - 1)]
        calls = [Call("oracle.oracle_count", (n, xi))]
        calls += [Call("recurrence.recurrence_count", (n, xi, split)) for split in splits]
        calls += [Call("quadrature.integral_count", (n, xi)), Call("recurrence.check_divisibility", (n, xi))]
        if d in cls.FOURIER_X:
            x = cls.FOURIER_X[d][stream.spread((stratum, "x"), k, 0, len(cls.FOURIER_X[d]) - 1)]
            x_pairs = cls.PARSEVAL_X[d][stream.spread((stratum, "x_pairs"), k, 0, len(cls.PARSEVAL_X[d]) - 1)]
            calls += [
                Call("quadrature.fourier_coefficient_numeric", (xi, x)),
                Call("series.fourier_coefficient_series", (xi, d, 1, SERIES_TRUNCATION)),
                Call("parseval.parseval_numeric_check", (d, x_pairs)),
            ]
        return Query(f"d={d} length<={longest}", tuple(calls))

    @staticmethod
    def check(query: Query, outcomes: list, deep: bool) -> list:
        problems = []
        exact = outcomes[0]
        for i, (call, value) in enumerate(zip(query.calls, outcomes)):
            if isinstance(value, Exception) or isinstance(exact, Exception):
                continue
            name = call.name
            if name == "recurrence.recurrence_count" and value != exact:
                problems.append((i, f"split {call.args[2]} gives {value}, oracle {exact}"))
            elif name == "quadrature.integral_count" and abs(value - exact) > 1e-9 * exact:
                problems.append((i, f"grid integral {value} vs oracle {exact}"))
            elif name == "recurrence.check_divisibility" and value is not True:
                problems.append((i, "divisibility certificate fails"))
            elif name == "quadrature.fourier_coefficient_numeric":
                xi, x = call.args
                partial = outcomes[i + 1]
                if isinstance(partial, Exception):
                    continue
                d, norm = len(xi), sum(map(abs, xi))
                q = (d * x) ** 2
                tail = (d * x) ** norm * q ** ((SERIES_TRUNCATION - norm) // 2 + 1) / (1 - q)
                gap = abs(value - partial.eval_float(x))
                if gap > tail + NUMERIC_SLACK:
                    problems.append((i, f"numeric coefficient off the series by {gap:.2e} > tail {tail:.2e}"))
            elif name == "parseval.parseval_numeric_check":
                gap = abs(value.lhs - value.rhs)
                if gap > value.tail_bound + NUMERIC_SLACK:
                    problems.append((i, f"Parseval gap {gap:.2e} exceeds tail bound {value.tail_bound:.2e}"))
        return problems


WORKLOADS = {
    "point-counts": PointCounts,
    "wide-alphabet": WideAlphabet,
    "gf-sweeps": GfSweeps,
    "crosscheck": Crosscheck,
}


# ---------------------------------------------------------------------------
# Exact results and their digests.


def exact_view(value):
    """The exact part of a call's result, or None when it has none."""
    if isinstance(value, (bool, int)):
        return value
    if isinstance(value, Fraction):
        return (value.numerator, value.denominator)
    if isinstance(value, XSeries):
        return tuple((c.numerator, c.denominator) for c in value.coeffs)
    if isinstance(value, LaurentTable):
        return (value.d, value.r, value.truncation,
                tuple((exp, exact_view(value.entries[exp])) for exp in sorted(value.entries)))
    if isinstance(value, list):  # ratio_probe rows: the estimates are floats
        return tuple((row.sweep, row.exact) for row in value)
    return None


def query_digest(query: Query, outcomes: list) -> str:
    """Digest of a query's exact results; floats, documented overflows and
    calls a fix of the overflow would change are left out."""
    views = []
    for call, value in zip(query.calls, outcomes):
        if query.overflows and call.name in KNOWN_FAILURES or is_known_failure(call, value):
            continue
        views.append(type(value).__name__ if isinstance(value, Exception) else exact_view(value))
    return hashlib.sha256(repr(views).encode()).hexdigest()[:16]


def result_bits(value) -> int:
    """Sum of bit lengths of the exact integers in a result."""
    view = exact_view(value)
    stack, bits = [view], 0
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif isinstance(item, int) and not isinstance(item, bool):
            bits += abs(item).bit_length()
    return bits


# ---------------------------------------------------------------------------
# Counts computed from inputs: the work each call implies at this version of
# the library.  They repeat exactly for a seed.


def _class_representatives(d: int, k: int) -> list:
    reps = {}
    for xi in product(range(-k, k + 1), repeat=d):
        if sum(map(abs, xi)) <= k:
            reps.setdefault(canonical(xi), xi)
    return list(reps.values())


def core_evaluations(call: Call) -> list:
    """(n, xi) of every composition sum the call makes."""
    args = call.args
    name = call.name
    if name in ("core.count_offset_words", "recurrence.check_divisibility"):
        return [args[:2]]
    if name == "series.ogf_w":
        xi, order = args
        return [(n, xi) for n in range(order + 1)]
    if name == "series.fourier_coefficient_series":
        xi, _, r, trunc = args
        if any(c % r for c in xi):
            return []
        eta = tuple(c // r for c in xi)
        norm = sum(map(abs, eta))
        return [(n, eta) for n in range((trunc - norm) // 2 + 1)] if norm <= trunc else []
    if name == "asymptotics.ratio_probe":
        return [(n, call.kwargs[0][1]) for n in args[1]]
    if name in ("parseval.parseval_lhs", "parseval.parseval_numeric_check"):
        d = args[0]
        k = args[1] if name == "parseval.parseval_lhs" else PARSEVAL_CHECK_K
        # parseval_lhs caches counts per offset class
        return [(n, xi) for xi in _class_representatives(d, k) for n in range(k - sum(map(abs, xi)) + 1)]
    if name == "recurrence.recurrence_count":
        n, xi, split = args
        chosen = {s - 1 for s in split}
        xi_s = tuple(c for j, c in enumerate(xi) if j in chosen)
        xi_t = tuple(c for j, c in enumerate(xi) if j not in chosen)
        return [e for j in range(n + 1) for e in ((j, xi_s), (n - j, xi_t))]
    return []


def composition_terms(n: int, xi) -> int:
    d = len(xi)
    return partitions_at_most(n, d) if is_constant(xi) else math.comb(n + d - 1, d - 1)


def density_key(call: Call):
    """(d, r, x) of the density grid a numeric-density call builds, else None."""
    if call.name == "quadrature.fourier_coefficient_numeric":
        xi, x = call.args
        return (len(xi), 1, float(x))
    if call.name == "parseval.parseval_numeric_check":
        d, x = call.args
        return (d, 1, math.sqrt(x))
    return None


def input_counts(queries) -> dict:
    """Per-layer work counts of a round that follow from its inputs alone."""
    calls = [call for q in queries for call in q.calls]
    evaluations = [e for call in calls for e in core_evaluations(call)]
    counts = {
        "core.terms": sum(composition_terms(n, xi) for n, xi in evaluations),
        "core.shared_frac": 1 - len({canonical(xi) for _, xi in evaluations}) / len(evaluations) if evaluations else 0.0,
        "series.table_entries": 0,
        "oracle.strings": 0,
        "quadrature.threshold_grid_points": 0,
    }
    for call in calls:
        if call.name == "series.spectral_series":
            d, _, trunc = call.args
            counts["series.table_entries"] += lattice_points(d, trunc)
        elif call.name == "parseval.parseval_rhs_series":
            d, k = call.args
            counts["series.table_entries"] += lattice_points(d, 2 * k)
        elif call.name == "oracle.oracle_count":
            n, xi = call.args
            d = len(xi)
            counts["oracle.strings"] += d ** (n + sum(c for c in xi if c > 0)) + d ** (n + sum(-c for c in xi if c < 0))
        elif call.name == "quadrature.integral_count":
            n, xi = call.args
            counts["quadrature.threshold_grid_points"] += quadrature.quadrature_threshold(n, xi) ** len(xi)
    return counts


def density_repeat_frac(queries) -> float:
    """Share of numeric-density calls whose (d, r, x) an earlier call used."""
    keys = [key for q in queries for key in map(density_key, q.calls) if key is not None]
    return 1 - len(set(keys)) / len(keys) if keys else 0.0


def round_counts(stream: Stream, outcomes) -> dict:
    """Per-layer counts of round 0: those from its inputs, the bit sizes of
    its exact results, and the grid points of its quadrature calls; the
    density-grid repeat share spans the first REPEAT_ROUNDS rounds, since the
    grid cache serves repeats across queries."""
    queries = stream.round(0)
    counts = input_counts(queries)
    counts["quadrature.repeat_frac"] = density_repeat_frac(
        q for k in range(REPEAT_ROUNDS) for q in stream.round(k)
    )
    grid_points = counts.pop("quadrature.threshold_grid_points")
    for q in queries:
        for call in q.calls:
            if density_key(call) is not None:
                grid_points += doubling_grid_points(call)
    counts["core.result_bits"] = sum(result_bits(v) for values in outcomes for v in values)
    counts["quadrature.grid_points"] = grid_points
    counts["quadrature.grid_bytes"] = GRID_POINT_BYTES * grid_points
    return counts


def stream_digest(stream: Stream, rounds: int) -> str:
    """Digest of the first rounds' inputs and of round 0's input counts."""
    text = repr([stream.round(k) for k in range(rounds)]) + repr(sorted(input_counts(stream.round(0)).items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def doubling_grid_points(call: Call) -> int:
    """Grid points the call's grid doubling visits, found by replaying the
    doubling through the call's public ``grid_size`` argument."""
    fn = FUNCTIONS[call.name]
    if call.name == "quadrature.fourier_coefficient_numeric":
        d = len(call.args[0])
        evaluate = lambda size: fn(*call.args, grid_size=size)  # noqa: E731
    else:
        d = call.args[0]
        evaluate = lambda size: fn(*call.args, grid_size=size).rhs  # noqa: E731
    size = 64
    coarse = evaluate(size)
    points = size**d
    while True:
        fine = evaluate(2 * size)
        points += (2 * size) ** d
        if abs(fine - coarse) <= DOUBLING_TOL:
            return points
        size *= 2
        coarse = fine
