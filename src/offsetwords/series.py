"""Exact truncated power series and the monomial expansion of spectral densities.

The spectral density of the stabilized power sum polynomial 1 - x(z_1^r+...+z_d^r)
restricted to the torus expands, via the MacMahon master theorem, into
multinomial-product terms indexed by pairs of compositions (kappa, kappa').
Collecting the terms by their z-exponent vector gives a table whose entry at
xi is an ordinary power series in x; those entries are exactly the generating
functions of the offset-word counts.  The table is built in integers by a
layer recurrence that never consults the counting kernel, so it stays an
independent route.  Every layer is invariant under permuting coordinates and
under global negation, so the recurrence runs once per orbit, at the
representative min(sorted eta, sorted -eta), and the table writes each
orbit's row under every member of the orbit.

The orbits, the recurrence's edges between them and the orbit sizes depend
only on d and the truncation T, so they form one plan per (d, T)
(``_orbit_plan``), built only after the cell cap admits T.  The gatherers
that list an orbit's members depend only on d and the orbit's pattern of
repeats, so tables at every T share them (``_scatters``).  Both are kept by
``functools.lru_cache`` for at most ``_PLAN_CAP`` keys.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .core import as_offset, count_row
from .errors import BudgetExceededError

# Cells a spectral table may hold, each exponent counted as its T + 1 orders
# and its d key ints: d=3, T=40 and d=6, T=12 fit; d=8, T=24 and d=1000, T=2
# do not.
_TABLE_CELL_CAP = 10_000_000

# Orbit plans kept, one per (d, T), and member gatherer lists kept, one per
# (d, pattern of repeats); a fixed limit, not a Budget cap.  gf-sweeps asks
# for 28 (d, T) pairs and meets at most 28 (d, pattern) pairs, so it keeps all.
_PLAN_CAP = 64

_EXACT_TYPES = (int, Fraction)


def _exact(v):
    """v itself if it is an int or a Fraction; anything else, floats included,
    raises TypeError."""
    if isinstance(v, _EXACT_TYPES):
        return v
    raise TypeError(f"expected exact coefficient, got {type(v).__name__}")


@dataclass(frozen=True)
class XSeries:
    """A truncated power series in one variable with exact coefficients.

    ``coeffs[k]`` is the coefficient of x^k; the truncation order is
    len(coeffs) - 1.  Binary operations truncate to the smaller order.
    Coefficients are kept as given: an int stays an int, so every series
    built from counts holds ints, and a Fraction appears only where a
    division makes one (``log``, ``exp``, ``eval_fraction``, the
    Bessel/Bell route).  ``from_json_dict`` reads a coefficient with
    denominator 1 back as an int.
    """

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not all(map(isinstance, self.coeffs, itertools.repeat(_EXACT_TYPES))):
            for c in self.coeffs:
                _exact(c)  # raises on the first inexact coefficient
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @staticmethod
    def from_list(values: Sequence, order: int | None = None) -> "XSeries":
        coeffs = list(values)
        if order is not None:
            if order + 1 < len(coeffs):
                coeffs = coeffs[: order + 1]
            else:
                coeffs += [0] * (order + 1 - len(coeffs))
        return XSeries(tuple(coeffs))

    @staticmethod
    def zero(order: int) -> "XSeries":
        return XSeries((0,) * (order + 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int | Fraction:
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "XSeries") -> "XSeries":
        n = min(self.order, other.order)
        return XSeries(tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1)))

    def __sub__(self, other: "XSeries") -> "XSeries":
        n = min(self.order, other.order)
        return XSeries(tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1)))

    def __neg__(self) -> "XSeries":
        return XSeries(tuple(-c for c in self.coeffs))

    def scale(self, factor) -> "XSeries":
        return XSeries(tuple(factor * c for c in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, XSeries):
            return self.scale(other)
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return XSeries(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "XSeries":
        if exponent < 0:
            raise ValueError("negative powers are not defined for truncated series")
        result = XSeries.from_list([1], self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def log(self) -> "XSeries":
        """Formal logarithm; requires constant term 1."""
        if self.coeffs[0] != 1:
            raise ValueError("formal log needs constant term 1")
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for k in range(1, n + 1):
            acc = k * self.coeffs[k]
            for j in range(1, k):
                acc -= j * out[j] * self.coeffs[k - j]
            out[k] = Fraction(acc, k)
        return XSeries(tuple(out))

    def exp(self) -> "XSeries":
        """Formal exponential; requires constant term 0."""
        if self.coeffs[0] != 0:
            raise ValueError("formal exp needs constant term 0")
        n = self.order
        out = [Fraction(1)] + [0] * n
        for k in range(1, n + 1):
            acc = 0
            for j in range(1, k + 1):
                acc += j * self.coeffs[j] * out[k - j]
            out[k] = Fraction(acc, k)
        return XSeries(tuple(out))

    def eval_fraction(self, x) -> Fraction:
        x = _exact(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_float(self, x: float) -> float:
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + float(c)
        return acc

    def to_json_dict(self) -> dict:
        return {
            "truncation": self.order,
            "coeffs": [[str(c.numerator), str(c.denominator)] for c in self.coeffs],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "XSeries":
        coeffs = [
            int(num) if int(den) == 1 else Fraction(int(num), int(den)) for num, den in data["coeffs"]
        ]
        return XSeries.from_list(coeffs, order=data["truncation"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class LaurentTable:
    """Sparse map from z-exponent vectors in Z^d to x-series.

    Holds the truncated expansion of a spectral density: the entry at xi is
    the by-length generating function whose x^n coefficient collects the
    multinomial products with z-exponent xi at total composition size n.
    """

    d: int
    r: int
    truncation: int
    entries: dict

    def entry(self, xi) -> XSeries:
        xi = as_offset(xi)
        if len(xi) != self.d:
            raise ValueError(f"exponent dimension {len(xi)} does not match table dimension {self.d}")
        return self.entries.get(xi, XSeries.zero(self.truncation))

    def to_json_dict(self) -> dict:
        # the members of an orbit share one XSeries, converted once
        rows = {id(row): row for row in self.entries.values()}
        rows = {key: row.to_json_dict() for key, row in rows.items()}
        return {
            "d": self.d,
            "entries": [{"exp": list(exp), "series": rows[id(self.entries[exp])]} for exp in sorted(self.entries)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def lattice_points(d: int, radius: int) -> int:
    """Number of eta in Z^d with ||eta||_1 <= radius."""
    return sum(2**k * math.comb(d, k) * math.comb(radius, k) for k in range(min(d, radius) + 1))


def check_table_size(d: int, truncation: int) -> None:
    """Refuse, before anything is allocated, a table whose lattice_points(d, T)
    exponents times T + 1 orders and d key ints exceed the fixed cell cap."""
    cells = lattice_points(d, truncation) * (truncation + 1 + d)
    if cells > _TABLE_CELL_CAP:
        raise BudgetExceededError(
            f"spectral table at d = {d}, T = {truncation} needs {cells} cells, "
            f"above the fixed limit of {_TABLE_CELL_CAP}"
        )


def _check_expansion_args(d, r, truncation) -> tuple:
    """Return (d, r, truncation) as ints; refuse a non-integer with TypeError
    and a dimension, power-sum exponent or truncation no expansion takes with
    ValueError."""
    d, r, truncation = map(operator.index, (d, r, truncation))
    if d < 1 or r < 1 or truncation < 0:
        raise ValueError("need d >= 1, r >= 1, truncation >= 0")
    return d, r, truncation


def _negated(t: tuple) -> tuple:
    """The sorted form of -t for a sorted tuple t."""
    return tuple(map(operator.neg, t[::-1]))


def _sorted_ball(d: int, radius: int) -> list:
    """Every nondecreasing eta in Z^d with ||eta||_1 <= radius, as (eta, norm),
    in lexicographic order.  A prefix is extended only by values that leave
    room for the rest: 0 after a value <= 0, the value itself after one > 0."""
    ball = [((), 0)]
    for left in range(d, 0, -1):
        ball = [
            (prefix + (v,), norm + abs(v))
            for prefix, norm in ball
            for v in range(max(prefix[-1] if prefix else -radius, norm - radius), (radius - norm) // left + 1)
        ]
    return ball


def _orbit_size(rep: tuple) -> int:
    """Number of eta in the orbit of a sorted rep under coordinate permutation
    and global negation: d!/prod(mult!) arrangements, doubled unless the
    multiset of -rep is that of rep."""
    size = math.factorial(len(rep)) // math.prod(map(math.factorial, map(rep.count, set(rep))))
    return 2 * size if sum(rep) or rep != _negated(rep) else size


def _distinct_permutations(values: tuple):
    """Each distinct arrangement of a sorted tuple, once."""
    if len(values) < 2:
        yield values
        return
    for i, v in enumerate(values):
        if i == 0 or values[i - 1] != v:
            for rest in _distinct_permutations(values[:i] + values[i + 1 :]):
                yield (v,) + rest


def _gatherer(indices: list):
    """itemgetter(*indices) that returns a tuple for a single index too."""
    get = operator.itemgetter(*indices)
    return get if len(indices) > 1 else lambda seq: (get(seq),)


def _orbit_members(d: int, rep: tuple) -> list:
    """The members of the orbit of a sorted representative.

    A member is a distinct arrangement of the nonzero entries of rep or of
    -rep, placed on one support of that size among the d coordinates.  Each
    side's gatherers come from ``_scatters``, so a member costs one
    gatherer call: O(members) work, not d! per orbit.
    """
    nonzero = tuple([c for c in rep if c])
    negated = _negated(nonzero)
    out = []
    for side in (nonzero,) if negated == nonzero else (nonzero, negated):
        out += [put(side + (0,)) for put in _scatters(d, tuple(map(side.index, side)))]
    return out


@functools.lru_cache(maxsize=_PLAN_CAP)
def _scatters(d: int, pattern: tuple) -> tuple:
    """One gatherer per member of a sorted side with this pattern of repeats
    (``tuple(map(side.index, side))``): called on side + (0,), it returns
    the member.  The gatherers depend only on d and the pattern, not on the
    values or on T."""
    s = len(pattern)
    spread = [
        _gatherer([support.index(j) if j in support else s for j in range(d)])
        for support in itertools.combinations(range(d), s)
    ]
    return tuple(_gatherer(put(a + (s,))) for a in _distinct_permutations(pattern) for put in spread)


class _OrbitPlan(NamedTuple):
    """What the orbit walk and its readers reuse at one (d, T)
    (``_orbit_plan``); every field is a tuple."""

    reps: tuple  # orbit representatives, ordered by norm
    ends: tuple  # ends[n]: the number of orbits of norm <= n
    steps: tuple  # steps[j][o]: the orbit of reps[o] - e_(reps[o][j]), or len(reps) off the ball
    births: tuple  # births[n]: (o, multinomial(-reps[o])) for the orbits of norm n with rep <= 0
    sizes: tuple  # sizes[o]: _orbit_size(reps[o])


@functools.lru_cache(maxsize=_PLAN_CAP)
def _build_plan(d: int, truncation: int) -> _OrbitPlan:
    """The orbit plan over the ball ||eta||_1 <= truncation."""
    ball = sorted(_sorted_ball(d, truncation), key=operator.itemgetter(1))
    reps, index, ends = [], {}, [0] * (truncation + 1)
    for eta, norm in ball:
        if eta not in index:
            index[eta] = index[_negated(eta)] = len(reps)
            reps.append(eta)
            ends[norm] = len(reps)
    outside = len(reps)
    steps = tuple(
        tuple([index.get(rep[:i] + (rep[i] - 1,) + rep[i + 1 :], outside) for rep in reps for i in [rep.index(rep[j])]])
        for j in range(d)
    )
    births = tuple(
        tuple(
            (o, math.factorial(n) // math.prod(map(math.factorial, _negated(reps[o]))))
            for o in range(ends[n - 1] if n else 0, ends[n])
            if reps[o][-1] <= 0
        )
        for n in range(truncation + 1)
    )
    return _OrbitPlan(tuple(reps), tuple(ends), steps, births, tuple(map(_orbit_size, reps)))


def _orbit_plan(d: int, truncation: int) -> _OrbitPlan:
    """The orbit plan of alphabet size d over every norm <= truncation.

    The cell cap of ``check_table_size`` is checked on every request, before
    any plan is built; ``_build_plan`` keeps the plans of the ``_PLAN_CAP``
    most recently used (d, T) pairs.
    """
    d, _, truncation = _check_expansion_args(d, 1, truncation)
    check_table_size(d, truncation)
    return _build_plan(d, truncation)


def _orbit_walk(plan: _OrbitPlan) -> list:
    """The x^n layers Q_0, ..., Q_T of the spectral density of
    1 - x(z_1+...+z_d), on orbits of coordinate permutation and negation,
    for the plan of ``_orbit_plan(d, T)``.

    Q_n = sum_k S(z)^k S(z^-1)^(n-k), S(z) = z_1 + ... + z_d, is the MacMahon
    pair sum of multinomial(kappa)*multinomial(kappa') over |kappa| + |kappa'| = n
    with kappa - kappa' = eta, and Q_n = S(z) Q_(n-1) + S(z^-1)^n.  Every layer
    is invariant under permuting coordinates and under global negation, so it
    is kept once per orbit, at rep = min(sorted eta, sorted -eta):

        Q_n[rep] = sum_j Q_(n-1)[rep - e_j] + [rep <= 0, ||rep||_1 = n] multinomial(-rep).

    The sum over coordinates is the sum over distinct values v of rep of
    mult(v) Q_(n-1) at the orbit of rep - e_v, where e_v lowers the first
    occurrence of v, so the tuple stays sorted.  The orbits, these edges
    (each one index) and the birth terms come from the plan, and only the
    layer loop runs per call.  layers[n][o] is Q_n at plan.reps[o] for the
    orbits of norm <= n, beyond which Q_n vanishes; the layers are fresh
    lists.  Never calls the counting kernel.
    """
    steps, ends, outside = plan.steps, plan.ends, len(plan.reps)
    layers = [[1]]  # Q_0 = 1 at eta = 0, the only orbit of norm 0
    for n in range(1, len(ends)):
        prev = layers[-1]
        read = (prev + [0] * (outside + 1 - len(prev))).__getitem__
        layer = map(read, steps[0][: ends[n]])  # the first step's cut stops the sum
        for step in steps[1:]:
            layer = map(operator.add, layer, map(read, step))
        layer = list(layer)
        for o, birth in plan.births[n]:  # the orbits of norm n: S(z^-1)^n
            layer[o] += birth
        layers.append(layer)
    return layers


def spectral_series(d: int, r: int, truncation: int) -> LaurentTable:
    """Expand the spectral density of 1 - x(z_1^r+...+z_d^r) through x^truncation.

    The x^n coefficient at exponent r*eta is the layer Q_n of ``_orbit_walk``
    at the orbit of eta, kept as an int: the density in z^r is the r = 1
    density with every exponent scaled by r.  Each orbit's row is wrapped
    once, and the frozen XSeries is written under every member of the orbit,
    listed by ``_orbit_members`` from the orbit's representative scaled by r.
    """
    d, r, truncation = _check_expansion_args(d, r, truncation)
    plan = _orbit_plan(d, truncation)
    entries = {}
    for rep, row in zip(plan.reps, itertools.zip_longest(*_orbit_walk(plan), fillvalue=0)):
        entries.update(dict.fromkeys(_orbit_members(d, tuple([r * c for c in rep])), XSeries(row)))
    return LaurentTable(d=d, r=r, truncation=truncation, entries=entries)


def fourier_coefficient_series(xi, d: int, r: int, truncation: int) -> XSeries:
    """Series in x of the xi-th Fourier coefficient of the spectral density.

    Zero unless r divides xi; otherwise, with eta = xi/r, the coefficient of
    x^(2n + ||eta||_1) is the offset-word count of order n at eta (the series
    counts words by length).
    """
    xi = as_offset(xi)
    d, r, truncation = _check_expansion_args(d, r, truncation)
    if len(xi) != d:
        raise ValueError(f"xi has dimension {len(xi)}, expected {d}")
    if any(c % r for c in xi):
        return XSeries.zero(truncation)
    eta = tuple(c // r for c in xi)
    coeffs = [0] * (truncation + 1)
    norm = sum(map(abs, eta))
    if norm <= truncation:
        for n, w in enumerate(count_row((truncation - norm) // 2, eta)):
            coeffs[2 * n + norm] = w
    return XSeries(tuple(coeffs))


def ogf_w(xi, truncation: int) -> XSeries:
    """Order-indexed generating function: coefficient of x^n is the count of
    order-n words offset by xi."""
    return XSeries(tuple(count_row(truncation, xi)))
