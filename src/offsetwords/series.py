"""Exact truncated power series and the monomial expansion of spectral densities.

The spectral density of the stabilized power sum polynomial 1 - x(z_1^r+...+z_d^r)
restricted to the torus expands, via the MacMahon master theorem, into
multinomial-product terms indexed by pairs of compositions (kappa, kappa').
Collecting the terms by their z-exponent vector gives a table whose entry at
xi is an ordinary power series in x; those entries are exactly the generating
functions of the offset-word counts.  The table is built in integers by a
layer recurrence that never consults the counting kernel, so it stays an
independent route.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import as_offset, count_row
from .errors import BudgetExceededError

# Cells (exponents times orders) a spectral table may hold: d=3, T=40 and
# d=6, T=12 fit, d=8, T=24 does not.
_TABLE_CELL_CAP = 10_000_000


def _exact(v):
    """v itself if it is an int or a Fraction; anything else, floats included,
    raises TypeError."""
    if isinstance(v, (int, Fraction)):
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
        object.__setattr__(self, "coeffs", tuple(map(_exact, self.coeffs)))
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
        return {
            "d": self.d,
            "entries": [
                {"exp": list(exp), "series": self.entries[exp].to_json_dict()}
                for exp in sorted(self.entries)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _shift_add(layer: dict, steps: list, out: dict) -> dict:
    """Add layer * (sum of the monomials whose packed exponents are steps) into out."""
    for key, c in layer.items():
        for step in steps:
            k = key + step
            out[k] = out.get(k, 0) + c
    return out


def lattice_points(d: int, radius: int) -> int:
    """Number of eta in Z^d with ||eta||_1 <= radius."""
    return sum(2**k * math.comb(d, k) * math.comb(radius, k) for k in range(min(d, radius) + 1))


def check_table_size(d: int, truncation: int) -> None:
    """Refuse, before anything is allocated, a table whose lattice_points(d, T)
    exponents times T + 1 orders exceed the fixed cell cap."""
    cells = lattice_points(d, truncation) * (truncation + 1)
    if cells > _TABLE_CELL_CAP:
        raise BudgetExceededError(
            f"spectral table at d = {d}, T = {truncation} needs {cells} cells, "
            f"above the fixed limit of {_TABLE_CELL_CAP}"
        )


def _check_expansion_args(d: int, r: int, truncation: int) -> None:
    """Refuse a dimension, power-sum exponent or truncation no expansion takes."""
    if d < 1 or r < 1 or truncation < 0:
        raise ValueError("need d >= 1, r >= 1, truncation >= 0")


def _layers(d: int, r: int, truncation: int):
    """Yield the x^n layers Q_0, ..., Q_truncation of the spectral density of
    1 - x(z_1^r+...+z_d^r) one at a time, each as {packed eta: int}.

    Q_n = sum_k S(z^r)^k S(z^-r)^(n-k), S(z) = z_1 + ... + z_d, is the MacMahon
    pair sum of multinomial(kappa)*multinomial(kappa') over |kappa| + |kappa'| = n
    with r*(kappa - kappa') = eta, built as Q_n = S(z^r) Q_(n-1) + S(z^-r)^n.  eta
    is packed as sum_j (eta_j + reach) base^j, unique since |eta_j| <= reach =
    r*truncation and base = 2 reach + 1.  Refuses up front a table above the
    cell cap of ``check_table_size``.
    """
    _check_expansion_args(d, r, truncation)
    check_table_size(d, truncation)
    reach = r * truncation
    base = 2 * reach + 1
    up = [r * base**j for j in range(d)]  # z_j^(+-r) adds +-r base^j
    down = [-step for step in up]
    layer = power = {sum(reach * base**j for j in range(d)): 1}  # Q_n, S(z^-r)^n
    yield layer
    for _ in range(truncation):
        power = _shift_add(power, down, {})
        layer = _shift_add(layer, up, dict(power))
        yield layer


def spectral_series(d: int, r: int, truncation: int) -> LaurentTable:
    """Expand the spectral density of 1 - x(z_1^r+...+z_d^r) through x^truncation.

    The x^n coefficient at exponent eta is the z^eta coefficient of the layer
    Q_n of ``_layers``, kept as an int.  Rows repeat across exponents equal
    under permutation and negation, so each distinct row is wrapped once and
    the frozen XSeries is shared by every exponent that carries it.
    """
    rows = {}
    for n, layer in enumerate(_layers(d, r, truncation)):
        for key, c in layer.items():
            row = rows.get(key)
            if row is None:
                row = rows[key] = [0] * (truncation + 1)
            row[n] = c
    reach = r * truncation  # unpack: digit j of a key in base 2 reach + 1 is eta_j + reach
    base = 2 * reach + 1
    powers = [base**j for j in range(d)]
    rows = {tuple([key // p % base - reach for p in powers]): tuple(row) for key, row in rows.items()}
    shared = {row: XSeries(row) for row in set(rows.values())}
    entries = {eta: shared[row] for eta, row in rows.items()}
    return LaurentTable(d=d, r=r, truncation=truncation, entries=entries)


def fourier_coefficient_series(xi, d: int, r: int, truncation: int) -> XSeries:
    """Series in x of the xi-th Fourier coefficient of the spectral density.

    Zero unless r divides xi; otherwise, with eta = xi/r, the coefficient of
    x^(2n + ||eta||_1) is the offset-word count of order n at eta (the series
    counts words by length).
    """
    xi = as_offset(xi)
    if len(xi) != d:
        raise ValueError(f"xi has dimension {len(xi)}, expected {d}")
    _check_expansion_args(d, r, truncation)
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
