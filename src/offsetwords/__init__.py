"""offsetwords: exact enumeration of offset words (generalized abelian squares),
their generating functions as torus Fourier coefficients, and validation of the
attached recurrences, divisibility certificates, quadrature and asymptotics."""

from .core import (
    BigCount,
    SplitLabel,
    as_offset,
    classify_splits,
    count_offset_words,
    count_orders,
    count_row,
    multinomial,
    mutuality,
    parikh,
    sign_split,
    weak_compositions,
)
from .config import Budget
from .errors import BudgetExceededError, StabilityError
from .oracle import (
    enumerate_pairs_by_length,
    is_abelian_square,
    oracle_count,
    oracle_words,
)
from .recurrence import check_divisibility, divisibility_modulus, recurrence_count
from .series import (
    LaurentTable,
    XSeries,
    fourier_coefficient_series,
    ogf_w,
    spectral_series,
)
from .quadrature import (
    TorusGrid,
    fourier_coefficient_numeric,
    integral_count,
    quadrature_threshold,
    spectral_density_eval,
)
from .asymptotics import (
    AsymptoticEstimate,
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
from .parseval import (
    parseval_lhs,
    parseval_numeric_check,
    parseval_rhs_series,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticEstimate",
    "BigCount",
    "Budget",
    "BudgetExceededError",
    "LaurentTable",
    "SplitLabel",
    "StabilityError",
    "TorusGrid",
    "XSeries",
    "as_offset",
    "bell_B",
    "bell_B_via_power",
    "bessel_zeta_even",
    "check_divisibility",
    "classify_splits",
    "complete_bell",
    "count_offset_words",
    "count_orders",
    "count_row",
    "divisibility_modulus",
    "enumerate_pairs_by_length",
    "fourier_coefficient_numeric",
    "fourier_coefficient_series",
    "integral_count",
    "is_abelian_square",
    "laplace_estimate",
    "large_d_estimate",
    "multinomial",
    "mutuality",
    "normalized_bessel_series",
    "ogf_w",
    "oracle_count",
    "oracle_words",
    "parikh",
    "parseval_lhs",
    "parseval_numeric_check",
    "parseval_rhs_series",
    "quadrature_threshold",
    "ratio_probe",
    "recurrence_count",
    "sign_split",
    "spectral_density_eval",
    "spectral_series",
    "stationary_phase_estimate",
    "stationary_phase_hessian_det",
    "verify_determinantal",
    "w_via_bessel",
    "weak_compositions",
]


def __getattr__(name: str):
    # verify holds every self-check suite: load it when its one export is read, not on import
    if name == "verify_determinantal":
        from .verify import verify_determinantal

        return verify_determinantal
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
