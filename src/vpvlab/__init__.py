"""Numerical evaluation of complex-order polylogarithms and truncated
visible-point lattice products, with certified tail bounds and
identity verification."""

from .errors import (
    ComputationError,
    DomainError,
    NonConvergence,
    TailBoundExceedsTol,
    VpvError,
)
from .explorer import (
    DEFAULT_T_VALUES,
    ProbeRow,
    ScanRow,
    SpecialValueRecord,
    audit_special_values,
    catalog,
    critical_line_scan,
    euler_zagier_31,
    run_catalog,
    trivial_zero_probe,
)
from .lattice import decompose, visible_points
from .polylog import (
    EPS_DOMAIN,
    EPS_ZETA,
    TERM_CAP,
    SeriesResult,
    polylog,
    polylog_neg_int,
    zeta_real,
)
from .products import (
    IdentityCase,
    IdentityReport,
    lattice_sum,
    product_log_sum,
    rhs_factors,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "ComputationError",
    "DomainError",
    "NonConvergence",
    "TailBoundExceedsTol",
    "VpvError",
    "DEFAULT_T_VALUES",
    "ProbeRow",
    "ScanRow",
    "SpecialValueRecord",
    "audit_special_values",
    "catalog",
    "critical_line_scan",
    "euler_zagier_31",
    "run_catalog",
    "trivial_zero_probe",
    "decompose",
    "visible_points",
    "EPS_DOMAIN",
    "EPS_ZETA",
    "TERM_CAP",
    "SeriesResult",
    "polylog",
    "polylog_neg_int",
    "zeta_real",
    "IdentityCase",
    "IdentityReport",
    "lattice_sum",
    "product_log_sum",
    "rhs_factors",
    "verify",
    "__version__",
]
