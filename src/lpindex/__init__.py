"""Numerical radius, operator norms, and the numerical index of the real l_p plane."""

from .core import BracketedMax, Exponent, Mat2, make_exponent, maximize_1d
from .critical import BoundsReport, CriticalPoint, compute_mp, lemma21_bounds, phi_derivative
from .index import (
    REMARK_ENTRIES,
    ClaimRegionReport,
    IndexEstimate,
    RemarkRecord,
    SignPatternOp,
    alpha_ratio,
    estimate_index,
    functional_F,
    functional_G,
    remark_counterexample,
    verify_claim_region,
)
from .norms import OpNormResult, norm_1, norm_inf, op_norm, riesz_thorin_bound, vec_norm
from .radius import RadiusResult, conjugate_by_swap, numerical_radius, radius_oracle

__version__ = "0.1.0"

__all__ = [
    "BoundsReport",
    "BracketedMax",
    "ClaimRegionReport",
    "CriticalPoint",
    "Exponent",
    "IndexEstimate",
    "Mat2",
    "OpNormResult",
    "RadiusResult",
    "REMARK_ENTRIES",
    "RemarkRecord",
    "SignPatternOp",
    "alpha_ratio",
    "compute_mp",
    "conjugate_by_swap",
    "estimate_index",
    "functional_F",
    "functional_G",
    "lemma21_bounds",
    "make_exponent",
    "maximize_1d",
    "norm_1",
    "norm_inf",
    "numerical_radius",
    "op_norm",
    "phi_derivative",
    "radius_oracle",
    "remark_counterexample",
    "riesz_thorin_bound",
    "vec_norm",
    "verify_claim_region",
]
