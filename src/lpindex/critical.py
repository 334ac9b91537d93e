"""Critical point of max_t |t^(p-1) - t| / (1 + t^p) and its certified bracket.

compute_mp finds the interior maximizer t0 and the maximum value; the grid
pre-scan localizes the critical point and a bisection on the closed-form
derivative polishes it to machine precision.  lemma21_bounds evaluates the
bracketing inequalities

    ((2p-2)/(4-p))^(1/(2-p)) <= t0 <= ((p-1)/(2p+1))^(1/p),
    t0^(2p-3) <= q/p,

and reports the smallest slack; a 1e-9 safety band is absorbed into each
comparison so that a pass means the inequality holds with visible margin,
not merely up to rounding.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_GRID_N, Exponent, _prescan, _refine

_EPS = sys.float_info.epsilon

SAFETY_MARGIN = 1e-9

# hypothesis range of the bracketing inequalities: p in [6/5, 3/2]
_HYP_LO = 1.2
_HYP_HI = 1.5


@dataclass(frozen=True)
class CriticalPoint:
    """Maximizer t0 and value mp of |t^(p-1) - t|/(1 + t^p) on [0, 1].

    derivative_residual is the signed closed-form derivative at the reported
    t0 (0 where it was not used, i.e. the degenerate p = 2 branch).
    """

    p: float
    t0: float
    mp: float
    derivative_residual: float
    degenerate: bool = False


@dataclass(frozen=True)
class BoundsReport:
    """Slack report for the t0 bracket and the exponent inequality at one p."""

    p: float
    lower: float
    t0: float
    upper: float
    exponent_check_lhs: float
    exponent_check_rhs: float
    all_hold: bool
    margin: float
    in_hypothesis: bool = True


def objective(t, e: Exponent):
    """|t^(p-1) - t| / (1 + t^p), vectorized."""
    p = e.p
    return np.abs(t ** (p - 1.0) - t) / (1.0 + t**p)


def phi_derivative(t: float, e: Exponent) -> float:
    """Closed-form derivative of (t^(p-1) - t)/(1 + t^p) on 0 < t < 1.

    This is the signed form (no absolute value): for p < 2 it is the
    derivative of the objective itself, for p > 2 of its negative.
    """
    t = float(t)
    if not (0.0 < t < 1.0):
        raise ValueError(f"t must lie strictly inside (0, 1), got {t!r}")
    p = e.p
    tp = t**p
    tp1 = t ** (p - 1.0)
    tp2 = t ** (p - 2.0)
    return (((p - 1.0) * tp2 - 1.0) * (1.0 + tp) - p * tp1 * (tp1 - t)) / (1.0 + tp) ** 2


@functools.lru_cache(maxsize=1)
def compute_mp(e: Exponent, tol: float = 1e-10) -> CriticalPoint:
    """Maximize |t^(p-1) - t|/(1 + t^p) over [0, 1].

    The shared maximizer's grid pre-scan localizes the argmax to one cell, and
    bisection on the sign of the closed-form derivative polishes it wherever a
    sign change brackets that cell.  Where none does, or the bisected root
    trails the grid's best value by more than rounding noise, the maximizer's
    refinement of that same pre-scan to tol gives the result instead (that of
    maximize_1d at tol, with one grid scan in all).  p = 2 is an explicit
    degenerate branch (the numerator vanishes identically).

    The last result is cached, so the several calls that one verify or sweep
    row makes for its exponent compute it once; rows never share an exponent,
    so one entry is enough.  The cache key is the call as spelled:
    compute_mp(e) and compute_mp(e, tol=1e-10) are separate entries.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be > 0, got {tol!r}")
    p = e.p
    if p == 2.0:
        return CriticalPoint(p=p, t0=0.0, mp=0.0, derivative_residual=0.0, degenerate=True)

    sgn = 1.0 if p < 2.0 else -1.0
    f = lambda t: objective(t, e)
    # the grid argmax (best_t, best_y of the best peak); the bisection below
    # polishes it, and the pre-scan's brackets refined to tol are the fallback
    scan = _prescan(f)
    t0, mp = scan[0][0], scan[1][0]
    h = 1.0 / DEFAULT_GRID_N

    # The derivative blows up as t -> 0+ for p < 2, so the bisection bracket
    # starts from the grid cell, clear of the singular endpoints.
    lo = max(t0 - h, 1e-12)
    hi = min(t0 + h, 1.0 - 1e-12)
    if lo < hi and sgn * phi_derivative(lo, e) > 0.0 > sgn * phi_derivative(hi, e):
        while hi - lo > 2.0 * _EPS * hi:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if sgn * phi_derivative(mid, e) > 0.0:
                lo = mid
            else:
                hi = mid
        t_ref = 0.5 * (lo + hi)
        v_ref = float(f(t_ref))
        # the bisected root is the better argmax; only reject it if its value
        # trails the grid's best by more than rounding noise
        if v_ref >= mp - 8.0 * _EPS * abs(mp):
            resid = sgn * phi_derivative(t_ref, e)
            return CriticalPoint(p=p, t0=t_ref, mp=v_ref, derivative_residual=resid, degenerate=False)

    r = _refine(f, *scan, tol)
    t0, mp = r.argmax, r.value
    resid = sgn * phi_derivative(t0, e) if 0.0 < t0 < 1.0 else math.nan
    return CriticalPoint(p=p, t0=t0, mp=mp, derivative_residual=resid, degenerate=False)


def _real_pow(base: float, expo: float) -> float:
    """base**expo as a float, nan outside the real domain."""
    try:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            return float(np.float64(base) ** np.float64(expo))
    except (ValueError, ZeroDivisionError, OverflowError):
        return math.nan


def lemma21_bounds(e: Exponent) -> BoundsReport:
    """Evaluate the t0 bracket and the exponent inequality at one p.

    Outside [6/5, 3/2] the report is still computed but flagged
    in_hypothesis=False (the formulas may leave their real domain there, in
    which case all_hold is False and margin is nan).
    """
    p, q = e.p, e.q
    in_hyp = (_HYP_LO - 1e-12) <= p <= (_HYP_HI + 1e-12)

    lower = _real_pow((2.0 * p - 2.0) / (4.0 - p), 1.0 / (2.0 - p)) if p != 2.0 else math.nan
    upper = _real_pow((p - 1.0) / (2.0 * p + 1.0), 1.0 / p)
    t0 = compute_mp(e).t0
    lhs = _real_pow(t0, 2.0 * p - 3.0)
    rhs = q / p

    slacks = (t0 - lower, upper - t0, rhs - lhs)
    if all(math.isfinite(x) for x in slacks):
        margin = min(slacks)
        all_hold = margin >= SAFETY_MARGIN
    else:
        margin = math.nan
        all_hold = False
    return BoundsReport(
        p=p,
        lower=lower,
        t0=t0,
        upper=upper,
        exponent_check_lhs=lhs,
        exponent_check_rhs=rhs,
        all_hold=all_hold,
        margin=margin,
        in_hypothesis=in_hyp,
    )
