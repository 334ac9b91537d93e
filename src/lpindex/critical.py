"""Critical point of max_t |t^(p-1) - t| / (1 + t^p) and a float check of its bracket.

compute_mp finds the interior maximizer t0 and the maximum value; maximize_1d's
grid scan localizes the critical point and a bisection on the closed-form
derivative polishes it to machine precision.  lemma21_bounds evaluates the
bracketing inequalities

    ((2p-2)/(4-p))^(1/(2-p)) <= t0 <= ((p-1)/(2p+1))^(1/p),
    t0^(2p-3) <= q/p,

in float64 at the one exponent it is given, and reports the smallest slack;
a 1e-9 safety band is absorbed into each comparison so that a pass means the
inequality holds with visible margin, not merely up to rounding.  It is a
numerical check, not a certificate: nothing is rounded outward, and it says
nothing about the exponents it was not given.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_GRID_N, DEFAULT_TOL, Exponent, maximize_1d, sphere_powers

_EPS = sys.float_info.epsilon

SAFETY_MARGIN = 1e-9

# hypothesis range of the bracketing inequalities, p in [6/5, 3/2], and the
# rounding band that every check of an exponent against a range allows
HYPOTHESIS_RANGE = (1.2, 1.5)
RANGE_BAND = 1e-12


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


def in_range(p: float, bounds: tuple[float, float] = HYPOTHESIS_RANGE) -> bool:
    """Whether p lies in [lo, hi] = bounds, widened by RANGE_BAND at both ends."""
    lo, hi = bounds
    return lo - RANGE_BAND <= p <= hi + RANGE_BAND


def objective(t, e: Exponent):
    """|t^(p-1) - t| / (1 + t^p), vectorized."""
    pw = sphere_powers(t, e.p)
    return np.abs(pw.tp1 - t) / (1.0 + pw.tp)


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
def compute_mp(e: Exponent) -> CriticalPoint:
    """Maximize |t^(p-1) - t|/(1 + t^p) over [0, 1].

    maximize_1d at a one-cell tol localizes the argmax to a grid cell without
    refining it, and bisection on the sign of the closed-form derivative
    polishes it wherever a sign change brackets that cell.  Where none does,
    or the bisected root trails the grid's best value by more than rounding
    noise, maximize_1d at DEFAULT_TOL gives the result instead; that fallback
    scans the grid again.  A probe found it running only at p - 1 < 2.1e-12,
    at p > 3.1e13 and within 3.4e-8 of p = 2.  p = 2 is an explicit
    degenerate branch (the numerator vanishes identically).

    Within about 1e-10 of p = 2 the returned t0 is rounding noise: the
    numerator t^(p-1) - t carries an absolute error near 1e-16 while its true
    size there is about 1e-11, so the objective is flat to within its own
    noise over a wide band of t.  At p = 2 - 1.44e-10 two versions of this
    routine returned t0 = 0.301397 and 0.301245 (the p -> 2 limit of the
    argmax is 0.301291); their mp agreed to 2.7e-18.

    The last result is cached, so the several calls that one verify or sweep
    row makes for its exponent compute it once; rows never share an exponent,
    so one entry is enough.
    """
    p = e.p
    if p == 2.0:
        return CriticalPoint(p=p, t0=0.0, mp=0.0, derivative_residual=0.0, degenerate=True)

    sgn = 1.0 if p < 2.0 else -1.0
    f = lambda t: objective(t, e)
    # a one-cell tol returns the grid argmax unrefined; the bisection below polishes it
    h = 1.0 / DEFAULT_GRID_N
    grid_best = maximize_1d(f, h)
    t0, mp = grid_best.argmax, grid_best.value

    # The derivative blows up as t -> 0+ for p < 2, so the bisection bracket
    # starts from the grid cell, clear of the singular endpoints.
    lo = max(t0 - h, 1e-12)
    hi = min(t0 + h, 1.0 - 1e-12)
    if sgn * phi_derivative(lo, e) > 0.0 > sgn * phi_derivative(hi, e):
        while hi - lo > 2.0 * _EPS * hi:
            mid = 0.5 * (lo + hi)
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

    r = maximize_1d(f, DEFAULT_TOL)
    t0, mp = r.argmax, r.value
    resid = sgn * phi_derivative(t0, e) if 0.0 < t0 < 1.0 else math.nan
    return CriticalPoint(p=p, t0=t0, mp=mp, derivative_residual=resid, degenerate=False)


def _real_pow(base: float, expo: float) -> float:
    """base**expo as a float, nan outside the real domain."""
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        return float(np.float64(base) ** np.float64(expo))


def lemma21_bounds(e: Exponent) -> BoundsReport:
    """Evaluate the t0 bracket and the exponent inequality at one p.

    Outside [6/5, 3/2] the report is still computed but flagged
    in_hypothesis=False (the formulas may leave their real domain there, in
    which case all_hold is False and margin is nan).
    """
    p, q = e.p, e.q
    lower = _real_pow((2.0 * p - 2.0) / (4.0 - p), 1.0 / (2.0 - p)) if p != 2.0 else math.nan
    upper = _real_pow((p - 1.0) / (2.0 * p + 1.0), 1.0 / p)
    t0 = compute_mp(e).t0
    lhs = _real_pow(t0, 2.0 * p - 3.0)
    rhs = q / p

    slacks = (t0 - lower, upper - t0, rhs - lhs)
    margin = min(slacks) if all(math.isfinite(x) for x in slacks) else math.nan
    return BoundsReport(
        p=p,
        lower=lower,
        t0=t0,
        upper=upper,
        exponent_check_lhs=lhs,
        exponent_check_rhs=rhs,
        all_hold=margin >= SAFETY_MARGIN,  # False for a nan margin
        margin=margin,
        in_hypothesis=in_range(p),
    )
