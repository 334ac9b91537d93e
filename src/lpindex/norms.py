"""Vector and operator norms on the two-dimensional l_p plane.

The induced operator norm is computed by maximizing ||Tx||_p over the half
unit sphere x1 >= 0 (which suffices, since ||T(-x)|| = ||Tx||), one 1-d
maximization per relative sign of the coordinates.  Each scans the quadrant
chart of SpherePowers: t in [0, 1/2] maps to x = (s, sign*(1-s^p)^(1/p)) and
t in (1/2, 1] to x = ((1-s^p)^(1/p), sign*s), with s <= 2^(-1/p).  Switched at
the diagonal, the chart covers the quadrant once and never reads the arc
(1-s^p)^(1/p) near s = 1, where its slope is infinite.  The interpolation
bound ||T|| <= ||T||_1^(1/p) * ||T||_inf^(1/q) sits alongside as a cheap
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Exponent, Mat2, maximize_1d, sphere_powers


@dataclass(frozen=True)
class Witness:
    """The point x = (x1, x2) of the l_p unit sphere where op_norm's search peaked.

    The search's argmax t* on the quadrant chart is kept as the chart's
    coordinate s (2t* 2^(-1/p), or (2 - 2t*) 2^(-1/p) past the diagonal),
    swapped = t* > 1/2, and the sign of the second coordinate: x is
    (s, sign*(1-s^p)^(1/p)), or ((1-s^p)^(1/p), sign*s) when swapped is True.
    x1 and x2 are the chart point the search evaluated; its arc coordinate is
    the numpy SpherePowers arc, not libm's pow, so the witness is the searched
    point bit for bit.
    """

    s: float
    sign: int
    swapped: bool
    x1: float
    x2: float


@dataclass(frozen=True)
class OpNormResult:
    """Operator norm plus the witness point on the unit sphere.

    evaluations counts the objective points of both sign maximizations;
    halfwidth is the reported sign's final bracket half-width.
    """

    norm: float
    witness: Witness
    tol: float
    evaluations: int
    halfwidth: float


def vec_norm(x, e: Exponent) -> float:
    """l_p norm of a pair, overflow-safe via factoring out the larger entry."""
    x1 = float(x[0])
    x2 = float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"vector entries must be finite, got {x!r}")
    return float(lp_pair(x1, x2, e.p))


def norm_1(T: Mat2) -> float:
    """Maximum absolute column sum."""
    return max(abs(T.a) + abs(T.c), abs(T.b) + abs(T.d))


def norm_inf(T: Mat2) -> float:
    """Maximum absolute row sum."""
    return max(abs(T.a) + abs(T.b), abs(T.c) + abs(T.d))


def lp_pair(u, v, p):
    """Vectorized overflow-safe (|u|^p + |v|^p)^(1/p).

    The larger entry m is factored out, and its ratio m/m = 1 is written as
    the constant 1.0: IEEE pow gives 1.0**p == 1.0 and addition commutes, so
    this is the same float as summing both ratios' powers, with one power
    fewer.
    """
    au = np.abs(u)
    av = np.abs(v)
    m = np.maximum(au, av)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = m * (1.0 + (np.minimum(au, av) / m) ** p) ** (1.0 / p)
    return np.where(m > 0.0, r, 0.0)


def _norm_objective(T: Mat2, p: float, sign: int):
    """t -> ||T(u, sign*v)||_p on the quadrant chart (u, v) of SpherePowers."""
    a, b, c, d = T.as_tuple()
    b, d = sign * b, sign * d  # (sign b) v = b (sign v): negation is exact

    def f(t):
        u, v = sphere_powers(t, p).chart
        return lp_pair(a * u + b * v, c * u + d * v, p)

    return f


def op_norm(T: Mat2, e: Exponent, tol: float = DEFAULT_TOL) -> OpNormResult:
    """sup of ||Tx||_p over the l_p unit sphere.

    One bracketed 1-d maximization over the quadrant chart per relative sign
    of the coordinates (2 sign cases suffice by homogeneity x -> -x); the
    first sign wins ties.
    """
    r1, r2 = (maximize_1d(_norm_objective(T, e.p, sign), tol) for sign in (1, -1))
    r, sign = max(((r1, 1), (r2, -1)), key=lambda rs: rs[0].value)  # the first on ties
    swapped = r.argmax > 0.5
    u, v = (c.item() for c in sphere_powers(np.array([r.argmax]), e.p).chart)
    witness = Witness(s=v if swapped else u, sign=sign, swapped=swapped, x1=u, x2=sign * v)
    evaluations = r1.evaluations + r2.evaluations
    return OpNormResult(norm=r.value, witness=witness, tol=tol, evaluations=evaluations, halfwidth=r.tol)


def riesz_thorin_bound(T: Mat2, e: Exponent) -> float:
    """Interpolated bound ||T||_1^(1/p) * ||T||_inf^(1/q); 0 for the zero operator."""
    n1 = norm_1(T)
    ninf = norm_inf(T)
    if n1 == 0.0 or ninf == 0.0:
        return 0.0
    return n1 ** (1.0 / e.p) * ninf ** (1.0 / e.q)
