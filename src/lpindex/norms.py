"""Vector and operator norms on the two-dimensional l_p plane.

The induced operator norm is computed by maximizing ||Tx||_p over the unit
sphere, parametrized by two overlapping charts x = (s, sign*(1-s^p)^(1/p))
and x = ((1-s^p)^(1/p), sign*s) with s in [0, 1].  Either chart alone covers
the half-sphere x1 >= 0 (which suffices, since ||T(-x)|| = ||Tx||), but the
derivative of (1-s^p)^(1/p) blows up at s = 1, so each chart is only used
where it is well conditioned.  The interpolation bound
||T|| <= ||T||_1^(1/p) * ||T||_inf^(1/q) sits alongside as a cheap certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Exponent, Mat2, maximize_1d, sphere_powers


@dataclass(frozen=True)
class OpNormResult:
    """Operator norm plus the witness point on the unit sphere.

    The witness is x = (s, sign*(1-s^p)^(1/p)), or the same expression with
    the coordinates swapped when swapped is True.
    """

    norm: float
    s: float
    sign: int
    swapped: bool
    tol: float

    def witness(self, e: Exponent) -> tuple[float, float]:
        comp = max(1.0 - self.s**e.p, 0.0) ** (1.0 / e.p)
        if self.swapped:
            return (comp, self.sign * self.s)
        return (self.s, self.sign * comp)


def vec_norm(x, e: Exponent) -> float:
    """l_p norm of a pair, overflow-safe via factoring out the larger entry."""
    x1 = float(x[0])
    x2 = float(x[1])
    if not (math.isfinite(x1) and math.isfinite(x2)):
        raise ValueError(f"vector entries must be finite, got {x!r}")
    return float(_lp_pair(x1, x2, e.p))


def norm_1(T: Mat2) -> float:
    """Maximum absolute column sum."""
    return max(abs(T.a) + abs(T.c), abs(T.b) + abs(T.d))


def norm_inf(T: Mat2) -> float:
    """Maximum absolute row sum."""
    return max(abs(T.a) + abs(T.b), abs(T.c) + abs(T.d))


def _lp_pair(u, v, p):
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


def _chart_objective(T: Mat2, p: float, sign: int, swapped: bool):
    a, b, c, d = T.as_tuple()

    def f(s):
        comp = sphere_powers(s, p).x2
        if swapped:
            x1, x2 = comp, sign * s
        else:
            x1, x2 = s, sign * comp
        return _lp_pair(a * x1 + b * x2, c * x1 + d * x2, p)

    return f


def op_norm(T: Mat2, e: Exponent, tol: float = 1e-10) -> OpNormResult:
    """sup of ||Tx||_p over the l_p unit sphere.

    Scans the two charts with both relative signs of the coordinates
    (2 sign cases suffice by homogeneity x -> -x), each through the bracketed
    1-d maximizer.
    """
    best = None
    for swapped in (False, True):
        for sign in (1, -1):
            r = maximize_1d(_chart_objective(T, e.p, sign, swapped), tol)
            if best is None or r.value > best[0].value:
                best = (r, sign, swapped)
    r, sign, swapped = best
    return OpNormResult(norm=r.value, s=r.argmax, sign=sign, swapped=swapped, tol=tol)


def riesz_thorin_bound(T: Mat2, e: Exponent) -> float:
    """Interpolated bound ||T||_1^(1/p) * ||T||_inf^(1/q); 0 for the zero operator."""
    n1 = norm_1(T)
    ninf = norm_inf(T)
    if n1 == 0.0 or ninf == 0.0:
        return 0.0
    return n1 ** (1.0 / e.p) * ninf ** (1.0 / e.q)
