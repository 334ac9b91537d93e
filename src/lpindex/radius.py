"""Numerical radius of 2x2 operators on the l_p plane.

Two independent routes are kept deliberately separate: numerical_radius uses
the closed two-branch form

    v(T) = max( max_t (|a + d t^p| + |b t + c t^(p-1)|) / (1 + t^p),
                max_t (|d + a t^p| + |c t + b t^(p-1)|) / (1 + t^p) ),

with t over [0, 1], while radius_oracle brute-forces the defining supremum of
|x*(Tx)| over norming pairs via the duality map on the unit sphere.  Tests
hold the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, Exponent, Mat2, maximize_1d, sphere_powers


@dataclass(frozen=True)
class RadiusResult:
    """Numerical radius with the attained branch and its maximizer.

    The larger branch wins, "first" on exact ties, and value, branch, t_star
    and halfwidth all come from that branch's maximization, at any scale of T.
    evaluations counts the objective points of both branch maximizations.
    """

    value: float
    branch: str
    t_star: float
    tol: float
    evaluations: int
    halfwidth: float


def conjugate_by_swap(T: Mat2) -> Mat2:
    """Conjugation by the coordinate swap: (a b; c d) -> (d c; b a)."""
    return Mat2(T.d, T.c, T.b, T.a)


def branch_args(a, b, c, d, t, tp, tp1):
    """The two |.| arguments a + d t^p and b t + c t^(p-1) of branch_value; floats or arrays."""
    return a + d * tp, b * t + c * tp1


def branch_value(a, b, c, d, t, tp, tp1):
    """(|a + d t^p| + |b t + c t^(p-1)|)/(1 + t^p) for (a b; c d), tp = t^p, tp1 = t^(p-1); floats or arrays."""
    x, y = branch_args(a, b, c, d, t, tp, tp1)
    return (abs(x) + abs(y)) / (1.0 + tp)


def branch_integrand(T: Mat2, e: Exponent):
    """First-branch integrand t -> branch_value(a, b, c, d, t, t^p, t^(p-1)) of T, on arrays.

    At t = 0 the t^(p-1) term vanishes (p > 1), so the value is exactly |a|.
    The second branch is this integrand applied to the swap-conjugated matrix.
    """
    a, b, c, d = T.as_tuple()
    p = e.p

    def f(t):
        pw = sphere_powers(t, p)
        return branch_value(a, b, c, d, t, pw.tp, pw.tp1)

    return f


def numerical_radius(T: Mat2, e: Exponent, tol: float = DEFAULT_TOL) -> RadiusResult:
    """Numerical radius via the two-branch closed form."""
    r1, r2 = (maximize_1d(branch_integrand(M, e), tol) for M in (T, conjugate_by_swap(T)))
    r, branch = max(((r1, "first"), (r2, "second")), key=lambda rb: rb[0].value)  # the first on ties
    return RadiusResult(
        value=r.value,
        branch=branch,
        t_star=r.argmax,
        tol=tol,
        evaluations=r1.evaluations + r2.evaluations,
        halfwidth=r.tol,
    )


def radius_oracle(T: Mat2, e: Exponent) -> float:
    """Brute-force supremum of |x*(Tx)| over norming pairs.

    x runs over the half unit sphere x = (sigma*s, (1-s^p)^(1/p)), s in [0, 1]
    (enough, since the pairing is invariant under x -> -x), and x* is the
    duality map (sgn(x1)|x1|^(p-1), sgn(x2)|x2|^(p-1)), the unique norming
    functional for 1 < p < infinity.  Each sign sigma is one call of the shared
    maximizer, whose polish of the two best grid local maxima matters here: the
    duality-map exponent p-1 < 1 is non-smooth at the axes, and near s = 1 the
    pairing can hold a narrow peak above the grid values of a broad lower mode.
    """
    a, b, c, d = T.as_tuple()
    p = e.p

    def pairing(sig):
        def f(s):
            pw = sphere_powers(s, p)
            x1, x2 = sig * s, pw.x2
            return np.abs(sig * pw.tp1 * (a * x1 + b * x2) + pw.x2p1 * (c * x1 + d * x2))

        return f

    return max(maximize_1d(pairing(sig), 1e-12).value for sig in (1.0, -1.0))
