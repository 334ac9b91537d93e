"""Shared domain types and the deterministic 1-d maximizer on [0, 1].

Everything downstream (operator norms, numerical radius, critical points,
the index search) reduces to maximizing piecewise-smooth functions of
t in [0, 1], so there is one maximizer, called the same way by every layer:
maximize_1d(objective, tol).  It favors robustness: one fixed dense grid,
geometrically refined inside the two end cells, localizes the two best local
maxima, and a vectorized re-gridding of their brackets polishes them.  All
values are 64-bit floats and all routines are pure functions, so results
are bit-reproducible and safe to evaluate from parallel sweeps.  The objective
sees numpy arrays, but the one or two brackets and their best points are kept
in Python floats: on two-element arrays numpy's fixed cost per call (masks,
fancy indexing, reductions) outweighs the arithmetic, and the float updates
are the same IEEE operations, so they move no bit.

The objectives on the l_p unit sphere share the powers t^p and t^(p-1), the
quadrant arc x2 = (1 - t^p)^(1/p), x2^(p-1) and the quadrant chart, which
maps t to a point of the positive quadrant of the unit sphere switched at the
diagonal (SpherePowers).  op_norm searches the chart, and the index surrogate
samples the norm on it at its own 257-point grid.  On the pre-scan grid these
do not depend on the operator, so sphere_powers keeps them per exponent,
read-only, for the last _POWERS_CACHE_SIZE exponents (6 arrays of 4193
float64, about 201 KB each); on refinement points each objective computes
only what it reads.  Cached or not, every array is the same numpy
expression, so the cache moves no bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

DEFAULT_GRID_N = 4096
# The maximizer's bracket half-width when a caller gives none.
DEFAULT_TOL = 1e-10

# Geometric points inside each end cell, from 1e-12 of the cell width up to it:
# integrands with a t^(p-1) term (p near 1) or an infinite slope at s = 1 can
# peak deep inside an end cell, where the uniform grid has no point.
_END_POINTS = 48
# The pre-scan grid: DEFAULT_GRID_N + 1 uniform points on [0, 1] plus the
# end-cell points, sorted (no two coincide).
_END_GEO = np.geomspace(1e-12, 1.0, _END_POINTS + 1)[:-1] / DEFAULT_GRID_N
_GRID = np.sort(np.concatenate((np.linspace(0.0, 1.0, DEFAULT_GRID_N + 1), _END_GEO, 1.0 - _END_GEO)))
_GRID.flags.writeable = False
# Points per bracket per refinement step; each step narrows a bracket 32-fold.
_REFINE_POINTS = 65
_REFINE_U = np.linspace(0.0, 1.0, _REFINE_POINTS)
_REFINE_U.flags.writeable = False
# Exponents whose pre-scan grid powers sphere_powers keeps.
_POWERS_CACHE_SIZE = 16


@dataclass(frozen=True)
class Exponent:
    """An exponent p in (1, inf) together with its conjugate q = p/(p-1), derived from p."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.p) or self.p <= 1.0:
            raise ValueError(f"p must be finite and > 1, got {self.p!r}")
        object.__setattr__(self, "q", self.p / (self.p - 1.0))


def make_exponent(p: float) -> Exponent:
    """The Exponent of float(p); raises ValueError unless p is finite and > 1."""
    return Exponent(float(p))


@dataclass(frozen=True)
class Mat2:
    """A 2x2 real operator (a b; c d) acting on column vectors."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"matrix entry {name}={v!r} is not finite")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def apply(self, x1: float, x2: float) -> tuple[float, float]:
        return (self.a * x1 + self.b * x2, self.c * x1 + self.d * x2)

    def scaled(self, lam: float) -> "Mat2":
        return Mat2(lam * self.a, lam * self.b, lam * self.c, lam * self.d)


@dataclass(frozen=True)
class BracketedMax:
    """Result of a bracketed 1-d maximization.

    value equals the objective evaluated at argmax (recomputable bit-for-bit);
    tol is the half-width of the final refinement bracket around argmax.
    """

    value: float
    argmax: float
    tol: float
    evaluations: int


def _evaluate(objective: Callable, ts: np.ndarray) -> np.ndarray:
    """Evaluate a vectorized objective elementwise, rejecting non-finite values."""
    ys = np.asarray(objective(ts), dtype=float)
    if ys.shape != ts.shape:
        raise TypeError(f"objective must map an array of shape {ts.shape} to the same shape")
    if not np.isfinite(ys).all():
        bad = ts[~np.isfinite(ys)][0]
        raise FloatingPointError(f"objective returned non-finite value at t={float(bad)!r}")
    return ys


class _computed_once:
    """A lazily computed attribute, kept in the instance once computed.

    functools.cached_property does the same, but before Python 3.12 it takes a
    lock on each first use, which costs more than a power on a refinement
    bracket.
    """

    def __init__(self, fn):
        self.fn = fn

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class SpherePowers:
    """Powers of points t in [0, 1] for an exponent p, each computed on first use.

    tp = t^p, tp1 = t^(p-1), the unit-sphere quadrant arc
    x2 = max(1 - t^p, 0)^(1/p), so that (t, x2) has l_p norm 1,
    x2p1 = x2^(p-1), and the quadrant chart (see chart).  This is the one
    definition of each; objectives get their instance from sphere_powers.
    """

    def __init__(self, t: np.ndarray, p: float):
        self.t = t
        self.p = p

    @_computed_once
    def tp(self) -> np.ndarray:
        return self.t**self.p

    @_computed_once
    def tp1(self) -> np.ndarray:
        return self.t ** (self.p - 1.0)

    @_computed_once
    def x2(self) -> np.ndarray:
        return np.maximum(1.0 - self.tp, 0.0) ** (1.0 / self.p)

    @_computed_once
    def x2p1(self) -> np.ndarray:
        return self.x2 ** (self.p - 1.0)

    @_computed_once
    def chart(self) -> tuple[np.ndarray, np.ndarray]:
        """The quadrant chart (u, v): points of l_p norm 1 with u, v >= 0.

        It is switched at the diagonal so that the arc is only ever read where
        its slope is at most 1 in magnitude: for t <= 1/2 the point is
        (s, x2(s)) with s = 2t 2^(-1/p), and for t > 1/2 it is (x2(s), s) with
        s = (2 - 2t) 2^(-1/p).  So t = 0, 1/2, 1 map to (0, 1), the diagonal
        and (1, 0).  On the uniform grid points k/4096 other than 1/2 the map
        is mirror-exact: t and 1 - t give the same s, so they map to swapped
        points.
        """
        lower = self.t <= 0.5
        t2 = 2.0 * self.t
        s = np.where(lower, t2, 2.0 - t2) * 2.0 ** (-1.0 / self.p)
        x2 = SpherePowers(s, self.p).x2
        return np.where(lower, s, x2), np.where(lower, x2, s)


@functools.lru_cache(maxsize=_POWERS_CACHE_SIZE)
def _grid_powers(p: float) -> SpherePowers:
    """The SpherePowers of the pre-scan grid, all computed and read-only."""
    pw = SpherePowers(_GRID, p)
    for arr in (pw.tp, pw.tp1, pw.x2, pw.x2p1, *pw.chart):
        arr.flags.writeable = False
    return pw


def sphere_powers(t: np.ndarray, p: float) -> SpherePowers:
    """The SpherePowers of t: the cached record when t is the pre-scan grid itself
    (an objective's 1-d call from maximize_1d), else a new one."""
    return _grid_powers(p) if t is _GRID else SpherePowers(t, p)


def _prescan(objective: Callable):
    """Evaluate the objective on the grid and bracket its two best grid local maxima.

    Returns (best_t, best_y, a, b) as lists of Python floats: the maxima's
    points and values, best first (the first in grid order on ties), and
    their brackets [a, b] between grid neighbours.  A grid local maximum is
    a point at least as high as each neighbour; the interior ones are found
    in one pass and the two ends are checked as scalars.
    """
    ys = _evaluate(objective, _GRID)
    last = _GRID.size - 1
    mid = ys[1:-1]
    inner = ((mid >= ys[:-2]) & (mid >= ys[2:])).nonzero()[0]
    # the two best interior maxima and the ends that are maxima, in grid order
    peaks = sorted((inner[np.argsort(-mid[inner], kind="stable")[:2]] + 1).tolist())
    if ys.item(0) >= ys.item(1):
        peaks.insert(0, 0)
    if ys.item(last) >= ys.item(last - 1):
        peaks.append(last)
    idx = sorted(peaks, key=ys.item, reverse=True)[:2]  # stable: keeps grid order on ties
    return (
        [_GRID.item(i) for i in idx],
        [ys.item(i) for i in idx],
        [_GRID.item(max(i - 1, 0)) for i in idx],
        [_GRID.item(min(i + 1, last)) for i in idx],
    )


def maximize_1d(objective: Callable, tol: float) -> BracketedMax:
    """Maximize a vectorized real objective on [0, 1].

    The objective is called on numpy arrays (1-d for the pre-scan, 2-d for the
    refinement) and must return an array of the same shape.  The pre-scan
    grid is fixed: DEFAULT_GRID_N + 1 equispaced points plus geometric points
    inside the two end cells.  The two best grid local maxima (two, which
    guards against near-tied or narrow peaks) are bracketed by their grid
    neighbours, and both brackets are re-gridded together until their
    half-width is at most tol.  A bracket starts two grid cells wide, so a tol
    of at least one cell, 1/DEFAULT_GRID_N, returns the grid argmax unrefined.
    The returned value is never below the best grid value, and the evaluation
    count includes the pre-scan's.  Deterministic: identical inputs give
    identical outputs.  Non-finite objective values raise FloatingPointError.
    """
    if not (0.0 < tol < math.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    best_t, best_y, a, b = _prescan(objective)
    evals = _GRID.size
    w = [hi - lo for lo, hi in zip(a, b)]
    # every bracket steps while any one is wider than 2 tol: a bracket stopped
    # on its own test would return other bits
    while max(w) > 2.0 * tol:
        pts = np.array(a)[:, None] + np.array(w)[:, None] * _REFINE_U
        vals = _evaluate(objective, pts)
        evals += pts.size
        narrowed = False
        for i, j in enumerate(vals.argmax(axis=1).tolist()):
            y = vals.item(i, j)
            if y > best_y[i]:
                best_t[i], best_y[i] = pts.item(i, j), y
            # the new bracket is two steps wide and holds the row's best point
            j = min(max(j, 1), _REFINE_POINTS - 2)
            a[i], b[i] = pts.item(i, j - 1), pts.item(i, j + 1)
            width = b[i] - a[i]
            narrowed = narrowed or width < w[i]
            w[i] = width
        if not narrowed:
            break  # brackets at the resolution of floating point

    k = max(range(len(best_y)), key=best_y.__getitem__)  # the first on ties
    return BracketedMax(value=best_y[k], argmax=best_t[k], tol=w[k] / 2.0, evaluations=evals)
