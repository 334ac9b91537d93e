"""Global estimation of the numerical index of the l_p plane.

The infimum of v(T)/||T|| over nonzero operators is searched over the
canonical sign-pattern class T = (a b; -c -d) with a, b, c, d >= 0 (flattening
signs never raises the ratio, so this class attains the infimum).  Scale
invariance lets the search live on the unit 4-cube with max-entry
normalization.  The search itself is a multi-start Nelder-Mead simplex,
reflected at the cube boundary, over a cheap grid-cached surrogate of the
ratio.  The starts run in lockstep: every simplex step evaluates the
surrogate once, as one array operation, for all starts still active, and
each start follows exactly the path a lone run would.  The start points are
an Owen-scrambled Halton sequence built here from numpy's generator.  Every
candidate is re-evaluated at tight tolerance before reporting.

verify_claim_region numerically minimizes the closed-form lower-bound ratio
max(F, G) / (||T||_1^(1/p) ||T||_inf^(1/q)) over three constrained operator
regions and compares against the target (t0^(p-1) - t0)/(1 + t0^p).  The
reported infimum is an upper bound on the true one, so "holds" means "no
counterexample found at this resolution", not a proof.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Exponent, Mat2, SpherePowers, make_exponent
from .critical import HYPOTHESIS_RANGE, RANGE_BAND, compute_mp
from .norms import lp_pair, op_norm, riesz_thorin_bound
from .radius import numerical_radius

_CLAIM_RANGES = {1: (1.0, HYPOTHESIS_RANGE[1]), 2: (1.0, HYPOTHESIS_RANGE[1]), 3: HYPOTHESIS_RANGE}

REMARK_ENTRIES = (0.0487295, 13.639181, 15.0, 1.0)

# Grid intervals of the index surrogate on t in [0, 1]
SURROGATE_N = 256

# Nelder-Mead initial simplex edge, iteration cap and default stopping spread
_NM_STEP = 0.05
_NM_MAX_ITER = 400
_NM_FTOL = 1e-11

# Outer product of a column and a grid, written with np.einsum into a workspace buffer
_OUTER = "i,j->ij"


@dataclass(frozen=True)
class SignPatternOp:
    """Canonical sign pattern (a b; -c -d) with nonnegative entries."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"entry {name}={v!r} must be finite and >= 0")
            object.__setattr__(self, name, v)

    def to_mat2(self) -> Mat2:
        return Mat2(self.a, self.b, -self.c, -self.d)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


@dataclass(frozen=True)
class IndexEstimate:
    """Estimated index with the minimizing operator found and its gap to mp.

    value is the least re-evaluated v(T)/||T|| at the starts' endpoints and
    the rotation, so it never exceeds the rotation's.  That ratio and
    compute_mp's mp round differently, so value can exceed mp, and gap be
    positive, by a few ulps (+1.1e-16 at p = 1100 with 4 starts).

    How far the starts' re-evaluated ratios agree: top3_spread is the
    third-best minus the best (None with fewer than three), near_best counts
    those within 10*tol of the best, and converged is top3_spread <= 10*tol.
    """

    p: float
    value: float
    mp: float
    gap: float
    minimizer: Mat2
    starts: int
    converged: bool
    top3_spread: float | None
    near_best: int


@dataclass(frozen=True)
class ClaimRegionReport:
    """Outcome of minimizing the lower-bound ratio over one claim region.

    feasible_points counts the grid points scored; evaluations counts the
    polish objective's calls.
    """

    claim_id: int
    p: float
    infimum_found: float
    target: float
    holds: bool
    worst_point: SignPatternOp
    feasibility_slack: float
    feasible_points: int
    evaluations: int


@dataclass(frozen=True)
class RemarkRecord:
    """Fixed-matrix evaluation showing where the lower-bound route breaks."""

    p: float
    t0: float
    mp: float
    ratio: float
    is_below: bool


def _t0_powers(e: Exponent, t0: float) -> tuple[float, float, float]:
    """(t0, t0^p, t0^(p-1)), the point at which F and G are taken; t0 must lie in (0, 1)."""
    if not (0.0 < t0 < 1.0):
        raise ValueError(f"t0 must lie in (0, 1), got {t0!r}")
    return t0, t0**e.p, t0 ** (e.p - 1.0)


def _functional(a, b, c, d, t, tp, tp1):
    """F of (a b; -c -d) at t, given tp = t^p and tp1 = t^(p-1); elementwise on floats or arrays.

    G is F of the swapped entries: G(a, b, c, d) = _functional(d, c, b, a, ...).
    """
    return (abs(a - d * tp) + abs(b * t - c * tp1)) / (1.0 + tp)


def functional_F(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """(|a - d t0^p| + |b t0 - c t0^(p-1)|) / (1 + t0^p)."""
    return _functional(T.a, T.b, T.c, T.d, *_t0_powers(e, t0))


def functional_G(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """(|d - a t0^p| + |c t0 - b t0^(p-1)|) / (1 + t0^p)."""
    return _functional(T.d, T.c, T.b, T.a, *_t0_powers(e, t0))


def alpha_ratio(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """max(F, G) over the interpolation bound of the corresponding matrix."""
    if max(T.a, T.b, T.c, T.d) <= 0.0:
        raise ValueError("alpha_ratio is undefined for the zero operator")
    return max(functional_F(T, e, t0), functional_G(T, e, t0)) / riesz_thorin_bound(T.to_mat2(), e)


def _claim3_entries(x, pts):
    """Entries (a, b, c, d) at claim 3's search coordinates x = (a, c, d), floats or arrays.

    Claims 1-2 search the entries themselves; claim 3 searches the F = G
    manifold b = c - (d - a) kappa, kappa = (1 + t0^p)/(t0^(p-1) + t0), with
    pts = _t0_powers(e, t0).
    """
    t0, tp, tp1 = pts
    a, c, d = x
    return a, c - (d - a) * ((1.0 + tp) / (tp1 + t0)), c, d


def _claim_slacks(claim_id: int, a, b, c, d, t2p: float | None) -> tuple:
    """Slacks of the constraints that claim_id's search enforces, t2p = t0^(2-p).

    A point is feasible when every slack is >= 0.  Claims 1-2 list the slacks
    that do not depend on p first; t2p=None returns only those.
    """
    if claim_id == 1:
        return (b - c, (a + c) - (b + d))
    if claim_id == 2:
        free = (d - a, (a + c) - (b + d))
        return free if t2p is None else free + _open_slacks(2, a, b, c, d, t2p)
    return (d - a, b - c * t2p, b)


def _open_slacks(claim_id: int, a, b, c, d, t2p: float) -> tuple:
    """The slacks of _claim_slacks that claim_id's grid candidates (_claim_candidates) do not already meet:
    none of claim 1's, which do not depend on p, claim 2's one p-dependent slack, and all of claim 3's."""
    if claim_id == 1:
        return ()
    if claim_id == 2:
        return (c * t2p - (c + a - d),)
    return _claim_slacks(3, a, b, c, d, t2p)


def claim3_balance_b(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """The b that equalizes F and G for given (a, c, d):

    b = c - (d - a) (1 + t0^p) / (t0^(p-1) + t0).
    """
    return _claim3_entries((T.a, T.c, T.d), _t0_powers(e, t0))[1]


@lru_cache(maxsize=6)
def _claim_candidates(claim_id: int, grid_n: int) -> tuple[np.ndarray, ...]:
    """claim_id's grid candidates: the search coordinates of the points of the
    grid_n-per-axis mesh of the unit cube that are nonzero and meet the claim's
    p-independent constraints, in mesh order and read-only.

    (a, b, c, d) for claims 1-2, (a, c, d) for claim 3, whose b = c - (d - a) kappa
    is 0 only where a, c and d are.
    """
    g = np.linspace(0.0, 1.0, grid_n)
    X = [x.ravel() for x in np.meshgrid(*[g] * (3 if claim_id == 3 else 4), indexing="ij")]
    keep = np.max(X, axis=0) > 0.0
    if claim_id != 3:
        for slack in _claim_slacks(claim_id, *X, None):
            keep &= slack >= 0.0
    X = tuple(x[keep] for x in X)
    for x in X:
        x.flags.writeable = False
    return X


def _fold01(x: np.ndarray) -> np.ndarray:
    """Reflect coordinates into [0, 1] (triangular wave with period 2)."""
    y = np.abs(np.asarray(x, dtype=float)) % 2.0
    return np.where(y > 1.0, 2.0 - y, y)


def _claim_polish(claim_id: int, e: Exponent, pts: tuple[float, float, float], t2p: float, start: tuple):
    """claim_id's penalized polish objective on Python floats, bound to one exponent, and its tracker.

    objective(x) folds the search point x into the unit cube as _fold01 does,
    takes the claim's entries (_claim3_entries) and least slack (_claim_slacks)
    there, and returns 2.0 where every entry is below 1e-12, else the ratio
    max(F, G) / (||T||_1^(1/p) ||T||_inf^(1/q)) (inf where that bound is 0)
    plus 10 times the constraint violation.  Among the points with
    slack >= -1e-12 it keeps the least ratio below start = (ratio, entries);
    best() returns that (ratio, entries) and the number of calls.

    The objective restates those float formulas with their IEEE operations in
    their order, so it matches the array path bit for bit; the tests hold it
    to a frozen copy of the helpers.  The exponent's constants are taken once
    here, and max(F, G) is the larger numerator over 1 + t0^p, the same float
    because division by a positive number is monotone.
    """
    t0, tp, tp1 = pts
    rp, rq, s = 1.0 / e.p, 1.0 / e.q, 1.0 + tp
    kappa = s / (tp1 + t0)
    best_val, best_pt = start
    evaluations = 0

    def score(a, b, c, d, slack):
        nonlocal evaluations, best_val, best_pt
        evaluations += 1
        if a < 1e-12 and b < 1e-12 and c < 1e-12 and d < 1e-12:
            return 2.0
        rt = max(a + c, b + d) ** rp * max(a + b, c + d) ** rq
        if rt > 0.0:
            val = max(abs(a - d * tp) + abs(b * t0 - c * tp1), abs(d - a * tp) + abs(c * t0 - b * tp1)) / s / rt
        else:
            val = math.inf
        if slack >= -1e-12 and val < best_val:
            best_val, best_pt = val, (a, b, c, d)
        return val - 10.0 * slack if slack < 0.0 else val

    # the claims' entries and slacks, each after the fold y = |v| mod 2, then 2 - y where y > 1
    def claim1(x):
        a, b, c, d = abs(x[0]) % 2.0, abs(x[1]) % 2.0, abs(x[2]) % 2.0, abs(x[3]) % 2.0
        a, b = (2.0 - a if a > 1.0 else a), (2.0 - b if b > 1.0 else b)
        c, d = (2.0 - c if c > 1.0 else c), (2.0 - d if d > 1.0 else d)
        return score(a, b, c, d, min(b - c, (a + c) - (b + d)))

    def claim2(x):
        a, b, c, d = abs(x[0]) % 2.0, abs(x[1]) % 2.0, abs(x[2]) % 2.0, abs(x[3]) % 2.0
        a, b = (2.0 - a if a > 1.0 else a), (2.0 - b if b > 1.0 else b)
        c, d = (2.0 - c if c > 1.0 else c), (2.0 - d if d > 1.0 else d)
        return score(a, b, c, d, min(d - a, (a + c) - (b + d), c * t2p - (c + a - d)))

    def claim3(x):
        a, c, d = abs(x[0]) % 2.0, abs(x[1]) % 2.0, abs(x[2]) % 2.0
        a, c, d = (2.0 - a if a > 1.0 else a), (2.0 - c if c > 1.0 else c), (2.0 - d if d > 1.0 else d)
        b = c - (d - a) * kappa
        return score(a, b, c, d, min(d - a, b - c * t2p, b))

    def best():
        return best_val, best_pt, evaluations

    return (claim1, claim2, claim3)[claim_id - 1], best


def _halton(n: int, seed: int) -> np.ndarray:
    """First n points of the Owen-scrambled Halton sequence on bases 2, 3, 5, 7, shape (n, 4).

    One random digit permutation per base and digit position, drawn in order
    from np.random.default_rng(seed), for every position whose weight b^-k
    still counts in a double (Owen 2017, arXiv:1706.02808); the same points
    as scipy.stats.qmc.Halton(d=4, scramble=True, seed=seed).random(n).
    """
    rng = np.random.default_rng(seed)
    i = np.arange(n)
    cols = []
    for b in (2, 3, 5, 7):
        col = np.zeros(n)
        q = i.copy()
        b2r = 1.0 / b
        for _ in range(math.ceil(54 / math.log2(b)) - 1):
            perm = np.arange(b)
            rng.shuffle(perm)
            col += perm[q % b] * b2r
            b2r /= b
            q //= b
        cols.append(col)
    return np.column_stack(cols)


def _nelder_mead(fn, x0, ftol: float = _NM_FTOL):
    """Deterministic Nelder-Mead minimizer (reflect 1, expand 2, contract/shrink 0.5) on Python floats.

    fn maps a list of n floats to a float, n = 3 or 4 (the claim polish's
    dimensions); any other n raises ValueError.  Vertices are lists, not
    arrays: on 3- and 4-vectors numpy's fixed cost per call outweighs the
    arithmetic, and each objective must stay on floats anyway (numpy's array
    power differs from libm pow on about 5% of inputs).  Each step does the
    array form's arithmetic in the same order, so _nelder_mead_lockstep,
    which steps numpy arrays, reproduces it bit for bit: the centroid sums
    the first n vertices in sequence, (((x0 + x1) + x2) + x3) / n, as numpy's
    mean(axis=0) does (sum() would not: it compensates rounding from Python
    3.12 on), and the order is a stable sort's, kept after a step
    that moves only the last vertex by moving it to bisect_right.
    The centroid and the reflection, expansion and contraction points are
    written out coordinate by coordinate for each of the two dimensions,
    because as loops over the coordinates (zip, reduce) this bookkeeping cost
    about as much per step as the objective it steers.
    Returns the best vertex, as a list, and its value.
    """
    x0 = [float(v) for v in x0]
    n = len(x0)
    if n not in (3, 4):
        raise ValueError(f"_nelder_mead minimizes over 3 or 4 coordinates, got {n}")
    four = n == 4
    simplex = [x0] + [x0[:i] + [x0[i] + _NM_STEP] + x0[i + 1 :] for i in range(n)]
    vals = [fn(x) for x in simplex]

    resort = True
    for _ in range(_NM_MAX_ITER):
        if resort:
            order = sorted(range(n + 1), key=vals.__getitem__)
            simplex = [simplex[i] for i in order]
            vals = [vals[i] for i in order]
            resort = False
        else:
            # only the last vertex moved: its stable-sort place is after its equals
            k = bisect_right(vals, vals[-1], 0, n)
            if k < n:
                simplex.insert(k, simplex.pop())
                vals.insert(k, vals.pop())
        best = simplex[0]
        if vals[-1] - vals[0] <= ftol and all(abs(v - b) <= 1e-8 for x in simplex[1:] for v, b in zip(x, best)):
            break
        # centroid g of all but the worst vertex w, and the reflection r
        if four:
            (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3), (w0, w1, w2, w3) = simplex
            g0, g1 = (((a0 + b0) + c0) + d0) / 4, (((a1 + b1) + c1) + d1) / 4
            g2, g3 = (((a2 + b2) + c2) + d2) / 4, (((a3 + b3) + c3) + d3) / 4
            r0, r1, r2, r3 = g0 + (g0 - w0), g1 + (g1 - w1), g2 + (g2 - w2), g3 + (g3 - w3)
            xr = [r0, r1, r2, r3]
        else:
            (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (w0, w1, w2) = simplex
            g0, g1, g2 = ((a0 + b0) + c0) / 3, ((a1 + b1) + c1) / 3, ((a2 + b2) + c2) / 3
            r0, r1, r2 = g0 + (g0 - w0), g1 + (g1 - w1), g2 + (g2 - w2)
            xr = [r0, r1, r2]
        fr = fn(xr)
        if fr < vals[0]:
            xe = [g0 + 2.0 * (g0 - w0), g1 + 2.0 * (g1 - w1), g2 + 2.0 * (g2 - w2)]
            if four:
                xe.append(g3 + 2.0 * (g3 - w3))
            fe = fn(xe)
            if fe < fr:
                simplex[-1], vals[-1] = xe, fe
            else:
                simplex[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = xr, fr
        else:
            # contract toward r when it beats w, else toward w
            if not fr < vals[-1]:
                r0, r1, r2 = w0, w1, w2
                if four:
                    r3 = w3
            xc = [g0 + 0.5 * (r0 - g0), g1 + 0.5 * (r1 - g1), g2 + 0.5 * (r2 - g2)]
            if four:
                xc.append(g3 + 0.5 * (r3 - g3))
            fc = fn(xc)
            if fc < min(fr, vals[-1]):
                simplex[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    simplex[i] = [b + 0.5 * (v - b) for b, v in zip(best, simplex[i])]
                    vals[i] = fn(simplex[i])
                resort = True
    i = min(range(n + 1), key=vals.__getitem__)
    return simplex[i], vals[i]


def _nelder_mead_lockstep(fn, x0: np.ndarray):
    """_nelder_mead, with its default settings, run from every row of x0 (shape (S, n)) at once.

    fn maps a (k, n) array of points to their (k,) values.  Each iteration
    makes at most three fn calls for all still-active starts: reflection,
    expansion/contraction (disjoint sets), shrink.  Per start the arithmetic
    is _nelder_mead's, so endpoints and values match it bit for bit.  The
    simplices of the active starts are kept as compact arrays, sorted by
    direct indexing; a start's simplex is written back once, when it stops or
    at the iteration cap.
    Returns the (S, n) endpoints and their (S,) values.
    """
    S, n = x0.shape
    simplex = np.repeat(x0[:, None, :], n + 1, axis=1)
    simplex[:, np.arange(1, n + 1), np.arange(n)] += _NM_STEP
    vals = fn(simplex.reshape(-1, n)).reshape(S, n + 1)
    act, sx, sv = np.arange(S), simplex, vals

    for _ in range(_NM_MAX_ITER):
        order = np.argsort(sv, axis=1, kind="stable")
        rows = np.arange(act.size)[:, None]
        sx, sv = sx[rows, order], sv[rows, order]
        done = (sv[:, -1] - sv[:, 0] <= _NM_FTOL) & (np.abs(sx[:, 1:] - sx[:, :1]).max(axis=(1, 2)) <= 1e-8)
        if done.any():
            simplex[act[done]], vals[act[done]] = sx[done], sv[done]
            act, sx, sv = act[~done], sx[~done], sv[~done]
            if act.size == 0:
                break
        centroid = sx[:, :-1].mean(axis=1)
        worst = sx[:, -1]
        xr = centroid + (centroid - worst)
        fr = fn(xr)
        expand = fr < sv[:, 0]
        contract = ~expand & ~(fr < sv[:, -2])
        outside = (fr < sv[:, -1])[:, None]
        xc = np.where(outside, centroid + 0.5 * (xr - centroid), centroid + 0.5 * (worst - centroid))
        x2 = np.where(expand[:, None], centroid + 2.0 * (centroid - worst), xc)
        second = expand | contract
        f2 = np.full_like(fr, np.inf)
        if second.any():
            f2[second] = fn(x2[second])
        take = (expand & (f2 < fr)) | (contract & (f2 < np.minimum(fr, sv[:, -1])))
        shrink = contract & ~take
        keep = ~shrink
        sx[keep, -1] = np.where(take[:, None], x2, xr)[keep]
        sv[keep, -1] = np.where(take, f2, fr)[keep]
        if shrink.any():
            best = sx[shrink, :1]
            sx[shrink, 1:] = best + 0.5 * (sx[shrink, 1:] - best)
            sv[shrink, 1:] = fn(sx[shrink, 1:].reshape(-1, n)).reshape(-1, n)
    else:
        simplex[act], vals[act] = sx, sv
    i = vals.argmin(axis=1)
    return simplex[np.arange(S), i], vals[np.arange(S), i]


class _RatioSearch:
    """Grid-cached surrogate of v(T)/||T|| for sign-pattern operators.

    All exponent-dependent grids are precomputed once, so a surrogate
    evaluation is pure array arithmetic.  Grid-only maxima are accurate
    enough to steer the simplex: over 13,000 rows at each of p = 1.01, 1.2,
    1.5, 3 and 6, the sampled norm lay below the tight one by at most 8.3e-5
    (relative), and by 4.2e-4 at p = 1000 (the tests hold 1.2e-4 and 6e-4).
    Candidates are re-evaluated tightly afterwards.

    The norm is sampled on the quadrant chart (u, v) of SpherePowers at the
    grid t, so each sample is a point of the unit sphere with u, v >= 0.
    This needs rows (a, b, c, d) >= 0, which search_obj guarantees by folding
    into the cube.  The sign-flipped chart (u, -v), which covers the rest of
    the half-sphere u >= 0, never raises the row maximum: with P = fl(a u) >= 0
    and Q = fl(b v) >= 0, |P - Q| <= P + Q, and rounding is monotone, so
    fl(|a u - b v|) <= fl(a u + b v), and likewise for (c, d).  The maximum
    of |.|^p + |.|^p over the row is then the one over both signs, bit for
    bit, as long as numpy's power is monotone on these inputs; the tests
    check that against the two-sign form, the code does not assume it.

    Each instance evaluates in a workspace of its own: float64
    (rows, SURROGATE_N + 1) buffers, four for scratch and one holding 1 + t^p
    in every row, grown to the largest call (the initial simplex, starts x 5
    rows) and reused through contiguous slices, so a call makes no array of
    that size.  The row x grid products are written with einsum, which numpy
    runs as one contiguous loop where a broadcast (S, 1) * (SURROGATE_N + 1,)
    product runs one short loop per row; einsum adds each product to a
    zeroed output, the same float for these inputs >= 0.  max(F, G) is the
    larger numerator divided once by 1 + t^p, the same float as the larger
    quotient because division by a positive number is monotone.
    """

    def __init__(self, e: Exponent):
        p = e.p
        self.p = p
        t = np.linspace(0.0, 1.0, SURROGATE_N + 1)
        pw = SpherePowers(t, p)
        self.t, self.tp, self.tp1 = t, pw.tp, pw.tp1
        self.u1, self.u2 = pw.chart
        self._work = np.empty((5, 0, t.size))

    def _workspace(self, rows: int) -> np.ndarray:
        """Four scratch buffers and 1 + t^p in every row, as (5, rows, SURROGATE_N + 1); each buffer is contiguous."""
        if self._work.shape[1] < rows:
            self._work = np.empty((5, rows, self.t.size))
            self._work[4] = 1.0 + self.tp
        return self._work[:, :rows]

    def norms(self, Y: np.ndarray) -> list[float]:
        """Max of ||(a b; -c -d)(u, v)||_p over the chart points per row (a, b, c, d) >= 0 of Y, as floats.

        Above p of about 1024, (a u + b v)^p can overflow for a row with max
        entry 1; such a row's maximum is taken again with lp_pair, which
        factors the larger of the two outputs out of each sample.
        """
        a, b, c, d = Y.T.copy()
        w1, w2, x = self._workspace(len(Y))[:3]
        np.einsum(_OUTER, a, self.u1, out=w1)
        w1 += np.einsum(_OUTER, b, self.u2, out=x)
        np.einsum(_OUTER, c, self.u1, out=w2)
        w2 += np.einsum(_OUTER, d, self.u2, out=x)
        with np.errstate(over="ignore"):
            w1 **= self.p
            w2 **= self.p
            w1 += w2
        m = w1.max(axis=1)
        # the last power per row in Python floats: numpy's vectorized power can
        # differ from libm pow in the last bit, which changes simplex paths
        r = 1.0 / self.p
        out = [mm**r for mm in m.tolist()]
        for i in np.flatnonzero(m == np.inf).tolist():
            a, b, c, d = Y[i]
            out[i] = float(lp_pair(a * self.u1 + b * self.u2, c * self.u1 + d * self.u2, self.p).max())
        return out

    def ratio(self, Y: np.ndarray) -> np.ndarray:
        """Surrogate ratios of the operators in the rows (a, b, c, d) of Y, shape (S, 4).

        Every row must be nonzero (search_obj scores a point that folds to 0
        without calling this).  Rows are scaled to max entry 1 first: the ratio
        has degree 0, and at large p, w**p of a small row would underflow to 0.
        """
        Y = Y / Y.max(axis=1, keepdims=True)
        a, b, c, d = Y.T.copy()
        f, g, x, y, den = self._workspace(len(Y))
        # the numerators of F and G: |a - d t^p| + |b t - c t^(p-1)| and |d - a t^p| + |c t - b t^(p-1)|
        for num, (a1, d1, b1, c1) in ((f, (a, d, b, c)), (g, (d, a, c, b))):
            np.einsum(_OUTER, d1, self.tp, out=num)
            np.abs(np.subtract(a1[:, None], num, out=num), out=num)
            np.einsum(_OUTER, b1, self.t, out=x)
            x -= np.einsum(_OUTER, c1, self.tp1, out=y)
            num += np.abs(x, out=x)
        np.maximum(f, g, out=f)
        f /= den
        fg = f.max(axis=1)
        return np.array([v / n for v, n in zip(fg.tolist(), self.norms(Y))])

    def search_obj(self, X: np.ndarray) -> np.ndarray:
        """Surrogate ratios of the points X, shape (S, 4), folded into the cube;
        2.0 (above any ratio) where a point folds to 0."""
        Y = _fold01(X)
        live = Y.max(axis=1) >= 1e-12
        out = np.full(len(Y), 2.0)
        if live.any():
            out[live] = self.ratio(Y[live])
        return out


def estimate_index(e: Exponent, starts: int = 64, seed: int = 0, tol: float = 1e-10) -> IndexEstimate:
    """Multi-start minimization of v(T)/||T|| over the sign-pattern 4-cube.

    Starts are the deterministic rotation start (0, 1, 1, 0) plus starts - 1
    scrambled-Halton points (_halton(starts - 1, seed)).  All starts run one
    lockstep Nelder-Mead over the grid surrogate; each endpoint, and the
    rotation itself, is then re-evaluated at tol, so the estimate can never
    exceed the rotation's ratio.  Deterministic given (starts, seed).
    converged is True when the best three re-evaluated starts agree within
    10*tol; top3_spread and near_best say how far they agree.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    mp = compute_mp(e, tol=tol)

    rotation = np.array([0.0, 1.0, 1.0, 0.0])
    start_pts = np.vstack([rotation, _halton(starts - 1, seed)])
    endpoints, _ = _nelder_mead_lockstep(_RatioSearch(e).search_obj, start_pts)

    best = None
    per_start = []
    for k, x in enumerate([rotation, *endpoints]):
        y = _fold01(x)
        m = float(y.max())
        if m < 1e-12:
            continue
        y = y / m
        T = Mat2(y[0], y[1], -y[2], -y[3])
        val = numerical_radius(T, e, tol=tol).value / op_norm(T, e, tol=tol).norm
        if k > 0:
            per_start.append(val)
        key = (val, y[0], y[1], y[2], y[3])
        if best is None or key < best[0]:
            best = (key, y, val)

    _, y, val = best
    sv = sorted(per_start)
    top3_spread = sv[2] - sv[0] if len(sv) >= 3 else None
    return IndexEstimate(
        p=e.p,
        value=val,
        minimizer=Mat2(y[0], y[1], -y[2], -y[3]),
        mp=mp.mp,
        gap=val - mp.mp,
        starts=starts,
        converged=top3_spread is not None and top3_spread <= 10.0 * tol,
        top3_spread=top3_spread,
        near_best=sum(v - sv[0] <= 10.0 * tol for v in sv),
    )


def verify_claim_region(
    claim_id: int,
    e: Exponent,
    grid_n: int = 12,
    force: bool = False,
) -> ClaimRegionReport:
    """Minimize the lower-bound ratio over one claim region and compare to target.

    Claims 1-2 sample the full (a, b, c, d) region on a grid_n-per-dimension
    mesh of the unit cube (scale invariance makes normalization immaterial).
    Claim 3 samples the F = G balanced manifold b = c - (d - a) kappa,
    kappa = (1 + t0^p)/(t0^(p-1) + t0), over (a, c, d), including a dense trace
    of the kink line a = d t0^p where the F numerator loses smoothness.  The
    best feasible sample is polished by a penalized Nelder-Mead; only feasible
    evaluations can become the reported infimum.  Out-of-hypothesis p raises
    unless force=True.

    The grid's candidates do not depend on p (_claim_candidates): the nonzero
    mesh points that meet the claim's p-independent constraints (all of claim
    1's; claim 2's d >= a and a + c >= b + d), cached read-only per
    (claim_id, grid_n).  Claim 3's kink traces depend on t0 and are appended
    on each call.  Only the candidates that meet the remaining constraints
    (_open_slacks: none for claim 1, so its candidates are scored without a
    mask; claim 2's p-dependent one; all of claim 3's) are scored
    (feasible_points of them); the polish starts from the first
    one with the least ratio, or from the zero point at inf when none has a
    finite ratio.  The float polish objective is bound once per call
    (_claim_polish) and gives the array formulas' values bit for bit.  When
    neither the grid nor the polish finds a feasible point, infimum_found is
    inf, holds is False and worst_point is the zero operator.

    Each claim has one set of constraints, used by the grid, the polish and the
    report alike; feasibility_slack is their smallest slack at worst_point.
    Claim 3 searches its manifold with d >= a, b >= c t0^(2-p) and b >= 0.  That
    set lies inside the region {d >= a, a + c >= b + d, c + a - d >= c t0^(2-p)}
    because kappa >= 1: (1 + t^p) - (t^(p-1) + t) = (1 - t)(1 - t^(p-1)) >= 0.
    Whether the manifold covers all of claim 3's region is a question for the
    paper's proof, not checked here; on a 25^4 grid of the full region no point
    fell below the target by more than rounding (1.1e-16) at 13 exponents in
    [1.2, 1.5].
    """
    if claim_id not in (1, 2, 3):
        raise ValueError(f"claim_id must be 1, 2 or 3, got {claim_id!r}")
    if grid_n < 4:
        raise ValueError(f"grid_n must be >= 4, got {grid_n}")
    lo, hi = _CLAIM_RANGES[claim_id]
    p, q = e.p, e.q
    if not force and not (lo - RANGE_BAND <= p <= hi + RANGE_BAND and p > 1.0):
        raise ValueError(f"claim {claim_id} requires p in [{lo}, {hi}], got {p!r}")

    pts = t0, tp, tp1 = _t0_powers(e, compute_mp(e).t0)
    t2p = t0 ** (2.0 - p)
    target = (tp1 - t0) / (1.0 + tp)

    # the grid's candidates, in search coordinates
    X = _claim_candidates(claim_id, grid_n)
    if claim_id == 3:
        # kink traces a = d t0^p on both normalization charts max(c, d) = 1, so nonzero
        line = np.linspace(0.0, 1.0, grid_n * grid_n + 1)
        one = np.ones_like(line)
        X = tuple(map(np.concatenate, ((X[0], line * tp, one * tp), (X[1], one, line), (X[2], line, one))))
    a, b, c, d = _claim3_entries(X, pts) if claim_id == 3 else X
    # score the feasible points only; the first least ratio is the grid's argmin
    slacks = _open_slacks(claim_id, a, b, c, d, t2p)
    if slacks:
        feas = slacks[0] >= 0.0
        for slack in slacks[1:]:
            feas &= slack >= 0.0
        a, b, c, d = a[feas], b[feas], c[feas], d[feas]
    fg = np.maximum(_functional(a, b, c, d, *pts), _functional(d, c, b, a, *pts))
    with np.errstate(invalid="ignore", divide="ignore"):
        rt = np.maximum(a + c, b + d) ** (1.0 / p) * np.maximum(a + b, c + d) ** (1.0 / q)
        ratio = np.where(rt > 0.0, fg / rt, np.inf)
    start, x0 = (math.inf, (0.0, 0.0, 0.0, 0.0)), [0.0] * len(X)
    k = int(np.argmin(ratio)) if a.size else 0
    if a.size and ratio[k] != np.inf:
        start = (float(ratio[k]), (float(a[k]), float(b[k]), float(c[k]), float(d[k])))
        x0 = [float(x[k]) for x in ((a, c, d) if claim_id == 3 else (a, b, c, d))]

    # penalized local polish from the best grid point, tracking feasible evals
    polish_obj, best = _claim_polish(claim_id, e, pts, t2p, start)
    _nelder_mead(polish_obj, x0, ftol=1e-14)

    best_val, best_pt, evaluations = best()
    # m is 0 only when no feasible point was found and the zero start was kept
    m = max(best_pt) or 1.0
    worst = SignPatternOp(*(max(v, 0.0) / m for v in best_pt))
    return ClaimRegionReport(
        claim_id=claim_id,
        p=p,
        infimum_found=best_val,
        target=target,
        holds=target - 1e-7 <= best_val < math.inf,
        worst_point=worst,
        feasibility_slack=min(_claim_slacks(claim_id, *worst.as_tuple(), t2p)),
        feasible_points=int(a.size),
        evaluations=evaluations,
    )


def remark_counterexample(p: float = 1.16) -> RemarkRecord:
    """Evaluate the fixed counterexample matrix against mp at the given p."""
    p = float(p)
    if not (1.0 < p < 2.0):
        raise ValueError(f"p must lie in (1, 2), got {p!r}")
    e = make_exponent(p)
    cp = compute_mp(e)
    T = SignPatternOp(*REMARK_ENTRIES)
    ratio = alpha_ratio(T, e, cp.t0)
    return RemarkRecord(p=p, t0=cp.t0, mp=cp.mp, ratio=ratio, is_below=ratio < cp.mp)
