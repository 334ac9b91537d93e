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

verify_claim_region computes the infimum of the closed-form lower-bound ratio
max(F, G) / (||T||_1^(1/p) ||T||_inf^(1/q)) over three constrained operator
regions and compares it with the target, M_p's objective at t0.  The
numerator is piecewise linear, the denominator a weighted geometric mean of
two linear forms and every constraint linear, so the infimum is taken at a
vertex of a small plane arrangement or at a closed-form point of a segment
between two of them; _ratio_infimum enumerates both.  The result is float64
with stated tolerances (see verify_claim_region), not a proof.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DEFAULT_TOL, Exponent, Mat2, SpherePowers, make_exponent
from .critical import HYPOTHESIS_RANGE, compute_mp, in_range, objective
from .norms import lp_pair, op_norm, riesz_thorin_bound
from .radius import branch_value, numerical_radius

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

# The signs of the last three |.| arguments in _arrangement's F = G planes, one row per plane
_SIGNS = np.array(list(itertools.product((1.0, -1.0), repeat=3)))
_SIGNS.flags.writeable = False


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

    vertices counts the distinct feasible vertices of the enumeration,
    segments the vertex pairs that share a cell of its arrangement.
    """

    claim_id: int
    p: float
    infimum_found: float
    target: float
    holds: bool
    worst_point: SignPatternOp
    feasibility_slack: float
    vertices: int
    segments: int


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


def functional_F(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """(|a - d t0^p| + |b t0 - c t0^(p-1)|) / (1 + t0^p), branch_value at (a, b, -c, -d).

    F and G are v(T)'s two branch integrands at t0, so max(F, G) <= v(T) by
    construction.  The claim target they are held to is M_p's objective at t0, for every p.
    """
    return branch_value(T.a, T.b, -T.c, -T.d, *_t0_powers(e, t0))


def functional_G(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """(|d - a t0^p| + |c t0 - b t0^(p-1)|) / (1 + t0^p), branch_value at (d, c, -b, -a).

    v(T)'s second branch integrand at t0 (F is the first), so G <= v(T) by construction; the claim
    target is M_p's objective at t0, for every p.
    """
    return branch_value(T.d, T.c, -T.b, -T.a, *_t0_powers(e, t0))


def alpha_ratio(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """max(F, G) over the interpolation bound of the corresponding matrix."""
    if max(T.a, T.b, T.c, T.d) <= 0.0:
        raise ValueError("alpha_ratio is undefined for the zero operator")
    return max(functional_F(T, e, t0), functional_G(T, e, t0)) / riesz_thorin_bound(T.to_mat2(), e)


def _kappa(pts) -> float:
    """(1 + t0^p)/(t0^(p-1) + t0), the slope kappa of claim 3's F = G manifold b = c - (d - a) kappa."""
    t0, tp, tp1 = pts
    return (1.0 + tp) / (tp1 + t0)


def _claim_slacks(claim_id: int, a, b, c, d, t2p: float) -> tuple:
    """Slacks of claim_id's constraints at (a, b, c, d), t2p = t0^(2-p).

    A point is feasible when every slack is >= 0.  Each slack is linear in
    (a, b, c, d), so its values at the unit vectors are its normal.
    """
    if claim_id == 1:
        return (b - c, (a + c) - (b + d))
    if claim_id == 2:
        return (d - a, (a + c) - (b + d), c * t2p - (c + a - d))
    return (d - a, b - c * t2p, b)


def claim3_balance_b(T: SignPatternOp, e: Exponent, t0: float) -> float:
    """The b that equalizes F and G for given (a, c, d):

    b = c - (d - a) (1 + t0^p) / (t0^(p-1) + t0).
    """
    return T.c - (T.d - T.a) * _kappa(_t0_powers(e, t0))


def _arrangement(pts: tuple[float, float, float], balance: bool) -> np.ndarray:
    """Normals of the planes on whose cells max(F, G), max(a + c, b + d) and max(a + b, c + d) are linear.

    pts = _t0_powers(e, t0).  The four |.| arguments of F and G, the two max
    switches and, with balance, the eight F = G candidates: one per sign
    pattern of the |.| arguments, up to the sign of the whole pattern, which
    gives the same plane.
    """
    t0, tp, tp1 = pts
    # a - d t0^p and b t0 - c t0^(p-1) (F's), d - a t0^p and c t0 - b t0^(p-1) (G's)
    args = np.array([[1.0, 0.0, 0.0, -tp], [0.0, t0, -tp1, 0.0], [-tp, 0.0, 0.0, 1.0], [0.0, -tp1, t0, 0.0]])
    planes = [args, np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])]
    if balance:
        s = _SIGNS
        planes.append(args[0] + s[:, :1] * args[1] - s[:, 1:2] * args[2] - s[:, 2:] * args[3])
    return np.vstack(planes)


@lru_cache(maxsize=4)
def _pair_table(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The plane pairs i < j and triples i < j < k below m, in lexicographic order, as four read-only arrays.

    Returns (i, j, pair, k): each pair's two planes, and each triple's pair
    (its position in i and j) and third plane.  The first m - 1 pairs and the
    first (m - 1)(m - 2)/2 triples are those with i = 0.
    """
    pairs = list(itertools.combinations(range(m), 2))
    rank = {ij: n for n, ij in enumerate(pairs)}
    pair_k = [(rank[i, j], k) for i, j, k in itertools.combinations(range(m), 3)]
    ij, pk = (np.array(x, dtype=np.intp).reshape(-1, 2).T.copy() for x in (pairs, pair_k))
    ij.flags.writeable = pk.flags.writeable = False
    return ij[0], ij[1], pk[0], pk[1]


# (dx, dy): for 4-vectors g and h, g[dx] h[dy] - g[dy] h[dx] is the 4 x 4 Hodge dual of
# g ^ h, and its product with a third vector k is a vector orthogonal to g, h and k
_DUAL = np.array(
    (
        ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3)),
        ((0, 3, 1, 2), (2, 1, 3, 0), (3, 0, 2, 1), (1, 2, 0, 3)),
    )
)
_DUAL.flags.writeable = False

# The vertex enumeration's tolerances, on unit plane normals and points with a + b + c + d = 1
_VERTEX_DET = 1e-13  # three planes whose determinant with the cut is smaller meet in no vertex
_VERTEX_TOL = 1e-12  # a slack or side within this of 0 lies on its plane; vertices equal to 12 decimals are one


def _solve_triples(H: np.ndarray, prefix: bool) -> tuple[np.ndarray, np.ndarray]:
    """The point of the cut a + b + c + d = 1 on planes i, j and k of H, for each triple of _pair_table(len(H)).

    Returns (cut, X): each triple's determinant with the cut, shape
    (triples,), and its point, shape (triples, 4), inf or nan where cut is 0.
    With prefix, only the triples with i = 0.  _ratio_infimum states the
    order of the sums.
    """
    m = len(H)
    i, j, pair, k = _pair_table(m)
    if prefix:
        n = (m - 1) * (m - 2) // 2
        i, j, pair, k = i[: m - 1], j[: m - 1], pair[:n], k[:n]
    # D[l, c] holds entry (l, c) of every pair's dual, N[l] coordinate l of every triple's normal
    (dx, dy), g, h = _DUAL, H.take(i, axis=0).T, H.take(j, axis=0).T
    D = g[dx] * h[dy] - g[dy] * h[dx]
    K = H.T.take(k, axis=1)
    N = D[:, 0].take(pair, axis=1) * K[0]
    N += 0.0
    for c in (1, 2, 3):
        N += D[:, c].take(pair, axis=1) * K[c]
    cut = ((N[0] + N[1]) + N[2]) + N[3]
    with np.errstate(divide="ignore", invalid="ignore"):
        N /= cut
    return cut, N.T.copy()


def _ratio_infimum(e: Exponent, pts, constraints: np.ndarray, equality=None, balance: bool = True):
    """Least max(F, G) / (||T||_1^(1/p) ||T||_inf^(1/q)) over a, b, c, d >= 0 with constraints @ x >= 0.

    constraints is a (k, 4) array of normals, equality (optional) one more
    normal with equality @ x == 0, pts = _t0_powers(e, t0), and balance adds
    the F = G planes to _arrangement.  On a cell of the arrangement the ratio
    is L / (M1^(1/p) M2^(1/q)) with L, M1 and M2 linear, and it has degree 0.
    So in (u, v) = (M1/L, M2/L) its infimum over the cell is the least
    u^(-1/p) v^(-1/q) over a polygon spanned by the images of the cell's
    vertices, which is attained at a vertex or at a stationary point
    s = -(du v1/p + dv u1/q)/(du dv) in (0, 1) of the segment between two of
    them (concave-convex fractional programming: Dinkelbach 1967, Schaible 1976).

    The vertices are the points of the cut a + b + c + d = 1 on three of the
    planes (the equality, when given, always one of them) that meet every
    constraint; two vertices share a cell when no arrangement plane strictly
    separates them.  A triple's normal is its pair's 4 x 4 Hodge dual, formed
    once per pair of planes, times the third plane's normal.  With p_c the
    dual's column c times the third normal's coordinate c, it is summed as
    (((0.0 + p_0) + p_1) + p_2) + p_3; the leading +0.0 turns a -0.0 product
    into +0.0.  np.einsum("nlc,nc->nl") sums in that order on strided
    operands but as (p_0 + p_2) + (p_1 + p_3) on contiguous ones, so its bits
    depend on memory layout; writing the sum out pins the order.  The
    determinant with the cut, the sum of the normal's coordinates N_l, is
    likewise ((N_0 + N_1) + N_2) + N_3, the order of numpy's sum along a
    contiguous row of four.

    Returns (value, x, vertices, segments): the least ratio, a point x with
    a + b + c + d = 1 where it is taken, the number of distinct feasible
    vertices and the number of pairs that share a cell.  With no feasible
    vertex it returns (inf, zeros, 0, 0).
    """
    head = [] if equality is None else [equality]
    H = np.vstack([*head, np.eye(4), constraints, _arrangement(pts, balance)])
    H /= np.sqrt((H * H).sum(axis=1, keepdims=True))
    nc = len(head) + 4 + len(constraints)
    cut, X = _solve_triples(H, equality is not None)
    with np.errstate(invalid="ignore"):
        feasible = (np.abs(cut) > _VERTEX_DET) & (np.einsum("nc,kc->nk", X, H[:nc]) >= -_VERTEX_TOL).all(axis=1)
    X = X[feasible]
    if not len(X):
        return math.inf, np.zeros(4), 0, 0
    # one row per vertex: sort on the rounded coordinates, keep the first of each run
    key = np.round(X, 12)
    order = np.lexsort(key.T)
    key = key[order]
    first = np.ones(len(X), dtype=bool)
    first[1:] = (key[1:] != key[:-1]).any(axis=1)
    V = X[order[first]]

    a, b, c, d = V.T
    rp, rq = 1.0 / e.p, 1.0 / e.q
    fg = np.maximum(branch_value(a, b, -c, -d, *pts), branch_value(d, c, -b, -a, *pts))
    side = np.einsum("vc,kc->vk", V, H[nc:])
    pos, neg = side > _VERTEX_TOL, side < -_VERTEX_TOL
    clash = (pos[:, None, :] & neg[None, :, :]).any(axis=2)
    I, J = np.nonzero(np.triu(~(clash | clash.T), 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = np.maximum(a + c, b + d) / fg, np.maximum(a + b, c + d) / fg
        du, dv = u[J] - u[I], v[J] - v[I]
        s = -(du * v[I] * rp + dv * u[I] * rq) / (du * dv)
        s = np.where((s > 0.0) & (s < 1.0), s, np.nan)
        ratio = np.concatenate((u, u[I] + s * du)) ** -rp * np.concatenate((v, v[I] + s * dv)) ** -rq
    best = int(np.nanargmin(ratio))
    if best < len(V):
        x = V[best]
    else:
        q = best - len(V)
        x = (1.0 - s[q]) * V[I[q]] / fg[I[q]] + s[q] * V[J[q]] / fg[J[q]]
        x = x / x.sum()
    return float(ratio[best]), x, len(V), len(I)


def _fold01(x: np.ndarray) -> np.ndarray:
    """Reflect coordinates into [0, 1] (triangular wave with period 2)."""
    y = np.abs(np.asarray(x, dtype=float)) % 2.0
    return np.where(y > 1.0, 2.0 - y, y)


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


def _nelder_mead_lockstep(fn, x0: np.ndarray):
    """Deterministic Nelder-Mead (reflect 1, expand 2, contract and shrink 0.5) from every row of x0 at once.

    x0 has shape (S, n); each start's simplex is its row and that row plus
    _NM_STEP along each axis.  Per iteration a start's vertices are
    stable-sorted by value; it stops when the values spread by at most
    _NM_FTOL and every vertex lies within 1e-8 of the best, else the worst
    vertex is reflected through the centroid of the others and the step
    expands, contracts (toward the reflection when that beats the worst
    vertex, else toward the worst) or shrinks toward the best.  fn maps a
    (k, n) array of points to their (k,) values.  Each iteration makes at most
    three fn calls for all still-active starts: reflection,
    expansion/contraction (disjoint sets), shrink.  No start's path depends on
    another's, so each is the path a lone run takes; the tests hold it to a
    scalar run on Python floats bit for bit.  The simplices of the active
    starts are kept as compact arrays, sorted by direct indexing; a start's
    simplex is written back once, when it stops or at the iteration cap.
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
    quotient because division by a positive number is monotone.  F and G are
    radius.branch_value of (a b; -c -d) and of its swap; this is that formula
    computed in batches in the workspace.
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


def estimate_index(e: Exponent, starts: int = 64, seed: int = 0, tol: float = DEFAULT_TOL) -> IndexEstimate:
    """Multi-start minimization of v(T)/||T|| over the sign-pattern 4-cube.

    Starts are the deterministic rotation start (0, 1, 1, 0) plus starts - 1
    scrambled-Halton points (_halton(starts - 1, seed)); seed must be >= 0.
    All starts run one lockstep Nelder-Mead over the grid surrogate.  The
    rotation and each endpoint are folded into the cube, scaled to max entry 1
    and re-evaluated at tol; the least (ratio, a, b, c, d) is the estimate, so
    it never exceeds the rotation's ratio.  No endpoint folds to 0: search_obj
    scores such a point 2.0, above the best vertex of its initial simplex,
    which bounds the endpoint's score.  Deterministic given (starts, seed).
    converged is True when the best three re-evaluated starts agree within
    10*tol; top3_spread and near_best say how far they agree.
    """
    if starts < 1:
        raise ValueError(f"starts must be >= 1, got {starts}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    mp = compute_mp(e, tol=tol)

    rotation = np.array([0.0, 1.0, 1.0, 0.0])
    start_pts = np.vstack([rotation, _halton(starts - 1, seed)])
    endpoints, _ = _nelder_mead_lockstep(_RatioSearch(e).search_obj, start_pts)

    ops = [SignPatternOp(*(y / y.max()).tolist()) for y in _fold01(np.vstack([rotation, endpoints]))]
    mats = [T.to_mat2() for T in ops]
    ratios = [numerical_radius(M, e, tol=tol).value / op_norm(M, e, tol=tol).norm for M in mats]
    val, T = min(zip(ratios, ops), key=lambda r: (r[0], *r[1].as_tuple()))
    sv = sorted(ratios[1:])
    top3_spread = sv[2] - sv[0] if len(sv) >= 3 else None
    return IndexEstimate(
        p=e.p,
        value=val,
        minimizer=T.to_mat2(),
        mp=mp.mp,
        gap=val - mp.mp,
        starts=starts,
        converged=top3_spread is not None and top3_spread <= 10.0 * tol,
        top3_spread=top3_spread,
        near_best=sum(v - sv[0] <= 10.0 * tol for v in sv),
    )


def verify_claim_region(claim_id: int, e: Exponent, force: bool = False) -> ClaimRegionReport:
    """Minimize the lower-bound ratio over one claim region and compare to target.

    The infimum of max(F, G) / (||T||_1^(1/p) ||T||_inf^(1/q)) over the
    region is taken by _ratio_infimum's vertex enumeration: the region's
    constraints (_claim_slacks, whose normals are their values at the unit
    vectors) cut by the planes on whose cells the ratio has one closed form.
    Claims 1-2 range over (a, b, c, d) >= 0; claim 3 over its F = G manifold
    b = c - (d - a) kappa, kappa = (1 + t0^p)/(t0^(p-1) + t0), with d >= a,
    b >= c t0^(2-p) and b >= 0.  That set lies inside the region
    {d >= a, a + c >= b + d, c + a - d >= c t0^(2-p)} because kappa >= 1:
    (1 + t^p) - (t^(p-1) + t) = (1 - t)(1 - t^(p-1)) >= 0.  For p < 2,
    max(F, G) = F on it (G - F = (a - d t0^p) - |a - d t0^p| there), so its
    enumeration needs no F = G planes.  Does the manifold reach the whole
    region's infimum?  At p = 1.17064, 1.2, 1.35 and 1.5 the two agree
    (tests/test_index.py, TestExactInfimum::test_claim3_manifold_reaches_the_region).

    target is M_p, critical.objective at t0, for every p.
    infimum_found is alpha_ratio at worst_point, the enumeration's minimizer
    scaled to max entry 1; vertices and segments count the distinct feasible
    vertices and the vertex pairs that share a cell.  holds is
    infimum_found >= target - 1e-12.  Three tolerances enter, on unit plane
    normals and points with a + b + c + d = 1: three planes meet in a vertex
    only where their determinant with the cut exceeds 1e-13; a slack or side
    within 1e-12 of 0 counts as on its plane, for feasibility and for the
    separation test; and vertices equal to 12 decimals are one.  This is
    float64 arithmetic, exact up to those tolerances and rounding, not a
    proof.  With no feasible
    vertex, infimum_found is inf, holds is False and worst_point is the zero
    operator.  feasibility_slack is the least slack of the claim's constraints
    at worst_point.  Out-of-hypothesis p raises unless force=True; p = 2
    raises even with force=True, because M_2 = 0 leaves no t0 in (0, 1).
    """
    if claim_id not in (1, 2, 3):
        raise ValueError(f"claim_id must be 1, 2 or 3, got {claim_id!r}")
    p = e.p
    if not force and not in_range(p, _CLAIM_RANGES[claim_id]):
        lo, hi = _CLAIM_RANGES[claim_id]
        raise ValueError(f"claim {claim_id} requires p in [{lo}, {hi}], got {p!r}")
    cp = compute_mp(e)
    if cp.degenerate:
        raise ValueError(f"claim {claim_id} is undefined at p = 2, where M_2 = 0 and t0 = 0")
    t0 = cp.t0
    pts = _t0_powers(e, t0)
    t2p = t0 ** (2.0 - p)
    target = float(objective(t0, e))
    equality = None
    if claim_id == 3:
        kappa = _kappa(pts)  # the manifold b - c + (d - a) kappa = 0
        equality = np.array([-kappa, 1.0, -1.0, kappa])
    constraints = np.array(_claim_slacks(claim_id, *np.eye(4), t2p))
    _, x, vertices, segments = _ratio_infimum(e, pts, constraints, equality, balance=claim_id != 3 or p >= 2.0)

    m = float(x.max())
    if m > 0.0:
        worst = SignPatternOp(*((v if v > 0.0 else 0.0) / m for v in x.tolist()))
        value = alpha_ratio(worst, e, t0)
    else:
        worst, value = SignPatternOp(0.0, 0.0, 0.0, 0.0), math.inf
    return ClaimRegionReport(
        claim_id=claim_id,
        p=p,
        infimum_found=value,
        target=target,
        holds=target - 1e-12 <= value < math.inf,
        worst_point=worst,
        feasibility_slack=min(_claim_slacks(claim_id, *worst.as_tuple(), t2p)),
        vertices=vertices,
        segments=segments,
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
