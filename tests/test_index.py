import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lpindex
from lpindex import (
    Mat2,
    SignPatternOp,
    alpha_ratio,
    claim3_balance_b,
    compute_mp,
    estimate_index,
    functional_F,
    functional_G,
    make_exponent,
    numerical_radius,
    op_norm,
    remark_counterexample,
    riesz_thorin_bound,
    verify_claim_region,
)
from lpindex import index
from lpindex.cli import _verify_row
from lpindex.index import (
    SURROGATE_N,
    ClaimRegionReport,
    _claim_candidates,
    _claim_polish,
    _claim_slacks,
    _fold01,
    _functional,
    _halton,
    _nelder_mead,
    _nelder_mead_lockstep,
    _RatioSearch,
    _t0_powers,
)

ROTATION_PATTERN = SignPatternOp(0.0, 1.0, 1.0, 0.0)


def t0_of(p):
    return compute_mp(make_exponent(p)).t0


class TestSignPatternOp:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            SignPatternOp(1.0, -0.1, 0.0, 0.0)

    def test_to_mat2_applies_signs(self):
        assert SignPatternOp(1, 2, 3, 4).to_mat2() == Mat2(1, 2, -3, -4)


class TestFunctionals:
    def test_rotation_realizes_target(self):
        p = 1.3
        e = make_exponent(p)
        t0 = t0_of(p)
        target = (t0 ** (p - 1.0) - t0) / (1.0 + t0**p)
        assert functional_F(ROTATION_PATTERN, e, t0) == pytest.approx(target, rel=1e-15)
        assert functional_G(ROTATION_PATTERN, e, t0) == pytest.approx(target, rel=1e-15)

    def test_corner_substitutions(self):
        p = 1.4
        e = make_exponent(p)
        t0 = t0_of(p)
        tp = t0**p
        assert functional_F(SignPatternOp(1, 0, 0, 0), e, t0) == pytest.approx(
            1.0 / (1.0 + tp), rel=1e-15
        )
        assert functional_F(SignPatternOp(0, 0, 0, 1), e, t0) == pytest.approx(
            tp / (1.0 + tp), rel=1e-15
        )
        assert functional_G(SignPatternOp(0, 0, 1, 0), e, t0) == pytest.approx(
            t0 / (1.0 + tp), rel=1e-15
        )
        assert functional_G(SignPatternOp(1, 0, 0, 1), e, t0) == pytest.approx(
            (1.0 - tp) / (1.0 + tp), rel=1e-15
        )

    def test_rejects_t0_outside_unit_interval(self):
        e = make_exponent(1.3)
        with pytest.raises(ValueError):
            functional_F(ROTATION_PATTERN, e, 0.0)
        with pytest.raises(ValueError):
            functional_G(ROTATION_PATTERN, e, 1.0)


class TestAlphaRatio:
    def test_breakdown_matrix_reference_value(self):
        e = make_exponent(1.16)
        T = SignPatternOp(0.0487295, 13.639181, 15.0, 1.0)
        assert alpha_ratio(T, e, t0_of(1.16)) == pytest.approx(0.557895, abs=1e-5)

    def test_rotation_gives_mp(self):
        p = 1.3
        e = make_exponent(p)
        cp = compute_mp(e)
        assert alpha_ratio(ROTATION_PATTERN, e, cp.t0) == pytest.approx(cp.mp, rel=1e-14)

    def test_scale_invariance(self):
        e = make_exponent(1.25)
        t0 = t0_of(1.25)
        T = SignPatternOp(0.3, 1.0, 0.8, 0.1)
        for lam in (2.0, 0.125, 37.5):
            Ts = SignPatternOp(lam * T.a, lam * T.b, lam * T.c, lam * T.d)
            assert alpha_ratio(Ts, e, t0) == pytest.approx(alpha_ratio(T, e, t0), rel=1e-12)

    def test_rejects_zero_operator(self):
        with pytest.raises(ValueError):
            alpha_ratio(SignPatternOp(0, 0, 0, 0), make_exponent(1.3), 0.1)

    @given(
        entries=st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)), min_size=4, max_size=4),
        scale=st.sampled_from([1.0, 1e-300, 1e200]),
        p=st.floats(min_value=1.0001, max_value=1000.0),
        t0=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_scalar_ratio(self, entries, scale, p, t0):
        # F, G and riesz_thorin_bound give the floats of the scalar ratio, bit for bit
        a, b, c, d = (scale * v for v in entries)
        assume(max(a, b, c, d) > 0.0)
        e = make_exponent(p)
        ref = _ref_lower_ratio(a, b, c, d, e, _t0_powers(e, t0))
        assert repr(alpha_ratio(SignPatternOp(a, b, c, d), e, t0)) == repr(ref)

    def test_lower_bounds_true_ratio(self):
        # max(F, G)/rt never exceeds v(T)/||T|| on the sign-pattern class
        rng = np.random.default_rng(6)
        p = 1.35
        e = make_exponent(p)
        t0 = t0_of(p)
        for row in rng.uniform(0.0, 5.0, size=(40, 4)):
            T = SignPatternOp(*row)
            if max(row) <= 0.0:
                continue
            M = T.to_mat2()
            true_ratio = numerical_radius(M, e).value / op_norm(M, e).norm
            assert true_ratio >= alpha_ratio(T, e, t0) - 1e-9


class TestBalanceB:
    def test_equal_diagonal_returns_c(self):
        e = make_exponent(1.3)
        assert claim3_balance_b(SignPatternOp(0.4, 0.0, 0.9, 0.4), e, 0.12) == 0.9

    def test_zero_c_equal_diagonal(self):
        e = make_exponent(1.3)
        assert claim3_balance_b(SignPatternOp(0.4, 0.0, 0.0, 0.4), e, 0.12) == 0.0

    def test_balances_functionals(self):
        p = 1.3
        e = make_exponent(p)
        t0 = t0_of(p)
        for a, c, d in [(0.2, 1.0, 0.5), (0.05, 0.9, 0.3), (0.0, 1.0, 0.2)]:
            b = claim3_balance_b(SignPatternOp(a, 0.0, c, d), e, t0)
            if b < 0.0 or a < d * t0**p:
                continue
            T = SignPatternOp(a, b, c, d)
            assert abs(functional_F(T, e, t0) - functional_G(T, e, t0)) <= 1e-10


class TestEstimateIndex:
    def test_hilbert_case_vanishes(self):
        est = estimate_index(make_exponent(2.0), starts=6, seed=0)
        assert est.value <= 1e-6
        assert est.mp == 0.0

    def test_matches_critical_value_at_p3(self):
        est = estimate_index(make_exponent(3.0), starts=8, seed=0)
        assert abs(est.value - est.mp) <= 1e-4

    def test_sandwich_at_four_thirds(self):
        e = make_exponent(4.0 / 3.0)
        est = estimate_index(e, starts=8, seed=0)
        lower = max(2.0 ** (-1.0 / e.p), 2.0 ** (-1.0 / e.q)) * est.mp
        assert lower - 1e-6 <= est.value <= est.mp + 1e-6

    def test_value_consistent_with_minimizer(self):
        e = make_exponent(1.4)
        est = estimate_index(e, starts=4, seed=1)
        recomputed = numerical_radius(est.minimizer, e).value / op_norm(est.minimizer, e).norm
        assert abs(est.value - recomputed) <= 1e-9
        assert 0.0 <= est.value <= 1.0 + 1e-12

    def test_deterministic(self):
        e = make_exponent(1.3)
        assert estimate_index(e, starts=5, seed=7) == estimate_index(e, starts=5, seed=7)

    def test_breakdown_exponent_stays_in_sandwich(self):
        # at p = 1.16 the closed-form lower-bound route fails, but the measured
        # ratio of every operator (the breakdown matrix included) stays >= mp;
        # the estimator must not report anything outside the known sandwich
        e = make_exponent(1.16)
        est = estimate_index(e, starts=8, seed=0)
        lower = max(2.0 ** (-1.0 / e.p), 2.0 ** (-1.0 / e.q)) * est.mp
        assert lower - 1e-6 <= est.value <= est.mp + 1e-6

    @pytest.mark.parametrize("p, converged", [(1.3, False), (3.0, True)])
    def test_agreement_of_starts(self, p, converged):
        # the fields come from the re-evaluated ratios of every start's endpoint
        e, starts, tol = make_exponent(p), 8, 1e-10
        est = estimate_index(e, starts=starts, seed=0, tol=tol)
        start_pts = np.vstack([[0.0, 1.0, 1.0, 0.0], _halton(starts - 1, 0)])
        ends, _ = _nelder_mead_lockstep(_RatioSearch(e).search_obj, start_pts)
        vals = []
        for y in _fold01(ends):
            y = y / y.max()
            T = Mat2(y[0], y[1], -y[2], -y[3])
            vals.append(numerical_radius(T, e, tol=tol).value / op_norm(T, e, tol=tol).norm)
        vals.sort()
        assert est.top3_spread == vals[2] - vals[0]
        assert est.near_best == sum(v - vals[0] <= 10.0 * tol for v in vals)
        assert est.converged is converged is (est.top3_spread <= 10.0 * tol) is (est.near_best >= 3)

    @pytest.mark.parametrize("p", [1.3, 3.0, 1100.0])
    def test_gap_is_at_most_rounding(self, p):
        # value and mp round differently, so the gap can be positive by a few
        # ulps (+1.1e-16 at p = 1100), never by more
        est = estimate_index(make_exponent(p), starts=4, seed=0)
        assert est.gap <= 4 * math.ulp(est.mp)

    def test_rejects_bad_arguments(self):
        e = make_exponent(1.3)
        with pytest.raises(ValueError):
            estimate_index(e, starts=0)
        with pytest.raises(ValueError):
            estimate_index(e, tol=0.0)


def _scalar_runs(obj, starts, ftol=1e-11):
    """_nelder_mead from each start on a batched objective, one point at a time.

    Returns the endpoints, their values, the evaluation count per start and
    whether the start ever shrank: a shrink evaluates best + 0.5 (v - best) for
    earlier points v, best being the lowest point evaluated so far.
    """
    ends, vals, counts, shrank = [], [], [], []
    for x0 in starts:
        pts = np.empty((2500, 4))
        fs = []
        best = 0
        hit = False

        def fn(x):
            nonlocal best, hit
            x = np.asarray(x)
            k = len(fs)
            if k:
                b = pts[best]
                hit = hit or bool((x == b + 0.5 * (pts[:k] - b)).all(axis=1).any())
            pts[k] = x
            fs.append(float(obj(x[None])[0]))
            if fs[-1] < fs[best]:
                best = k
            return fs[-1]

        x, f = _nelder_mead(fn, x0, ftol=ftol)
        ends.append(x)
        vals.append(f)
        counts.append(len(fs))
        shrank.append(hit)
    return np.array(ends), np.array(vals), np.array(counts), np.array(shrank)


def _claim2_penalized(p):
    """Claim 2's polish objective, without the tracking, on folded points, one row at a time."""
    e = make_exponent(p)
    pts = _t0_powers(e, t0_of(p))
    t2p = pts[0] ** (2.0 - p)

    def obj(X):
        out = []
        for a, b, c, d in _fold01(X).tolist():
            slack = min(_claim_slacks(2, a, b, c, d, t2p))
            out.append(_ref_lower_ratio(a, b, c, d, e, pts) + 10.0 * max(0.0, -slack))
        return np.array(out)

    return obj


class TestLockstepSearch:
    @pytest.mark.parametrize(
        "make_obj",
        [
            lambda: _RatioSearch(make_exponent(1.3)).search_obj,
            lambda: _RatioSearch(make_exponent(4.0)).search_obj,
            lambda: _claim2_penalized(1.3),
        ],
        ids=["1.3", "4.0", "claim2-penalized-1.3"],
    )
    def test_matches_scalar_nelder_mead(self, make_obj):
        # _nelder_mead runs on Python floats, _nelder_mead_lockstep on numpy
        # arrays: each checks the other's arithmetic
        obj = make_obj()
        starts = _halton(16, 0)
        x, f = _nelder_mead_lockstep(obj, starts)
        x_ref, f_ref, counts, shrank = _scalar_runs(obj, starts)
        assert np.array_equal(x, x_ref)
        assert np.array_equal(f, f_ref)
        # the starts cover every branch of the lockstep bookkeeping: some stop
        # at their own break (a run that never breaks evaluates more points),
        # some run to max_iter, and some shrink
        never_break = _scalar_runs(obj, starts, ftol=-1.0)[2]
        stopped = counts < never_break
        assert stopped.any() and not stopped.all()
        assert shrank.any()

    def test_ties_rank_alike(self):
        # a rounded objective ties vertices often: both routines must order
        # tied vertices as a stable sort does
        base = _claim2_penalized(1.3)
        obj = lambda X: np.round(base(X), 3)
        starts = _halton(16, 0)
        x, f = _nelder_mead_lockstep(obj, starts)
        x_ref, f_ref = _scalar_runs(obj, starts)[:2]
        assert np.array_equal(x, x_ref)
        assert np.array_equal(f, f_ref)

    def test_surrogate_rows_are_independent(self):
        ctx = _RatioSearch(make_exponent(1.3))
        Y = np.vstack([[0.0, 1.0, 1.0, 0.0], np.random.default_rng(3).uniform(0.0, 1.0, (7, 4))])
        r = ctx.ratio(Y)
        assert r.shape == (8,)
        for i in range(len(Y)):
            assert r[i] == ctx.ratio(Y[i : i + 1])[0]

    def test_start_folding_to_zero_scores_two(self):
        ctx = _RatioSearch(make_exponent(1.3))
        out = ctx.search_obj(np.array([[2.0, 0.0, -2.0, 4.0], [0.0, 1.0, 1.0, 0.0]]))
        assert out[0] == 2.0
        assert out[1] == ctx.ratio(np.array([[0.0, 1.0, 1.0, 0.0]]))[0]

    def test_ratio_scales_rows_before_powers(self):
        # at p = 1000, w**p underflows to 0 for every norm sample of these rows
        # unless ratio scales them to max entry 1 first
        ctx = _RatioSearch(make_exponent(1000.0))
        for row in ([0.23, 0.23, 0.23, 0.23], [0.47, 0.0, 0.0, 0.0]):
            Y = np.array([row])
            r = ctx.ratio(Y)
            assert np.isfinite(r).all()
            assert r[0] == ctx.ratio(Y / Y.max())[0]

    def test_every_start_stops_before_the_cap(self):
        # on a convex bowl every start meets its own break long before the
        # iteration cap, so the compact state of the active starts empties
        def bowl(X):
            return np.array([sum((k + 1.0) * (v - 0.3) ** 2 for k, v in enumerate(x)) for x in X.tolist()])

        starts = _halton(16, 0)
        x, f = _nelder_mead_lockstep(bowl, starts)
        x_ref, f_ref, counts = _scalar_runs(bowl, starts)[:3]
        assert np.array_equal(x, x_ref)
        assert np.array_equal(f, f_ref)
        assert (counts < _scalar_runs(bowl, starts, ftol=-1.0)[2]).all()

    def test_one_start(self):
        obj = _RatioSearch(make_exponent(1.3)).search_obj
        for x0 in ([[0.0, 1.0, 1.0, 0.0]], _halton(1, 0)):
            x, f = _nelder_mead_lockstep(obj, np.array(x0))
            x_ref, f_ref = _scalar_runs(obj, x0)[:2]
            assert np.array_equal(x, x_ref)
            assert np.array_equal(f, f_ref)

    @pytest.mark.parametrize("starts", [1, 2])
    def test_few_starts(self, starts):
        e = make_exponent(1.3)
        est = estimate_index(e, starts=starts, seed=0)
        assert est.starts == starts
        assert not est.converged
        assert est.top3_spread is None
        assert est.near_best <= starts
        assert est.value <= est.mp + 1e-6


class _TwoSignSearch(_RatioSearch):
    """_RatioSearch with the norm sampled on the chart (u, v) and its sign flip (u, -v), under np.abs."""

    def __init__(self, e):
        super().__init__(e)
        self.u1 = np.concatenate((self.u1, self.u1))
        self.u2 = np.concatenate((self.u2, -self.u2))

    def norms(self, Y):
        a, b, c, d = (Y[:, k, None] for k in range(4))
        w1 = np.abs(a * self.u1 + b * self.u2)
        w2 = np.abs(c * self.u1 + d * self.u2)
        m = (w1**self.p + w2**self.p).max(axis=1)
        return [mm ** (1.0 / self.p) for mm in m.tolist()]


class _FrozenSearch(_RatioSearch):
    """The surrogate as broadcast arithmetic on fresh temporaries, F and G each divided by 1 + t^p."""

    def norms(self, Y):
        a, b, c, d = (Y[:, k, None] for k in range(4))
        w1 = a * self.u1 + b * self.u2
        w2 = c * self.u1 + d * self.u2
        m = (w1**self.p + w2**self.p).max(axis=1)
        r = 1.0 / self.p
        return [mm**r for mm in m.tolist()]

    def ratio(self, Y):
        Y = Y / Y.max(axis=1, keepdims=True)
        a, b, c, d = (Y[:, k, None] for k in range(4))
        F = _ref_functional(a, b, c, d, self.t, self.tp, self.tp1).max(axis=1)
        G = _ref_functional(d, c, b, a, self.t, self.tp, self.tp1).max(axis=1)
        return np.array([v / n for v, n in zip(np.maximum(F, G).tolist(), self.norms(Y))])


def _ref_factored_norm(ctx, row):
    """The sampled norm of one row with the larger output factored out of each sample, written out."""
    w1, w2 = row[0] * ctx.u1 + row[1] * ctx.u2, row[2] * ctx.u1 + row[3] * ctx.u2
    W = np.maximum(w1, w2)
    s = np.where(W > 0.0, W, 1.0)
    return float((W * ((w1 / s) ** ctx.p + (w2 / s) ** ctx.p) ** (1.0 / ctx.p)).max())


def _surrogate_rows(u, v, rng):
    """Rows (a, b, c, d) >= 0 normalized to max entry 1, as search_obj passes them.

    Random rows, rows with zeros, quantized rows (ties across grid points), the
    rotation and other corners, Halton points, and rows with a u = b v and
    c u = d v (to rounding) at some interior chart point (u, v).
    """
    rand = rng.uniform(0.0, 1.0, (10_000, 4))
    zeros = rng.uniform(0.0, 1.0, (1000, 4)) * (rng.uniform(0.0, 1.0, (1000, 4)) > 0.4)
    quantized = rng.integers(0, 5, (1000, 4)) / 4.0
    corners = np.array(
        [[0.0, 1.0, 1.0, 0.0], [1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0], [1.0, 0.0, 0.0, 1.0],
         [1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [1.0, 1.0, 0.0, 0.0]]
    )
    j, k = rng.integers(1, u.size - 1, (2, 1000))
    s = rng.uniform(0.1, 1.0, (1000, 2))
    ties = np.column_stack((s[:, 0] * v[j], s[:, 0] * u[j], s[:, 1] * v[k], s[:, 1] * u[k]))
    rows = np.vstack([rand, zeros, quantized, corners, _halton(255, 0), ties])
    rows = rows[rows.max(axis=1) > 0.0]
    return rows / rows.max(axis=1, keepdims=True)


class TestSurrogateChart:
    @pytest.mark.parametrize("p", [1.01, 1.2, 1.5, 2.0, 3.0, 6.0, 1000.0])
    def test_matches_two_signs(self, p):
        # the sign-flipped chart (u, -v) never raises the row maximum of a
        # nonnegative row
        e = make_exponent(p)
        ctx, ref = _RatioSearch(e), _TwoSignSearch(e)
        assert ctx.u1.size == ctx.t.size and ref.u1.size == 2 * ctx.t.size
        assert (ctx.u1 >= 0.0).all() and (ctx.u2 >= 0.0).all()
        Y = _surrogate_rows(ctx.u1, ctx.u2, np.random.default_rng(int(p * 100)))
        assert (Y >= 0.0).all() and len(Y) > 10_000
        for chunk in np.array_split(Y, 8):
            assert np.array_equal(ctx.ratio(chunk), ref.ratio(chunk))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p, bound", [(1.01, 1.2e-4), (1.2, 1.2e-4), (1.5, 1.2e-4), (3.0, 1.2e-4),
                                          (6.0, 1.2e-4), (1000.0, 6e-4), (1100.0, 6e-4), (5000.0, 6e-4),
                                          (1e5, 6e-4)])
    def test_norm_accuracy(self, p, bound):
        # the chart points lie on the sphere, so the sampled norm never exceeds
        # the tight one beyond rounding; over 13,000 rows of _surrogate_rows
        # per p the largest relative shortfall was 8.3e-5 (at p = 1.2) for
        # p <= 6 and 4.2e-4 at p = 1000; over the rows tested here it was
        # 3.9e-4 at p = 1100, 1.2e-4 at 5000 and 6.8e-6 at 1e5, where
        # (a u + b v)^p overflows near the diagonal without a warning
        e = make_exponent(p)
        ctx = _RatioSearch(e)
        Y = _surrogate_rows(ctx.u1, ctx.u2, np.random.default_rng(int(p * 100)))[::16]
        tight = np.array([op_norm(Mat2(a, b, -c, -d), e).norm for a, b, c, d in Y.tolist()])
        rel = (tight - np.array(ctx.norms(Y))) / tight
        assert rel.min() >= -1e-15
        assert rel.max() <= bound

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1100.0, 5000.0, 1e5])
    def test_ratio_beyond_overflow(self, p):
        # an overflowed norm read as inf made this ratio 0; the t grid's step
        # of 1/256 leaves it 1.9e-3 below the tight one at p = 1e5
        e = make_exponent(p)
        T = Mat2(1.0, 1.0, -1.0, -1.0)
        tight = numerical_radius(T, e).value / op_norm(T, e).norm
        assert tight - 2.5e-3 <= _RatioSearch(e).ratio(np.ones((1, 4)))[0] <= tight

    @pytest.mark.parametrize("p", [1100.0, 5000.0, 1e5])
    def test_overflow_rows_match_frozen_factored_form(self, p):
        # the rows whose sampled (a u + b v)^p overflows go through lp_pair,
        # which gives the floats of the factored form bit for bit
        ctx = _RatioSearch(make_exponent(p))
        Y = _surrogate_rows(ctx.u1, ctx.u2, np.random.default_rng(int(p * 100)))[::4]
        w1, w2 = Y[:, :2] @ np.vstack((ctx.u1, ctx.u2)), Y[:, 2:] @ np.vstack((ctx.u1, ctx.u2))
        with np.errstate(over="ignore"):
            over = np.flatnonzero(np.isinf((w1**p + w2**p).max(axis=1)))
        assert over.size > 100
        got = np.array(ctx.norms(Y))[over]
        ref = np.array([_ref_factored_norm(ctx, Y[i]) for i in over])
        assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [1.01, 1.2, 1.5, 2.0, 3.0, 6.0, 1000.0])
    def test_matches_frozen_broadcast_form(self, p):
        # the workspace form gives the broadcast form's floats; call sizes
        # cycle large, small, large on one instance, so a stale workspace row
        # would show in a later, smaller call
        e = make_exponent(p)
        ctx, ref = _RatioSearch(e), _FrozenSearch(e)
        Y = _surrogate_rows(ctx.u1, ctx.u2, np.random.default_rng(int(p * 100)))
        X = 6.0 * _halton(len(Y), 3) - 2.0
        X[::97] = [2.0, 0.0, -2.0, 4.0]  # folds to 0
        k = 0
        for size in itertools.cycle((320, 1, 64, 5)):
            if k >= len(Y):
                break
            rows, pts = Y[k : k + size], X[k : k + size]
            k += size
            assert np.array_equal(ctx.ratio(rows), ref.ratio(rows))
            assert np.array_equal(ctx.norms(rows), ref.norms(rows))
            assert np.array_equal(ctx.search_obj(pts), ref.search_obj(pts))

    def test_warm_call_makes_no_grid_sized_array(self):
        # a warm 64-row call works in its instance's workspace: its traced
        # peak stays below one (64, SURROGATE_N + 1) float64 array
        ctx = _RatioSearch(make_exponent(1.3))
        X = _halton(64, 0)
        ctx.search_obj(_halton(320, 1))
        ctx.search_obj(X)
        tracemalloc.start()
        try:
            ctx.search_obj(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * (SURROGATE_N + 1) * 8

class TestHalton:
    def test_matches_scipy(self):
        qmc = pytest.importorskip("scipy.stats").qmc
        for seed in (0, 1, 7, 2**31 - 1):
            for n in (1, 7, 63):
                ref = qmc.Halton(d=4, scramble=True, seed=seed).random(n)
                assert np.array_equal(_halton(n, seed), ref)

    def test_points_in_unit_cube(self):
        pts = _halton(255, 5)
        assert pts.shape == (255, 4)
        assert ((pts >= 0.0) & (pts < 1.0)).all()
        assert _halton(0, 5).shape == (0, 4)


def _fresh_python(code):
    src = str(Path(lpindex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_import_leaves_scipy_out():
    assert _fresh_python("import sys, lpindex; print('scipy' in sys.modules)") == "False"


def test_maximizer_leaves_numpy_ma_out():
    code = "import sys, lpindex; lpindex.compute_mp(lpindex.make_exponent(1.3)); print('numpy.ma' in sys.modules)"
    assert _fresh_python(code) == "False"


# The claim polish's float arithmetic as separate helpers: fold, entries,
# slacks and ratio.  _claim_polish restates them in one objective bound per
# call; these frozen copies let the tests compare it with that arithmetic, not
# with src helpers it may share.


def _ref_fold01_floats(x):
    out = []
    for v in x:
        y = abs(v) % 2.0
        out.append(2.0 - y if y > 1.0 else y)
    return out


def _ref_entries(claim_id, x, pts):
    if claim_id == 3:
        t0, tp, tp1 = pts
        a, c, d = x
        return a, c - (d - a) * ((1.0 + tp) / (tp1 + t0)), c, d
    return tuple(x)


def _ref_slacks(claim_id, a, b, c, d, t2p):
    if claim_id == 1:
        return (b - c, (a + c) - (b + d))
    if claim_id == 2:
        return (d - a, (a + c) - (b + d), c * t2p - (c + a - d))
    return (d - a, b - c * t2p, b)


def _ref_functional(a, b, c, d, t, tp, tp1):
    return (abs(a - d * tp) + abs(b * t - c * tp1)) / (1.0 + tp)


def _ref_lower_ratio(a, b, c, d, e, pts):
    rt = max(a + c, b + d) ** (1.0 / e.p) * max(a + b, c + d) ** (1.0 / e.q)
    if not rt > 0.0:
        return math.inf
    return max(_ref_functional(a, b, c, d, *pts), _ref_functional(d, c, b, a, *pts)) / rt


def _ref_polish(claim_id, e, pts, t2p, tracked):
    """The polish objective on the frozen helpers; tracked = [(ratio, entries)] holds the best feasible point."""

    def polish_obj(x):
        a, b, c, d = _ref_entries(claim_id, _ref_fold01_floats(x), pts)
        if max(a, b, c, d) < 1e-12:
            return 2.0
        slack = min(_ref_slacks(claim_id, a, b, c, d, t2p))
        val = _ref_lower_ratio(a, b, c, d, e, pts)
        if slack >= -1e-12 and val < tracked[0][0]:
            tracked[0] = (val, (a, b, c, d))
        return val + 10.0 * max(0.0, -slack)

    return polish_obj


@given(
    st.lists(
        st.one_of(
            st.floats(min_value=-1e6, max_value=1e6),
            st.just(-0.0),
            st.integers(-10**6, 10**6).map(float),
            st.integers(-10**5, 10**5).map(lambda k: float(2 * k + 1)),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=300, deadline=None)
def test_float_fold_matches_array_fold(xs):
    got = np.array(_ref_fold01_floats(xs))
    assert got.view(np.int64).tolist() == _fold01(np.array(xs)).view(np.int64).tolist()


_POLISH_COORD = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=0.0, max_value=2e-12),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 3.0]),
)


@pytest.mark.parametrize("claim_id, p", [(1, 1.3), (2, 1.3), (3, 1.3), (1, 1.05), (2, 1.9), (3, 1.16)])
@given(points=st.lists(st.lists(_POLISH_COORD, min_size=4, max_size=4), min_size=1, max_size=24))
@settings(max_examples=150, deadline=None)
def test_bound_polish_matches_frozen_helpers(claim_id, p, points):
    # every value, and the tracked best point, bit for bit
    e = make_exponent(p)
    pts = _t0_powers(e, t0_of(p))
    t2p = pts[0] ** (2.0 - p)
    start = (0.9, (0.0, 1.0, 1.0, 0.0))
    obj, best = _claim_polish(claim_id, e, pts, t2p, start)
    tracked = [start]
    ref = _ref_polish(claim_id, e, pts, t2p, tracked)
    for x in points:
        x = x[:3] if claim_id == 3 else x
        assert repr(obj(x)) == repr(ref(x))
    assert repr(best()) == repr((*tracked[0], len(points)))


class TestClaimRegions:
    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    def test_holds_inside_hypothesis(self, claim_id):
        rep = verify_claim_region(claim_id, make_exponent(1.3))
        assert rep.holds
        assert rep.infimum_found >= rep.target - 1e-7
        assert rep.feasibility_slack >= -1e-12

    def test_claim1_at_p14(self):
        rep = verify_claim_region(1, make_exponent(1.4))
        assert rep.holds

    def test_out_of_hypothesis_raises(self):
        with pytest.raises(ValueError):
            verify_claim_region(3, make_exponent(1.16))
        with pytest.raises(ValueError):
            verify_claim_region(1, make_exponent(1.7))
        with pytest.raises(ValueError):
            verify_claim_region(4, make_exponent(1.3))

    def test_claim3_forced_finds_breakdown(self):
        e = make_exponent(1.16)
        rep = verify_claim_region(3, e, force=True)
        assert not rep.holds
        assert rep.infimum_found < rep.target - 1e-7
        # at least as deep as the fixed breakdown matrix
        T = SignPatternOp(0.0487295, 13.639181, 15.0, 1.0)
        assert rep.infimum_found <= alpha_ratio(T, e, t0_of(1.16)) + 1e-9


    @pytest.mark.parametrize("claim_id, p", [(1, 1.3), (2, 1.3), (3, 1.3), (3, 1.1)])
    def test_slack_is_that_of_the_searched_constraints(self, claim_id, p):
        e = make_exponent(p)
        rep = verify_claim_region(claim_id, e, force=True)
        a, b, c, d = rep.worst_point.as_tuple()
        t0 = t0_of(p)
        t2p = t0 ** (2.0 - p)
        searched = {
            1: (b - c, (a + c) - (b + d)),
            2: (d - a, (a + c) - (b + d), c * t2p - (c + a - d)),
            3: (d - a, b - c * t2p, b),
        }[claim_id]
        assert rep.feasibility_slack == pytest.approx(min(searched), abs=1e-15)
        assert rep.feasibility_slack >= -1e-12
        if claim_id == 3:
            # the searched set lies inside claim 3's region, since kappa >= 1
            region = (d - a, (a + c) - (b + d), (c + a - d) - c * t2p)
            assert min(region) >= -1e-12


def _full_grid_claim_region(claim_id, e, grid_n, slacks=_ref_slacks, functional=_ref_functional):
    """verify_claim_region as written before it scored feasible points only and
    bound its polish objective per call: a fresh mesh on every call, F/G and
    the ratio at every mesh point, inf at the infeasible ones, np.argmin over
    the whole array, and the polish on the frozen float helpers.  slacks and
    functional are taken on the mesh arrays.  Where no feasible point is found
    it reports inf, not holding, at the zero operator."""
    p, q = e.p, e.q
    pts = t0, tp, tp1 = _t0_powers(e, compute_mp(e).t0)
    t2p = t0 ** (2.0 - p)
    target = (tp1 - t0) / (1.0 + tp)
    g = np.linspace(0.0, 1.0, grid_n)
    if claim_id == 3:
        A3, C3, D3 = (x.ravel() for x in np.meshgrid(g, g, g, indexing="ij"))
        line = np.linspace(0.0, 1.0, grid_n * grid_n + 1)
        X = (
            np.concatenate([A3, line * tp, np.full_like(line, tp)]),
            np.concatenate([C3, np.ones_like(line), line]),
            np.concatenate([D3, line, np.ones_like(line)]),
        )
    else:
        X = tuple(x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij"))
    A, B, C, D = _ref_entries(claim_id, X, pts)
    feas = np.maximum(np.maximum(A, B), np.maximum(C, D)) > 0.0
    for slack in slacks(claim_id, A, B, C, D, t2p):
        feas &= slack >= 0.0
    fg = np.maximum(functional(A, B, C, D, *pts), functional(D, C, B, A, *pts))
    with np.errstate(invalid="ignore", divide="ignore"):
        rt = np.maximum(A + C, B + D) ** (1.0 / p) * np.maximum(A + B, C + D) ** (1.0 / q)
        ratio = np.where(feas & (rt > 0.0), fg / rt, np.inf)
    i = int(np.argmin(ratio))

    tracked = [(float(ratio[i]), (float(A[i]), float(B[i]), float(C[i]), float(D[i])))]
    calls = []
    polish_obj = _ref_polish(claim_id, e, pts, t2p, tracked)

    def counted(x):
        calls.append(x)
        return polish_obj(x)

    _nelder_mead(counted, [x[i] for x in X], ftol=1e-14)

    best_val, (a, b, c, d) = tracked[0]
    m = max(a, b, c, d)
    if m > 0.0:
        worst = SignPatternOp(max(a, 0.0) / m, max(b, 0.0) / m, max(c, 0.0) / m, max(d, 0.0) / m)
    else:
        worst = SignPatternOp(0.0, 0.0, 0.0, 0.0)
    return ClaimRegionReport(
        claim_id=claim_id,
        p=p,
        infimum_found=best_val,
        target=target,
        holds=best_val >= target - 1e-7 and best_val != math.inf,
        worst_point=worst,
        feasibility_slack=min(_ref_slacks(claim_id, *worst.as_tuple(), t2p)),
        feasible_points=int(feas.sum()),
        evaluations=len(calls),
    )


class TestClaimGridScoring:
    """Scoring the feasible points only, on the cached mesh, moves no report bit."""

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    @pytest.mark.parametrize(
        "p, force",
        [(1.2, False), (1.25, False), (1.3, False), (1.4, False), (1.5, False), (1.05, True), (1.16, True),
         (1.9, True)],
    )
    def test_matches_full_grid(self, claim_id, p, force):
        e = make_exponent(p)
        for grid_n in (4, 5, 12, 16, 25):
            rep = verify_claim_region(claim_id, e, grid_n=grid_n, force=force)
            ref = _full_grid_claim_region(claim_id, e, grid_n)
            # repr tells 0.0 from -0.0 and round-trips every other float
            assert rep == ref and repr(rep) == repr(ref)

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    @pytest.mark.parametrize("patched", ["_claim_slacks", "_functional"])
    def test_no_finite_ratio(self, monkeypatch, claim_id, patched):
        # no feasible grid point, or F = inf on the whole grid: both start the
        # polish from the zero point at inf.  Claim 2's polish finds no
        # feasible point from there, so it reports inf and does not hold (its
        # mesh always holds the feasible (0, 0, 1, 1)).
        def on_the_grid(fn):
            def patched_fn(*args):
                out = fn(*args)
                if not isinstance(args[1], np.ndarray):
                    return out
                if patched == "_functional":
                    return np.full_like(out, np.inf)
                return out + (np.full_like(args[1], -1.0),)

            return patched_fn

        monkeypatch.setattr(index, patched, on_the_grid(getattr(index, patched)))
        # a fresh cache of the grid candidates, built under the patch and dropped after it
        monkeypatch.setattr(index, "_claim_candidates", lru_cache(maxsize=6)(_claim_candidates.__wrapped__))
        e = make_exponent(1.3)
        rep = verify_claim_region(claim_id, e)
        if patched == "_claim_slacks":
            ref = _full_grid_claim_region(claim_id, e, 12, slacks=on_the_grid(_ref_slacks))
        else:
            ref = _full_grid_claim_region(claim_id, e, 12, functional=on_the_grid(_ref_functional))
        assert rep.feasible_points == (0 if patched == "_claim_slacks" else ref.feasible_points)
        assert rep == ref and repr(rep) == repr(ref)
        if claim_id == 2:
            assert rep.infimum_found == math.inf and not rep.holds
            assert rep.worst_point == SignPatternOp(0.0, 0.0, 0.0, 0.0)

    def test_claim1_keeps_a_sixth_of_the_mesh(self):
        # claim 1's constraints do not depend on p
        for p in (1.2, 1.5):
            assert verify_claim_region(1, make_exponent(p)).feasible_points == 3293

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    def test_counts(self, monkeypatch, claim_id):
        # F and G are taken on arrays only at the feasible points; the polish
        # objective is the one function _nelder_mead minimizes
        sizes, calls = [], []
        functional, nelder_mead = index._functional, index._nelder_mead

        def recording(a, *rest):
            if isinstance(a, np.ndarray):
                sizes.append(a.size)
            return functional(a, *rest)

        def counting(fn, x0, **kwargs):
            def counted(x):
                calls.append(x)
                return fn(x)

            return nelder_mead(counted, x0, **kwargs)

        monkeypatch.setattr(index, "_functional", recording)
        monkeypatch.setattr(index, "_nelder_mead", counting)
        rep = verify_claim_region(claim_id, make_exponent(1.3))
        assert sizes == [rep.feasible_points] * 2
        assert rep.evaluations == len(calls) > 0

    def test_verify_row_is_unchanged(self):
        row = _verify_row(1.3)
        assert set(row) == {"p", "lemma_margin", "lemma_ok", "ok"} | {
            f"claim{c}_{k}" for c in (1, 2, 3) for k in ("gap", "ok")
        }


def _fresh_candidates(claim_id, grid_n):
    """The nonzero points of a fresh mesh, for claims 1-2 those that meet the p-independent slacks."""
    g = np.linspace(0.0, 1.0, grid_n)
    X = [x.ravel() for x in np.meshgrid(*[g] * (3 if claim_id == 3 else 4), indexing="ij")]
    keep = np.max(X, axis=0) > 0.0
    if claim_id != 3:
        for slack in _ref_slacks(claim_id, *X, 0.5)[:2]:
            keep &= slack >= 0.0
    return [x[keep] for x in X]


class TestClaimMesh:
    """The claim grids' one cache: each claim's candidate points of the mesh."""

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    def test_read_only_and_reused(self, claim_id):
        X = _claim_candidates(claim_id, 7)
        for x, ref in zip(X, _fresh_candidates(claim_id, 7), strict=True):
            assert not x.flags.writeable
            assert x.tobytes() == ref.tobytes()
        with pytest.raises(ValueError):
            X[0][0] = 1.0
        assert _claim_candidates(claim_id, 7) is X

    @pytest.mark.parametrize("claim_id", [1, 2])
    def test_free_slacks_do_not_depend_on_p(self, claim_id):
        # the cached points rest on the slacks that t2p=None returns: they are
        # the leading slacks at every t0^(2-p), bit for bit
        g = np.linspace(0.0, 1.0, 12)
        X = [x.ravel() for x in np.meshgrid(g, g, g, g, indexing="ij")]
        free = _claim_slacks(claim_id, *X, None)
        assert len(free) == 2
        for p in (1.2, 1.5):
            slacks = _claim_slacks(claim_id, *X, t0_of(p) ** (2.0 - p))
            assert len(slacks) == {1: 2, 2: 3}[claim_id]
            for got, ref in zip(free, slacks[:2]):
                assert got.tobytes() == ref.tobytes()

    def test_bounded(self):
        maxsize = _claim_candidates.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for grid_n in range(4, 4 + maxsize + 2):
            _claim_candidates(1, grid_n)
        assert _claim_candidates.cache_info().currsize == maxsize
        # the verify rows' three entries (3,293, 3,293 and 1,727 points), far below a megabyte
        assert sum(x.nbytes for c in (1, 2, 3) for x in _claim_candidates(c, 12)) < 300_000

    def test_import_builds_nothing(self):
        assert _fresh_python("import lpindex; print(lpindex.index._claim_candidates.cache_info().currsize)") == "0"


class TestRemarkCounterexample:
    def test_reference_values(self):
        rec = remark_counterexample(1.16)
        assert rec.t0 == pytest.approx(0.073924, abs=1e-5)
        assert rec.mp == pytest.approx(0.558064, abs=1e-5)
        assert rec.ratio == pytest.approx(0.557895, abs=1e-5)
        assert rec.is_below

    def test_no_breakdown_at_p13(self):
        assert not remark_counterexample(1.3).is_below

    def test_rejects_p_outside_window(self):
        with pytest.raises(ValueError):
            remark_counterexample(2.5)
        with pytest.raises(ValueError):
            remark_counterexample(1.0)
