import bisect
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lpindex
from lpindex import (
    REMARK_ENTRIES,
    Mat2,
    SignPatternOp,
    alpha_ratio,
    claim3_balance_b,
    compute_mp,
    conjugate_by_swap,
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
from lpindex.cli import _grid, _verify_row
from lpindex.radius import branch_integrand
from lpindex.index import (
    SURROGATE_N,
    _claim_slacks,
    _fold01,
    _halton,
    _nelder_mead_lockstep,
    _pair_table,
    _NM_MAX_ITER,
    _NM_STEP,
    _ratio_infimum,
    _RatioSearch,
    _solve_triples,
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

    @pytest.mark.parametrize("p", [1.3, 3.0])
    def test_are_the_radius_branch_integrands(self, p):
        # F and G are v(T)'s two branch integrands at t0, so max(F, G) <= v(T)
        e = make_exponent(p)
        t0 = t0_of(p)
        for T in (ROTATION_PATTERN, SignPatternOp(0.3, 1.0, 0.8, 0.1), SignPatternOp(*REMARK_ENTRIES)):
            M = T.to_mat2()
            first = branch_integrand(M, e)(np.array([t0])).item()
            second = branch_integrand(conjugate_by_swap(M), e)(np.array([t0])).item()
            assert functional_F(T, e, t0) == pytest.approx(first, rel=1e-14)
            assert functional_G(T, e, t0) == pytest.approx(second, rel=1e-14)
            assert max(first, second) <= numerical_radius(M, e).value + 1e-12

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
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            estimate_index(e, seed=-1)


def _scalar_runs(obj, starts, ftol=1e-11):
    """_frozen_nelder_mead from each start on a batched objective, one point at a time.

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

        x, f = _frozen_nelder_mead(fn, x0, ftol=ftol)
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
        # _frozen_nelder_mead runs on Python floats, _nelder_mead_lockstep on
        # numpy arrays: each checks the other's arithmetic
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

    @pytest.mark.parametrize("p", [1.2, 1.3, 1.5, 2.0, 3.0, 4.0, 6.0, 1.1, 10.0, 1100.0])
    def test_no_endpoint_folds_to_zero(self, p):
        # estimate_index scales every endpoint by its folded max entry with no
        # guard: an endpoint never scores above the best vertex of its initial
        # simplex, which is below the 2.0 that search_obj gives a point folding to 0
        start_pts = np.vstack([[0.0, 1.0, 1.0, 0.0], _halton(63, 0)])
        ends, vals = _nelder_mead_lockstep(_RatioSearch(make_exponent(p)).search_obj, start_pts)
        assert (vals < 2.0).all()
        assert (_fold01(ends).max(axis=1) >= 1e-12).all()

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


def _frozen_nelder_mead(fn, x0, ftol=1e-11):
    """The lockstep search's steps for one start, on Python floats: the
    centroid summed in sequence with reduce(add, col) (as numpy's mean does),
    a stable order kept by moving the one moved vertex to bisect_right, and
    the stop test over max(...)."""
    x0 = [float(v) for v in x0]
    n = len(x0)
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
            k = bisect.bisect_right(vals, vals[-1], 0, n)
            simplex.insert(k, simplex.pop())
            vals.insert(k, vals.pop())
        best, worst = simplex[0], simplex[-1]
        if vals[-1] - vals[0] <= ftol and max(abs(v - b) for x in simplex[1:] for v, b in zip(x, best)) <= 1e-8:
            break
        centroid = [reduce(add, col) / n for col in zip(*simplex[:-1])]
        xr = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = fn(xr)
        if fr < vals[0]:
            xe = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = fn(xe)
            if fe < fr:
                simplex[-1], vals[-1] = xe, fe
            else:
                simplex[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            simplex[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = [c + 0.5 * (r - c) for c, r in zip(centroid, xr)]
            else:
                xc = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
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


# Frozen float helpers, separate from the src ones they check: the fold, the
# claims' entries and slacks, F and the lower-bound ratio.


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

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    def test_forced_at_two_raises(self, claim_id):
        # M_2 = 0 and t0 = 0: the claim is undefined there, even when forced
        with pytest.raises(ValueError, match="p = 2"):
            verify_claim_region(claim_id, make_exponent(2.0), force=True)

    def test_claim3_forced_finds_breakdown(self):
        e = make_exponent(1.16)
        rep = verify_claim_region(3, e, force=True)
        assert not rep.holds
        assert rep.infimum_found < rep.target - 1e-7
        # at least as deep as the fixed breakdown matrix
        T = SignPatternOp(0.0487295, 13.639181, 15.0, 1.0)
        assert rep.infimum_found <= alpha_ratio(T, e, t0_of(1.16)) + 1e-9

    @pytest.mark.parametrize("p, holds", [(1.1705, False), (1.1706, False), (1.17063, False), (1.17064, True)])
    def test_claim3_forced_just_below_six_fifths(self, p, holds):
        # the infimum lies 2.8e-8, 1.7e-9 and 1.8e-11 below the target at the
        # first three p, closer than the sampled search's 1e-7 could tell
        rep = verify_claim_region(3, make_exponent(p), force=True)
        assert rep.holds is holds
        if holds:
            assert abs(rep.infimum_found - rep.target) <= 1e-12
        else:
            assert rep.infimum_found < rep.target - 1e-11

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


def _grid_infimum(claim_id, p, n):
    """The least lower-bound ratio over the feasible points of an n-per-axis mesh
    of the unit cube, on the frozen helpers: (a, b, c, d) for claims 1-2, (a, c, d)
    on claim 3's manifold."""
    e = make_exponent(p)
    pts = _t0_powers(e, t0_of(p))
    g = np.linspace(0.0, 1.0, n)
    X = [x.ravel() for x in np.meshgrid(*[g] * (3 if claim_id == 3 else 4), indexing="ij")]
    a, b, c, d = _ref_entries(claim_id, X, pts)
    keep = np.maximum(np.maximum(a, b), np.maximum(c, d)) > 0.0
    for slack in _ref_slacks(claim_id, a, b, c, d, pts[0] ** (2.0 - p)):
        keep &= slack >= 0.0
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    fg = np.maximum(_ref_functional(a, b, c, d, *pts), _ref_functional(d, c, b, a, *pts))
    rt = np.maximum(a + c, b + d) ** (1.0 / e.p) * np.maximum(a + b, c + d) ** (1.0 / e.q)
    return float((fg / rt).min())


def _claim3_region(p):
    """Normals of claim 3's whole region: d >= a, a + c >= b + d and c + a - d >= c t0^(2-p)."""
    t2p = t0_of(p) ** (2.0 - p)
    return np.array([[-1.0, 0.0, 0.0, 1.0], [1.0, -1.0, 1.0, -1.0], [1.0, 0.0, 1.0 - t2p, -1.0]])


class TestClaimGridScoring:
    """verify_claim_region's report against full meshes of the unit cube, and what it counts."""

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    @pytest.mark.parametrize(
        "p, force",
        [(1.2, False), (1.25, False), (1.3, False), (1.4, False), (1.5, False), (1.05, True), (1.16, True),
         (1.9, True)],
    )
    def test_matches_full_grid(self, claim_id, p, force):
        # no point of any mesh lies below the reported infimum, and the
        # reported witness is feasible and takes that value
        e = make_exponent(p)
        rep = verify_claim_region(claim_id, e, force=force)
        for grid_n in (4, 5, 12, 16, 25):
            assert _grid_infimum(claim_id, p, grid_n) >= rep.infimum_found - 1e-12
        pts = _t0_powers(e, t0_of(p))
        worst = rep.worst_point.as_tuple()
        assert _ref_lower_ratio(*worst, e, pts) == pytest.approx(rep.infimum_found, abs=1e-15)
        assert min(_ref_slacks(claim_id, *worst, pts[0] ** (2.0 - p))) >= -1e-12
        assert rep.holds is (rep.infimum_found >= rep.target - 1e-12)

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    @pytest.mark.parametrize("patched", ["_claim_slacks", "branch_value"])
    def test_no_finite_ratio(self, monkeypatch, claim_id, patched):
        # a constraint that only the zero operator meets, or F = inf at every
        # vertex.  With no feasible vertex the report is inf, not holding, at
        # the zero operator; with no finite ratio it is alpha_ratio at a
        # feasible vertex, found without a warning
        e = make_exponent(1.3)
        ref = verify_claim_region(claim_id, e)

        def on_the_arrays(fn):
            def patched_fn(*args):
                out = fn(*args)
                if not isinstance(args[1], np.ndarray):
                    return out
                if patched == "branch_value":
                    return np.full_like(out, np.inf)
                return out + (np.full_like(args[1], -1.0),)

            return patched_fn

        monkeypatch.setattr(index, patched, on_the_arrays(getattr(index, patched)))
        rep = verify_claim_region(claim_id, e)
        if patched == "_claim_slacks":
            assert rep.infimum_found == math.inf and not rep.holds
            assert rep.worst_point == SignPatternOp(0.0, 0.0, 0.0, 0.0)
            assert (rep.vertices, rep.segments) == (0, 0)
        else:
            assert (rep.vertices, rep.segments) == (ref.vertices, ref.segments)
            assert rep.feasibility_slack >= -1e-12
            assert ref.infimum_found - 1e-12 <= rep.infimum_found < math.inf
            assert rep.infimum_found == alpha_ratio(rep.worst_point, e, t0_of(1.3))

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    def test_counts(self, monkeypatch, claim_id):
        # F and G are taken on arrays once each, at the distinct feasible vertices
        sizes = []
        functional = index.branch_value

        def recording(a, *rest):
            if isinstance(a, np.ndarray):
                sizes.append(a.size)
            return functional(a, *rest)

        monkeypatch.setattr(index, "branch_value", recording)
        rep = verify_claim_region(claim_id, make_exponent(1.3))
        assert sizes == [rep.vertices] * 2
        assert (rep.vertices, rep.segments) == {1: (15, 59), 2: (7, 18), 3: (4, 5)}[claim_id]

    def test_verify_row_is_unchanged(self):
        row = _verify_row(1.3)
        assert set(row) == {"p", "lemma_margin", "lemma_ok", "ok"} | {
            f"claim{c}_{k}" for c in (1, 2, 3) for k in ("gap", "ok")
        }


class TestExactInfimum:
    """verify_claim_region's vertex enumeration against independent evaluations."""

    @pytest.mark.parametrize("claim_id, p", [(1, 1.2), (1, 1.5), (2, 1.2), (2, 1.3), (2, 1.5), (3, 1.2),
                                             (3, 1.5), (3, 1.16)])
    def test_dense_grid_never_lower(self, claim_id, p):
        rep = verify_claim_region(claim_id, make_exponent(p), force=True)
        assert _grid_infimum(claim_id, p, 61 if claim_id == 3 else 21) >= rep.infimum_found - 1e-12

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.16, 1.236363636363636, 1.3, 1.5])
    def test_value_at_minimizer_in_fifty_digits(self, claim_id, p):
        mpmath = pytest.importorskip("mpmath")
        e = make_exponent(p)
        rep = verify_claim_region(claim_id, e, force=True)
        with mpmath.workdps(50):
            P, t0 = mpmath.mpf(e.p), mpmath.mpf(t0_of(p))
            a, b, c, d = (mpmath.mpf(v) for v in rep.worst_point.as_tuple())
            tp, tp1 = t0**P, t0 ** (P - 1)
            fg = max(abs(a - d * tp) + abs(b * t0 - c * tp1), abs(d - a * tp) + abs(c * t0 - b * tp1)) / (1 + tp)
            ratio = fg / (max(a + c, b + d) ** (1 / P) * max(a + b, c + d) ** (1 - 1 / P))
            assert abs(ratio - rep.infimum_found) <= 1e-15
            assert min(_ref_slacks(claim_id, a, b, c, d, t0 ** (2 - P))) >= -1e-15

    def test_not_above_the_sampled_search(self):
        # the infima and witness slacks that the sampled search (a 12^4 grid
        # and a capped Nelder-Mead polish) reported on the default verify grid;
        # its polish kept points up to 1e-12 outside a constraint, so a witness
        # outside the region may undercut the infimum by about its violation
        # (claim 2 at p = 1.278788: 1.39e-12, with slack -2.13e-12)
        rows = json.loads((Path(__file__).parent / "data" / "sampled_claim_infima.json").read_text())
        assert len(rows) == 100
        for p, *sampled in rows:
            e = make_exponent(p)
            for claim_id in (1, 2, 3):
                found, slack = sampled[2 * claim_id - 2 : 2 * claim_id]
                exact = verify_claim_region(claim_id, e).infimum_found
                assert exact <= found + 1e-12 + max(0.0, -slack)

    def test_claims_1_and_3_take_the_target(self):
        # the rotation (0 1; -1 0) attains the target in both regions
        for p in np.linspace(1.2, 1.5, 121).tolist():
            e = make_exponent(p)
            for claim_id in (1, 3):
                rep = verify_claim_region(claim_id, e)
                assert abs(rep.infimum_found - rep.target) <= 2e-16

    @pytest.mark.parametrize("p", [1.2, 1.3, 1.5, 2.5, 3.0, 4.0, 6.0])
    def test_whole_class_gives_mp(self, p):
        # over all of a, b, c, d >= 0 the lower-bound ratio's infimum is M_p
        e = make_exponent(p)
        cp = compute_mp(e)
        value, x, vertices, segments = _ratio_infimum(e, _t0_powers(e, cp.t0), np.empty((0, 4)))
        assert abs(value - cp.mp) <= 1e-15
        assert abs(x.sum() - 1.0) <= 1e-15 and (x >= -1e-12).all()
        assert vertices > 0 and segments > 0

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    @pytest.mark.parametrize("p", [2.5, 3.0, 6.0])
    def test_forced_target_above_two_is_mp(self, claim_id, p):
        # the target is M_p, critical.objective at t0, above p = 2 as below
        # (where t0^(p-1) - t0 turns negative); claims 1-2 sit at M_p, claim 3 above it
        e = make_exponent(p)
        rep = verify_claim_region(claim_id, e, force=True)
        assert abs(rep.target - compute_mp(e).mp) <= 1e-15
        assert rep.target > 0.0
        assert rep.infimum_found >= rep.target - 1e-12
        assert rep.holds

    @pytest.mark.parametrize("p", [1.17064, 1.2, 1.35, 1.5])
    def test_claim3_manifold_reaches_the_region(self, p):
        # the F = G manifold that claim 3 searches attains the infimum over
        # the whole of claim 3's region
        e = make_exponent(p)
        value = _ratio_infimum(e, _t0_powers(e, t0_of(p)), _claim3_region(p))[0]
        assert abs(verify_claim_region(3, e, force=True).infimum_found - value) <= 1e-15

    def test_no_feasible_vertex(self):
        # a constraint that only the zero operator meets; verify_claim_region's
        # report for it is TestClaimGridScoring::test_no_finite_ratio's
        e = make_exponent(1.3)
        value, x, vertices, segments = _ratio_infimum(e, _t0_powers(e, t0_of(1.3)), -np.ones((1, 4)))
        assert (value, x.tolist(), vertices, segments) == (math.inf, [0.0] * 4, 0, 0)


def _frozen_solve(H, prefix):
    """Each triple's determinant with the cut and its point on the cut, from one np.einsum over
    its own (4, 4) Hodge dual, for the triples i < j < k of H's rows in lexicographic order
    (with prefix, those with i = 0)."""
    m = len(H)
    i, j, k = np.array(list(itertools.combinations(range(m), 3))).T.copy()
    if prefix:
        n = (m - 1) * (m - 2) // 2
        i, j, k = i[:n], j[:n], k[:n]
    dx = ((0, 2, 3, 1), (3, 1, 0, 2), (1, 3, 2, 0), (2, 0, 1, 3))
    dy = ((0, 3, 1, 2), (2, 1, 3, 0), (3, 0, 2, 1), (1, 2, 0, 3))
    g, h = H[i], H[j]
    N = np.einsum("nlc,nc->nl", g[:, dx] * h[:, dy] - g[:, dy] * h[:, dx], H[k])
    cut = N.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return cut, N / cut[:, None]


def _claim_solves(monkeypatch, ps, force):
    """(H, prefix, cut, X) of every _solve_triples call that claims 1-3 make at the exponents ps."""
    calls = []
    solve = index._solve_triples

    def recording(H, prefix):
        cut, X = solve(H, prefix)
        calls.append((H.copy(), prefix, cut, X))
        return cut, X

    monkeypatch.setattr(index, "_solve_triples", recording)
    for p in ps:
        for claim_id in (1, 2, 3):
            verify_claim_region(claim_id, make_exponent(p), force=force)
    return calls


def _same_bits(got, ref):
    """Two (cut, X) pairs hold the same floats bit for bit, signed zeros and nan payloads included."""
    return all(
        x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64)) for x, y in zip(got, ref)
    )


class TestSolveMatchesFrozen:
    """The per-pair solve gives the per-triple einsum form's floats bit for bit."""

    @pytest.mark.parametrize(
        "ps, force", [(_grid(1.2, 1.5, 100), False), (np.linspace(1.05, 6.0, 101).tolist(), True)],
        ids=["verify-grid", "forced-1.05-6"],
    )
    def test_claim_planes(self, monkeypatch, ps, force):
        calls = _claim_solves(monkeypatch, ps, force)
        assert len(calls) == 3 * len(ps)
        # claim 3 alone has an equality; above p = 2 it takes the F = G planes too
        assert {(len(H), prefix) for H, prefix, *_ in calls} >= {(20, False), (21, False), (14, True)}
        for H, prefix, *got in calls:
            assert _same_bits(got, _frozen_solve(H, prefix))

    def test_equality_prefix(self, monkeypatch):
        # the prefix is the full table's first (m - 1)(m - 2)/2 triples, those with i = 0
        calls = _claim_solves(monkeypatch, [1.2, 1.3, 1.5, 2.5, 6.0], True)
        prefixed = [(H, got) for H, prefix, *got in calls if prefix]
        assert len(prefixed) == 5
        for H, got in prefixed:
            m = len(H)
            assert len(got[0]) == (m - 1) * (m - 2) // 2
            assert _same_bits(got, [x[: len(got[0])] for x in _solve_triples(H, False)])

    @pytest.mark.parametrize("seed", range(4))
    def test_random_planes_with_exact_zeros(self, seed):
        # entries of +-0.0 make -0.0 products and degenerate triples (cut 0, X inf or nan)
        rng = np.random.default_rng(seed)
        zeros = degenerate = 0
        for m in range(3, 23):
            H = rng.standard_normal((m, 4))
            H[rng.random((m, 4)) < 0.4] = 0.0
            H[rng.random((m, 4)) < 0.2] *= -1.0
            for prefix in (False, True):
                cut, X = ref = _frozen_solve(H, prefix)
                assert _same_bits(_solve_triples(H, prefix), ref)
            zeros += int((X == 0.0).sum())
            degenerate += int((cut == 0.0).sum())
        assert zeros > 100 and degenerate > 10


class TestClaimMesh:
    """The claim enumeration's one cache: the table of plane pairs and triples."""

    @pytest.mark.parametrize("claim_id", [1, 2, 3])
    def test_read_only_and_reused(self, monkeypatch, claim_id):
        # one table per plane count: 4 + 2 + 14 and 4 + 3 + 14 planes for
        # claims 1-2, and 1 + 4 + 3 + 6 for claim 3 (its equality, and no F = G
        # planes below p = 2)
        sizes = []
        table = index._pair_table

        def recording(m):
            sizes.append(m)
            return table(m)

        monkeypatch.setattr(index, "_pair_table", recording)
        verify_claim_region(claim_id, make_exponent(1.3))
        m = {1: 20, 2: 21, 3: 14}[claim_id]
        assert sizes == [m]
        arrays = i, j, pair, k = _pair_table(m)
        assert list(zip(i.tolist(), j.tolist())) == list(itertools.combinations(range(m), 2))
        assert list(zip(i[pair].tolist(), j[pair].tolist(), k.tolist())) == list(itertools.combinations(range(m), 3))
        for x in arrays:
            assert not x.flags.writeable
            with pytest.raises(ValueError):
                x[0] = 1
        assert _pair_table(m) is arrays

    def test_bounded(self):
        maxsize = _pair_table.cache_info().maxsize
        assert maxsize is not None and maxsize <= 8
        for m in range(3, 3 + maxsize + 2):
            _pair_table(m)
        assert _pair_table.cache_info().currsize == maxsize
        # the three claims' tables (190, 210 and 91 pairs; 1,140, 1,330 and 364 triples), far below a megabyte
        assert sum(x.nbytes for m in (20, 21, 14) for x in _pair_table(m)) < 100_000

    def test_index_triples(self):
        i, j, pair, k = _pair_table(7)
        assert list(zip(i[pair].tolist(), j[pair].tolist(), k.tolist())) == list(itertools.combinations(range(7), 3))
        assert (i[:6] == 0).all() and (i[6:] > 0).all()
        assert (pair[:15] < 6).all() and (pair[15:] >= 6).all()
        assert not pair.flags.writeable
        assert _pair_table(7)[2] is pair

    def test_import_builds_nothing(self):
        assert _fresh_python("import lpindex; print(lpindex.index._pair_table.cache_info().currsize)") == "0"

    def test_warm_call_peak(self):
        # a warm claim-2 call (21 planes, 1,330 triples) forms one 4 x 4 dual per
        # plane pair, 27 KB in all, and sums the normals column by column: its
        # traced peak was 256 KB, where one (1330, 4, 4) dual per triple and its
        # products peaked at 769 KB
        e = make_exponent(1.3)
        verify_claim_region(2, e)
        tracemalloc.start()
        try:
            verify_claim_region(2, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000


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
