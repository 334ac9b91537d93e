import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpindex import compute_mp, lemma21_bounds, make_exponent, phi_derivative
from lpindex.core import maximize_1d
from lpindex.critical import objective


def dense_grid_argmax(p, n=10**6):
    """Brute-force maximizer of |t^(p-1) - t|/(1 + t^p) on an n-point grid."""
    t = np.linspace(0.0, 1.0, n + 1)
    y = np.abs(t ** (p - 1.0) - t) / (1.0 + t**p)
    i = int(np.argmax(y))
    return float(t[i]), float(y[i])


class TestComputeMp:
    def test_p2_degenerate(self):
        cp = compute_mp(make_exponent(2.0))
        assert cp.degenerate
        assert cp.mp == 0.0
        assert cp.t0 == 0.0

    def test_reference_point(self):
        cp = compute_mp(make_exponent(1.16))
        assert cp.t0 == pytest.approx(0.073924, abs=1e-5)
        assert cp.mp == pytest.approx(0.558064, abs=1e-5)
        assert not cp.degenerate

    def test_conjugate_pair_example(self):
        assert abs(compute_mp(make_exponent(3.0)).mp - compute_mp(make_exponent(1.5)).mp) <= 1e-12

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            compute_mp(make_exponent(1.5), tol=0.0)

    def test_value_recomputable_from_t0(self):
        for p in (1.1, 1.4, 3.0, 7.0):
            e = make_exponent(p)
            cp = compute_mp(e)
            direct = abs(cp.t0 ** (p - 1.0) - cp.t0) / (1.0 + cp.t0**p)
            assert abs(direct - cp.mp) <= 1e-14 * cp.mp

    def test_derivative_residual_small(self):
        for p in (1.05, 1.16, 1.3, 1.9, 2.2, 4.0, 12.0):
            cp = compute_mp(make_exponent(p))
            assert abs(cp.derivative_residual) <= 1e-10

    @pytest.mark.parametrize("p", [1.9433333333333334, 1.99, 2.01])
    def test_bisected_root_near_p2(self, p):
        # near p = 2 the objective is so flat that a refined grid maximizer
        # lands 1e-9 off the root; bisecting from the grid cell finds it
        assert abs(compute_mp(make_exponent(p)).derivative_residual) <= 1e-12

    @pytest.mark.parametrize("p", [1.0 + 1e-12, 2.0 - 1e-9, 2.0 + 1e-9])
    def test_refined_fallback(self, p):
        # no usable derivative sign change around the grid cell: the result is
        # the shared maximizer refined to tol
        e = make_exponent(p)
        r = maximize_1d(lambda t: objective(t, e), 1e-10)
        cp = compute_mp(e, tol=1e-10)
        assert (cp.t0, cp.mp) == (r.argmax, r.value)

    def test_value_in_unit_interval(self):
        for p in (1.01, 1.5, 2.5, 15.0):
            cp = compute_mp(make_exponent(p))
            assert 0.0 < cp.mp < 1.0
            assert 0.0 < cp.t0 < 1.0

    def test_conjugate_symmetry_random(self):
        rng = np.random.default_rng(42)
        for p in rng.uniform(1.0, 20.0, 200):
            p = float(p)
            if p <= 1.0005 or abs(p - 2.0) < 1e-9:
                continue
            e = make_exponent(p)
            assert abs(compute_mp(e).mp - compute_mp(make_exponent(e.q)).mp) <= 1e-11

    def test_matches_dense_grid_oracle(self):
        for p in (1.16, 1.3, 2.7):
            t_ref, v_ref = dense_grid_argmax(p)
            cp = compute_mp(make_exponent(p))
            assert cp.t0 == pytest.approx(t_ref, abs=2e-6)
            assert cp.mp >= v_ref - 1e-15


class TestPhiDerivative:
    def test_vanishes_at_reference_maximizer(self):
        e = make_exponent(1.16)
        assert phi_derivative(0.073924, e) == pytest.approx(0.0, abs=1e-4)
        assert phi_derivative(compute_mp(e).t0, e) == pytest.approx(0.0, abs=1e-12)

    def test_positive_left_of_maximizer(self):
        e = make_exponent(4.0 / 3.0)
        t0 = compute_mp(e).t0
        for t in np.linspace(0.01, t0 * 0.95, 7):
            assert phi_derivative(float(t), e) > 0.0

    @pytest.mark.parametrize("t", [0.0, -0.5, 1.0, 1.5])
    def test_rejects_boundary(self, t):
        with pytest.raises(ValueError):
            phi_derivative(t, make_exponent(1.3))

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=1.05, max_value=1.95),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_central_differences(self, t, p):
        e = make_exponent(p)
        h = 1e-7
        if not (0.0 < t - h and t + h < 1.0):
            return
        fd = (float(objective(t + h, e)) - float(objective(t - h, e))) / (2.0 * h)
        d = phi_derivative(t, e)
        assert abs(d - fd) <= max(1e-5, 1e-5 * abs(d))


class TestLemma21Bounds:
    def test_endpoint_six_fifths(self):
        rep = lemma21_bounds(make_exponent(6.0 / 5.0))
        assert rep.lower == pytest.approx((1.0 / 7.0) ** 1.25, rel=1e-14)
        assert rep.upper == pytest.approx((1.0 / 17.0) ** (5.0 / 6.0), rel=1e-14)
        assert rep.lower <= rep.t0 <= rep.upper
        assert rep.all_hold
        assert rep.in_hypothesis

    def test_endpoint_three_halves(self):
        rep = lemma21_bounds(make_exponent(1.5))
        assert rep.lower == pytest.approx(0.16, rel=1e-14)
        assert rep.upper == pytest.approx(0.125 ** (2.0 / 3.0), rel=1e-14)
        assert rep.all_hold

    def test_interior_point_against_dense_grid(self):
        p = 1.3
        rep = lemma21_bounds(make_exponent(p))
        t_ref, _ = dense_grid_argmax(p)
        assert rep.lower <= t_ref <= rep.upper
        assert rep.all_hold
        assert rep.margin > 0.0

    def test_exponent_inequality_fields(self):
        e = make_exponent(1.25)
        rep = lemma21_bounds(e)
        assert rep.exponent_check_lhs == pytest.approx(rep.t0 ** (2.0 * 1.25 - 3.0), rel=1e-14)
        assert rep.exponent_check_rhs == pytest.approx(e.q / e.p, rel=1e-15)
        assert rep.exponent_check_lhs <= rep.exponent_check_rhs

    @pytest.mark.parametrize("p", [1.1, 1.7])
    def test_out_of_hypothesis_flagged(self, p):
        rep = lemma21_bounds(make_exponent(p))
        assert not rep.in_hypothesis

    def test_grid_certificate_sample(self):
        # the full 10^4-point certificate runs in the acceptance suite
        for p in np.linspace(1.2, 1.5, 200):
            rep = lemma21_bounds(make_exponent(float(p)))
            assert rep.all_hold
            assert rep.margin > 1e-9
