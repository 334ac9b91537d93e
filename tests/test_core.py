import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpindex import Mat2, make_exponent, maximize_1d
from lpindex.core import _END_POINTS, _grid

EPS = sys.float_info.epsilon


class TestMakeExponent:
    def test_self_conjugate(self):
        assert make_exponent(2.0).q == 2.0

    def test_p_three(self):
        assert make_exponent(3.0).q == 1.5

    def test_theorem_range_endpoint(self):
        assert make_exponent(6.0 / 5.0).q == pytest.approx(6.0, rel=1e-15)

    @pytest.mark.parametrize("bad", [1.0, 0.5, 0.0, -3.0, math.inf, -math.inf, math.nan])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ValueError):
            make_exponent(bad)

    @given(st.floats(min_value=1.0 + 1e-9, max_value=1e9))
    @settings(max_examples=200, deadline=None)
    def test_conjugate_identity(self, p):
        e = make_exponent(p)
        assert abs(1.0 / e.p + 1.0 / e.q - 1.0) <= 4.0 * EPS


class TestMat2:
    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            Mat2(1.0, math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            Mat2(math.inf, 0.0, 0.0, 0.0)

    def test_transpose(self):
        assert Mat2(1, 2, 3, 4).transpose() == Mat2(1, 3, 2, 4)

    def test_apply(self):
        assert Mat2(1, 2, 3, 4).apply(1.0, -1.0) == (-1.0, -1.0)


class TestMaximize1d:
    def test_parabola(self):
        r = maximize_1d(lambda t: -((t - 0.5) ** 2), 0.0, 1.0, grid_n=100, tol=1e-12)
        assert r.value == pytest.approx(0.0, abs=1e-20)
        assert r.argmax == pytest.approx(0.5, abs=1e-10)
        assert r.tol <= 1e-12

    def test_critical_objective_reference_point(self):
        # interior maximum of (t^(p-1) - t)/(1 + t^p) at p = 1.16
        p = 1.16
        r = maximize_1d(
            lambda t: (t ** (p - 1.0) - t) / (1.0 + t**p), 0.0, 1.0, grid_n=4096, tol=1e-12
        )
        assert r.value == pytest.approx(0.558064, abs=1e-5)
        assert r.argmax == pytest.approx(0.073924, abs=1e-5)

    def test_constant_objective(self):
        r = maximize_1d(np.ones_like, 0.0, 1.0, grid_n=10, tol=1e-6)
        assert r.value == 1.0
        assert 0.0 <= r.argmax <= 1.0

    def test_closed_form_maximum_accuracy(self):
        r = maximize_1d(np.sin, 0.0, math.pi, grid_n=64, tol=1e-12)
        assert abs(r.value - 1.0) <= 1e-15
        assert abs(r.argmax - math.pi / 2.0) <= 1e-7

    def test_argmax_value_recomputable(self):
        f = lambda t: np.exp(-3.0 * (t - 0.3) ** 2) + 0.1 * np.cos(9.0 * t)
        r = maximize_1d(f, 0.0, 1.0, grid_n=256, tol=1e-12)
        assert f(r.argmax) == r.value
        assert 0.0 <= r.argmax <= 1.0

    def test_deterministic(self):
        f = lambda t: t * (1.0 - t) * np.sin(20.0 * t)
        assert maximize_1d(f, 0.0, 1.0) == maximize_1d(f, 0.0, 1.0)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda t: t, 1.0, 0.0)
        with pytest.raises(ValueError):
            maximize_1d(lambda t: t, 0.0, math.inf)

    def test_invalid_grid_and_tol(self):
        with pytest.raises(ValueError):
            maximize_1d(lambda t: t, 0.0, 1.0, grid_n=2)
        with pytest.raises(ValueError):
            maximize_1d(lambda t: t, 0.0, 1.0, tol=0.0)

    def test_non_finite_objective_propagates(self):
        def f(t):
            return np.where(t > 0.5, math.inf, t)

        with pytest.raises(FloatingPointError):
            maximize_1d(f, 0.0, 1.0, grid_n=10, tol=1e-6)

    def test_narrow_peak_beats_broad_mode(self):
        # A broad mode at 0.3 and a narrow, higher tent whose grid values all
        # lie below the broad mode's: the second polish must go to the tent's
        # grid local maximum, not to a second point of the broad mode.
        c = (922 + 0.3) / 1024

        def f(t):
            return np.maximum(1.0 - (t - 0.3) ** 2, 1.5 - 2000.0 * np.abs(t - c))

        ts = np.linspace(0.0, 1.0, 1025)
        near_c = np.abs(ts - c) < 1e-3
        assert f(ts)[near_c].max() < f(ts)[~near_c].max()
        r = maximize_1d(f, 0.0, 1.0, grid_n=1024, tol=1e-12, polish_k=2)
        assert r.value == pytest.approx(1.5, abs=1e-8)
        assert r.argmax == pytest.approx(c, abs=1e-11)

    @given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_random_parabola(self, c, a):
        r = maximize_1d(lambda t: -a * (t - c) ** 2, 0.0, 1.0, grid_n=128, tol=1e-12)
        assert abs(r.argmax - c) <= 1e-9
        assert r.value <= 0.0

    def test_grid_refinement_never_loses_value(self):
        # nested doubling grids; slack is a few ulps of the O(10) objective
        rng = np.random.default_rng(3)
        for _ in range(15):
            a, b, c, d = rng.uniform(-10.0, 10.0, 4)
            p = float(rng.uniform(1.05, 8.0))
            f = lambda t: (np.abs(a + d * t**p) + np.abs(b * t + c * t ** (p - 1.0))) / (1.0 + t**p)
            vals = [maximize_1d(f, 0.0, 1.0, grid_n=n, tol=1e-12).value for n in (512, 1024, 2048)]
            assert vals[1] >= vals[0] - 1e-13
            assert vals[2] >= vals[1] - 1e-13

    # the last two brackets are narrow enough that end-cell points repeat
    @pytest.mark.parametrize(
        "lo, hi, grid_n",
        [(0.0, 1.0, 4096), (0.0, 1.0, 3), (-2.5, 7.0, 100), (1.0, 1.0 + 1e-9, 64), (0.3, 0.3 + 2.0**-40, 5)],
    )
    def test_grid_equals_np_unique(self, lo, hi, grid_n):
        geo = (hi - lo) / grid_n * np.geomspace(1e-12, 1.0, _END_POINTS + 1)[:-1]
        ref = np.unique(np.concatenate((np.linspace(lo, hi, grid_n + 1), lo + geo, hi - geo)))
        assert np.array_equal(_grid(lo, hi, grid_n), ref)
