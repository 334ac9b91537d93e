import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpindex import Exponent, Mat2, make_exponent, maximize_1d, numerical_radius, op_norm, radius_oracle
from lpindex.core import (
    _END_POINTS,
    _GRID,
    _POWERS_CACHE_SIZE,
    DEFAULT_GRID_N,
    SpherePowers,
    _grid_powers,
    sphere_powers,
)

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

    def test_q_is_derived(self):
        assert Exponent(1.5).q == 3.0
        with pytest.raises(TypeError):
            Exponent(p=1.5, q=3.0)

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
        r = maximize_1d(lambda t: -((t - 0.5) ** 2), 1e-12)
        assert r.value == pytest.approx(0.0, abs=1e-20)
        assert r.argmax == pytest.approx(0.5, abs=1e-10)
        assert r.tol <= 1e-12

    def test_critical_objective_reference_point(self):
        # interior maximum of (t^(p-1) - t)/(1 + t^p) at p = 1.16
        p = 1.16
        r = maximize_1d(lambda t: (t ** (p - 1.0) - t) / (1.0 + t**p), 1e-12)
        assert r.value == pytest.approx(0.558064, abs=1e-5)
        assert r.argmax == pytest.approx(0.073924, abs=1e-5)

    def test_constant_objective(self):
        r = maximize_1d(np.ones_like, 1e-6)
        assert r.value == 1.0
        assert 0.0 <= r.argmax <= 1.0

    def test_closed_form_maximum_accuracy(self):
        r = maximize_1d(lambda t: np.sin(math.pi * t), 1e-12)
        assert abs(r.value - 1.0) <= 1e-15
        assert abs(r.argmax - 0.5) <= 1e-7

    def test_argmax_value_recomputable(self):
        f = lambda t: np.exp(-3.0 * (t - 0.3) ** 2) + 0.1 * np.cos(9.0 * t)
        r = maximize_1d(f, 1e-12)
        assert f(r.argmax) == r.value
        assert 0.0 <= r.argmax <= 1.0

    def test_deterministic(self):
        f = lambda t: t * (1.0 - t) * np.sin(20.0 * t)
        assert maximize_1d(f, 1e-12) == maximize_1d(f, 1e-12)

    def test_invalid_grid_and_tol(self):
        for tol in (0.0, -1e-10, math.nan):
            with pytest.raises(ValueError):
                maximize_1d(lambda t: t, tol)

    def test_cell_tol_returns_grid_argmax(self):
        # a bracket starts two cells wide, so a tol of one cell skips the refinement
        f = lambda t: t * (1.0 - t) * np.sin(20.0 * t)
        r = maximize_1d(f, 1.0 / DEFAULT_GRID_N)
        i = int(np.argmax(f(_GRID)))
        assert (r.argmax, r.value, r.evaluations) == (_GRID[i], f(_GRID)[i], _GRID.size)

    def test_non_finite_objective_propagates(self):
        def f(t):
            return np.where(t > 0.5, math.inf, t)

        with pytest.raises(FloatingPointError):
            maximize_1d(f, 1e-6)

    def test_narrow_peak_beats_broad_mode(self):
        # A broad mode at 0.3 and a narrow, higher tent whose grid values all
        # lie below the broad mode's: the second polish must go to the tent's
        # grid local maximum, not to a second point of the broad mode.
        c = (3688 + 0.3) / DEFAULT_GRID_N

        def f(t):
            return np.maximum(1.0 - (t - 0.3) ** 2, 1.5 - 8000.0 * np.abs(t - c))

        near_c = np.abs(_GRID - c) < 1e-3
        assert f(_GRID)[near_c].max() < f(_GRID)[~near_c].max()
        r = maximize_1d(f, 1e-12)
        assert r.value == pytest.approx(1.5, abs=1e-8)
        assert r.argmax == pytest.approx(c, abs=1e-11)

    @given(st.floats(min_value=0.05, max_value=0.95), st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_random_parabola(self, c, a):
        r = maximize_1d(lambda t: -a * (t - c) ** 2, 1e-12)
        assert abs(r.argmax - c) <= 1e-9
        assert r.value <= 0.0

    def test_grid_equals_np_unique(self):
        # the one pre-scan grid: sorted, read-only, and no two points coincide
        geo = np.geomspace(1e-12, 1.0, _END_POINTS + 1)[:-1] / DEFAULT_GRID_N
        ref = np.unique(np.concatenate((np.linspace(0.0, 1.0, DEFAULT_GRID_N + 1), geo, 1.0 - geo)))
        assert ref.size == DEFAULT_GRID_N + 1 + 2 * _END_POINTS
        assert np.array_equal(_GRID, ref)
        assert not _GRID.flags.writeable


class TestSpherePowers:
    FIELDS = ("tp", "tp1", "x2", "x2p1")

    def test_grid_record_is_read_only_and_matches_fresh_powers(self):
        p = 1.2345
        cached = sphere_powers(_GRID, p)
        fresh = SpherePowers(_GRID.copy(), p)
        for name in self.FIELDS:
            arr = getattr(cached, name)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5
            assert np.array_equal(arr, getattr(fresh, name))

    def test_other_points_are_not_cached(self):
        before = _grid_powers.cache_info()
        pts = _GRID[:65].copy()
        pw = sphere_powers(pts, 1.5)
        assert pw.t is pts and pw.tp.flags.writeable
        assert _grid_powers.cache_info() == before

    def test_second_call_hits_the_cache(self):
        p = 1.6789
        first = sphere_powers(_GRID, p)
        hits = _grid_powers.cache_info().hits
        assert sphere_powers(_GRID, p) is first
        assert _grid_powers.cache_info().hits == hits + 1

    def test_evicted_exponent_gives_identical_results(self):
        T, e = Mat2(0.3, -2.0, 1.7, 0.9), make_exponent(1.4321)

        def results():
            return numerical_radius(T, e), radius_oracle(T, e), op_norm(T, e)

        first = sphere_powers(_GRID, e.p)
        before = results()
        for k in range(_POWERS_CACHE_SIZE + 1):
            sphere_powers(_GRID, 2.5 + k)
        assert _grid_powers.cache_info().currsize == _POWERS_CACHE_SIZE
        assert sphere_powers(_GRID, e.p) is not first
        assert results() == before
