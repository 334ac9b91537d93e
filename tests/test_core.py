import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lpindex import (
    BracketedMax,
    Exponent,
    Mat2,
    compute_mp,
    make_exponent,
    maximize_1d,
    numerical_radius,
    op_norm,
    radius_oracle,
)
from lpindex.core import (
    _END_POINTS,
    _GRID,
    _POWERS_CACHE_SIZE,
    _REFINE_POINTS,
    _REFINE_U,
    DEFAULT_GRID_N,
    DEFAULT_TOL,
    SpherePowers,
    _grid_powers,
    _prescan,
    sphere_powers,
)
from lpindex.critical import objective as mp_objective

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
        for tol in (0.0, -1e-10, math.nan, math.inf):
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

        with pytest.raises(FloatingPointError, match=r"non-finite value at t=0\.500244140625$"):
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

    def test_grid_chart_is_read_only_and_matches_a_fresh_chart(self):
        p = 1.2345
        cached = sphere_powers(_GRID, p).chart
        fresh = SpherePowers(_GRID.copy(), p).chart
        for arr, ref in zip(cached, fresh):
            assert not arr.flags.writeable
            assert np.array_equal(arr, ref)

    @pytest.mark.parametrize("p", [1.0001, 1.2, 2.0, 3.0, 1000.0])
    def test_chart_is_the_arc_switched_at_the_diagonal(self, p):
        u, v = sphere_powers(_GRID, p).chart
        lower = _GRID <= 0.5
        s = np.where(lower, 2.0 * _GRID, 2.0 - 2.0 * _GRID) * 2.0 ** (-1.0 / p)
        x2 = SpherePowers(s, p).x2
        assert np.array_equal(u, np.where(lower, s, x2))
        assert np.array_equal(v, np.where(lower, x2, s))
        assert (u[0], v[0], u[-1], v[-1]) == (0.0, 1.0, 1.0, 0.0)
        # the arc is read only up to the diagonal, where its slope is -1
        assert s.max() == 2.0 ** (-1.0 / p)

    @pytest.mark.parametrize("p", [1.0001, 1.2, 2.0, 3.0, 1000.0])
    def test_chart_is_mirror_exact_on_uniform_points(self, p):
        # t and 1 - t map to swapped points on k/4096, except the diagonal t = 1/2
        t = np.arange(DEFAULT_GRID_N + 1) / DEFAULT_GRID_N
        u, v = SpherePowers(t, p).chart
        off_diagonal = t != 0.5
        assert np.array_equal(u[off_diagonal], v[::-1][off_diagonal])
        assert np.array_equal(v[off_diagonal], u[::-1][off_diagonal])

    def test_grid_powers_are_computed_on_first_read(self):
        # numerical_radius reads tp and tp1 on the grid, op_norm the chart: no
        # caller of either reads the arc x2 or x2p1, so neither is computed
        p = 1.2468013579
        T, e = Mat2(0.3, -2.0, 1.7, 0.9), make_exponent(p)
        numerical_radius(T, e)
        op_norm(T, e)
        kept = sphere_powers(_GRID, p).__dict__
        assert {"tp", "tp1", "chart"} <= kept.keys()
        assert not {"x2", "x2p1"} & kept.keys()

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


# The maximizer's bookkeeping as written with array state: the pre-scan
# returns numpy arrays, and the refinement updates them with masks and fancy
# indexing on all rows at once.
def _array_prescan(objective):
    ys = np.asarray(objective(_GRID), dtype=float)
    left = np.concatenate(([True], ys[1:] >= ys[:-1]))
    right = np.concatenate((ys[:-1] >= ys[1:], [True]))
    peaks = np.flatnonzero(left & right)
    idx = peaks[np.argsort(-ys[peaks], kind="stable")[:2]]
    return _GRID[idx], ys[idx], _GRID[np.maximum(idx - 1, 0)], _GRID[np.minimum(idx + 1, _GRID.size - 1)]


def _array_refine(objective, best_t, best_y, a, b, tol):
    evals = _GRID.size
    rows = np.arange(a.size)
    while True:
        w = b - a
        if not (w > 2.0 * tol).any():
            break
        pts = a[:, None] + w[:, None] * _REFINE_U
        vals = np.asarray(objective(pts), dtype=float)
        evals += pts.size
        j = vals.argmax(axis=1)
        y = vals[rows, j]
        better = y > best_y
        best_t[better] = pts[rows, j][better]
        best_y[better] = y[better]
        j = np.minimum(np.maximum(j, 1), _REFINE_POINTS - 2)
        a, b = pts[rows, j - 1], pts[rows, j + 1]
        if not (b - a < w).any():
            break
    k = int(best_y.argmax())
    return BracketedMax(
        value=float(best_y[k]),
        argmax=float(best_t[k]),
        tol=float((b[k] - a[k]) / 2.0),
        evaluations=evals,
    )


def _array_maximize(objective, tol):
    return _array_refine(objective, *_array_prescan(objective), tol)


def _two_peaks(c1, c2, h2):
    return lambda t: np.maximum(1.0 - 1e4 * (t - c1) ** 2, h2 - 1e4 * (t - c2) ** 2)


def _end_cell_peak(t):
    # t^(p-1) - t at p = 1.0001 peaks near t = 1e-4, inside the first grid cell
    return t**1e-4 - t


# tol at the floating-point-resolution stop, a typical tol, and one grid cell
_TOLS = (1e-300, 1e-12, 1.0 / DEFAULT_GRID_N)
_NARROW_C = (3688 + 0.3) / DEFAULT_GRID_N
_OBJECTIVES = {
    "constant": np.ones_like,
    "single-peak": lambda t: -((t - 0.4321) ** 2),
    "tied-peaks": _two_peaks(0.25, 0.75, 1.0),
    "near-tied-peaks": _two_peaks(0.3001, 0.7002, 1.0 - 1e-15),
    "narrow-tent": lambda t: np.maximum(1.0 - (t - 0.3) ** 2, 1.5 - 8000.0 * np.abs(t - _NARROW_C)),
    "end-cell-peak": _end_cell_peak,
    # an end-cell bracket narrows for more steps than an interior one before
    # floating point stops it, so the interior row keeps stepping with it
    "end-cell-and-interior": lambda t: np.maximum(_end_cell_peak(t), 0.9 - (t - 0.5) ** 2),
}


class TestFloatBookkeeping:
    """maximize_1d's Python-float brackets give the array bookkeeping's result bit for bit."""

    @pytest.mark.parametrize("tol", _TOLS, ids=["fp-resolution", "1e-12", "one-cell"])
    @pytest.mark.parametrize("name", list(_OBJECTIVES))
    def test_matches_array_state(self, name, tol):
        f = _OBJECTIVES[name]
        assert maximize_1d(f, tol) == _array_maximize(f, tol)

    def test_objectives_cover_the_bookkeeping(self):
        # one and two brackets, an exact tie, and both loop exits
        sizes = {name: _array_prescan(f)[0].size for name, f in _OBJECTIVES.items()}
        assert sizes == dict.fromkeys(_OBJECTIVES, 2) | {"single-peak": 1, "end-cell-peak": 1}
        best_y = _array_prescan(_OBJECTIVES["tied-peaks"])[1]
        assert best_y[0] == best_y[1]
        assert maximize_1d(_OBJECTIVES["single-peak"], 1e-12).tol <= 1e-12
        assert maximize_1d(_OBJECTIVES["single-peak"], 1e-300).tol > 1e-300

    @given(
        st.sampled_from(_TOLS),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_parabola(self, tol, c, a):
        f = lambda t: -a * (t - c) ** 2
        assert maximize_1d(f, tol) == _array_maximize(f, tol)

    @given(
        st.sampled_from(_TOLS),
        st.floats(min_value=1.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_sine(self, tol, k, phase):
        f = lambda t: np.sin(k * t + phase)
        assert maximize_1d(f, tol) == _array_maximize(f, tol)

    @pytest.mark.parametrize("p", [1.0 + 1e-12, 2.0 - 1e-9, 2.0 + 1e-9])
    @pytest.mark.parametrize("tol", [DEFAULT_TOL])  # the fallback's one tol
    def test_compute_mp_fallback(self, p, tol):
        e = make_exponent(p)
        r = _array_maximize(lambda t: mp_objective(t, e), tol)
        cp = compute_mp(e)
        assert (cp.t0, cp.mp) == (r.argmax, r.value)


_N = _GRID.size
_ULP_BELOW_ONE = np.nextafter(1.0, 0.0)
_PEAK_ARRAYS = {
    "constant": np.ones(_N),
    "left-end": 1.0 - _GRID,
    "right-end": _GRID.copy(),
    "both-ends": (_GRID - 0.5) ** 2,
    "tied-ends": np.where(np.arange(_N) % (_N - 1) == 0, 2.0, 1.0),
    "plateau": np.minimum(1.0, 3.0 * np.sin(np.pi * _GRID)),
    "plateaus-and-steps": np.floor(8.0 * np.sin(7.0 * _GRID) ** 2),
}


def _spikes(at, heights, base=0.0):
    ys = np.full(_N, base)
    ys[list(at)] = heights
    return ys


# one ulp apart, and exact ties after the best, inside and at the ends
_PEAK_ARRAYS["near-tied-interior"] = _spikes((700, 2100, 3500), (_ULP_BELOW_ONE, 1.0, 1.0))
_PEAK_ARRAYS["near-tied-ends"] = _spikes((0, _N - 1), (_ULP_BELOW_ONE, 1.0), base=0.5)
_PEAK_ARRAYS["end-and-interior-tie"] = _spikes((0, 1500, _N - 1), (1.0, 1.0, _ULP_BELOW_ONE))
# -0.0 == +0.0: negated for the sort, they still tie, and the first in grid order wins
_PEAK_ARRAYS["signed-zero-ties"] = _spikes((0, 1500, _N - 1), (-0.0, 0.0, -0.0), base=-1.0)


class TestPrescanPeaks:
    """_prescan's one-pass peak search brackets the six-pass form's peaks."""

    @staticmethod
    def _assert_matches_six_passes(ys):
        f = lambda t: ys
        assert _prescan(f) == tuple(arr.tolist() for arr in _array_prescan(f))

    @pytest.mark.parametrize("name", list(_PEAK_ARRAYS))
    def test_edge_arrays(self, name):
        self._assert_matches_six_passes(_PEAK_ARRAYS[name])

    @given(arrays(np.float64, _N, elements=st.sampled_from([-1.0, -0.0, 0.0, _ULP_BELOW_ONE, 1.0])))
    @settings(max_examples=100, deadline=None)
    def test_sparse_arrays(self, ys):
        self._assert_matches_six_passes(ys)

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_dense_ties(self, levels, seed):
        ys = np.random.default_rng(seed).integers(0, levels, _N).astype(float)
        self._assert_matches_six_passes(ys)

    @given(st.floats(min_value=1.0, max_value=500.0), st.floats(min_value=0.0, max_value=2.0 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_smooth(self, k, phase):
        self._assert_matches_six_passes(np.sin(k * _GRID + phase))
