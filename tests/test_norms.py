import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpindex import (
    Mat2,
    conjugate_by_swap,
    make_exponent,
    norm_1,
    norm_inf,
    norms,
    op_norm,
    riesz_thorin_bound,
    vec_norm,
)
from lpindex.core import sphere_powers
from lpindex.norms import _norm_objective, lp_pair

EPS = sys.float_info.epsilon

REMARK_MATRIX = Mat2(0.0487295, 13.639181, -15.0, -1.0)


def svd_largest(T: Mat2) -> float:
    """Closed-form largest singular value of a 2x2 matrix."""
    a, b, c, d = T.as_tuple()
    tau = a * a + b * b + c * c + d * d
    det = a * d - b * c
    return math.sqrt((tau + math.sqrt(max(tau * tau - 4.0 * det * det, 0.0))) / 2.0)


def random_matrices(n, seed=0, scale=10.0):
    rng = np.random.default_rng(seed)
    return [Mat2(*row) for row in rng.uniform(-scale, scale, size=(n, 4))]


class TestVecNorm:
    def test_coordinate_vector(self):
        for p in (1.1, 2.0, 7.0):
            assert vec_norm((1.0, 0.0), make_exponent(p)) == 1.0

    def test_euclidean(self):
        assert vec_norm((1.0, 1.0), make_exponent(2.0)) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_pythagorean(self):
        assert vec_norm((3.0, 4.0), make_exponent(2.0)) == pytest.approx(5.0, rel=1e-15)

    def test_overflow_safe(self):
        v = vec_norm((1e200, 1e200), make_exponent(2.0))
        assert v == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            vec_norm((math.nan, 0.0), make_exponent(2.0))


class TestEntrywiseNorms:
    def test_column_sums(self):
        assert norm_1(Mat2(1, 2, 3, 4)) == 6.0

    def test_row_sums(self):
        assert norm_inf(Mat2(1, 2, 3, 4)) == 7.0

    def test_rotation_isometry(self):
        rot = Mat2(0, 1, -1, 0)
        assert norm_1(rot) == 1.0
        assert norm_inf(rot) == 1.0

    def test_zero_and_identity(self):
        assert norm_1(Mat2(0, 0, 0, 0)) == 0.0
        assert norm_inf(Mat2(1, 0, 0, 1)) == 1.0


class TestOpNorm:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 10.0])
    def test_identity(self, p):
        assert op_norm(Mat2(1, 0, 0, 1), make_exponent(p)).norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.2, 2.0, 6.0])
    def test_rank_one_diagonal(self, p):
        assert op_norm(Mat2(2, 0, 0, 0), make_exponent(p)).norm == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1.16, 1.5, 2.0, 4.0])
    def test_rotation_is_isometry(self, p):
        assert op_norm(Mat2(0, 1, -1, 0), make_exponent(p)).norm == pytest.approx(1.0, abs=1e-12)

    def test_matches_svd_at_p2(self):
        e = make_exponent(2.0)
        for T in random_matrices(60, seed=11):
            assert op_norm(T, e).norm == pytest.approx(svd_largest(T), abs=1e-10)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            op_norm(Mat2(1, 0, 0, 1), make_exponent(2.0), tol=0.0)

    def test_witness_invariants(self):
        for p in (1.2, 2.0, 5.0):
            e = make_exponent(p)
            for T in random_matrices(20, seed=5):
                r = op_norm(T, e)
                x = (r.witness.x1, r.witness.x2)
                assert abs(vec_norm(x, e) - 1.0) <= 8.0 * EPS
                assert vec_norm(T.apply(*x), e) == pytest.approx(r.norm, abs=r.tol)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0])
    def test_reports_evaluations_and_halfwidth(self, record_maximizer, p):
        calls = record_maximizer(norms)
        e = make_exponent(p)
        for T in random_matrices(20, seed=13) + [REMARK_MATRIX, Mat2(0.0, 0.0, 0.0, 0.0)]:
            calls.clear()
            r = op_norm(T, e)
            (r1, n1), (r2, n2) = calls
            assert r.evaluations == r1.evaluations + r2.evaluations == n1 + n2
            assert r.halfwidth == (r1 if r.witness.sign == 1 else r2).tol
            assert 0.0 < r.halfwidth <= r.tol

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 6.0])
    def test_witness_is_the_searched_point(self, monkeypatch, p):
        # record every chart point the search evaluated, with its chart
        # coordinate s and half, rebuilt here from t, and its value
        searched = []

        def recording(T, p, sign):
            f = _norm_objective(T, p, sign)

            def g(t):
                y = f(t)
                u, v = sphere_powers(t, p).chart
                swapped = t > 0.5
                s = np.where(swapped, 2.0 - 2.0 * t, 2.0 * t) * 2.0 ** (-1.0 / p)
                searched.append((sign, swapped, s, u, sign * v, y))
                return y

            return g

        monkeypatch.setattr(norms, "_norm_objective", recording)
        e = make_exponent(p)
        for T in random_matrices(50, seed=12):
            searched.clear()
            r = op_norm(T, e)
            w = r.witness
            found = {
                (float(x1[at]).hex(), float(x2[at]).hex())
                for sign, swapped, s, x1, x2, y in searched
                if sign == w.sign
                for at in zip(*np.nonzero((swapped == w.swapped) & (s == w.s) & (y == r.norm)))
            }
            x = (w.x1, w.x2)
            assert found == {tuple(c.hex() for c in x)}
            u, v = np.array([x[0]]), np.array([x[1]])
            assert lp_pair(T.a * u + T.b * v, T.c * u + T.d * v, p).item() == r.norm


class TestRieszThorin:
    @pytest.mark.parametrize("p", [1.3, 2.0, 5.0])
    def test_rotation_and_identity(self, p):
        e = make_exponent(p)
        assert riesz_thorin_bound(Mat2(0, 1, -1, 0), e) == 1.0
        assert riesz_thorin_bound(Mat2(1, 0, 0, 1), e) == 1.0

    def test_zero_operator(self):
        assert riesz_thorin_bound(Mat2(0, 0, 0, 0), make_exponent(1.5)) == 0.0

    def test_breakdown_matrix_factor_norms(self):
        e = make_exponent(1.16)
        assert norm_1(REMARK_MATRIX) == pytest.approx(15.0487295, abs=1e-12)
        assert norm_inf(REMARK_MATRIX) == pytest.approx(16.0, abs=1e-12)
        expected = 15.0487295 ** (1.0 / e.p) * 16.0 ** (1.0 / e.q)
        assert riesz_thorin_bound(REMARK_MATRIX, e) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 3.0, 8.0])
    def test_dominates_op_norm(self, p):
        e = make_exponent(p)
        for T in random_matrices(40, seed=2):
            assert op_norm(T, e).norm <= riesz_thorin_bound(T, e) + 1e-10


class TestOpNormProperties:
    @pytest.mark.parametrize("p", [1.001, 1.01, 1.2, 1.7, 3.0, 6.0])
    def test_transpose_duality(self, p):
        e = make_exponent(p)
        eq = make_exponent(e.q)
        for T in random_matrices(15, seed=8):
            assert op_norm(T, e).norm == pytest.approx(op_norm(T.transpose(), eq).norm, abs=1e-9)

    @pytest.mark.parametrize("p", [1.3, 2.5])
    def test_swap_conjugation_invariance(self, p):
        e = make_exponent(p)
        for T in random_matrices(15, seed=9):
            assert op_norm(conjugate_by_swap(T), e).norm == pytest.approx(
                op_norm(T, e).norm, abs=1e-9
            )

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=1.05, max_value=9.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneity(self, lam, p):
        e = make_exponent(p)
        T = Mat2(3.0, -1.0, 2.0, 0.5)
        base = op_norm(T, e).norm
        assert op_norm(T.scaled(lam), e).norm == pytest.approx(lam * base, rel=1e-12)

    def test_near_one_limit_matches_column_norm(self):
        e = make_exponent(1.000001)
        for T in random_matrices(10, seed=4):
            assert abs(op_norm(T, e).norm - norm_1(T)) <= 1e-4


# p near 1, so that the conjugate exponent q runs from 3 up to 10^4
_p_near_one = st.floats(min_value=1.0001, max_value=1.5)
_entry = st.tuples(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)), st.booleans()).map(
    lambda mb: -mb[0] if mb[1] else mb[0]
)
_operator = st.builds(Mat2, _entry, _entry, _entry, _entry)


class TestOpNormSymmetry:
    """The isometries of l_p^2 (the signed permutations) and duality, at p and at q."""

    @given(_operator, _p_near_one)
    @settings(max_examples=60, deadline=None)
    def test_diagonal_sign_flips_are_bit_exact(self, T, p):
        # diag(s1, s2) T diag(s1, s2)^-1 flips the signs of b and c, or of
        # nothing; on the chart that is the other sign, negated exactly
        e = make_exponent(p)
        for ex in (e, make_exponent(e.q)):
            n = op_norm(T, ex).norm
            for s1, s2 in ((1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
                assert op_norm(Mat2(T.a, s1 * s2 * T.b, s2 * s1 * T.c, T.d), ex).norm == n

    @given(_operator, _p_near_one)
    @settings(max_examples=60, deadline=None)
    def test_swap_within_1e_15(self, T, p):
        # The swap conjugate's value at t is T's at 1 - t.  The chart maps
        # t and 1 - t to swapped points on the uniform grid points, but not on
        # the end-cell points near t = 1 (1 - g is rounded) nor on refinement
        # blocks, so the two searches can end a few ulps apart.
        e = make_exponent(p)
        for ex in (e, make_exponent(e.q)):
            n = op_norm(T, ex).norm
            for sign in (1.0, -1.0):
                C = conjugate_by_swap(Mat2(T.a, sign * T.b, sign * T.c, T.d))
                assert abs(op_norm(C, ex).norm - n) <= 1e-15 * n

    @given(_operator, _p_near_one)
    @settings(max_examples=60, deadline=None)
    def test_transpose_duality_within_1e_12(self, T, p):
        # ||T||_p = ||T^t||_q: the adjoint of T on l_p^2 is T^t on l_q^2.  The
        # two searches share no point; near p = 1 the maximum can sit inside
        # an end cell with a large curvature, where a bracket within tol of
        # the argmax is up to about 1e-13 (relative) below the peak: 7e-14
        # was seen at p near 1.04 with a zero entry.
        e = make_exponent(p)
        n, nq = op_norm(T, e).norm, op_norm(T.transpose(), make_exponent(e.q)).norm
        assert abs(n - nq) <= 1e-12 * max(n, nq)


def _three_power_pair(u, v, p):
    """(|u|^p + |v|^p)^(1/p) with both ratios' powers summed, as before the 1.0 shortcut."""
    au = np.abs(u)
    av = np.abs(v)
    m = np.maximum(au, av)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = m * ((au / m) ** p + (av / m) ** p) ** (1.0 / p)
    return np.where(m > 0.0, r, 0.0)


_magnitude = st.one_of(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # zero and subnormals
    st.floats(min_value=1e-301, max_value=1e-299),
    st.floats(min_value=1e299, max_value=1e301),
    st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e300, 1e306]),
)
_signed = st.tuples(_magnitude, st.booleans()).map(lambda mb: -mb[0] if mb[1] else mb[0])
# about one pair in four has equal magnitudes
_pair = st.one_of(
    st.tuples(_signed, _signed),
    st.tuples(_signed, st.booleans()).map(lambda xb: (xb[0], -xb[0] if xb[1] else xb[0])),
)
_exponent = st.one_of(
    st.floats(min_value=1.0, max_value=1000.0, exclude_min=True),
    st.sampled_from([1.0 + 1e-12, 1.2, 1.5, 2.0, 3.0, 6.0, 1000.0]),
)


class TestLpPair:
    @given(st.lists(_pair, min_size=1, max_size=64), _exponent)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_three_powers(self, pairs, p):
        u, v = np.array(pairs).T
        got = np.asarray(lp_pair(u, v, p), dtype=np.float64)
        ref = np.asarray(_three_power_pair(u, v, p), dtype=np.float64)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))
