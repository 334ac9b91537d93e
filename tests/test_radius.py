import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpindex import (
    Mat2,
    compute_mp,
    conjugate_by_swap,
    make_exponent,
    maximize_1d,
    numerical_radius,
    op_norm,
    radius,
    radius_oracle,
    riesz_thorin_bound,
)
from lpindex.norms import OpNormResult, Witness
from lpindex.radius import RadiusResult

ROTATION = Mat2(0, 1, -1, 0)

# Operators whose second branch is the larger by less than tol, where a pick
# through a tol band misreports the branch: at p = 4 the tiny one's (1.7697e-12
# against 1.5844e-12), and at p = 1.3 the near-tied one's, by one ulp.
BRANCH_PICKS = [
    Mat2(1, 2, -3, 0.5).scaled(1e-12),
    Mat2(-0.12427794367794265, 0.6015474443936419, 0.6015474444698166, -0.12427794377593915),
]


def random_matrices(n, seed=0):
    rng = np.random.default_rng(seed)
    return [Mat2(*row) for row in rng.uniform(-10.0, 10.0, size=(n, 4))]


entry = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


class TestConjugateBySwap:
    def test_formula(self):
        assert conjugate_by_swap(Mat2(1, 2, 3, 4)) == Mat2(4, 3, 2, 1)

    def test_identity_fixed(self):
        assert conjugate_by_swap(Mat2(1, 0, 0, 1)) == Mat2(1, 0, 0, 1)

    def test_rotation(self):
        assert conjugate_by_swap(ROTATION) == Mat2(0, -1, 1, 0)


class TestNumericalRadius:
    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0, 4.0])
    def test_identity(self, p):
        r = numerical_radius(Mat2(1, 0, 0, 1), make_exponent(p))
        assert r.value == pytest.approx(1.0, abs=1e-12)

    def test_rotation_reference_value(self):
        r = numerical_radius(ROTATION, make_exponent(1.16))
        assert r.value == pytest.approx(0.558064, abs=1e-5)
        assert 0.0 <= r.t_star <= 1.0

    def test_rotation_vanishes_at_p2(self):
        assert numerical_radius(ROTATION, make_exponent(2.0)).value == 0.0

    def test_rotation_attains_critical_value(self):
        for p in (1.3, 3.0, 6.0):
            e = make_exponent(p)
            assert numerical_radius(ROTATION, e).value == pytest.approx(
                compute_mp(e).mp, abs=1e-12
            )

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            numerical_radius(ROTATION, make_exponent(1.5), tol=-1.0)

    @pytest.mark.parametrize("p", [1.2, 1.3, 1.7, 4.0])
    def test_reports_evaluations_and_halfwidth(self, record_maximizer, p):
        calls = record_maximizer(radius)
        e = make_exponent(p)
        for T in random_matrices(20, seed=22) + [ROTATION, Mat2(0.0, 0.0, 0.0, 0.0)] + BRANCH_PICKS:
            calls.clear()
            r = numerical_radius(T, e)
            (r1, n1), (r2, n2) = calls
            assert r.evaluations == r1.evaluations + r2.evaluations == n1 + n2
            # every field comes from the kept call: the first with the larger value
            kept = r1 if r1.value >= r2.value else r2
            assert r.branch == ("first" if kept is r1 else "second")
            assert (r.value, r.t_star, r.halfwidth) == (kept.value, kept.argmax, kept.tol)
            assert 0.0 < r.halfwidth <= r.tol

    def test_attained_branch_reproducible(self):
        from lpindex.radius import branch_integrand

        for T in random_matrices(20, seed=21):
            e = make_exponent(1.7)
            r = numerical_radius(T, e)
            f = branch_integrand(T if r.branch == "first" else conjugate_by_swap(T), e)
            assert float(f(r.t_star)) == pytest.approx(r.value, abs=r.tol)


class TestOracle:
    def test_identity(self):
        assert radius_oracle(Mat2(1, 0, 0, 1), make_exponent(1.5)) == pytest.approx(
            1.0, abs=1e-10
        )

    @pytest.mark.parametrize("alpha,beta", [(2.0, -1.0), (-0.3, 0.7), (5.0, 5.0)])
    def test_diagonal(self, alpha, beta):
        # the supremum for diagonal operators is attained at a coordinate vector
        e = make_exponent(2.7)
        got = radius_oracle(Mat2(alpha, 0, 0, beta), e)
        assert got == pytest.approx(max(abs(alpha), abs(beta)), abs=1e-10)

    def test_rotation_matches_critical_value_at_p3(self):
        e = make_exponent(3.0)
        assert radius_oracle(ROTATION, e) == pytest.approx(compute_mp(e).mp, abs=1e-10)

    @pytest.mark.parametrize("p", [1.1, 1.2, 4.0 / 3.0, 1.5, 2.0, 3.0, 6.0, 10.0])
    def test_formula_agrees_with_oracle(self, p):
        # the full 10^3-matrix corpus runs in the acceptance suite
        e = make_exponent(p)
        for T in random_matrices(40, seed=17):
            v = numerical_radius(T, e).value
            o = radius_oracle(T, e)
            assert abs(v - o) <= 1e-7

    @pytest.mark.parametrize(
        "p,entries",
        [
            (
                4.0 / 3.0,
                (-0.5518220615869183, 0.008950902941888828, -1.4239017920428232, 5.894800825590547),
            ),
            (
                10.0,
                (-9.756545272715947, 2.1473376321321336, -6.964750855977324, 6.641073509616405),
            ),
            (
                1.1,
                (-1.4447120441843673, 0.00035317809758694807, -3.4559011403251905, -8.277395658815426),
            ),
        ],
    )
    def test_peaks_inside_an_end_cell(self, p, entries):
        # the maxima of these operators lie inside the first or last cell of
        # the 4096-point grid, or next to a broad lower mode
        e = make_exponent(p)
        T = Mat2(*entries)
        v = numerical_radius(T, e).value
        o = radius_oracle(T, e)
        n = op_norm(T, e).norm
        assert abs(v - o) <= 1e-7
        assert v <= n + 1e-10
        assert o <= n + 1e-10


class TestRadiusProperties:
    @pytest.mark.parametrize("p", [1.2, 2.0, 5.0])
    def test_dominated_by_op_norm(self, p):
        e = make_exponent(p)
        for T in random_matrices(30, seed=13):
            assert numerical_radius(T, e).value <= op_norm(T, e).norm + 1e-10

    @pytest.mark.parametrize("p", [1.3, 2.4, 7.0])
    def test_swap_conjugation_invariance(self, p):
        e = make_exponent(p)
        for T in random_matrices(25, seed=14):
            assert numerical_radius(conjugate_by_swap(T), e).value == pytest.approx(
                numerical_radius(T, e).value, abs=1e-9
            )

    @pytest.mark.parametrize("p", [1.001, 1.01, 1.25, 1.8, 3.5])
    def test_adjoint_invariance(self, p):
        e = make_exponent(p)
        eq = make_exponent(e.q)
        for T in random_matrices(25, seed=15):
            assert numerical_radius(T, e).value == pytest.approx(
                numerical_radius(T.transpose(), eq).value, abs=1e-9
            )

    @given(entry, entry, entry, entry, st.floats(min_value=1.05, max_value=8.0))
    @settings(max_examples=50, deadline=None)
    def test_sign_flattening_never_raises_radius(self, a, b, c, d, p):
        e = make_exponent(p)
        T = Mat2(a, b, c, d)
        flattened = Mat2(abs(a), abs(b), -abs(c), -abs(d))
        assert numerical_radius(flattened, e).value <= numerical_radius(T, e).value + 1e-9


# p near 1, so that the conjugate exponent q runs from 3 up to 10^4.  The
# draw stops at p = 3/2: toward p = 2 the radius of a rotation vanishes
# (v = M_p, and M_2 = 0), and no bound relative to the value holds there.
_p_near_one = st.floats(min_value=1.0001, max_value=1.5)
_entry = st.tuples(st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=10.0)), st.booleans()).map(
    lambda mb: -mb[0] if mb[1] else mb[0]
)
_operator = st.builds(Mat2, _entry, _entry, _entry, _entry)


def _signed_permutation_conjugates(T):
    """(k, P T P^-1) for the 8 signed permutations P = diag(s1, s2) S^k of l_p^2, S the swap."""
    for k, M in enumerate((T, conjugate_by_swap(T))):
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                yield k, Mat2(M.a, s1 * s2 * M.b, s2 * s1 * M.c, M.d)


class TestSymmetry:
    """The isometries of l_p^2 (p != 2) and duality, at p near 1 and at its large q."""

    @given(_operator, _p_near_one)
    @settings(max_examples=40, deadline=None)
    def test_isometry_invariance(self, T, p):
        # The closed form is bit-exact: the swap exchanges its two branches,
        # and the sign flips negate b t + c t^(p-1) exactly.  So is the
        # oracle under the sign flips, which exchange its two signs.  Its one
        # chart (sigma s, x2(s)) reads the arc right up to s = 1, where the
        # slope is infinite, and the swap moves the peak there: at q near
        # 10^4 the oracle is only good to about 6e-10 (relative; it is held
        # to the closed form by 1e-7), and its swap conjugate as well.
        e = make_exponent(p)
        for ex in (e, make_exponent(e.q)):
            v, o = numerical_radius(T, ex).value, radius_oracle(T, ex)
            for swaps, C in _signed_permutation_conjugates(T):
                assert numerical_radius(C, ex).value == v
                if swaps:
                    assert abs(radius_oracle(C, ex) - o) <= 1e-8 * o
                else:
                    assert radius_oracle(C, ex) == o

    @given(_operator, _p_near_one)
    @settings(max_examples=60, deadline=None)
    def test_transpose_duality_within_1e_12(self, T, p):
        # v_p(T) = v_q(T^t): the adjoint of T on l_p^2 is T^t on l_q^2.  As
        # for the norm, a peak inside an end cell near p = 1 leaves up to
        # about 1e-13 (relative) between the two searches: 5.7e-14 was seen.
        e = make_exponent(p)
        v, vq = numerical_radius(T, e).value, numerical_radius(T.transpose(), make_exponent(e.q)).value
        assert abs(v - vq) <= 1e-12 * max(v, vq)


EXTREME_MATRICES = [
    (1e306, Mat2(1.0, 1.0, 1.0, 1.0)),
    (1e300, Mat2(1.0, -3.0, 2.0, -1.0)),
    (-1e300, Mat2(0.0, 1.0, -1.0, 0.0)),
    (1e-300, Mat2(1.0, 2.0, -3.0, 0.5)),
    (1.0, Mat2(1e300, 1e-300, -1e-300, 1.0)),
]


class TestEdgeCases:
    @pytest.mark.parametrize("p", [1.0001, 1.3, 50.0, 1000.0])
    def test_zero_operator(self, p):
        e = make_exponent(p)
        Z = Mat2(0.0, 0.0, 0.0, 0.0)
        assert numerical_radius(Z, e).value == 0.0
        assert radius_oracle(Z, e) == 0.0
        assert op_norm(Z, e).norm == 0.0
        assert riesz_thorin_bound(Z, e) == 0.0

    # Tolerances are relative because the values run from 1e-300 to 1e306.  The
    # interpolation bound n1^(1/p) ninf^(1/q) loses about |ln n1| eps per power
    # (1.6e-13 at n1 = 2e306), so at 1e306 * ones and p = 1.0001 op_norm exceeds
    # it by 2e-14 relative, and the radius exceeds op_norm by one ulp there.
    @pytest.mark.parametrize("p", [1.0001, 1.3, 50.0, 1000.0])
    @pytest.mark.parametrize("scale, base", EXTREME_MATRICES)
    def test_extreme_entries(self, p, scale, base):
        e = make_exponent(p)
        T = base.scaled(scale)
        r, r0 = numerical_radius(T, e), numerical_radius(base, e)
        v = r.value
        n = op_norm(T, e).norm
        assert 0.0 < v <= n * (1.0 + 1e-14)
        assert n <= riesz_thorin_bound(T, e) * (1.0 + 1e-12)
        assert radius_oracle(T, e) == pytest.approx(v, rel=1e-10)
        # homogeneity survives the extreme scale, and so do the attained branch
        # and its maximizer
        assert v == pytest.approx(abs(scale) * r0.value, rel=1e-12)
        assert n == pytest.approx(abs(scale) * op_norm(base, e).norm, rel=1e-12)
        assert r.branch == r0.branch
        assert r.t_star == pytest.approx(r0.t_star, abs=1e-6)


# The radius layer as written before the grid powers were cached: every
# objective computes its own powers, and the l_p pair sums two ratio powers.
def _uncached_lp_pair(u, v, p):
    au = np.abs(u)
    av = np.abs(v)
    m = np.maximum(au, av)
    with np.errstate(invalid="ignore", divide="ignore"):
        r = m * ((au / m) ** p + (av / m) ** p) ** (1.0 / p)
    return np.where(m > 0.0, r, 0.0)


def _uncached_radius(T, e, tol=1e-10):
    def branch(M):
        a, b, c, d = M.as_tuple()
        p = e.p

        def f(t):
            tp = t**p
            return (np.abs(a + d * tp) + np.abs(b * t + c * t ** (p - 1.0))) / (1.0 + tp)

        return f

    r1 = maximize_1d(branch(T), tol)
    r2 = maximize_1d(branch(conjugate_by_swap(T)), tol)
    # the larger branch, the first on exact ties
    branch_name, r = ("second", r2) if r2.value > r1.value else ("first", r1)
    return RadiusResult(
        value=r.value,
        branch=branch_name,
        t_star=r.argmax,
        tol=tol,
        evaluations=r1.evaluations + r2.evaluations,
        halfwidth=r.tol,
    )


def _uncached_oracle(T, e):
    a, b, c, d = T.as_tuple()
    p = e.p

    def pairing(sig):
        def f(s):
            x1 = sig * s
            x2 = np.maximum(1.0 - s**p, 0.0) ** (1.0 / p)
            x1s = sig * s ** (p - 1.0)
            x2s = x2 ** (p - 1.0)
            return np.abs(x1s * (a * x1 + b * x2) + x2s * (c * x1 + d * x2))

        return f

    return max(maximize_1d(pairing(sig), 1e-12).value for sig in (1.0, -1.0))


def _uncached_op_norm(T, e, tol=1e-10):
    """op_norm on the quadrant chart switched at the diagonal, every power computed."""
    a, b, c, d = T.as_tuple()
    p = e.p
    scale = 2.0 ** (-1.0 / p)

    def chart(sign):
        def f(t):
            lower = t <= 0.5
            s = np.where(lower, 2.0 * t, 2.0 - 2.0 * t) * scale
            comp = np.maximum(1.0 - s**p, 0.0) ** (1.0 / p)
            x1 = np.where(lower, s, comp)
            x2 = sign * np.where(lower, comp, s)
            return _uncached_lp_pair(a * x1 + b * x2, c * x1 + d * x2, p)

        return f

    best = None
    evaluations = 0
    for sign in (1, -1):
        r = maximize_1d(chart(sign), tol)
        evaluations += r.evaluations
        if best is None or r.value > best[0].value:
            best = (r, sign)
    r, sign = best
    swapped = r.argmax > 0.5
    s = (2.0 - 2.0 * r.argmax if swapped else 2.0 * r.argmax) * scale
    # the arc on a one-element array, as the search evaluates it, not libm's pow
    comp = (np.maximum(1.0 - np.array([s]) ** p, 0.0) ** (1.0 / p)).item()
    x1, x2 = (comp, sign * s) if swapped else (s, sign * comp)
    witness = Witness(s=s, sign=sign, swapped=swapped, x1=x1, x2=x2)
    return OpNormResult(norm=r.value, witness=witness, tol=tol, evaluations=evaluations, halfwidth=r.tol)


def _four_chart_op_norm(T, e, tol=1e-10):
    """The operator norm as computed before the quadrant chart: two overlapping
    charts (s, sign*x2(s)) and (x2(s), sign*s) on s in [0, 1], both signs."""
    a, b, c, d = T.as_tuple()
    p = e.p

    def chart(sign, swapped):
        def f(s):
            comp = np.maximum(1.0 - s**p, 0.0) ** (1.0 / p)
            x1, x2 = (comp, sign * s) if swapped else (s, sign * comp)
            return _uncached_lp_pair(a * x1 + b * x2, c * x1 + d * x2, p)

        return f

    return max(maximize_1d(chart(sign, swapped), tol).value for swapped in (False, True) for sign in (1, -1))


CORPUS_PS = (1.1, 1.2, 4.0 / 3.0, 1.5, 2.0, 3.0, 6.0, 10.0)


def _structured_matrices(rng):
    """A scaled rotation, a diagonal and a rank-one operator."""
    theta, s = rng.uniform(0.0, 2.0 * np.pi), rng.uniform(0.1, 10.0)
    u, v = rng.uniform(-3.0, 3.0, (2, 2))
    return [
        Mat2(s * np.cos(theta), -s * np.sin(theta), s * np.sin(theta), s * np.cos(theta)),
        Mat2(rng.uniform(-10.0, 10.0), 0.0, 0.0, rng.uniform(-10.0, 10.0)),
        Mat2(u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1]),
    ]


def _assert_matches_uncached(T, e):
    assert numerical_radius(T, e) == _uncached_radius(T, e)
    assert radius_oracle(T, e) == _uncached_oracle(T, e)
    assert op_norm(T, e) == _uncached_op_norm(T, e)


def _corpus(p):
    rng = np.random.default_rng(int(p * 1000))
    corpus = random_matrices(30, seed=int(p * 1000)) + _structured_matrices(rng)
    return corpus + [Mat2(0.0, 0.0, 0.0, 0.0), ROTATION]


def _edge_cases():
    return [Mat2(0.0, 0.0, 0.0, 0.0)] + [base.scaled(scale) for scale, base in EXTREME_MATRICES]


EDGE_PS = (1.0001, 1.3, 50.0, 1000.0)


class TestCachedGridPowers:
    """The cached grid powers and the two-power l_p pair move no result bit."""

    @pytest.mark.parametrize("p", CORPUS_PS)
    def test_corpus(self, p):
        e = make_exponent(p)
        for T in _corpus(p):
            _assert_matches_uncached(T, e)

    @pytest.mark.parametrize("p", EDGE_PS)
    def test_edge_cases(self, p):
        e = make_exponent(p)
        for T in _edge_cases():
            _assert_matches_uncached(T, e)


class TestQuadrantChart:
    """op_norm on the one quadrant chart stays within 1e-13 of the two overlapping charts."""

    @staticmethod
    def _assert_close(T, e):
        n, ref = op_norm(T, e).norm, _four_chart_op_norm(T, e)
        assert abs(n - ref) <= 1e-13 * ref

    @pytest.mark.parametrize("p", CORPUS_PS)
    def test_corpus(self, p):
        e = make_exponent(p)
        for T in _corpus(p):
            self._assert_close(T, e)

    @pytest.mark.parametrize("p", EDGE_PS)
    def test_edge_cases(self, p):
        e = make_exponent(p)
        for T in _edge_cases():
            self._assert_close(T, e)
