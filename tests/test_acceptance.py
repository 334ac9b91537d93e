"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run as:  pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
import pytest

from lpindex import (
    Mat2,
    SignPatternOp,
    alpha_ratio,
    compute_mp,
    conjugate_by_swap,
    estimate_index,
    lemma21_bounds,
    make_exponent,
    numerical_radius,
    op_norm,
    radius_oracle,
    remark_counterexample,
    riesz_thorin_bound,
    verify_claim_region,
)

THEOREM_PS = (1.2, 1.3, 1.5, 2.0, 3.0, 4.0, 6.0)
CORPUS_PS = (1.1, 1.2, 4.0 / 3.0, 1.5, 2.0, 3.0, 6.0, 10.0)
ROTATION = Mat2(0, 1, -1, 0)


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def theorem_estimates():
    """64-start index estimates over the theorem p-set, shared by criteria 2 and 8."""
    t0 = time.perf_counter()
    out = {}
    for p in THEOREM_PS:
        e = make_exponent(p)
        out[p] = estimate_index(e, starts=64, seed=0)
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_corpus():
    """10^3 random matrices x 8 exponents, shared by criteria 4 and 5."""
    rng = np.random.default_rng(20220427)
    mats = [Mat2(*row) for row in rng.uniform(-10.0, 10.0, size=(1000, 4))]
    t0 = time.perf_counter()
    rows = []
    for p in CORPUS_PS:
        e = make_exponent(p)
        for T in mats:
            v = numerical_radius(T, e).value
            o = radius_oracle(T, e)
            n = op_norm(T, e).norm
            rt = riesz_thorin_bound(T, e)
            rows.append((v, o, n, rt))
    arr = np.array(rows)
    return arr, time.perf_counter() - t0


def test_criterion_1_remark_reproduction():
    t_begin = time.perf_counter()
    rec = remark_counterexample(1.16)
    elapsed = time.perf_counter() - t_begin
    ok = (
        abs(rec.t0 - 0.073924) <= 1e-5
        and abs(rec.mp - 0.558064) <= 1e-5
        and abs(rec.ratio - 0.557895) <= 1e-5
        and rec.ratio < rec.mp
        and elapsed < 1.0
    )
    assert report(
        1,
        ok,
        f"t0={rec.t0:.6f} mp={rec.mp:.6f} ratio={rec.ratio:.6f} "
        f"below={rec.is_below} runtime={elapsed:.3f}s",
    )


def test_criterion_2_theorem_reproduction(theorem_estimates):
    estimates, elapsed = theorem_estimates
    worst = 0.0
    ok = elapsed < 60.0
    for p, est in estimates.items():
        if p == 2.0:
            ok &= abs(est.value) <= 1e-6 and est.mp == 0.0
        else:
            ok &= est.mp - 1e-3 <= est.value <= est.mp + 1e-6
        worst = max(worst, abs(est.gap))
    assert report(2, ok, f"max |estimate - mp| = {worst:.2e} over {len(estimates)} p, "
                         f"runtime={elapsed:.1f}s (64 starts)")


def test_criterion_3_bracket_certificate():
    t_begin = time.perf_counter()
    worst_margin = np.inf
    ok = True
    for p in np.linspace(1.2, 1.5, 10**4):
        rep = lemma21_bounds(make_exponent(float(p)))
        ok &= rep.all_hold and rep.margin > 1e-9
        worst_margin = min(worst_margin, rep.margin)
    elapsed = time.perf_counter() - t_begin
    ok &= elapsed < 30.0
    assert report(3, ok, f"10^4 p-values, min margin={worst_margin:.3e}, runtime={elapsed:.1f}s")


def test_criterion_4_oracle_equivalence(random_corpus):
    arr, elapsed = random_corpus
    v, o, n = arr[:, 0], arr[:, 1], arr[:, 2]
    worst_diff = float(np.max(np.abs(v - o)))
    worst_excess = float(np.max(v - n))
    ok = worst_diff <= 1e-7 and worst_excess <= 1e-10 and elapsed < 60.0
    assert report(
        4,
        ok,
        f"max |radius - oracle|={worst_diff:.2e}, max radius-opnorm={worst_excess:.2e}, "
        f"runtime={elapsed:.1f}s over 8000 cases",
    )


def test_criterion_5_interpolation_bound(random_corpus):
    arr, _ = random_corpus
    n, rt = arr[:, 2], arr[:, 3]
    worst_excess = float(np.max(n - rt))
    ok = worst_excess <= 1e-10
    worst_eq = 0.0
    for p in CORPUS_PS:
        e = make_exponent(p)
        gap = abs(op_norm(ROTATION, e).norm - riesz_thorin_bound(ROTATION, e))
        worst_eq = max(worst_eq, gap)
    ok &= worst_eq <= 1e-9
    assert report(
        5,
        ok,
        f"max opnorm-bound={worst_excess:.2e}, rotation equality gap={worst_eq:.2e}",
    )


def test_criterion_6_symmetry_suite():
    rng = np.random.default_rng(7)

    worst_mp = 0.0
    ps = list(THEOREM_PS) + [float(x) for x in rng.uniform(1.05, 12.0, 30)]
    for p in ps:
        if abs(p - 2.0) < 1e-12:
            continue
        e = make_exponent(p)
        worst_mp = max(worst_mp, abs(compute_mp(e).mp - compute_mp(make_exponent(e.q)).mp))
    ok = worst_mp <= 1e-11

    worst_swap = 0.0
    worst_adj = 0.0
    mats = [Mat2(*row) for row in rng.uniform(-10.0, 10.0, size=(20, 4))]
    for p in (1.25, 1.7, 3.0):
        e = make_exponent(p)
        eq = make_exponent(e.q)
        for T in mats:
            v = numerical_radius(T, e).value
            worst_swap = max(worst_swap, abs(numerical_radius(conjugate_by_swap(T), e).value - v))
            worst_adj = max(worst_adj, abs(numerical_radius(T.transpose(), eq).value - v))
    ok &= worst_swap <= 1e-9 and worst_adj <= 1e-9

    ea = make_exponent(1.3)
    eb = make_exponent(ea.q)
    ia = estimate_index(ea, starts=64, seed=0)
    ib = estimate_index(eb, starts=64, seed=0)
    index_gap = abs(ia.value - ib.value)
    ok &= index_gap <= 5e-4

    assert report(
        6,
        ok,
        f"mp conj={worst_mp:.2e}, swap v={worst_swap:.2e}, adjoint v={worst_adj:.2e}, "
        f"index p<->q={index_gap:.2e}",
    )


def test_criterion_7_claim_region_battery():
    ok = True
    worst_gap = np.inf
    for p in np.linspace(1.2, 1.5, 50):
        e = make_exponent(float(p))
        for cid in (1, 2, 3):
            rep = verify_claim_region(cid, e)
            ok &= rep.holds
            worst_gap = min(worst_gap, rep.infimum_found - rep.target)

    # forced run outside the hypothesis: the breakdown matrix must violate the bound
    e = make_exponent(1.16)
    t0 = compute_mp(e).t0
    remark = SignPatternOp(0.0487295, 13.639181, 15.0, 1.0)
    remark_ratio = alpha_ratio(remark, e, t0)
    forced = verify_claim_region(3, e, force=True)
    ok &= not forced.holds
    ok &= forced.infimum_found < forced.target - 1e-7
    ok &= remark_ratio < forced.target          # the violation shows at the Remark matrix
    ok &= forced.infimum_found <= remark_ratio + 1e-9   # search found it (or deeper)

    assert report(
        7,
        ok,
        f"50-p battery min gap={worst_gap:.2e}; forced p=1.16: "
        f"inf={forced.infimum_found:.6f} < target={forced.target:.6f}, "
        f"remark ratio={remark_ratio:.6f}",
    )


def test_criterion_8_known_sandwich(theorem_estimates):
    estimates, _ = theorem_estimates
    ok = True
    worst_slack = np.inf
    for p, est in estimates.items():
        e = make_exponent(p)
        lower = max(2.0 ** (-1.0 / e.p), 2.0 ** (-1.0 / e.q)) * est.mp
        ok &= lower - 1e-6 <= est.value <= est.mp + 1e-6
        worst_slack = min(worst_slack, est.value - lower)
    assert report(8, ok, f"min estimate-lower_bound slack={worst_slack:.3e}")


def test_converged_flags(theorem_estimates):
    # at 64 starts the best three re-evaluated starts disagree at p = 1.2 only
    estimates, _ = theorem_estimates
    flags = {p: estimates[p].converged for p in (1.2, 1.3, 3.0, 6.0)}
    assert flags == {1.2: False, 1.3: True, 3.0: True, 6.0: True}


def test_dual_pairs_agree(theorem_estimates):
    # n(l_p^2) = n(l_q^2) and M_p = M_q: the searches at the dual pairs
    # (1.2, 6) and (1.5, 3) run separately and must agree to 10 tol
    estimates, _ = theorem_estimates
    for p, q in ((1.2, 6.0), (1.5, 3.0)):
        assert abs(estimates[p].value - estimates[q].value) <= 1e-9
        assert abs(estimates[p].mp - estimates[q].mp) <= 1e-15
