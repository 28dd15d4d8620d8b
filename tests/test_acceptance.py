"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All tolerances are pinned here; nothing is deferred to later
calibration.
"""

import math
import time

import mpmath
import numpy as np

from certlap import (
    approximate,
    audit_constants,
    empirical_limit_test,
    fluctuation_sweep,
    gaussian_tail_bound,
    gibbs_measure,
    integrate,
    maximum_drift_check,
    mgf_X,
    mgf_Y,
    sample,
    tail_integral,
    tilted_maximizer_check,
)

SWEEP = (25, 100, 400, 1600)


def announce(idx, ok, text):
    print(f"CRITERION {idx}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


def fit_slope(ns, ys):
    return float(np.polyfit(np.log(ns), np.log(ys), 1)[0])


def test_criterion_1_enclosure_soundness(specs, consts_cache):
    t0 = time.time()
    failures = []
    for name, spec in specs.items():
        c = consts_cache(name)
        for n in SWEEP:
            r = approximate(spec, c, n)
            o = integrate(spec, n, tol=1e-10)
            if not r.contains(o.value, slack=r.oracle_slack(o)):
                failures.append((name, n))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 60.0
    announce(
        1, ok,
        f"oracle inside every enclosure over {len(specs)} problems x {SWEEP} "
        f"({elapsed:.1f}s <= 60s); failures={failures}",
    )


def test_criterion_2_closed_form_exactness(specs, consts_cache):
    spec, c = specs["exp1d"], consts_cache("exp1d")
    ok = True
    detail = []
    for n in SWEEP:
        # enough digits for exp(-N) to register against 1
        with mpmath.workdps(int(n * 0.4343) + 50):
            r = approximate(spec, c, n)
            # the leading-term inputs (f(x*) = 0, g(x*) = 1, |f'| = 1) are
            # exact floats here, so the formula value is exactly 1/N
            ok &= r.leading == 1.0 / n
            exact = (1 - mpmath.e ** (-n)) / n
            err = abs(exact - mpmath.mpf(1) / n)
            target = mpmath.e ** (-n) / n
            rel = abs(err - target) / target
            ok &= rel <= mpmath.mpf("1e-10")
            ok &= float(err) <= r.remainder_magnitude
            detail.append(f"N={n}: |err - exp(-N)/N| rel {float(rel):.1e}")
    announce(2, ok, "exp1d absolute error equals exp(-N)/N; " + "; ".join(detail))


def test_criterion_3_rate_recovery(specs, consts_cache):
    slopes = {}
    for name in ("cubic1d", "tilt2d"):
        rels = [
            approximate(specs[name], consts_cache(name), n).relative_remainder
            for n in SWEEP
        ]
        slopes[name] = fit_slope(SWEEP, rels)
    ok = all(-0.7 <= s <= -0.3 for s in slopes.values())
    announce(
        3, ok,
        "certified relative-remainder slope -0.5 +/- 0.2: "
        + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items()),
    )


def test_criterion_4_tail_lemma_dominance():
    rng = np.random.default_rng(2718281828)
    worst = math.inf
    ok = True
    for _ in range(50):
        m = int(rng.integers(1, 4))
        k = int(rng.integers(0, 4))
        a = float(rng.uniform(0.5, 4.0))
        N = int(rng.integers(1, 10_001))
        R = float(rng.uniform(0.2, 2.0))
        bound = gaussian_tail_bound(m, k, a, N, R)
        true = tail_integral(m, k, a, N, R, tol=1e-11).value
        if true > 0:
            worst = min(worst, bound / true)
        ok &= bound >= true * (1 - 1e-9)
    announce(4, ok, f"tail bound dominates 50 random oracle tails (min ratio {worst:.3f})")


def test_criterion_5_lln(specs):
    # part (a): eps == 0, decay factor <= 0.6 per 16x in N
    res = {}
    for n in (100, 400, 1600):
        meas = gibbs_measure(specs["gauss1d"], n, tol=1e-12)
        res[n] = mgf_X(meas, [0.5]).residual
    factor = res[1600] / res[100]
    ok = factor <= 0.6 and res[400] <= res[100] and res[1600] <= res[400]
    # part (b): eps = N^{-3/4}, sigma = x: residual tracks
    # max(1/sqrt(N), eps(N)) with a stable ratio (span <= 3)
    ratios = []
    for n in (100, 400, 1600):
        meas = gibbs_measure(specs["eps1d"], n, tol=1e-12)
        r = mgf_X(meas, [0.5])
        ratios.append(r.residual / r.expected_decay)
    span = max(ratios) / min(ratios)
    ok &= span <= 3.0
    announce(
        5, ok,
        f"gauss1d residual x{factor:.3f} per 16x N (<= 0.6); "
        f"eps1d residual/expected ratio span {span:.2f} (<= 3)",
    )


def test_criterion_6_fluctuations_interior(specs, consts_cache):
    spec = specs["gauss1d"]
    meas = gibbs_measure(spec, 400, tol=1e-12)
    rep = mgf_Y(meas, [1.0])
    mgf_ok = abs(rep.mgf_value - math.exp(0.5)) <= 0.06
    batch = sample(meas, 100_000, seed=20240, consts=consts_cache("gauss1d"))
    ks = empirical_limit_test(batch)
    ks_ok = ks["max_ks"] <= 0.02
    announce(
        6, mgf_ok and ks_ok,
        f"gauss1d N=400: |mgf_Y(1) - e^0.5| = {abs(rep.mgf_value - math.exp(0.5)):.2e} "
        f"(<= 0.06), whitened-normal KS = {ks['max_ks']:.4f} (<= 0.02)",
    )


def test_criterion_7_fluctuations_boundary(specs, consts_cache):
    spec = specs["exp1d"]
    meas = gibbs_measure(spec, 400, tol=1e-12)
    rep = mgf_Y(meas, [0.5])
    mgf_ok = abs(rep.mgf_value - 2.0) <= 0.06
    batch = sample(meas, 100_000, seed=20241, consts=consts_cache("exp1d"))
    ks = empirical_limit_test(batch)
    exp_ok = ks["marginals"][0]["law"] == "exponential" and ks["max_ks"] <= 0.02

    spec2 = specs["mixed2d"]
    meas2 = gibbs_measure(spec2, 400, tol=1e-11)
    batch2 = sample(meas2, 100_000, seed=20242, consts=consts_cache("mixed2d"))
    ks2 = empirical_limit_test(batch2)
    tangent = [mm["ks"] for mm in ks2["marginals"] if mm["law"] == "normal"]
    tangent_ok = bool(tangent) and max(tangent) <= 0.02
    announce(
        7, mgf_ok and exp_ok and tangent_ok,
        f"exp1d N=400: |mgf_Y(0.5) - 2| = {abs(rep.mgf_value - 2.0):.2e} (<= 0.06), "
        f"Exp(1) KS = {ks['max_ks']:.4f}; mixed2d tangent normal KS = "
        f"{max(tangent):.4f} (<= 0.02)",
    )


def test_criterion_8_maximizer_drift(specs, consts_cache):
    spec, c = specs["drift1d"], consts_cache("drift1d")
    rows = maximum_drift_check(spec, c, SWEEP)
    exact_ok = all(abs(row["drift"] - 1.0 / row["N"]) <= 1e-8 for row in rows)
    bound_ok = all(row["ok"] for row in rows)
    announce(
        8, exact_ok and bound_ok,
        "drift1d: x*(N) = 1/N to 1e-8 and |x*(N) - x*| <= eps |Dsigma| / F2' "
        f"on {SWEEP}",
    )


def test_criterion_9_tilted_estimates(specs):
    rows = tilted_maximizer_check(specs["gauss1d"], [1.0], SWEEP)
    exact_ok = all(row["stat_drift"] / row["N"] <= 1e-8 for row in rows)
    rows_q = tilted_maximizer_check(specs["quartic1d"], [1.0], SWEEP)
    first = rows_q[0]
    bounded_ok = all(
        row[k] <= 3.0 * first[k] + 1e-9
        for row in rows_q
        for k in ("stat_drift", "stat_value", "stat_det")
    )
    announce(
        9, exact_ok and bounded_ok,
        "gauss1d tilted-maximizer drift exact to 1e-8; quartic1d scaled "
        "statistics stay within 3x of their smallest-N values",
    )


def test_criterion_10_hypothesis_violation_detection(specs):
    out = fluctuation_sweep(specs["viol1d"], (25, 100, 400), [1.0], tol=1e-10)
    ok = out["flagged"] and out["residual_nondecaying"]
    announce(
        10, ok,
        f"eps = N^(-1/4): fluctuation residuals {['%.3g' % r for r in out['residuals']]} "
        "non-decaying and flagged",
    )


def test_criterion_11_constants_soundness(specs, consts_cache):
    failures = []
    for name, spec in specs.items():
        rep = consts_cache(name, grid_res=64)
        audit = audit_constants(spec, rep, seed=11)
        if not audit["ok"]:
            failures.append((name, audit["failures"]))
    announce(
        11, not failures,
        f"1000-point audits pass for all {len(specs)} catalog problems at "
        f"grid_res 64; failures={failures}",
    )
