"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run `pytest tests/test_acceptance.py -v -s` to see the lines.  Numeric
tolerances and runtime budgets are asserted as part of each criterion.
"""

import math
import random
import time
from fractions import Fraction

from _farey import farey_neighbor_pairs
from levycf import (
    Alphabet,
    Morphism,
    QuadPeriod,
    SlopeCF,
    christoffel,
    complexity,
    complexity_window,
    continuant,
    f_irrational,
    invert_f,
    letter_levy,
    levy_empirical,
    levy_quadratic,
    log_big,
    mechanical_lower,
    morphic_levy,
    rn_family,
    slope_point,
    standard_factorization,
    standard_words,
    sturmian_prefix,
    tail_spread,
    trace,
    trace_poly,
    xi_oscillation,
    xi_word,
)
from levycf.levy import _mu_root, levy_from_trace, mu_mean

AB12 = Alphabet(1, 2)
GOLDEN = SlopeCF((), repeat=(1,))


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_golden_ratio_anchor():
    start = time.perf_counter()
    exact = levy_quadratic(QuadPeriod((1,))).value
    anchor = math.log((1 + math.sqrt(5)) / 2)
    est = levy_empirical([1] * 1001, 1000, method="logq", period=1)
    elapsed = time.perf_counter() - start
    ok = abs(exact - anchor) < 1e-12 and abs(est.value - exact) < 1e-10 and elapsed < 0.1
    report(
        1,
        ok,
        f"quadratic vs log golden ratio diff={abs(exact - anchor):.2e} (<1e-12), "
        f"difference-form at n=1e3 diff={abs(est.value - exact):.2e} (<1e-10), "
        f"runtime={elapsed:.3f}s (<0.1s)",
    )


def test_criterion_02_x_half_is_geometric_mean():
    worst = 0.0
    for a, b in [(1, 2), (1, 3), (2, 3)]:
        x = slope_point(Fraction(1, 2), Alphabet(a, b)).x_value
        worst = max(worst, abs(x - math.sqrt(a * b)))
    report(2, worst < 1e-12, f"max |x_1/2 - sqrt(ab)| over three alphabets = {worst:.2e} (<1e-12)")


def test_criterion_03_christoffel_table_and_factorization():
    words_ok = (
        christoffel(Fraction(0, 1), AB12) == (1,)
        and christoffel(Fraction(1, 1), AB12) == (2,)
        and christoffel(Fraction(1, 2), AB12) == (1, 2)
        and christoffel(Fraction(1, 3), AB12) == (1, 1, 2)
        and christoffel(Fraction(2, 5), AB12) == (1, 1, 2, 1, 2)
    )
    fact_ok = (
        standard_factorization(Fraction(1, 2), AB12) == ((1,), (2,))
        and standard_factorization(Fraction(1, 3), AB12) == ((1,), (1, 2))
        and standard_factorization(Fraction(2, 5), AB12) == ((1, 1, 2), (1, 2))
    )
    report(3, words_ok and fact_ok, f"word table exact: {words_ok}, standard factorization exact: {fact_ok}")


def test_criterion_04_trace_factorization_example():
    start = time.perf_counter()
    ok = True
    for a in range(1, 5):
        for b in range(a + 1, 6):
            ab = Alphabet(a, b)
            t27 = trace(christoffel(Fraction(2, 7), ab))
            t14 = trace(christoffel(Fraction(1, 4), ab))
            t13 = trace(christoffel(Fraction(1, 3), ab))
            t01 = trace(christoffel(Fraction(0, 1), ab))
            ok = ok and t27 == t14 * t13 + t01
    ab12_vals = (
        trace(christoffel(Fraction(2, 7), AB12)),
        trace(christoffel(Fraction(1, 4), AB12)),
        trace(christoffel(Fraction(1, 3), AB12)),
    )
    ok = ok and ab12_vals == (61, 10, 6)
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 0.1, f"identity exact for all 1<=a<b<=5, (1,2) gives 61=10*6+1, runtime={elapsed:.3f}s (<0.1s)")


def test_criterion_05_trace_identity_suite():
    start = time.perf_counter()
    checked = 0
    ok = True
    for a, b in [(1, 2), (1, 3), (2, 5)]:
        ab = Alphabet(a, b)
        for lo, hi in farey_neighbor_pairs(40):
            big, small = (lo, hi) if lo.denominator >= hi.denominator else (hi, lo)
            med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
            t_med = trace(christoffel(med, ab))
            t_big = trace(christoffel(big, ab))
            t_small = trace(christoffel(small, ab))
            dq = big.denominator - small.denominator
            t_diff = 2 if dq == 0 else trace(christoffel(Fraction(big.numerator - small.numerator, dq), ab))
            ok = ok and t_med == t_big * t_small - (-1) ** small.denominator * t_diff
            ok = ok and t_med >= t_big + 1
            checked += 1
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 5.0, f"{checked} neighbor pairs exact over three alphabets, runtime={elapsed:.2f}s (<5s)")


def test_criterion_06_monotonicity():
    start = time.perf_counter()
    fracs = sorted({Fraction(p, q) for q in range(1, 41) for p in range(q + 1)})
    points = [slope_point(fr, AB12) for fr in fracs]
    mono_f = all(u.f_value < v.f_value for u, v in zip(points, points[1:]))
    mono_x = all(u.x_value < v.x_value for u, v in zip(points, points[1:]))
    elapsed = time.perf_counter() - start
    report(
        6,
        mono_f and mono_x and elapsed < 2.0,
        f"f and x strictly increasing over {len(fracs)} fractions (q<=40), runtime={elapsed:.2f}s (<2s)",
    )


def test_criterion_07_convergent_error_bound():
    g = tail_spread(AB12)
    values, qs = {}, {}
    for k in range(1, 22):
        values[k] = f_irrational(GOLDEN, k, AB12)[0].value
        qs[k] = GOLDEN.convergent(k)[1]
    worst_margin = min(
        5 * g / qs[k] + 5 * g / qs[k + 1] - abs(values[k + 1] - values[k]) for k in range(1, 21)
    )
    report(7, worst_margin >= 0, f"|f_(k+1) - f_k| <= 5G/q_k + 5G/q_(k+1) for k<=20, min slack={worst_margin:.2e}")


def test_criterion_08_inversion_of_levy_of_almost_all_numbers():
    start = time.perf_counter()
    target = math.pi**2 / (12 * math.log(2))
    ab = Alphabet(1, 3)
    f0, f1 = letter_levy(1), letter_levy(3)
    res = invert_f(target, ab, 1e-8)
    elapsed = time.perf_counter() - start
    endpoints_ok = (
        abs(f0 - 0.4812118250596035) < 1e-12
        and abs(f1 - math.log((3 + math.sqrt(13)) / 2)) < 1e-12
        and f0 < target < f1
    )
    ok = res.width < 1e-8 and res.f_lower <= target <= res.f_upper and endpoints_ok and elapsed < 10.0
    report(
        8,
        ok,
        f"target={target:.10f} enclosed by slope {res.mediant} with width={res.width:.2e} (<1e-8), "
        f"endpoints 0.48121..<target<1.19476.., runtime={elapsed:.2f}s (<10s)",
    )


def test_criterion_09_xi_has_no_levy_constant():
    start = time.perf_counter()
    osc = xi_oscillation(AB12, 20)
    elapsed = time.perf_counter() - start
    u = dict(osc.points)
    parity_diffs = [abs(u[m] - u[m - 2]) for m in range(15, 21)]
    stabilized = max(parity_diffs) < 1e-2
    predicted_gap = abs(letter_levy(1) - letter_levy(2)) / 3
    gap_ok = abs(osc.gap - predicted_gap) < 1e-2
    report(
        9,
        stabilized and gap_ok and elapsed < 30.0,
        f"same-parity diffs < 1e-2 (max {max(parity_diffs):.1e}), gap={osc.gap:.5f} vs |La-Lb|/3={predicted_gap:.5f} "
        f"(diff {abs(osc.gap - predicted_gap):.1e} < 1e-2), runtime={elapsed:.2f}s (<30s)",
    )


def test_criterion_10_factor_continuant_ratio_bound():
    start = time.perf_counter()
    qs = []
    for k, p, q in GOLDEN.convergents():
        qs.append(q)
        if q > 60:
            break
    window = complexity_window(GOLDEN, 50) + 50
    w = sturmian_prefix(GOLDEN, window, AB12)
    ok = True
    pairs = 0
    for n in range(1, 51):
        k = max(j for j in range(len(qs)) if qs[j] <= n)
        bound_factor = 4**k * AB12.b
        ks = [continuant(f) for f in {w[i : i + n] for i in range(len(w) - n + 1)}]
        for km in ks:
            for kp in ks:
                ok = ok and AB12.a * km <= bound_factor * kp
                pairs += 1
    elapsed = time.perf_counter() - start
    report(
        10,
        ok and elapsed < 30.0,
        f"K(M) <= 4^k c K(M') exact over {pairs} ordered factor pairs (n<=50), runtime={elapsed:.2f}s (<30s)",
    )


def test_criterion_11_complexity():
    sturmian_ok = True
    for n in range(1, 51):
        window = complexity_window(GOLDEN, n)
        prefix = sturmian_prefix(GOLDEN, window, AB12)
        sturmian_ok = sturmian_ok and complexity(prefix, n) == n + 1
    xi = xi_word(AB12, 8192)
    xi_ok = all(2 * n <= complexity(xi, n) <= 3 * n for n in range(2, 31))
    report(11, sturmian_ok and xi_ok, f"Sturmian p(n)=n+1 for n<=50: {sturmian_ok}; xi 2n<=p(n)<=3n for n<=30: {xi_ok}")


def test_criterion_12_rational_approach_family():
    # Along r_n = (1+n)/(3+2n) the traces obey T_n = 4 T_{n-1} - T_{n-2} with
    # T_0 = 6, T_1 = 23, so q_n (f(r_n) - f(1/2)) -> c + O(lam^{-2n}) with
    # q_n = 3+2n, lam = 2+sqrt(3) and c = log(A) - (3/2) log(lam); see the
    # rn_family docstring.  The gap |x_{r_n} - x_{1/2}| thus falls like
    # 0.379/q_n, and the 1e-6 level applies to the scaled gap's distance from c.
    pts = rn_family(Fraction(1, 2), Fraction(1, 3), AB12, 12)
    t_half = trace(christoffel(Fraction(1, 2), AB12))
    # rn_family also raises if the big-integer recurrence fails
    recurrence_ok = t_half == 4 and pts[0].trace == 6 and pts[1].trace == 23
    for n in range(2, 13):
        recurrence_ok = recurrence_ok and pts[n].trace == t_half * pts[n - 1].trace - pts[n - 2].trace
    x_half = math.sqrt(2)
    gaps = [abs(pt.x_value - x_half) for pt in pts[1:]]
    decreasing = all(u > v for u, v in zip(gaps, gaps[1:]))
    # c in closed form from the exact integers t = 4, T_0 = 6, T_1 = 23.
    lam = (4 + math.sqrt(4 * 4 - 4)) / 2
    c = math.log((23 - 6 / lam) / (lam - 1 / lam)) - 1.5 * math.log(lam)
    scaled = (3 + 2 * 12) * (math.asinh(pts[12].x_value / 2) - math.asinh(x_half / 2))
    residual = abs(scaled - c)
    report(
        12,
        recurrence_ok and decreasing and residual < 1e-6,
        f"recurrence exact n<=12: {recurrence_ok}, |x_rn - x_1/2| strictly decreasing: {decreasing} "
        f"(|x_r12 - x_1/2|={gaps[-1]:.3e}), q_12 (f(r_12) - f(1/2))={scaled:.15f} vs c={c:.15f}, "
        f"residual {residual:.1e} (<1e-6)",
    )


def test_criterion_13_mu_route_equivalence():
    rng = random.Random(2024)
    worst_mu = 0.0
    worst_levy = 0.0
    for _ in range(100):
        w = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 13)))
        mu = mu_mean(w)
        worst_mu = max(worst_mu, abs(_mu_root(w, log_big(trace(w))) - mu) / max(1.0, mu))
        lv = levy_from_trace(trace(w), len(w))
        worst_levy = max(worst_levy, abs(math.log((mu + math.sqrt(mu * mu + 4)) / 2) - lv))
    ok = worst_mu < 1e-12 and worst_levy < 1e-12
    report(13, ok, f"mu route max diff={worst_mu:.2e} (<1e-12), log phi(mu) vs quadratic max diff={worst_levy:.2e} (<1e-12)")


def test_criterion_14_intercept_independence():
    n = 10**5
    estimates = []
    for rho in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
        letters = mechanical_lower(GOLDEN, rho, n, AB12)
        estimates.append(levy_empirical(letters, n, method="logq").value)
    spread = max(estimates) - min(estimates)
    report(14, spread < 5e-3, f"pairwise spread of intercept 0, 1/3, 1/2 estimates at n=1e5: {spread:.2e} (<5e-3)")


def test_criterion_15_quasi_sturmian_image():
    phi = Morphism(AB12, (1, 2), (3,))
    e1 = morphic_levy(phi, GOLDEN, 10**4).value
    e2 = morphic_levy(phi, GOLDEN, 2 * 10**4).value
    zero = morphic_levy(phi, GOLDEN, 10**4, intercept="zero").value
    slope = morphic_levy(phi, GOLDEN, 10**4, intercept="slope").value
    ok = abs(e1 - e2) < 1e-2 and abs(zero - slope) < 1e-2
    report(
        15,
        ok,
        f"estimates n=1e4 vs 2e4 differ {abs(e1 - e2):.2e} (<1e-2), intercepts differ {abs(zero - slope):.2e} (<1e-2)",
    )
