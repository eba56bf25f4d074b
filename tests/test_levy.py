import itertools
import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _exact import assert_close, exact_log_ratio, product
from _farey import farey_neighbor_pairs
from levycf import (
    Alphabet,
    IDENTITY,
    InvalidWordError,
    Mat2,
    Morphism,
    NoConvergenceError,
    QuadPeriod,
    SlopeCF,
    InvertResult,
    InsufficientDigitsError,
    TargetOutOfRangeError,
    TruncatedStreamError,
    cf_matrix,
    christoffel,
    continuant,
    curve_qmax,
    f_irrational,
    farey_count,
    farey_points,
    fraction_cf,
    invert_f,
    letter_levy,
    levy_empirical,
    levy_quadratic,
    log_big,
    mediant_trace,
    morphic_levy,
    mu_mean,
    rn_family,
    slope_point,
    stern_brocot_parents,
    sturmian_birkhoff,
    sturmian_logq,
    sturmian_prefix,
    tail_spread,
    trace,
    trace_poly,
    xi_oscillation,
)
import levycf.continuants
import levycf.levy
from levycf import _kernels
from levycf.continuants import BoundedInt
from levycf.errors import TraceRangeError
from levycf.levy import TAIL_DEPTH_MAX, _mu_root, levy_from_trace
from levycf.words import sturmian_letters, xi_blocks

AB = Alphabet(1, 2)
GOLDEN = SlopeCF((), repeat=(1,))


def phi(x):
    return (x + math.sqrt(x * x + 4)) / 2


def close_rel(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestLevyQuadratic:
    def test_single_letter_periods(self):
        for a in range(1, 6):
            got = levy_quadratic(QuadPeriod((a,))).value
            assert abs(got - math.log(phi(a))) < 1e-14
        assert abs(levy_quadratic(QuadPeriod((1,))).value - 0.4812118250596035) < 1e-12

    def test_two_letter_period(self):
        # log((sqrt(ab) + sqrt(ab+4))/2), the s = 2 closed form
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            want = math.log((math.sqrt(a * b) + math.sqrt(a * b + 4)) / 2)
            assert abs(levy_quadratic(QuadPeriod((a, b))).value - want) < 1e-13

    def test_preperiod_does_not_matter(self):
        base = levy_quadratic(QuadPeriod((1, 2))).value
        for pre in [(), (2,), (2, 2, 1)]:
            assert abs(levy_quadratic(QuadPeriod((1, 2), preperiod=pre)).value - base) < 1e-12

    def test_huge_trace_is_stable(self):
        # a long period exercises the big-integer log path
        w = tuple(1 if i % 3 else 2 for i in range(5000))
        value = levy_quadratic(QuadPeriod(w)).value
        assert letter_levy(1) < value < letter_levy(2)

    def test_method_tag(self):
        res = levy_quadratic(QuadPeriod((1, 2)))
        assert res.method == "quadratic-exact"
        assert res.error_bound is None


def _levy_from_trace_in_full(t, s):
    # levy_from_trace's formula without its early exit
    lt = log_big(t)
    u4 = 4.0 * math.exp(-2.0 * lt)
    if s % 2 == 0:
        u4 = -u4
    return (lt + math.log1p((math.sqrt(1.0 + u4) - 1.0) / 2.0)) / s


class TestLevyFromTraceEarlyExit:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(bits=st.integers(30, 3000), seed=st.integers(0, 2**32), s=st.integers(1, 10**6))
    def test_bit_for_bit_against_the_full_formula(self, bits, seed, s):
        # traces from about e^20 up, so both sides of the exit at log t = 27 are drawn
        t = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
        want = _levy_from_trace_in_full(t, s)
        assert levy_from_trace(t, s) == want
        held = BoundedInt.of(t, 128)
        try:
            assert levy_from_trace(held, s) == want
        except levycf.continuants._Unsettled:
            pass  # the bound does not fix the top bits read; the callers then rerun on exact ints

    def test_at_the_exit(self):
        # the largest traces that take the formula, and the smallest that exit, at both parities of s
        edge = math.ceil(math.exp(27.0))
        for t in range(edge - 3, edge + 3):
            for s in (1, 2, 3, 4, 10**6 + 1):
                assert levy_from_trace(t, s) == _levy_from_trace_in_full(t, s), (t, s)


class TestTracePoly:
    def test_constant_term(self):
        for x in (0.5, 1.0, 3.7):
            assert trace_poly(0, x) == 2.0

    def test_lucas_numbers(self):
        assert [trace_poly(n, 1.0) for n in range(1, 6)] == [1.0, 3.0, 4.0, 7.0, 11.0]

    def test_power_sum_instance(self):
        # T_5(1) = T_3(1) T_2(1) - T_1(1)
        assert trace_poly(5, 1.0) == trace_poly(3, 1.0) * trace_poly(2, 1.0) - trace_poly(1, 1.0)

    def test_recursion_matches_closed_form(self):
        for x in (1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
            g = phi(x)
            for n in range(0, 201):
                closed = g**n + (-1.0 / g) ** n
                if closed > 1e300:  # float saturation, nothing left to compare
                    break
                assert close_rel(trace_poly(n, x), closed, 1e-9)

    def test_domain(self):
        with pytest.raises(ValueError):
            trace_poly(3, 0.0)
        with pytest.raises(ValueError):
            trace_poly(-1, 1.0)


class TestIntegerTraceIdentity:
    def test_power_traces(self):
        # Tr(X^{q+q'}) = Tr(X^q) Tr(X^{q'}) - (-1)^{q'} Tr(X^{q-q'}), exactly
        for x in range(1, 6):
            m = cf_matrix((x,))
            powers = [cf_matrix(())]
            for _ in range(60):
                powers.append(powers[-1] @ m)
            tr = [p.trace for p in powers]
            for q in range(1, 31):
                for qp in range(1, q + 1):
                    assert tr[q + qp] == tr[q] * tr[qp] - (-1) ** qp * tr[q - qp]


class TestMuMean:
    def test_single_letter(self):
        for a in (1, 2, 5):
            assert abs(mu_mean((a,)) - a) < 1e-12

    def test_geometric_mean_for_pairs(self):
        assert abs(mu_mean((1, 2)) - math.sqrt(2)) < 1e-12
        assert abs(mu_mean((2, 3)) - math.sqrt(6)) < 1e-12

    def test_routes_agree_on_random_words(self):
        rng = random.Random(77)
        for _ in range(100):
            w = tuple(rng.randrange(1, 6) for _ in range(rng.randrange(1, 13)))
            mu = mu_mean(w)
            assert abs(_mu_root(w, log_big(trace(w))) - mu) < 1e-12 * max(1.0, mu)
            # log phi(mu) equals the quadratic Levy value
            assert abs(math.log(phi(mu)) - levy_from_trace(trace(w), len(w))) < 1e-12

    def test_cross_check_runs_past_overflowing_trace_poly(self):
        # T_2(mid) overflows to inf inside the bracket [1, 10^200]; the root is still found
        w = (1, 10**200)
        mu = QuadPeriod(w).mu
        assert abs(_mu_root(w, log_big(trace(w))) - mu) <= 1e-12 * mu

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(w=st.lists(st.integers(1, 10**6), min_size=1, max_size=30).map(tuple))
    def test_against_mpmath_root(self, w):
        # the root of T_n(x) = T(w) at 50 digits, found by mpmath on log T_n(x) - log T(w)
        with mpmath.workdps(50):
            n, lt = len(w), mpmath.log(trace(w))

            def log_t(x):
                t_prev, t = mpmath.mpf(2), x
                for _ in range(n - 1):
                    t_prev, t = t, x * t + t_prev
                return mpmath.log(t) - lt

            lo, hi = min(w), max(w)
            ref = mpmath.mpf(lo) if lo == hi else mpmath.findroot(log_t, (lo, hi), solver="anderson")
            assert abs(QuadPeriod(w).mu - ref) <= 1e-13 * ref
            assert abs(_mu_root(w, log_big(trace(w))) - ref) <= 1e-12 * ref

    def test_against_mpmath_past_float_traces(self):
        # periods of 1-30 letters of up to 400 digits, so most traces pass float range; the reference is
        # r - 1/r with r = lam^(1/s), lam = (t + sqrt(t^2 - (-1)^s 4))/2, at 60 digits.  mu = r - 1/r with
        # r = exp(L): exp turns L's absolute error, a few ulps of L, into the same relative error in r, so
        # the bound grows with L.  Over 1,200 such periods the worst error was 2.28 (L + 1) 2^-53.
        rng = random.Random(29)
        fits = 0
        for _ in range(400):
            s = rng.randrange(1, 31)
            w = tuple(rng.randrange(1, 10 ** rng.randrange(1, 401)) for _ in range(s))
            t = trace(w)
            with mpmath.workdps(60):
                lam = (t + mpmath.sqrt(mpmath.mpf(t) ** 2 - (-1) ** s * 4)) / 2
                r = lam ** (mpmath.mpf(1) / s)
                ref, big_l = r - 1 / r, float(mpmath.log(r))
                if ref > sys.float_info.max:
                    with pytest.raises(OverflowError, match="^mu is past float range$"):
                        QuadPeriod(w).mu
                    continue
                assert abs(QuadPeriod(w).mu - ref) <= 4 * (big_l + 1) * 2**-53 * ref
            fits += 1
        assert fits > 350


class TestSlopePoint:
    def test_endpoints(self):
        for a, b in [(1, 2), (2, 5)]:
            ab = Alphabet(a, b)
            sp0 = slope_point(Fraction(0, 1), ab)
            sp1 = slope_point(Fraction(1, 1), ab)
            assert abs(sp0.x_value - a) < 1e-12
            assert abs(sp1.x_value - b) < 1e-12
            assert abs(sp0.f_value - math.log(phi(a))) < 1e-13

    def test_half_slope(self):
        for a, b in [(1, 2), (1, 3), (2, 3)]:
            sp = slope_point(Fraction(1, 2), Alphabet(a, b))
            assert abs(sp.x_value - math.sqrt(a * b)) < 1e-12

    def test_f_and_x_consistent(self):
        for pq in (Fraction(2, 5), Fraction(3, 7), Fraction(5, 9)):
            sp = slope_point(pq, AB)
            assert abs(sp.f_value - math.log(phi(sp.x_value))) < 1e-12

    def test_trace_matches_letter_fold_q60(self):
        # every reduced p/q with q <= 60, 0/1, 1/1 and slopes above 1/2 (d_1 = 0) included
        for a, b in [(1, 2), (2, 5), (3, 4)]:
            ab = Alphabet(a, b)
            for q in range(1, 61):
                for p in range(q + 1):
                    if math.gcd(p, q) == 1:
                        pq = Fraction(p, q)
                        assert slope_point(pq, ab).trace == trace(christoffel(pq, ab)), (pq, a, b)

    def test_trace_matches_letter_fold_large_q(self):
        for pq, ab in [(Fraction(7001, 20011), AB), (Fraction(10007, 12345), Alphabet(2, 5))]:
            sp = slope_point(pq, ab)
            assert sp.trace == trace(christoffel(pq, ab))
            assert sp.f_value == levy_from_trace(sp.trace, pq.denominator)


class TestChristoffelTraceIdentity:
    def test_eq2_and_growth(self):
        for lo, hi in farey_neighbor_pairs(40):
            if lo.denominator >= hi.denominator:
                big, small = lo, hi
            else:
                big, small = hi, lo
            med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
            t_med = trace(christoffel(med, AB))
            t_big = trace(christoffel(big, AB))
            t_small = trace(christoffel(small, AB))
            dq = big.denominator - small.denominator
            dp = big.numerator - small.numerator
            t_diff = 2 if dq == 0 else trace(christoffel(Fraction(dp, dq), AB))
            assert t_med == t_big * t_small - (-1) ** small.denominator * t_diff
            assert t_med >= t_big + 1


class TestMediantTraceProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(q=st.integers(2, 2000), p=st.integers(1, 1999), a=st.integers(1, 6), gap=st.integers(1, 6))
    def test_identity_matches_fold_and_f_increases(self, q, p, a, gap):
        assume(p < q and math.gcd(p, q) == 1)
        ab = Alphabet(a, a + gap)
        med = Fraction(p, q)
        lo, hi = stern_brocot_parents(med)
        big, small = (lo, hi) if lo.denominator >= hi.denominator else (hi, lo)
        dq = big.denominator - small.denominator
        t_diff = 2 if dq == 0 else trace(christoffel(Fraction(big.numerator - small.numerator, dq), ab))
        t_lo, t_hi = trace(christoffel(lo, ab)), trace(christoffel(hi, ab))
        t_med = mediant_trace(t_lo, t_hi, t_diff, small.denominator)
        assert t_med == trace(christoffel(med, ab))
        f_lo = levy_from_trace(t_lo, lo.denominator)
        f_hi = levy_from_trace(t_hi, hi.denominator)
        assert f_lo < levy_from_trace(t_med, q) < f_hi


class TestGapInequality:
    def test_quotient_of_gaps(self):
        rng = random.Random(99)
        for _ in range(200):
            q = rng.randrange(1, 26)
            qp = rng.randrange(1, q + 1)
            y = 1.0 + 5.0 * rng.random()
            x = y + (6.0 - y) * rng.random() + 1e-9
            num = trace_poly(q + qp, x) - trace_poly(q + qp, y)
            den = trace_poly(q, x) - trace_poly(q, y)
            assert num / den < trace_poly(q, x) + trace_poly(qp, y) + 1.0


class TestMonotonicity:
    def test_mediant_sandwich(self):
        for lo, hi in farey_neighbor_pairs(60):
            med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
            x_lo = slope_point(lo, AB).x_value
            x_med = slope_point(med, AB).x_value
            x_hi = slope_point(hi, AB).x_value
            assert x_lo < x_med < x_hi

    def test_global_strict_increase_q40(self):
        fracs = sorted({Fraction(p, q) for q in range(1, 41) for p in range(q + 1)})
        points = [slope_point(fr, AB) for fr in fracs]
        for prev, cur in zip(points, points[1:]):
            assert prev.f_value < cur.f_value
            assert prev.x_value < cur.x_value


class TestFourTraceRelations:
    def test_relations_at_random_pairs(self):
        pairs = [(lo, hi) for lo, hi in farey_neighbor_pairs(25) if lo.denominator != hi.denominator]
        rng = random.Random(5)
        for lo, hi in rng.sample(pairs, 20):
            if lo.denominator >= hi.denominator:
                big, small = lo, hi
            else:
                big, small = hi, lo
            q, qp = big.denominator, small.denominator
            med = Fraction(lo.numerator + hi.numerator, q + qp)
            diff = Fraction(big.numerator - small.numerator, q - qp)
            x_big = slope_point(big, AB).x_value
            x_small = slope_point(small, AB).x_value
            x_med = slope_point(med, AB).x_value
            x_diff = slope_point(diff, AB).x_value
            sgn = (-1) ** qp

            # bridge: the mediant trace identity transported to the x points
            bridge_lhs = trace_poly(q + qp, x_med)
            bridge_rhs = trace_poly(q, x_big) * trace_poly(qp, x_small) - sgn * trace_poly(q - qp, x_diff)
            assert close_rel(bridge_lhs, bridge_rhs, 1e-10)

            den_e = trace_poly(qp, x_big) - trace_poly(qp, x_small)
            lhs_e = (trace_poly(q + qp, x_big) - trace_poly(q + qp, x_med)) / den_e
            rhs_e = trace_poly(q, x_big) + sgn * (trace_poly(q - qp, x_diff) - trace_poly(q - qp, x_big)) / den_e
            assert close_rel(lhs_e, rhs_e, 1e-8)

            den_o = trace_poly(q, x_small) - trace_poly(q, x_big)
            lhs_o = (trace_poly(q + qp, x_small) - trace_poly(q + qp, x_med)) / den_o
            rhs_o = trace_poly(qp, x_small) - sgn * (trace_poly(q - qp, x_small) - trace_poly(q - qp, x_diff)) / den_o
            assert close_rel(lhs_o, rhs_o, 1e-8)

            den_t = trace_poly(q, x_med) - trace_poly(q, x_big)
            lhs_t = (trace_poly(qp, x_small) - trace_poly(qp, x_med)) / den_t
            rhs_t = trace_poly(qp, x_med) / trace_poly(q, x_big) - sgn * (
                trace_poly(q - qp, x_med) - trace_poly(q - qp, x_diff)
            ) / (den_t * trace_poly(q, x_big))
            assert close_rel(lhs_t, rhs_t, 1e-8)

            den_u = trace_poly(qp, x_small) - trace_poly(qp, x_med)
            lhs_u = (trace_poly(q, x_med) - trace_poly(q, x_big)) / den_u
            rhs_u = trace_poly(q, x_med) / trace_poly(qp, x_small) + sgn * (
                trace_poly(q - qp, x_med) - trace_poly(q - qp, x_diff)
            ) / (den_u * trace_poly(qp, x_small))
            assert close_rel(lhs_u, rhs_u, 1e-8)


class TestFIrrational:
    def test_error_bound_formula(self):
        g = tail_spread(AB)
        for k in (1, 5, 12):
            res, p, q = f_irrational(GOLDEN, k, AB)
            assert (p, q) == GOLDEN.convergent(k)
            assert res.value == slope_point(Fraction(p, q), AB).f_value
            assert res.error_bound == 5.0 * g / q
            assert res.method == "irrational-slope-bounded"

    def test_successive_estimates_obey_bound(self):
        g = tail_spread(AB)
        values = {}
        qs = {}
        for k in range(1, 22):
            values[k] = f_irrational(GOLDEN, k, AB)[0].value
            qs[k] = GOLDEN.convergent(k)[1]
        for k in range(1, 21):
            assert abs(values[k + 1] - values[k]) <= 5 * g / qs[k] + 5 * g / qs[k + 1]

    def test_alternating_sandwich(self):
        vals = {k: f_irrational(GOLDEN, k, AB)[0].value for k in range(1, 15)}
        evens = [vals[k] for k in range(2, 15, 2)]
        odds = [vals[k] for k in range(1, 15, 2)]
        assert all(a < b for a, b in zip(evens, evens[1:]))
        assert all(a > b for a, b in zip(odds, odds[1:]))
        assert max(evens) < min(odds)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(1, 10**6), b=st.builds(lambda m, k: m * 10**k, st.integers(2, 10**6), st.integers(0, 194)),
           close=st.booleans(), gap=st.integers(1, 1000))
    def test_tail_spread_against_mpmath(self, a, b, close, gap):
        # b spans every decade up to 10^200, and close letters are b and b + gap.  The reference
        # is the difference of the two tails, with 50 digits left after its cancellations.
        a, b = (b, b + gap) if close else (a, b)
        assume(a < b)
        with mpmath.workdps(50 + 2 * len(str(a * b))):
            ab = mpmath.mpf(a * b)
            e = mpmath.sqrt(ab * (ab + 4)) - ab
            ref = (b + e / (2 * a)) - (a + e / (2 * b))
            assert abs(tail_spread(Alphabet(a, b)) - ref) <= 2.0**-53 * ref

    def test_bound_near_float_max(self):
        # 5 G overflows past G = max / 5, while 5 G / q_5 = 5e308 / 13 is still a float; at q_1 it is not, and the
        # bound rounds up to inf, which still bounds the error
        ab = Alphabet(1, 10**308)
        res, _, q = f_irrational(GOLDEN, 5, ab)
        assert q == 13 and math.isclose(res.error_bound, float(5 * Fraction(tail_spread(ab)) / 13), rel_tol=2**-51)
        assert f_irrational(GOLDEN, 1, ab)[0].error_bound == math.inf
        # letters whose difference rounds to float max but whose 50-digit spread rounds past it, and letters past it
        big = int(sys.float_info.max)
        assert tail_spread(Alphabet(1, big + 2**969)) == sys.float_info.max
        assert tail_spread(Alphabet(1, big + 2**970 - 1)) == tail_spread(Alphabet(1, 10**400)) == math.inf

    def test_small_bound_is_reachable(self):
        # bound arithmetic only: 5G/q_k < 1e-6 once q_k is large enough
        g = tail_spread(AB)
        k, p, q = GOLDEN.convergent_exceeding(5 * g / 1e-6)
        assert 5 * g / q < 1e-6


def _invert_mat2(target, alphabet, tol, max_steps=10**6, trace_bits=math.inf):
    """Reference descent: each mediant's matrix is the full product of its parents' matrices.

    It stops like invert_f's trace budget when the two ends' traces together pass trace_bits.
    """
    f0, f1 = letter_levy(alphabet.a), letter_levy(alphabet.b)
    if not f0 <= target <= f1:
        raise TargetOutOfRangeError(target, f0, f1)
    if target in (f0, f1):
        e = Fraction(0 if target == f0 else 1)
        return InvertResult(e, e, e, target, target, fraction_cf(e), True, 0)
    lo, hi = Fraction(0), Fraction(1)
    m_lo, m_hi = cf_matrix((alphabet.a,)), cf_matrix((alphabet.b,))
    f_lo, f_hi = f0, f1
    steps = 0
    while f_hi - f_lo >= tol:
        if steps >= max_steps:
            raise NoConvergenceError("cap")
        if m_lo.trace.bit_length() + m_hi.trace.bit_length() > trace_bits:
            raise NoConvergenceError(f"budget ({steps} steps)")
        med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
        m_med = m_lo @ m_hi
        f_med = levy_from_trace(m_med.trace, med.denominator)
        steps += 1
        if f_med == target:
            return InvertResult(med, med, med, f_med, f_med, fraction_cf(med), True, steps)
        if f_med < target:
            lo, m_lo, f_lo = med, m_med, f_med
        else:
            hi, m_hi, f_hi = med, m_med, f_med
    med = Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator)
    return InvertResult(lo, hi, med, f_lo, f_hi, fraction_cf(med), False, steps)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except NoConvergenceError:
        return NoConvergenceError


class TestInvertF:
    def test_matches_mat2_descent(self, monkeypatch):
        rng = random.Random(2024)
        alphabets = [Alphabet(1, 2), Alphabet(2, 5), Alphabet(3, 4), Alphabet(1, 7)]
        cases = []
        for _ in range(240):
            ab = rng.choice(alphabets)
            f0, f1 = letter_levy(ab.a), letter_levy(ab.b)
            cases.append((f0 + (f1 - f0) * rng.random(), 10 ** rng.uniform(-9, -2), ab, 10**6))
        for _ in range(50):
            ab = rng.choice(alphabets)
            q = rng.randrange(2, 200)
            p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
            cases.append((slope_point(Fraction(p, q), ab).f_value, 10 ** rng.uniform(-12, -4), ab, 10**6))
        for ab in alphabets:
            f0, f1 = letter_levy(ab.a), letter_levy(ab.b)
            cases += [(f0, 1e-9, ab, 10**6), (f1, 1e-9, ab, 10**6)]
            cases += [(f0 + (f1 - f0) * rng.random(), 1e-10, ab, rng.randrange(1, 20)) for _ in range(3)]
        # long same-side runs, which invert_f jumps over: targets 1e-5 to 1e-4 inside f0 and f1, and
        # on both sides of f(p/q) for q <= 12, with uncapped and random caps
        for _ in range(16):
            ab = rng.choice(alphabets[:3])
            f0, f1 = letter_levy(ab.a), letter_levy(ab.b)
            eps = 10 ** rng.uniform(-5, -4)
            target = f0 + eps if rng.random() < 0.5 else f1 - eps
            cases.append((target, 10 ** rng.uniform(-10, -8), ab, rng.choice([10**6, rng.randrange(1, 40000)])))
        for _ in range(24):
            ab = rng.choice(alphabets[:3])
            q = rng.randrange(2, 13)
            p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
            target = slope_point(Fraction(p, q), ab).f_value + rng.choice([-1, 1]) * 10 ** rng.uniform(-5, -4)
            cases.append((target, 10 ** rng.uniform(-10, -8), ab, rng.choice([10**6, rng.randrange(1, 5000)])))
        # a run toward an endpoint, 1/m or (m - 1)/m for m = 2..n, that the width ends at node n: the
        # jump lands on node n - 1 (step n - 2), and the caps end one node before it, at it and after it
        for ab, n, low in ((Alphabet(1, 2), 3000, True), (Alphabet(2, 5), 2000, False)):
            slope = (lambda m: Fraction(1, m)) if low else (lambda m: Fraction(m - 1, m))
            f_end = letter_levy(ab.a if low else ab.b)
            w_n, w_prev = (abs(slope_point(slope(m), ab).f_value - f_end) for m in (n, n - 1))
            target, tol = f_end + (w_n / 2 if low else -w_n / 2), (w_n + w_prev) / 2
            res = invert_f(target, ab, tol)
            assert res.steps == n - 1 and slope(n) in (res.lower, res.upper)
            cases += [(target, tol, ab, cap) for cap in (n - 3, n - 2, n - 1, n)]
        # descents of 3,923 and 4,495 steps beside f(55/89) and f(89/144), whose traces pass 64 bits: each long
        # run is jumped, so a descent takes under 200 evaluations, and a cap inside a run ends it as the loop does
        beside = []
        for pq, eps in ((Fraction(55, 89), 1.5e-8), (Fraction(89, 144), 5e-9)):
            f = slope_point(pq, AB).f_value
            beside += [(f + eps, 1e-10, AB, 10**6), (f - eps, 1e-11, AB, 10**6)]
            cases.append((f + eps, 1e-10, AB, 1000))
        calls = []
        with monkeypatch.context() as m:
            m.setattr(levycf.levy, "levy_from_trace", lambda t, s: calls.append(s) or levy_from_trace(t, s))
            for target, tol, ab, cap in beside:
                calls.clear()
                res = invert_f(target, ab, tol, cap)
                assert len(calls) < 200 and res.steps > 1000, (target, tol)
        cases += beside
        outcomes = []
        for target, tol, ab, cap in cases:
            want = _outcome(_invert_mat2, target, ab, tol, cap)
            assert _outcome(invert_f, target, ab, tol, cap) == want, (target, tol, ab, cap)
            outcomes.append(want)
        assert len(cases) >= 300
        assert sum(o is NoConvergenceError for o in outcomes) >= 8
        assert sum(o is not NoConvergenceError and o.exact and o.steps > 0 for o in outcomes) >= 10

    def test_endpoint_targets(self):
        res = invert_f(letter_levy(1), AB, 1e-10)
        assert res.mediant == Fraction(0, 1) and res.exact
        res = invert_f(letter_levy(2), AB, 1e-10)
        assert res.mediant == Fraction(1, 1) and res.exact

    def test_exact_rational_roundtrip(self):
        target = slope_point(Fraction(1, 2), AB).f_value
        res = invert_f(target, AB, 1e-10)
        assert res.exact and res.mediant == Fraction(1, 2)
        target = slope_point(Fraction(2, 5), AB).f_value
        res = invert_f(target, AB, 1e-10)
        assert res.exact and res.mediant == Fraction(2, 5)

    def test_generic_target_brackets(self):
        target = slope_point(Fraction(1, 2), AB).f_value + 1e-4
        res = invert_f(target, AB, 1e-6)
        assert res.f_lower <= target <= res.f_upper
        assert res.width < 1e-6
        assert not res.exact
        assert res.lower < res.mediant < res.upper
        assert abs(slope_point(res.mediant, AB).f_value - target) < 1e-6

    def test_cf_digits_match_mediant(self):
        from levycf import fraction_cf

        target = 0.7
        res = invert_f(target, AB, 1e-7)
        assert res.cf_digits == fraction_cf(res.mediant)

    def test_out_of_range(self):
        with pytest.raises(TargetOutOfRangeError) as err:
            invert_f(99.0, AB, 1e-8)
        assert err.value.low == pytest.approx(letter_levy(1))
        assert err.value.high == pytest.approx(letter_levy(2))
        with pytest.raises(TargetOutOfRangeError):
            invert_f(0.1, AB, 1e-8)

    def test_iteration_cap(self):
        target = slope_point(Fraction(1, 2), AB).f_value + 1e-12
        with pytest.raises(NoConvergenceError):
            invert_f(target, AB, 1e-13, max_steps=500)

    def test_tol_validation(self):
        for tol in (0.0, -1e-8, math.nan, math.inf):
            with pytest.raises(ValueError):
                invert_f(0.6, AB, tol)

    def test_tol_at_float_spacing(self):
        # only f_lower == f_upper could meet such a tol, so it is refused before the descent starts
        for target in (0.7, letter_levy(1), letter_levy(2)):
            for tol in (1e-17, math.ulp(target)):
                with pytest.raises(ValueError, match="float spacing"):
                    invert_f(target, AB, tol)
        with pytest.raises(NoConvergenceError):  # twice the spacing is accepted, and runs
            invert_f(0.7, AB, 2 * math.ulp(0.7), max_steps=20)
        with pytest.raises(TargetOutOfRangeError):
            invert_f(math.inf, AB, 1e-8)

    def test_trace_budget_matches_the_reference(self, monkeypatch):
        # With a small budget, runs that invert_f jumps over end at the budget: the jump must land where
        # the one-mediant loop stops, which raises before a multiply toward a trace past the budget.
        rng = random.Random(15)
        cases = []
        for ab in (Alphabet(1, 2), Alphabet(2, 5), Alphabet(3, 4)):
            f0, f1 = letter_levy(ab.a), letter_levy(ab.b)
            for _ in range(6):
                eps = 10 ** rng.uniform(-6, -3)
                cases.append((f0 + eps if rng.random() < 0.5 else f1 - eps, 10 ** rng.uniform(-10, -6), ab))
            cases.append((f0 + (f1 - f0) * rng.random(), 1e-11, ab))
        def outcome(fn, *args):  # the result, or the step count in the budget error
            try:
                return fn(*args)
            except NoConvergenceError as exc:
                return re.search(r"budget.* \((\d+) steps\)$", str(exc)).group(1)

        raised = 0
        for bits in (300, 3000, 30000):
            monkeypatch.setattr(levycf.levy, "INVERT_TRACE_BITS", bits)
            for target, tol, ab in cases:
                want = outcome(_invert_mat2, target, ab, tol, 10**6, bits)
                assert outcome(invert_f, target, ab, tol) == want, (bits, target, tol, ab)
                raised += isinstance(want, str)
        assert 10 <= raised <= 3 * len(cases) - 5  # both outcomes occur

    def test_trace_budget_message(self, monkeypatch):
        monkeypatch.setattr(levycf.levy, "INVERT_TRACE_BITS", 500)
        with pytest.raises(NoConvergenceError, match=r"within the trace budget of 500 bits \(\d+ steps\)"):
            invert_f(0.7, AB, 1e-15)

    def test_long_run_takes_few_evaluations(self, monkeypatch):
        # f0 + 1e-6: a run of about 370,000 nodes toward 0/1, jumped over in a few evaluations
        calls = []

        def counted(t, s):
            calls.append(s)
            return levy_from_trace(t, s)

        monkeypatch.setattr(levycf.levy, "levy_from_trace", counted)
        res = invert_f(0.481212825059603, AB, 1e-9)
        assert res.steps == 369640 and not res.exact
        assert len(calls) < 30
        # f(55/89) + 1e-9 and f(89/144) + 1e-10: runs beside a fixed end whose trace passes 64 bits, which were
        # stepped node by node in 58,717 and 113,142 evaluations
        calls.clear()
        res = invert_f(0.7138046915371793, AB, 1e-13)
        assert res.steps == 58715 and not res.exact
        assert (res.lower, res.upper) == (Fraction(3228864, 5224889), Fraction(3228809, 5224800))
        assert len(calls) < 30
        calls.clear()
        with pytest.raises(NoConvergenceError, match=r"^no enclosure of width 1e-13 within the trace budget of "
                                                     r"16777216 bits \(113140 steps\)$"):
            invert_f(0.7138409744805019, AB, 1e-13)
        assert len(calls) < 30

    def test_runs_beside_a_fixed_end_past_plain_bits_are_jumped(self, bounded_past_64_bits, monkeypatch):
        # the runs of 3,923 and 4,495 steps beside f(55/89) and f(89/144), whose traces pass PLAIN_BITS = 64 here
        calls = []
        cases = []
        for pq, eps in ((Fraction(55, 89), 1.5e-8), (Fraction(89, 144), 5e-9)):
            f = slope_point(pq, AB).f_value
            cases += [(f + eps, 1e-10), (f - eps, 1e-11)]
        with monkeypatch.context() as m:
            m.setattr(levycf.levy, "levy_from_trace", lambda t, s: calls.append(s) or levy_from_trace(t, s))
            results = []
            for target, tol in cases:
                calls.clear()
                results.append(invert_f(target, AB, tol))
                assert len(calls) < 30, (target, tol)
        assert [res.steps for res in results] == [3923, 3923, 4495, 4495]
        assert results == [_invert_mat2(target, AB, tol) for target, tol in cases]

    def test_small_traces_stay_plain_ints(self, monkeypatch):
        # a jump over a short run of small traces multiplies plain ints, not BoundedInts
        seen = []

        def recorded(t, s):
            seen.append((type(t), t.bit_length()))
            return levy_from_trace(t, s)

        monkeypatch.setattr(levycf.levy, "levy_from_trace", recorded)
        rng = random.Random(26)
        for ab in (Alphabet(1, 2), Alphabet(1, 3), Alphabet(2, 3), Alphabet(2, 5)):
            f0, f1 = letter_levy(ab.a), letter_levy(ab.b)
            for tol in (1e-4, 1e-5, 1e-6):
                for _ in range(10):
                    invert_f(f0 + (f1 - f0) * rng.random(), ab, tol)
        small = [kind for kind, bits in seen if bits <= levycf.continuants.PLAIN_BITS]
        assert len(small) > 1000 and set(small) == {int}

    def test_nan_target(self):
        with pytest.raises(ValueError, match="^target must be a number, got nan$"):
            invert_f(math.nan, AB, 1e-8)


@pytest.fixture
def bounded_past_64_bits(monkeypatch):
    # traces past 64 bits are held as BoundedInts, so that small cases take the bounded route
    monkeypatch.setattr(levycf.continuants, "PLAIN_BITS", 64)
    monkeypatch.setattr(levycf.levy, "PLAIN_BITS", 64)


def _on_exact_ints(monkeypatch, fn, *args):
    with monkeypatch.context() as m:
        m.setattr(levycf.levy, "_settled", lambda compute, bits: compute(None))
        return fn(*args)


def _invert_outcome(*args):
    try:
        return invert_f(*args)
    except NoConvergenceError as exc:
        return str(exc)


def _invert_cases(rng):
    # interior targets, targets beside the f of small rationals and near either end (jumped runs),
    # tight tols, and step caps before, at and past where the descent ends
    cases = []
    for ab in (Alphabet(1, 2), Alphabet(2, 5), Alphabet(3, 4), Alphabet(1, 7)):
        f0, f1 = letter_levy(ab.a), letter_levy(ab.b)
        for _ in range(6):
            cases.append((f0 + (f1 - f0) * rng.random(), ab, 10 ** rng.uniform(-11, -5), 10**6))
        for _ in range(4):
            eps = 10 ** rng.uniform(-5.5, -3.5)
            cases.append((f0 + eps if rng.random() < 0.5 else f1 - eps, ab, 10 ** rng.uniform(-11, -8), 10**6))
        for _ in range(4):
            q = rng.randrange(2, 30)
            p = rng.choice([p for p in range(1, q) if math.gcd(p, q) == 1])
            target = slope_point(Fraction(p, q), ab).f_value + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -4)
            cases.append((target, ab, 10 ** rng.uniform(-11, -8), rng.choice([10**6, rng.randrange(1, 3000)])))
        cases.append((slope_point(Fraction(5, 13), ab).f_value, ab, 1e-11, 10**6))  # hit exactly
    return cases


class TestBoundedRoutes:
    """invert_f and f_irrational on BoundedInt traces against the same code on exact ints."""

    def test_invert_f_same_on_both_routes(self, bounded_past_64_bits, monkeypatch):
        rng = random.Random(23)
        seen = []

        def recorded(t, s):
            seen.append(type(t))
            return levy_from_trace(t, s)

        monkeypatch.setattr(levycf.levy, "levy_from_trace", recorded)
        outcomes = []
        for bits in (math.inf, 3000, 30000):  # the default budget, and budgets that end some descents
            if bits < math.inf:
                monkeypatch.setattr(levycf.levy, "INVERT_TRACE_BITS", bits)
            for case in _invert_cases(rng):
                want = _on_exact_ints(monkeypatch, _invert_outcome, *case)
                assert _invert_outcome(*case) == want, (bits, case)
                outcomes.append(want)
        assert BoundedInt in seen and int in seen
        assert sum(isinstance(o, str) and "budget" in o for o in outcomes) >= 5
        assert sum(isinstance(o, str) and "steps" in o and "budget" not in o for o in outcomes) >= 3
        assert sum(isinstance(o, InvertResult) and o.exact for o in outcomes) >= 3

    def test_f_irrational_same_bits_on_both_routes(self, bounded_past_64_bits, monkeypatch):
        rng = random.Random(29)
        checked = 0
        while checked < 120:
            ab = rng.choice([Alphabet(1, 2), Alphabet(1, 3), Alphabet(2, 5), Alphabet(3, 4), Alphabet(10, 10**6)])
            slope = SlopeCF(tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4))),
                            tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3))))
            k = rng.randint(1, 30)
            if slope.convergent(k)[1] > 10**5:
                continue
            res, p, q = f_irrational(slope, k, ab)
            want, p_exact, q_exact = _on_exact_ints(monkeypatch, f_irrational, slope, k, ab)
            assert (res.value.hex(), res.error_bound, p, q) == (want.value.hex(), want.error_bound, p_exact, q_exact)
            checked += 1

    def test_fallback_to_exact_ints_gives_the_same_results(self, bounded_past_64_bits, monkeypatch):
        # At P = 72 the top 64 bits are often not fixed, so both functions rerun on exact ints; without the
        # rerun _Unsettled escapes
        rng = random.Random(31)
        cases = _invert_cases(rng)[:20]
        slopes = [(SlopeCF((rng.randint(1, 4),), (1, rng.randint(1, 3))), rng.randint(8, 18), Alphabet(1, 2))
                  for _ in range(20)]
        want_invert = [_invert_outcome(*case) for case in cases]
        want_slope = [f_irrational(*args)[0].value.hex() for args in slopes]
        exact_runs, descend, trace_of = [], levycf.levy._descend, levycf.levy.christoffel_trace
        monkeypatch.setattr(levycf.levy, "mantissa_bits", lambda q: 72)
        monkeypatch.setattr(levycf.levy, "_descend",
                            lambda *args: exact_runs.append(args[-1] is None) or descend(*args))
        monkeypatch.setattr(levycf.levy, "christoffel_trace",
                            lambda pq, ab, bits=None: exact_runs.append(bits is None) or trace_of(pq, ab, bits))
        assert [_invert_outcome(*case) for case in cases] == want_invert
        assert [f_irrational(*args)[0].value.hex() for args in slopes] == want_slope
        assert sum(exact_runs) >= 10  # the rerun happened

    def test_limits_of_the_exact_route(self):
        # outputs of the exact route, which took 8 s and 6 s on exact ints
        res = invert_f(0.7, AB, 1e-14)
        assert (str(res.lower), str(res.upper), res.steps) == ("8114257/13790411", "4399968/7477871", 73)
        assert not res.exact
        assert (f"{res.f_lower:.15g}", f"{res.f_upper:.15g}") == ("0.699999999999999", "0.700000000000004")
        budget = r"^no enclosure of width 1e-14 within the trace budget of 16777216 bits \(72 steps\)$"
        with pytest.raises(NoConvergenceError, match=budget):
            invert_f(1.18656911041562, Alphabet(2, 3), 1e-14)

    def test_slope_route_against_the_sturmian_estimate(self):
        # two independent routes to f at the golden slope over {1, 2}: the trace of the 100th convergent, and
        # (log Q_n)/n at n = 10^18 from the Ostrowski product of ScaledMat2
        golden = SlopeCF((1,), repeat=(1,))
        f = f_irrational(golden, 100, AB)[0].value
        assert abs(f - sturmian_logq(golden, 10**18, AB).value) <= 4 * math.ulp(f)

    def test_past_float_range(self):
        with pytest.raises(TraceRangeError, match="^the denominator q_1500 is past float range"):
            f_irrational(GOLDEN, 1500, AB)
        with pytest.raises(TraceRangeError, match="^the trace's bit count at convergent 1470 is past float range"):
            f_irrational(GOLDEN, 1470, Alphabet(1000, 1001))
        assert f_irrational(GOLDEN, 1460, Alphabet(1000, 1001))[0].value == pytest.approx(6.9087, abs=1e-3)


class TestFareyPoints:
    def test_rows_match_sorted_farey_slope_points(self):
        for ab in (AB, Alphabet(2, 5)):
            for qmax in range(1, 61):
                fracs = sorted({Fraction(p, q) for q in range(1, qmax + 1) for p in range(q + 1)})
                want = [(fr.numerator, fr.denominator, sp.f_value, sp.x_value) for fr in fracs
                        for sp in [slope_point(fr, ab)]]
                assert list(farey_points(qmax, ab)) == want, qmax

    def test_bad_qmax(self):
        # raised by the call itself, before any row is read
        for qmax in (0, curve_qmax(AB) + 1):
            with pytest.raises(ValueError, match=r"qmax must be in 1\.\.10000"):
                farey_points(qmax, AB)

    def test_x_past_float_range_raises_before_any_row(self):
        # the walk's x increase with the slope, so the call checks 1/1 before yielding 0/1
        with pytest.raises(OverflowError, match="x at slope 1/1 is past float range"):
            farey_points(2, Alphabet(1, 10**400))

    def test_chunks_flatten_to_the_rows(self):
        # every chunk holds CURVE_CHUNK rows but the last; farey_points reads the same walk
        for qmax in (1, 104, 244):
            chunks = list(levycf.levy._farey_chunks(qmax, AB))
            sizes = [len(chunk[0]) for chunk in chunks]
            assert all(len(column) == size for chunk, size in zip(chunks, sizes) for column in chunk)
            assert sizes[:-1] == [levycf.levy.CURVE_CHUNK] * (len(sizes) - 1) and sum(sizes) == farey_count(qmax)
            assert [row for chunk in chunks for row in zip(*chunk)] == list(farey_points(qmax, AB))

    def test_count_matches_brute_force(self):
        fracs = set()
        for qmax in range(1, 201):
            fracs.update(Fraction(p, qmax) for p in range(qmax + 1))
            assert farey_count(qmax) == len(fracs), qmax

    def test_qmax_bound_follows_the_letters(self):
        # the walk's stack holds at most about qmax^2/2 * log2(b + 1) trace bits
        assert curve_qmax(AB) == curve_qmax(Alphabet(3, 31)) == levycf.levy.CURVE_QMAX == 10**4
        for b in (32, 10**15, 10**300):
            limit = curve_qmax(Alphabet(1, b))
            assert limit < 10**4
            assert limit**2 * b.bit_length() <= 2 * levycf.levy.CURVE_STACK_BITS < (limit + 1) ** 2 * b.bit_length()


class TestLevyEmpirical:
    def test_constant_ones_logq(self):
        res = levy_empirical(iter([1] * 10**5), 10**5, method="logq")
        assert abs(res.value - letter_levy(1)) < 1e-4
        assert res.method == "empirical-logq"
        assert res.error_bound > 0

    def test_periodic_difference_form(self):
        exact = levy_quadratic(QuadPeriod((1, 2))).value
        letters = (1, 2) * 501
        res = levy_empirical(letters, 1000, method="logq", period=2)
        assert abs(res.value - exact) < 1e-10

    def test_periodic_difference_form_reads_one_period(self):
        # an endless periodic stream: the estimate reads one period, and gives the exact
        # log(Q_{n+2}/Q_n)/2 at n = 10^6, from powers of the period's matrix
        tracemalloc.start()
        try:
            res = levy_empirical(itertools.cycle((1, 2)), 10**6, method="logq", period=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        power = cf_matrix((1, 2)) ** (10**6 // 2)
        assert_close(res.value, exact_log_ratio((power @ cf_matrix((1, 2))).e11, power.e11) / 2)
        assert peak < 1_000_000  # the full array alone takes 8 MB

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(word=st.lists(st.integers(1, 9), min_size=1, max_size=120), n=st.integers(1, 5000),
           depth=st.integers(2, 60))
    def test_period_against_explicit_letters(self, word, n, depth):
        # a sized source of exactly one period, tiled, against the letters written out and the exact
        # log(Q_{n+s}/Q_n)/s, which the value at min(n, PERIODIC_LOGQ_START) meets to 2^-64
        s = len(word)
        letters = list(itertools.islice(itertools.cycle(word), n + max(s, depth)))
        logq = levy_empirical(tuple(word), n, period=s)
        assert_close(logq.value, exact_log_ratio(product(letters[: n + s]).e11, product(letters[:n]).e11) / s)
        birk = levy_empirical(tuple(word), n, method="birkhoff", tail_depth=depth, period=s)
        assert birk == levy_empirical(letters, n, method="birkhoff", tail_depth=depth)

    def test_periodic_logq_past_2_63(self):
        # n enters only through min(n, PERIODIC_LOGQ_START): every n from there on gives the same bits
        word = (1, 2, 2, 5, 1)
        start = levycf.levy.PERIODIC_LOGQ_START
        ref = levy_empirical(word, start, period=5)
        for n in (*range(start + 1, start + 11), 10**6, 2**63, 2**64 + 1):
            assert levy_empirical(itertools.cycle(word), n, period=5) == ref

    def test_periodic_birkhoff_sum_past_float_range(self):
        # k S_s passes 1.8e308 at n = 2^1023 with letters 9; the mean does not
        near = levy_empirical((9, 9), 10**6, method="birkhoff", period=2).value
        assert abs(levy_empirical((9, 9), 2**1023, method="birkhoff", period=2).value - near) <= 2 * math.ulp(near)

    def test_stream_read_in_pieces(self):
        # an unsized stream crosses several kernel chunks; the array equals the sized read
        n = 3 * _kernels.CHUNK + 5
        letters = sturmian_prefix(GOLDEN, n, AB)
        assert levy_empirical(iter(letters), n).value == levy_empirical(letters, n).value

    @pytest.mark.parametrize("n", [_kernels.CHUNK - 1, _kernels.CHUNK, _kernels.CHUNK + 1, 2 * _kernels.CHUNK + 1])
    def test_logq_across_chunks_matches_exact(self, n):
        # Q_k/Q_{k-1} carries from one chunk to the next, with no letter read twice
        rng = random.Random(n)
        w = tuple(rng.choice((1, 2, 3, 40)) for _ in range(n))
        assert_close(levy_empirical(iter(w), n).value, exact_log_ratio(product(w).e11, 1) / n)

    def test_periodic_difference_form_period_one(self):
        exact = letter_levy(1)
        res = levy_empirical([1] * 1001, 1000, method="logq", period=1)
        assert abs(res.value - exact) < 1e-10

    def test_birkhoff_constant_letters(self):
        res = levy_empirical([2] * 2100, 2000, method="birkhoff")
        assert abs(res.value - letter_levy(2)) < 1e-3
        assert res.method == "empirical-birkhoff"

    def test_golden_slope_three_routes(self):
        letters = sturmian_prefix(GOLDEN, 10**5 + 40, AB)
        logq = levy_empirical(letters, 10**5, method="logq")
        birk = levy_empirical(letters, 10**5, method="birkhoff")
        assert abs(logq.value - birk.value) < 1e-3
        ref = f_irrational(GOLDEN, 20, AB)[0]
        assert abs(logq.value - ref.value) < 1e-3 + ref.error_bound

    def test_estimates_agree_within_budgets(self):
        letters = sturmian_prefix(GOLDEN, 10**4 + 40, AB)
        logq = levy_empirical(letters, 10**4, method="logq")
        birk = levy_empirical(letters, 10**4, method="birkhoff")
        assert abs(logq.value - birk.value) <= logq.error_bound + birk.error_bound

    def test_values_stay_in_letter_interval(self):
        letters = sturmian_prefix(GOLDEN, 5040, AB)
        for method in ("logq", "birkhoff"):
            res = levy_empirical(letters, 5000, method=method)
            assert letter_levy(1) - 0.01 <= res.value <= letter_levy(2) + 0.01

    def test_stream_exhaustion(self):
        with pytest.raises(TruncatedStreamError):
            levy_empirical(iter([1] * 10), 100)
        with pytest.raises(TruncatedStreamError):
            levy_empirical(iter([1]), 100, period=2)
        with pytest.raises(TruncatedStreamError):
            levy_empirical([1] * 50, 40, method="birkhoff", tail_depth=20)

    def test_short_source_message(self):
        # one letter short, inside the first piece and across a piece boundary
        for n in (100, _kernels.CHUNK + 10):
            with pytest.raises(TruncatedStreamError, match=f"^need {n} letters, got {n - 1}$"):
                levy_empirical(iter([1] * (n - 1)), n)
            with pytest.raises(TruncatedStreamError, match=f"^need {n + 39} letters, got {n + 38}$"):
                levy_empirical(itertools.islice(itertools.cycle((1, 2)), n + 38), n, method="birkhoff")
        with pytest.raises(TruncatedStreamError, match="^need 3 letters, got 2$"):
            levy_empirical(iter([1, 2]), 10**6, period=3)

    @pytest.mark.parametrize("period", [None, 3])
    @pytest.mark.parametrize("method", ["logq", "birkhoff"])
    @pytest.mark.parametrize("source", [np.array, iter], ids=["array", "iterator"])
    @pytest.mark.parametrize("at", range(3))
    def test_nan_letter(self, at, source, method, period):
        # a NaN letter fails as a letter below 1 does, wherever it sits: it is neither an int nor the end of the source
        letters = [1.0, 2.0, 1.0]
        letters[at] = math.nan
        n = 3 if method == "logq" else 1
        with pytest.raises(InvalidWordError, match="^letters must be >= 1$"):
            levy_empirical(source(letters), n, method=method, tail_depth=3, period=period)

    @pytest.mark.parametrize("period", [None, 3])
    @pytest.mark.parametrize("method", ["logq", "birkhoff"])
    @pytest.mark.parametrize("source", [np.array, iter], ids=["array", "iterator"])
    def test_infinite_letter(self, source, method, period):
        # an inf letter passes the >= 1 check; periodic logq returned nan and the other logq route raised a
        # bare OverflowError, where every route now raises one error
        n = 3 if method == "logq" else 1
        with pytest.raises(InvalidWordError, match="^letters must be finite$"):
            levy_empirical(source([1.0, math.inf, 2.0]), n, method=method, tail_depth=3, period=period)

    def test_bad_letter_before_short_source(self):
        # letters are checked piece by piece, so a bad letter fails before the end of the source
        with pytest.raises(InvalidWordError):
            levy_empirical(iter([1, 0]), 100)

    @pytest.mark.parametrize("method", ["logq", "birkhoff"])
    def test_memory_follows_the_chunk_not_n(self, method):
        tracemalloc.start()
        try:
            res = levy_empirical(itertools.cycle((1, 2, 2)), 10**6, method=method)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(res.value - levy_quadratic(QuadPeriod((1, 2, 2))).value) < 1e-3
        assert peak < 4_000_000  # n float64 letters alone take 8 MB

    @pytest.mark.parametrize("depth", [2, 40, 259])
    def test_birkhoff_sweeps_each_window_once(self, monkeypatch, depth):
        # a small CHUNK makes pieces cheap, so depth 259 = CHUNK + 3 keeps more than a chunk
        monkeypatch.setattr(_kernels, "CHUNK", 256)
        rng = random.Random(depth)
        n = 3 * 259 + 5
        letters = [rng.choice((1, 2, 5)) for _ in range(n + depth)]
        full = np.array(letters, dtype=float)
        res = levy_empirical(iter(letters), n, method="birkhoff", tail_depth=depth)
        assert res.value == math.fsum(np.log(_kernels.birkhoff_tails(full, n, depth))) / n
        truncation = math.ldexp(tail_spread(Alphabet(min(letters), max(letters))), 2 - depth)
        assert res.error_bound == truncation + (math.log(2.0) + letter_levy(max(letters))) / n

    def test_bad_method(self):
        with pytest.raises(ValueError):
            levy_empirical([1] * 10, 5, method="nonsense")

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(word=st.lists(st.integers(1, 9), min_size=1, max_size=120), n=st.integers(1, 800),
           depth=st.integers(2, 60))
    def test_periodic_birkhoff_matches_sweep(self, word, n, depth):
        # n = k s + r windows sum to k S_s + P_r exactly before the one rounding, so the
        # closed form is the sweep's value to 0 ulps, for n < s and n >= s alike
        s = len(word)
        closed = levy_empirical(itertools.cycle(word), n, method="birkhoff", tail_depth=depth, period=s)
        sweep = levy_empirical(itertools.cycle(word), n, method="birkhoff", tail_depth=depth)
        assert closed == sweep

    @pytest.mark.parametrize("n", [300, 700, 701, 1400, 10**6 + 3])
    def test_periodic_birkhoff_across_chunks(self, monkeypatch, n):
        # a period longer than CHUNK is swept in several arrays, and r = n mod s cuts one of them
        monkeypatch.setattr(_kernels, "CHUNK", 256)
        rng = random.Random(n)
        word = [rng.choice((1, 2, 3, 7)) for _ in range(700)]
        closed = levy_empirical(itertools.cycle(word), n, method="birkhoff", period=700)
        sweep = levy_empirical(itertools.cycle(word), n, method="birkhoff")
        assert closed == sweep

    def test_periodic_birkhoff_reads_one_period(self):
        # s letters, tiled to min(n, s) + tail_depth, whatever n is
        read = []
        res = levy_empirical((read.append(x) or x for x in itertools.cycle((1, 2))), 10**12,
                             method="birkhoff", period=2)
        assert len(read) == 2
        assert abs(res.value - levy_quadratic(QuadPeriod((1, 2))).value) < 1e-11


def _bound_or_message(route, error):
    # what a caller sees of one route: its error_bound, or the message of the error it raises
    try:
        return route().error_bound
    except error as exc:
        return str(exc)


class TestSturmianLogq:
    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(1, 20), gap=st.integers(1, 40), digits=st.lists(st.integers(1, 30), min_size=1, max_size=6),
           repeat=st.lists(st.integers(1, 5), min_size=1, max_size=3), n=st.integers(1, 20000))
    def test_matches_stream_and_exact_continuant(self, a, gap, digits, repeat, n):
        ab, slope = Alphabet(a, a + gap), SlopeCF(tuple(digits), repeat=tuple(repeat))
        got = sturmian_logq(slope, n, ab)
        stream = levy_empirical(sturmian_letters(slope, ab), n)
        with mpmath.workprec(120):
            exact = float(mpmath.log(continuant(sturmian_prefix(slope, n, ab))) / n)
        assert abs(got.value - stream.value) <= 2e-15 * stream.value
        # the power-of-two scale leaves one rounding at the size of log Q_n, and the mpmath value one more
        assert abs(got.value - exact) <= 2 * math.ulp(exact)
        assert (got.error_bound, got.method) == (stream.error_bound, stream.method)

    def test_huge_n(self):
        # q_k grows geometrically, so n = 10^300 needs about 1400 golden digits
        res = sturmian_logq(GOLDEN, 10**300, AB)
        ref = f_irrational(GOLDEN, 20, AB)[0]
        assert abs(res.value - ref.value) <= ref.error_bound

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(digits=st.lists(st.integers(1, 12), min_size=1, max_size=6), extra=st.integers(0, 1))
    def test_short_digit_list_boundary(self, digits, extra):
        # d_1..d_k fix n - 1 = q_k letters of c_theta; one more letter needs d_{k+1}
        slope = SlopeCF(tuple(digits))
        n = slope.convergent(len(digits))[1] + 1 + extra
        routes = (lambda: sturmian_logq(slope, n, AB), lambda: levy_empirical(sturmian_letters(slope, AB), n))
        outcomes = [_bound_or_message(route, InsufficientDigitsError) for route in routes]
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == f"slope digit d_{len(digits) + 1} unknown (only {len(digits)} given)") == bool(extra)

    @pytest.mark.parametrize("n", [1, 5, 6, 7, 40])
    @pytest.mark.parametrize("huge", ["a", "b"])
    def test_letter_past_float_range(self, n, huge):
        # s_{theta,0} = a a^5 b ...: b is read from n = 7 on, a at once, and both routes fail alike
        ab = Alphabet(10**400, 10**400 + 1) if huge == "a" else Alphabet(1, 10**400)
        slope = SlopeCF((5,), repeat=(1,))
        routes = (lambda: sturmian_logq(slope, n, ab), lambda: levy_empirical(sturmian_letters(slope, ab), n))
        outcomes = [_bound_or_message(route, OverflowError) for route in routes]
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (huge == "a" or n >= 7)

    def test_asks_only_the_digits_it_needs(self):
        # the digits asked for are d_1..d_k with q_k >= n - 1, and only those
        asked = []

        class Counted(SlopeCF):
            def digit(self, i):
                asked.append(i)
                return super().digit(i)

        sturmian_logq(Counted((), repeat=(1,)), 10**18, AB)
        k = GOLDEN.convergent_exceeding(10**18 - 2)[0]
        assert max(asked) == k


def _result_or_message(route, error):
    # what a caller sees of one route: its whole LevyResult, or the message of the error it raises
    try:
        return route()
    except error as exc:
        return str(exc)


def _birkhoff_routes(slope, n, ab, depth):
    # the window monoid and the sweep over the letters of s_{theta,0}
    return (lambda: sturmian_birkhoff(slope, n, ab, depth),
            lambda: levy_empirical(sturmian_letters(slope, ab), n, method="birkhoff", tail_depth=depth))


class TestSturmianBirkhoff:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(a=st.integers(1, 20), gap=st.integers(1, 40), digits=st.lists(st.integers(1, 30), min_size=1, max_size=6),
           repeat=st.lists(st.integers(1, 5), max_size=3), n=st.integers(1, 5000),
           depth=st.sampled_from([2, 3, 5, 40, 57, 300]))
    def test_monoid_matches_stream_bit_for_bit(self, a, gap, digits, repeat, n, depth):
        # value, error_bound and method, or the InsufficientDigitsError text of a digit list without a repeat
        ab, slope = Alphabet(a, a + gap), SlopeCF(tuple(digits), repeat=tuple(repeat))
        monoid, stream = (_result_or_message(route, InsufficientDigitsError)
                          for route in _birkhoff_routes(slope, n, ab, depth))
        assert monoid == stream
        if not isinstance(monoid, str):
            assert monoid.value.hex() == stream.value.hex()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(digits=st.lists(st.integers(1, 12), min_size=1, max_size=6), extra=st.integers(0, 1),
           depth=st.sampled_from([2, 3, 5, 40, 57]))
    def test_short_digit_list_boundary(self, digits, extra, depth):
        # d_1..d_k fix q_k + 1 letters of s_{theta,0}; the n + depth - 1 letters read need d_{k+1} iff n + depth - 2 > q_k
        slope = SlopeCF(tuple(digits))
        n = slope.convergent(len(digits))[1] - depth + 2 + extra
        assume(n >= 1)
        outcomes = [_result_or_message(route, InsufficientDigitsError) for route in _birkhoff_routes(slope, n, AB, depth)]
        assert outcomes[0] == outcomes[1]
        assert (outcomes[0] == f"slope digit d_{len(digits) + 1} unknown (only {len(digits)} given)") == bool(extra)

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 40])
    @pytest.mark.parametrize("huge", ["a", "b"])
    def test_letter_past_float_range(self, n, huge):
        # s_{theta,0} = a a^5 b ...: the n + 2 letters read hold b from n = 5 on, a at once
        ab = Alphabet(10**400, 10**400 + 1) if huge == "a" else Alphabet(1, 10**400)
        slope = SlopeCF((5,), repeat=(1,))
        outcomes = [_result_or_message(route, OverflowError) for route in _birkhoff_routes(slope, n, ab, 3)]
        assert outcomes[0] == outcomes[1]
        assert isinstance(outcomes[0], str) == (huge == "a" or n >= 5)

    def test_deep_windows_over_few_letters(self):
        # the case the letter route used to serve: ten windows of the deepest tail_depth
        depth = TAIL_DEPTH_MAX
        sweep = levy_empirical(sturmian_letters(GOLDEN, AB), 10, method="birkhoff", tail_depth=depth)
        got = sturmian_birkhoff(GOLDEN, 10, AB, depth)
        assert got == sweep
        assert got.value.hex() == sweep.value.hex()

    @pytest.mark.parametrize("depth", [1, TAIL_DEPTH_MAX + 1])
    def test_tail_depth_bound(self, depth):
        # both birkhoff routes refuse a depth outside 2..TAIL_DEPTH_MAX before any letter or digit is read
        routes = _birkhoff_routes(SlopeCF((1,)), 10**6, AB, depth)
        assert [_result_or_message(route, ValueError) for route in routes] == [
            f"tail_depth must be in 2..{TAIL_DEPTH_MAX}, got {depth}"] * 2

    def test_huge_n(self):
        # n = 10^18 windows from about 90 standard words; (log Q_n)/n at the same n estimates the same f
        res = sturmian_birkhoff(GOLDEN, 10**18, AB)
        assert abs(res.value - sturmian_logq(GOLDEN, 10**18, AB).value) <= res.error_bound
        assert res.method == "empirical-birkhoff"


class TestXiOscillation:
    def test_two_accumulation_points(self):
        osc = xi_oscillation(AB, 20)
        assert len(osc.points) == 20
        u = dict(osc.points)
        assert abs(u[20] - u[19]) > 1e-2  # no single limit
        la, lb = letter_levy(1), letter_levy(2)
        assert abs(osc.predicted_gap - abs(la - lb) / 3) < 1e-15
        assert abs(osc.gap - abs(la - lb) / 3) < 1e-2
        assert abs(osc.acc_even - osc.predicted_even) < 1e-2
        assert abs(osc.acc_odd - osc.predicted_odd) < 1e-2
        assert osc.noise_floor < 1e-3

    def test_mmax_validation(self):
        with pytest.raises(ValueError):
            xi_oscillation(AB, 3)
        with pytest.raises(ValueError):
            xi_oscillation(AB, 1001)

    def test_points_match_exact_log_continuants(self):
        # log Q_{2^m} / 2^m from integer products of block powers M_c^N, an
        # oracle that shares no float arithmetic with the scaled product
        for a, b in ((1, 2), (2, 5), (3, 4), (7, 100), (1, 1000)):
            alphabet = Alphabet(a, b)
            points = dict(xi_oscillation(alphabet, 16).points)
            prod = IDENTITY
            for m, (c, n) in enumerate(xi_blocks(alphabet, 16)):
                prod = prod @ Mat2(c, 1, 1, 0) ** n
                if m:
                    exact = log_big(prod.e11) / 2**m
                    assert abs(points[m] - exact) <= 1e-15 * exact, (a, b, m)


class TestRnFamily:
    def test_half_third_family(self):
        pts = rn_family(Fraction(1, 2), Fraction(1, 3), AB, 12)
        fracs = [pt.fraction for pt in pts]
        assert fracs[:4] == [Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(4, 9)]
        assert pts[1].trace == 23
        assert pts[2].trace == 86
        x_half = math.sqrt(2)
        gaps = [abs(pt.x_value - x_half) for pt in pts[1:]]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_invalid_pair(self):
        with pytest.raises(ValueError):
            rn_family(Fraction(1, 2), Fraction(1, 4), AB, 5)


class TestMorphicLevy:
    def test_identity_morphism_reduces_to_plain(self):
        phi = Morphism(AB, (1,), (2,))
        direct = levy_empirical(sturmian_prefix(GOLDEN, 5000, AB), 5000)
        via_morphism = morphic_levy(phi, GOLDEN, 5000)
        assert via_morphism.value == direct.value

    def test_estimates_self_consistent(self):
        phi = Morphism(AB, (1, 2), (3,))
        e1 = morphic_levy(phi, GOLDEN, 10**4)
        e2 = morphic_levy(phi, GOLDEN, 2 * 10**4)
        assert abs(e1.value - e2.value) < 1e-2

    def test_intercept_independence(self):
        phi = Morphism(AB, (1, 2), (3,))
        e0 = morphic_levy(phi, GOLDEN, 10**4, intercept="zero")
        e1 = morphic_levy(phi, GOLDEN, 10**4, intercept="slope")
        assert abs(e0.value - e1.value) < 1e-2

    def test_bad_intercept(self):
        phi = Morphism(AB, (1, 2), (3,))
        with pytest.raises(ValueError):
            morphic_levy(phi, GOLDEN, 100, intercept="both")
