import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levycf import (
    IDENTITY,
    InvalidWordError,
    Mat2,
    ScaledMat2,
    TruncatedStreamError,
    as_word,
    cf_matrix,
    continuant,
    levy_empirical,
    log_big,
    mediant_trace,
    tail_value,
    trace,
)
from levycf._kernels import logq_scan
from levycf.continuants import PLAIN_BITS, SCALED_IDENTITY, BoundedInt, _Unsettled, log_scaled, narrow
from levycf.levy import tail_spread
from levycf.words import Alphabet


def random_word(rng, length, letters=(1, 2)):
    return tuple(rng.choice(letters) for _ in range(length))


def logq(arr):
    """log Q_n of the float64 letters a_1..a_n from the float kernel."""
    e, m, _ = logq_scan(arr)
    return log_scaled(e, m)


def all_words(letters, length):
    if length == 0:
        yield ()
        return
    for w in all_words(letters, length - 1):
        for x in letters:
            yield w + (x,)


class TestCfMatrix:
    def test_empty_word_gives_identity(self):
        assert cf_matrix(()) == IDENTITY

    def test_hand_products(self):
        assert cf_matrix((1, 2)) == Mat2(3, 1, 2, 1)
        m = cf_matrix((1, 1, 2))
        assert m.e11 == 5
        assert m.trace == 6

    def test_rejects_nonpositive_letters(self):
        for fn in (as_word, cf_matrix, continuant, trace, tail_value):
            for letter in (0, -1, True, 2.0, "1"):
                for bad in [(letter,), (1, letter, 2)]:
                    with pytest.raises(InvalidWordError, match=rf"^letters must be positive integers, got {letter!r}$"):
                        fn(bad)

    def test_determinant_sign(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng, rng.randrange(0, 25), (1, 2, 3, 7))
            assert cf_matrix(w).det == (-1) ** len(w)

    def test_entry_ordering(self):
        # every nonempty product has e11 >= e12 >= e22 and e11 >= e21 >= e22
        rng = random.Random(12)
        for _ in range(200):
            w = random_word(rng, rng.randrange(1, 30), (1, 2, 5))
            m = cf_matrix(w)
            assert m.e11 >= m.e12 >= m.e22
            assert m.e11 >= m.e21 >= m.e22

    def test_matmul_matches_concatenation(self):
        rng = random.Random(13)
        for _ in range(100):
            w1 = random_word(rng, rng.randrange(0, 15))
            w2 = random_word(rng, rng.randrange(0, 15))
            assert cf_matrix(w1) @ cf_matrix(w2) == cf_matrix(w1 + w2)


class TestMat2Power:
    def test_matches_repeated_product(self):
        rng = random.Random(14)
        for _ in range(50):
            w = random_word(rng, rng.randrange(1, 6), (1, 2, 5))
            m = cf_matrix(w)
            n = rng.randrange(0, 40)
            assert m**n == cf_matrix(w * n)
        assert Mat2(2, 1, 1, 0) ** 0 == IDENTITY

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            cf_matrix((1, 2)) ** -1


def scaled_logs(m):
    # log of each entry of a ScaledMat2, -inf for a zero entry
    return [m.exponent * math.log(2) + math.log(e) if e else -math.inf for e in m.mantissa]


def exact_logs(m):
    return [log_big(e) if e else -math.inf for e in m]


class TestScaledMat2:
    def test_products_and_powers_match_exact(self):
        # nonnegative products do not cancel: every entry keeps its relative accuracy,
        # so the log of each entry agrees with the exact integer's to a few ulps of its size
        rng = random.Random(12)
        for _ in range(60):
            w = random_word(rng, rng.randrange(1, 8), (1, 2, 5, 13))
            n = rng.randrange(0, 300)
            scaled, exact = ScaledMat2.of(cf_matrix(w)) ** n, cf_matrix(w) ** n
            for got, want in zip(scaled_logs(scaled), exact_logs(exact)):
                assert got == want or abs(got - want) <= 1e-14 * max(1.0, abs(want))
            folded = SCALED_IDENTITY
            for x in w * 5:
                folded = folded @ ScaledMat2.of(cf_matrix((x,)))
            assert abs(folded.log_e11 - log_big(continuant(w * 5))) <= 1e-14 * max(1.0, log_big(continuant(w * 5)))

    def test_mantissa_is_renormalised(self):
        m = ScaledMat2.of(cf_matrix((3, 1, 4))) ** 1000
        assert 1.0 <= max(m.mantissa) <= 2.0
        assert isinstance(m.exponent, int)

    def test_renormalising_rounds_nothing(self):
        # the scale is a power of two, so a float matrix keeps every bit of every entry
        m = Mat2(3.0e200, 1.0 / 3.0, 7.5, 0.0)
        scaled = ScaledMat2.of(m)
        assert [math.ldexp(x, scaled.exponent) for x in scaled.mantissa] == list(m)

    def test_entries_past_float_range(self):
        # exact ints of any size convert by division, not by float()
        m = ScaledMat2.of(Mat2(10**400, 1, 1, 0))
        assert m.mantissa == Mat2(10**400 / 2**1328, 0.0, 0.0, 0.0)
        assert abs(m.exponent * math.log(2) + math.log(m.mantissa.e11) - 400 * math.log(10)) < 1e-12
        assert abs((m**2).log_e11 - 800 * math.log(10)) < 1e-12

    def test_power_zero_and_negative(self):
        m = ScaledMat2.of(cf_matrix((1, 2)))
        assert m**0 == SCALED_IDENTITY
        with pytest.raises(ValueError, match="ScaledMat2 power must be >= 0"):
            m ** -1


class TestMediantTrace:
    def test_root_and_one_level(self):
        # 1/2 from (0/1, 1/1), empty diff: T(ab) = ab + 2
        assert mediant_trace(1, 2, 2, 1) == trace((1, 2)) == 4
        # 1/3 from (0/1, 1/2), diff 1/1: T(aab) = T(a) T(ab) + T(b)
        assert mediant_trace(1, 4, 2, 1) == trace((1, 1, 2)) == 6
        # 2/5 from (1/3, 1/2), small q = 2 even, diff 0/1: T(aab ab) = 6*4 - 1
        assert mediant_trace(6, 4, 1, 2) == trace((1, 1, 2, 1, 2)) == 23


class TestContinuant:
    def test_small_values(self):
        assert continuant(()) == 1
        assert continuant((1,)) == 1
        assert continuant((7,)) == 7
        # denominator of [0; 1, 2] = 2/3
        assert continuant((1, 2)) == 3

    def test_matches_matrix_entry(self):
        rng = random.Random(21)
        for _ in range(100):
            w = random_word(rng, rng.randrange(0, 40), (1, 2, 3))
            assert continuant(w) == cf_matrix(w).e11

    def test_splitting_inequality_exhaustive_short(self):
        # K(w) K(w') < K(ww') <= 2 K(w) K(w') over all two-letter pairs
        # with each side up to 6 letters
        words = [w for n in range(1, 7) for w in all_words((1, 2), n)]
        ks = {w: continuant(w) for w in words}
        for w1 in words:
            for w2 in words:
                prod = ks[w1] * ks[w2]
                joint = continuant(w1 + w2)
                assert prod < joint <= 2 * prod

    def test_splitting_inequality_random_long(self):
        rng = random.Random(22)
        for _ in range(1000):
            a = rng.randrange(1, 6)
            b = rng.randrange(a + 1, a + 7)
            w1 = random_word(rng, rng.randrange(1, 40), (a, b))
            w2 = random_word(rng, rng.randrange(1, 40), (a, b))
            prod = continuant(w1) * continuant(w2)
            joint = continuant(w1 + w2)
            assert prod < joint <= 2 * prod


class TestTrace:
    def test_empty_word(self):
        assert trace(()) == 2

    def test_two_letter_formulas(self):
        # trace of a a b is a^2 b + 2a + b; of a a a b is a^3 b + 2a^2 + 2ab + 2
        for a, b in [(1, 2), (1, 3), (2, 5)]:
            assert trace((a, a, b)) == a * a * b + 2 * a + b
            assert trace((a, a, a, b)) == a**3 * b + 2 * a**2 + 2 * a * b + 2
        assert trace((1, 1, 2)) == 6
        assert trace((1, 1, 1, 2)) == 10

    def test_product_trace_identity_random_splits(self):
        # for U = W V: Tr(U V) = Tr(U) Tr(V) - det(V) Tr(W), exactly
        rng = random.Random(31)
        for _ in range(1000):
            prefix = random_word(rng, rng.randrange(0, 12), (1, 2, 3))
            suffix = random_word(rng, rng.randrange(0, 12), (1, 2, 3))
            w_mat = cf_matrix(prefix)
            v_mat = cf_matrix(suffix)
            u_mat = w_mat @ v_mat
            lhs = (u_mat @ v_mat).trace
            assert lhs == u_mat.trace * v_mat.trace - v_mat.det * w_mat.trace


class TestLogBig:
    def test_one(self):
        assert log_big(1) == 0.0

    def test_power_of_two(self):
        assert abs(log_big(2**100) - 100 * math.log(2)) < 1e-13

    def test_against_mpmath_512_bit(self):
        rng = random.Random(41)
        mpmath.mp.dps = 60
        for _ in range(50):
            n = rng.getrandbits(512) | (1 << 511)
            ref = float(mpmath.log(mpmath.mpf(n)))
            assert abs(log_big(n) - ref) < 1e-12 * ref

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_big(0)
        with pytest.raises(ValueError):
            log_big(-5)


def _check_bound(b, exact):
    """b holds the int exact: equal if a plain int, else within its bound, with every read it settles exact."""
    if type(b) is int:
        assert b == exact
        return 0
    assert abs(exact - (b.m << b.s)) <= b.err << b.s
    assert abs(b.m).bit_length() <= b.bits + 1
    settled = 0
    try:
        assert b.bit_length() == exact.bit_length()
        settled += 1
    except _Unsettled:
        pass
    try:
        top, shift = b.top(64)
    except _Unsettled:
        pass
    except ValueError:
        assert exact < 1
    else:
        assert exact >= 1 and shift == max(0, exact.bit_length() - 64) and top == exact >> shift
        assert log_big(b) == log_big(exact)
        settled += 1
    return settled


class TestBoundedInt:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(bits=st.integers(4, 200), seed=st.integers(0, 2**32), a=st.integers(1, 10**6), gap=st.integers(1, 10**6))
    def test_bound_holds_over_mediants_and_signed_run_powers(self, bits, seed, a, gap):
        # A Stern-Brocot descent from [a, a + gap] on exact ints and on BoundedInts side by side, with a power
        # of the run matrix [[t, sigma], [1, 0]] (sigma = +-1) of the fixed end applied to the moving pair at
        # random, until the exact traces pass 20,000 bits
        rng = random.Random(seed)
        exact = [a, a + gap, 2, 1, 1]  # t_lo, t_hi, t_diff, q_lo, q_hi
        held = [BoundedInt.of(a, bits), BoundedInt.of(a + gap, bits), 2]
        settled = 0
        for _ in range(rng.randint(1, 60)):
            q_small = min(exact[3], exact[4])
            t = mediant_trace(*exact[:3], q_small)
            t_held = mediant_trace(*held, q_small)
            settled += _check_bound(t_held, t)
            if t.bit_length() > 20000:
                break
            side = rng.random() < 0.5  # False moves the lower end, True the upper
            exact[2], exact[side], held[2], held[side] = exact[side], t, held[side], t_held
            exact[3 + side] = exact[3] + exact[4]
            if rng.random() < 0.3:
                sigma, n = rng.choice((1, -1)), rng.randrange(0, 40)
                fix = not side
                r, r_held = Mat2(exact[fix], sigma, 1, 0) ** n, Mat2(held[fix], sigma, 1, 0) ** n
                for e, e_held in zip(r, r_held):
                    settled += _check_bound(e_held, e)
                x, y = exact[side], exact[2]
                x_held, y_held = held[side], held[2]
                for e, e_held in ((r.e11 * x + r.e12 * y, r_held.e11 * x_held + r_held.e12 * y_held),
                                  (r.e21 * x - r.e22 * y, r_held.e21 * x_held - r_held.e22 * y_held),
                                  (r.trace, r_held.trace)):
                    settled += _check_bound(e_held, e)
        if bits >= 128:
            assert settled  # at this width the bound fixes the reads

    def test_plain_int_operands_and_signs(self):
        rng = random.Random(7)
        for _ in range(2000):
            bits = rng.randint(2, 80)
            x, y = (rng.choice((1, -1)) * rng.getrandbits(rng.randint(0, 300)) for _ in range(2))
            bx, by = BoundedInt.of(x, bits), BoundedInt.of(y, bits)
            for exact, held in ((x * y, bx * by), (x * y, x * by), (x + y, bx + y), (x + y, bx + by), (x - y, x - by),
                                (y - x, by - x), (x - y, bx - by), (-x, -bx), (x * x * y, bx * bx * y)):
                _check_bound(held, exact)

    def test_exact_while_it_fits(self):
        b = BoundedInt.of(12345, 64) * 6789 + 1
        assert (b.m, b.s, b.err) == (12345 * 6789 + 1, 0, 0)
        assert b.bit_length() == (12345 * 6789 + 1).bit_length()
        assert BoundedInt.of(7, None) == 7 and BoundedInt.of(b, 80) is b

    def test_narrow(self):
        assert narrow(2**PLAIN_BITS - 1, 100) == 2**PLAIN_BITS - 1
        big = narrow(3**10000, 100)
        assert type(big) is BoundedInt and big.bits == 100 and _check_bound(big, 3**10000)
        assert narrow(BoundedInt.of(5, 100), 100) == 5  # an exact BoundedInt that fits comes back as an int
        assert narrow(big, 100) is big
        assert narrow(3**10000, None) == 3**10000

    def test_unsettled_reads(self):
        # 2^200 within 2 units of 2^190: neither the bit length nor the top 64 bits are fixed
        b = BoundedInt(2**10 - 1, 190, 2, 10)
        with pytest.raises(_Unsettled):
            b.bit_length()
        with pytest.raises(_Unsettled):
            log_big(b)
        with pytest.raises(ValueError):
            log_big(BoundedInt(-5, 10, 1, 10))


class TestLogQStream:
    """log Q_n of a letter stream, from the float kernel and the estimator."""

    def test_fibonacci_denominators(self):
        # [0; 1, 1, 1, ...] has Q_n = F_{n+1}: 1, 2, 3, 5, 8
        ones = np.ones(5)
        for k, q in enumerate((1, 2, 3, 5, 8), start=1):
            assert abs(logq(ones[:k]) - math.log(q)) < 1e-15
        assert logq(ones[:1]) == 0.0  # Q_1/Q_0 = 1 exactly

    def test_constant_letter_growth_rate(self):
        for a in (1, 2, 3):
            limit = math.log((a + math.sqrt(a * a + 4)) / 2)
            assert abs(levy_empirical(iter([a] * 4000), 4000).value - limit) < 1e-3

    def test_matches_exact_continuant(self):
        rng = random.Random(51)
        for _ in range(50):
            a = rng.randrange(1, 5)
            b = rng.randrange(a + 1, a + 6)
            w = random_word(rng, 200, (a, b))
            arr = np.array(w, dtype=float)
            for k in range(1, 201):
                assert abs(logq(arr[:k]) - log_big(continuant(w[:k]))) < 1e-12

    def test_ratio_range(self):
        # Q_k/Q_{k-1}, as the ratio that one call hands the next and as 2^e m of the one letter a_k after
        # it, lies in [1, 3], above 1 from k = 2
        w = [2, 1, 2, 2, 1, 1, 2] * 30
        arr = np.array(w, dtype=float)
        r = math.inf
        for k in range(1, len(w) + 1):
            e, m, r_next = logq_scan(arr[k - 1 : k], r)
            assert abs(r_next - logq_scan(arr[:k])[2]) <= 2 * math.ulp(r_next)
            r = r_next
            assert abs(math.ldexp(m, e) - r) <= 2 * math.ulp(r)
            assert 1.0 <= r <= 3.0
            if k >= 2:
                assert r > 1.0

    def test_truncated_stream(self):
        with pytest.raises(TruncatedStreamError):
            levy_empirical(iter([1, 2, 3]), 5)

    def test_rejects_bad_letter(self):
        with pytest.raises(InvalidWordError):
            levy_empirical(iter([1, 0, 1]), 3)


class TestTailValue:
    def test_single_letter(self):
        assert tail_value((1,)) == 1.0

    def test_two_letters(self):
        assert tail_value((1, 2)) == 1.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tail_value(())

    def test_depth_sensitivity(self):
        # deepening the truncation beyond 20 letters moves the value by less
        # than the tail-spread bound 2*G/2^19
        w21 = tuple(2 if i % 2 == 0 else 1 for i in range(21))
        t20 = tail_value(w21[:20])
        t21 = tail_value(w21)
        bound = 2.0 * tail_spread(Alphabet(1, 2)) / 2**19
        assert abs(t21 - t20) < bound
