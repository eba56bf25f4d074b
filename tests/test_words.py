import itertools
import random
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levycf import (
    Alphabet,
    FloorPrecisionError,
    InsufficientDigitsError,
    InvalidWordError,
    Morphism,
    NotAFactorError,
    SlopeCF,
    apply_morphism,
    characteristic_prefix,
    christoffel,
    classify_factor,
    complexity,
    complexity_window,
    continuant,
    factor_set,
    format_word,
    fraction_cf,
    load_letters,
    mechanical_lower,
    mechanical_upper,
    parse_word,
    standard_factorization,
    standard_words,
    stern_brocot_parents,
    sturmian_prefix,
    xi_word,
)
from levycf import words
from levycf.errors import TraceRangeError
from levycf.words import characteristic_letters, morphism_letters, sturmian_letters, xi_blocks

AB = Alphabet(1, 2)
GOLDEN = SlopeCF((), repeat=(1,))


def reduced_fractions(qmax):
    return sorted({Fraction(p, q) for q in range(1, qmax + 1) for p in range(q + 1)})


def mp_theta(slope, terms=150):
    """theta = [0; 1+d1, d2, ...] at 50 digits, from its first `terms` digits."""
    mpmath.mp.dps = 50
    t = mpmath.mpf(0)
    for k in range(terms, 0, -1):
        t = 1 / (slope.digit(k) + (1 if k == 1 else 0) + t)
    return t


def mp_letters(theta, rho, n, rounding=mpmath.floor):
    """First n letters of the mechanical word at 50 digits: b where the rounding steps up."""
    rho = mpmath.mpf(rho.numerator) / rho.denominator
    values = [int(rounding(m * theta + rho)) for m in range(n + 1)]
    return tuple(AB.b if hi - lo else AB.a for lo, hi in zip(values, values[1:]))


class TestAlphabet:
    def test_validation(self):
        with pytest.raises(ValueError):
            Alphabet(2, 2)
        with pytest.raises(ValueError):
            Alphabet(0, 3)
        with pytest.raises(ValueError):
            Alphabet(3, 1)

    def test_distortion_ratio(self):
        assert Alphabet(1, 2).c == 2.0
        assert Alphabet(2, 5).c == 2.5


class TestSlopeCF:
    def test_digits_and_repeat(self):
        s = SlopeCF((1, 2), repeat=(3, 4))
        assert [s.digit(i) for i in range(1, 8)] == [1, 2, 3, 4, 3, 4, 3]

    def test_finite_digits_exhaust(self):
        s = SlopeCF((1, 2, 1))
        with pytest.raises(InsufficientDigitsError):
            s.digit(4)

    def test_golden_convergents_are_fibonacci(self):
        qs = []
        for k, p, q in GOLDEN.convergents():
            qs.append(q)
            if k == 8:
                break
        assert qs == [1, 2, 3, 5, 8, 13, 21, 34, 55]
        # seeded slopes, finite and eventually periodic, against [0; 1+d1, d2, ..., dk]
        rng = random.Random(9)
        for repeat in ((), (2,), (1, 3)):
            slope = SlopeCF(tuple(rng.randint(1, 6) for _ in range(8)), repeat=repeat)
            for k, p, q in itertools.islice(slope.convergents(), 14 if repeat else 9):
                want = Fraction(0)
                for i in range(k, 0, -1):
                    want = 1 / (slope.digit(i) + (i == 1) + want)
                assert (p, q) == (want.numerator, want.denominator)
            if not repeat:
                with pytest.raises(InsufficientDigitsError):
                    slope.convergent(9)

    def test_convergent_stops_past_float_range(self):
        # q_1474 = F_1476 is below 2^1024 and q_1475 past it; larger digits pass 2^1024 sooner
        assert GOLDEN.convergent(1474)[1].bit_length() == 1024
        for slope in (GOLDEN, SlopeCF((7, 1), repeat=(1000,))):
            with pytest.raises(TraceRangeError, match=r"^the denominator q_99999 is past float range, as q_\d+ already is"):
                slope.convergent(99999)
        with pytest.raises(ValueError):
            GOLDEN.convergent(-1)

    def test_validation(self):
        with pytest.raises(ValueError):
            SlopeCF((0, 1))
        with pytest.raises(ValueError):
            SlopeCF(())


class TestMechanicalWords:
    def test_lower_half_slope(self):
        assert mechanical_lower(Fraction(1, 2), 0, 4, AB) == (1, 2, 1, 2)

    def test_lower_two_fifths(self):
        assert mechanical_lower(Fraction(2, 5), 0, 5, AB) == (1, 1, 2, 1, 2)

    def test_zero_slope(self):
        assert mechanical_lower(Fraction(0), Fraction(1, 3), 6, AB) == (1,) * 6

    def test_upper_half_slope(self):
        assert mechanical_upper(Fraction(1, 2), 0, 4, AB) == (2, 1, 2, 1)

    def test_upper_zero_slope(self):
        assert mechanical_upper(Fraction(0), 0, 3, AB) == (1, 1, 1)

    def test_rational_word_is_periodic(self):
        for pq in (Fraction(2, 5), Fraction(3, 7), Fraction(1, 4)):
            q = pq.denominator
            w = mechanical_lower(pq, 0, 3 * q, AB)
            assert w == w[:q] * 3

    def test_float_rho_rejected(self):
        with pytest.raises(TypeError):
            mechanical_lower(Fraction(1, 2), 0.25, 4, AB)

    def test_irrational_against_mpmath_oracle(self):
        # floor formula evaluated at 50-digit precision
        mpmath.mp.dps = 50
        theta = (3 - mpmath.sqrt(5)) / 2  # slope with all digits 1
        for rho_frac in (Fraction(0), Fraction(1, 3), Fraction(1, 2)):
            rho = mpmath.mpf(rho_frac.numerator) / rho_frac.denominator
            expected = []
            prev = int(mpmath.floor(rho))
            for m in range(1, 201):
                cur = int(mpmath.floor(m * theta + rho))
                expected.append(2 if cur - prev else 1)
                prev = cur
            assert mechanical_lower(GOLDEN, rho_frac, 200, AB) == tuple(expected)

    def test_irrational_upper_vs_lower(self):
        # intercept 0: the two words differ only within the first two letters
        lower = mechanical_lower(GOLDEN, 0, 1000, AB)
        upper = mechanical_upper(GOLDEN, 0, 1000, AB)
        diffs = [i for i in range(1000) if lower[i] != upper[i]]
        assert all(i < 2 for i in diffs)

    def test_irrational_upper_lower_same_factors(self):
        lower = mechanical_lower(GOLDEN, 0, 500, AB)
        upper = mechanical_upper(GOLDEN, 0, 500, AB)
        for n in (1, 2, 5, 13, 20):
            assert factor_set(lower, n) == factor_set(upper, n)

    def test_refinement_against_mpmath_oracle(self):
        # rho = u/q_k with q_k the first convergent denominator past 2n^2:
        # whenever m*p_k/q_k + rho lands on an integer the floors are refined
        # at the next convergent
        from levycf.words import _floors_near_convergent

        assert mechanical_lower(GOLDEN, Fraction(8, 13), 2, AB) == (1, 2)
        refined = 0
        for slope in (GOLDEN, SlopeCF((2, 1, 2), repeat=(1, 2)), SlopeCF((1,), repeat=(3, 1))):
            theta = mp_theta(slope)
            for n in (2, 3, 4):
                _, p, q = slope.convergent_exceeding(2 * n * n)
                for u in range(q):
                    rho = Fraction(u, q)
                    refined += _floors_near_convergent(p, q, u, q, n)[0] is None
                    assert mechanical_lower(slope, rho, n, AB) == mp_letters(theta, rho, n)
                    assert mechanical_upper(slope, rho, n, AB) == mp_letters(theta, rho, n, mpmath.ceil)
        assert refined > 0

    def test_digit_list_too_short_for_refinement(self):
        # a slope with only a few known digits cannot reach q > 2 n^2
        s = SlopeCF((1,) * 24)
        with pytest.raises(InsufficientDigitsError):
            mechanical_lower(s, 0, 500, AB)

    def test_ambiguous_floor_detection(self):
        from levycf.words import _floors_near_convergent

        # m * p/q + rho landing exactly on an integer is flagged as ambiguous
        floors, bad = _floors_near_convergent(1, 4, 0, 1, 8)
        assert floors is None and bad == 4
        # but a margin-respecting evaluation resolves all floors
        floors, bad = _floors_near_convergent(3, 1000, 1, 3, 8)
        assert bad is None and len(floors) == 9


class TestChristoffel:
    def test_table(self):
        assert christoffel(Fraction(0, 1), AB) == (1,)
        assert christoffel(Fraction(1, 1), AB) == (2,)
        assert christoffel(Fraction(1, 2), AB) == (1, 2)
        assert christoffel(Fraction(1, 3), AB) == (1, 1, 2)
        assert christoffel(Fraction(2, 5), AB) == (1, 1, 2, 1, 2)

    def test_other_alphabet(self):
        assert christoffel(Fraction(2, 5), Alphabet(2, 5)) == (2, 2, 5, 2, 5)

    def test_matches_mechanical_up_to_q60(self):
        for ab in (AB, Alphabet(2, 5), Alphabet(3, 4)):
            for pq in reduced_fractions(60):
                q = pq.denominator
                assert christoffel(pq, ab) == mechanical_lower(pq, 0, q, ab)
        for pq in (Fraction(7001, 20011), Fraction(1, 12345)):
            assert christoffel(pq, AB) == mechanical_lower(pq, 0, pq.denominator, AB)


class TestSternBrocot:
    def test_parent_examples(self):
        assert stern_brocot_parents(Fraction(2, 5)) == (Fraction(1, 3), Fraction(1, 2))
        assert stern_brocot_parents(Fraction(1, 2)) == (Fraction(0, 1), Fraction(1, 1))
        assert stern_brocot_parents(Fraction(3, 7)) == (Fraction(2, 5), Fraction(1, 2))

    def test_parent_properties_up_to_q60(self):
        for pq in reduced_fractions(60):
            if pq.denominator < 2:
                continue
            lo, hi = stern_brocot_parents(pq)
            assert lo < pq < hi
            assert Fraction(lo.numerator + hi.numerator, lo.denominator + hi.denominator) == pq
            assert abs(lo.numerator * pq.denominator - pq.numerator * lo.denominator) == 1
            assert abs(hi.numerator * pq.denominator - pq.numerator * hi.denominator) == 1

    def test_no_parents_for_integers(self):
        with pytest.raises(ValueError):
            stern_brocot_parents(Fraction(0, 1))
        with pytest.raises(ValueError):
            stern_brocot_parents(Fraction(1, 1))


class TestStandardFactorization:
    def test_examples(self):
        assert standard_factorization(Fraction(1, 2), AB) == ((1,), (2,))
        assert standard_factorization(Fraction(1, 3), AB) == ((1,), (1, 2))
        assert standard_factorization(Fraction(2, 5), AB) == ((1, 1, 2), (1, 2))

    def test_concatenation_up_to_q60(self):
        for pq in reduced_fractions(60):
            if pq.denominator < 2:
                continue
            left, right = standard_factorization(pq, AB)
            assert left + right == christoffel(pq, AB)

    def test_not_factorizable(self):
        with pytest.raises(ValueError):
            standard_factorization(Fraction(1, 1), AB)


class TestStandardWords:
    def test_golden_unroll(self):
        ms = standard_words(GOLDEN, 3, AB)
        assert ms == [(2,), (1,), (1, 2), (1, 2, 1), (1, 2, 1, 1, 2)]

    def test_lengths_are_convergent_denominators(self):
        # golden digits out to k = 20, random digit slopes capped by word size
        ms = standard_words(GOLDEN, 20, AB)
        expected = _convergent_denominators(GOLDEN, 20)
        assert [len(ms[k + 1]) for k in range(21)] == expected
        rng = random.Random(3)
        for _ in range(5):
            slope = SlopeCF(tuple(rng.randrange(1, 4) for _ in range(21)))
            k_max = _largest_k_with_q_below(slope, 10**5)
            ms = standard_words(slope, k_max, AB)
            expected = _convergent_denominators(slope, k_max)
            assert [len(ms[k + 1]) for k in range(k_max + 1)] == expected

    def test_commutation_of_neighbors(self):
        rng = random.Random(4)
        for digits in [(1,) * 16, tuple(rng.randrange(1, 4) for _ in range(16))]:
            slope = SlopeCF(digits)
            k_max = min(15, _largest_k_with_q_below(slope, 10**5))
            ms = standard_words(slope, k_max, AB)
            for k in range(2, k_max + 1):
                left = ms[k + 1] + ms[k]
                right = ms[k] + ms[k + 1]
                assert left[:-2] == right[:-2]

    def test_palindromic_structure(self):
        rng = random.Random(5)
        for trial in range(5):
            digits = tuple(rng.randrange(1, 4) for _ in range(13))
            slope = SlopeCF(digits)
            k_max = min(12, _largest_k_with_q_below(slope, 2 * 10**5))
            ms = standard_words(slope, k_max, AB)
            conv = {}
            for k, p, q in slope.convergents():
                conv[k] = (p, q)
                if k == k_max:
                    break
            for k in range(1, k_max + 1):
                m_k = ms[k + 1]
                assert m_k[-2:] in {(AB.a, AB.b), (AB.b, AB.a)}
                w = m_k[:-2]
                assert w == w[::-1]
                p, q = conv[k]
                assert christoffel(Fraction(p, q), AB) == (AB.a,) + w + (AB.b,)


def _convergent_denominators(slope, k_max):
    out = []
    for k, p, q in slope.convergents():
        out.append(q)
        if k == k_max:
            break
    return out


def _largest_k_with_q_below(slope, bound):
    best = 0
    try:
        for k, p, q in slope.convergents():
            if q > bound:
                return best
            best = k
    except InsufficientDigitsError:
        return best


class TestSturmianPrefix:
    def test_golden_prefix(self):
        # literal floor-formula unroll of the golden-slope word: a a b a a ...
        assert sturmian_prefix(GOLDEN, 4, AB) == (1, 1, 2, 1)
        assert sturmian_prefix(GOLDEN, 5, AB) == (1, 1, 2, 1, 1)

    def test_matches_floor_formula_up_to_500(self):
        assert sturmian_prefix(GOLDEN, 500, AB) == mechanical_lower(GOLDEN, 0, 500, AB)
        slope = SlopeCF((2, 1, 2), repeat=(1, 2))
        assert sturmian_prefix(slope, 500, AB) == mechanical_lower(slope, 0, 500, AB)
        # around a standard-word length q_k, where the prefix switches words
        rng = random.Random(6)
        for _ in range(20):
            slope = SlopeCF(
                tuple(rng.randrange(1, 6) for _ in range(rng.randrange(0, 4))),
                repeat=tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 3))),
            )
            q_k = len(rng.choice(standard_words(slope, _largest_k_with_q_below(slope, 2000), AB)[1:]))
            for n in (1, 2, q_k - 1, q_k, q_k + 1, 2000):
                if n >= 1:
                    assert sturmian_prefix(slope, n, AB) == mechanical_lower(slope, 0, n, AB)

    def test_insufficient_digits(self):
        with pytest.raises(InsufficientDigitsError):
            sturmian_prefix(SlopeCF((1, 1)), 50, AB)

    def test_digit_boundary(self):
        # d_1..d_K fix the first q_K + 1 letters, whatever digits follow
        rng = random.Random(7)
        for _ in range(10):
            digits = tuple(rng.randrange(1, 5) for _ in range(rng.randrange(1, 6)))
            q_last = _convergent_denominators(SlopeCF(digits), len(digits))[-1]
            prefix = sturmian_prefix(SlopeCF(digits), q_last + 1, AB)
            for tail in ((1,), (2, 3), (7,)):
                assert prefix == mechanical_lower(SlopeCF(digits, repeat=tail), 0, q_last + 1, AB)
            with pytest.raises(InsufficientDigitsError):
                sturmian_prefix(SlopeCF(digits), q_last + 2, AB)
            # the streams: every letter the digits fix, then the error at the next one
            for stream, fixed in ((sturmian_letters, prefix), (characteristic_letters, prefix[1:])):
                letters = stream(SlopeCF(digits), AB)
                assert tuple(itertools.islice(letters, len(fixed))) == fixed
                with pytest.raises(InsufficientDigitsError):
                    next(letters)

    def test_large_digit_builds_only_the_prefix(self):
        # the stream joins no standard word past the letters read, so a
        # digit of 10^6 builds no 10^6-letter word
        for digits in ((10**6,), (3, 10**6), (2, 5, 10**6)):
            slope = SlopeCF(digits, repeat=(1,))
            for n in (1, 2, 10, 37, 200):
                want = mechanical_lower(slope, 0, n + 1, AB)
                tracemalloc.start()
                try:
                    got = sturmian_prefix(slope, n, AB), characteristic_prefix(slope, n, AB)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                # s_{theta,0} = a c_theta
                assert got == (want[:n], want[1:])
                assert peak < 100_000  # one 10^6-letter tuple alone takes 8 MB

    def test_characteristic_prefix_is_standard_word_limit(self):
        ms = standard_words(GOLDEN, 12, AB)
        prefix = characteristic_prefix(GOLDEN, 100, AB)
        assert prefix == ms[-1][:100]
        # the characteristic word is the intercept-theta mechanical word
        assert prefix[:60] == mechanical_lower(GOLDEN, Fraction(0), 61, AB)[1:61]


class TestXiWord:
    def test_first_ten_letters(self):
        assert xi_word(AB, 10) == (1, 2, 1, 1, 2, 2, 2, 2, 1, 1)

    def test_block_boundaries_alternate(self):
        w = xi_word(AB, 2**11 + 1)
        for m in range(11):
            assert w[2**m] != w[2**m - 1]  # letters at positions 2^m + 1 and 2^m

    def test_blocks_cover_prefix(self):
        flat = []
        for letter, count in xi_blocks(AB, 12):
            flat.extend([letter] * count)
        assert tuple(flat) == xi_word(AB, 2**12)

    def test_complexity_between_2n_and_3n(self):
        w = xi_word(AB, 8192)
        for n in range(2, 31):
            p = complexity(w, n)
            assert 2 * n <= p <= 3 * n


class TestFactors:
    def test_factor_set_example(self):
        w = christoffel(Fraction(2, 5), AB)  # a a b a b
        assert factor_set(w, 2) == {(1, 1), (1, 2), (2, 1)}

    def test_constant_word(self):
        assert factor_set((1,) * 9, 4) == {(1, 1, 1, 1)}

    def test_length_validation(self):
        with pytest.raises(ValueError):
            factor_set((1, 2), 3)

    def test_sturmian_complexity_with_window_policy(self):
        for slope in (GOLDEN, SlopeCF((1, 1), repeat=(2, 1))):
            for n in (1, 2, 3, 5, 10, 25, 40, 50):
                window = complexity_window(slope, n)
                w = sturmian_prefix(slope, window, AB)
                assert complexity(w, n) == n + 1

    def test_short_window_only_undercounts(self):
        w = sturmian_prefix(GOLDEN, 12, AB)
        for n in range(1, 10):
            assert complexity(w, n) <= n + 1

    def test_factor_length_qk_minus_1_containment(self):
        # every factor of length q_k - 1 occurs in (M_k M_k) minus its last two letters
        for slope in (GOLDEN, SlopeCF((2,), repeat=(1, 2))):
            ms = standard_words(slope, 7, AB)
            big = sturmian_prefix(slope, 4 * len(ms[-1]), AB)
            for k in range(1, 7):
                m_k = ms[k + 1]
                host = (m_k + m_k)[:-2]
                for factor in factor_set(big, len(m_k) - 1):
                    assert _contains(host, factor)

    def test_intercepts_share_factors(self):
        words = [
            mechanical_lower(GOLDEN, rho, 500, AB)
            for rho in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2, 7))
        ]
        for n in range(1, 41):
            sets = [factor_set(w, n) for w in words]
            assert all(s == sets[0] for s in sets[1:])


def _contains(hay, needle):
    n = len(needle)
    return any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))


class TestClassifyFactor:
    def test_standard_word_is_periodic_case(self):
        ms = standard_words(GOLDEN, 5, AB)
        dec = classify_factor(ms[4], GOLDEN, AB)  # M_3 itself
        assert dec.case == "a"
        assert dec.offset == 0

    def test_wraparound_example(self):
        # last 3 letters of M_3 followed by its first 2: a valid split of the
        # suffix/prefix form exists around M_3, and classification succeeds
        ms = standard_words(GOLDEN, 3, AB)
        m3 = ms[4]
        m = m3[-3:] + m3[:2]
        assert m3[-3:] == m[:3] and m3[:2] == m[3:]
        dec = classify_factor(m, GOLDEN, AB)
        assert dec.case in ("a", "b")
        _check_decomposition(m, dec, GOLDEN)

    def test_exhaustive_small_lengths(self):
        # every factor with q_k <= n <= q_{k+1} - 1, k <= 4, gets a valid tag
        ms = standard_words(GOLDEN, 6, AB)
        qs = [len(m) for m in ms[1:]]  # q_0, q_1, ...
        big = sturmian_prefix(GOLDEN, 300, AB)
        for k in range(0, 5):
            for n in range(qs[k], qs[k + 1]):
                for factor in factor_set(big, n):
                    dec = classify_factor(factor, GOLDEN, AB)
                    assert dec.k == k
                    _check_decomposition(factor, dec, GOLDEN)

    def test_not_a_factor(self):
        with pytest.raises(NotAFactorError):
            classify_factor((2, 2), GOLDEN, AB)  # bb never occurs at golden slope


def _check_decomposition(factor, dec, slope):
    ms = standard_words(slope, dec.k + 1, AB)
    m_k, m_km1, m_kp1 = ms[dec.k + 1], ms[dec.k], ms[dec.k + 2]
    if dec.case == "a":
        host = m_k * (slope.digit(dec.k + 1) + 1) + m_km1
        assert host[dec.offset : dec.offset + len(factor)] == factor
    else:
        assert dec.suffix + dec.prefix == factor
        assert len(dec.prefix) >= len(m_k) - 1
        assert m_kp1[: len(dec.prefix)] == dec.prefix
        assert not dec.suffix or m_kp1[-len(dec.suffix) :] == dec.suffix


class TestMorphism:
    def test_identity_images(self):
        phi = Morphism(AB, (1,), (2,))
        w = sturmian_prefix(GOLDEN, 50, AB)
        assert apply_morphism(phi, w) == w

    def test_concatenation(self):
        phi = Morphism(AB, (1, 2), (3,))
        assert apply_morphism(phi, (1, 2)) == (1, 2, 3)
        assert apply_morphism(phi, (2, 1, 1)) == (3, 1, 2, 1, 2)

    def test_length_additivity(self):
        rng = random.Random(6)
        phi = Morphism(AB, (1, 2), (3,))
        for _ in range(50):
            w = tuple(rng.choice((1, 2)) for _ in range(rng.randrange(0, 60)))
            image = apply_morphism(phi, w)
            na = w.count(1)
            nb = w.count(2)
            assert len(image) == na * len(phi.image_a) + nb * len(phi.image_b)

    def test_commuting_images_rejected(self):
        with pytest.raises(ValueError):
            Morphism(AB, (1, 2), (1, 2, 1, 2))

    def test_properties(self):
        phi = Morphism(AB, (1, 2), (3,))
        assert phi.h == 2
        assert phi.c_phi == max(continuant((1, 2)) / continuant((3,)), continuant((3,)) / continuant((1, 2)))

    def test_image_of_an_endless_stream(self):
        phi = Morphism(AB, (1, 2), (3,))
        image = morphism_letters(phi, sturmian_letters(GOLDEN, AB))
        want = apply_morphism(phi, sturmian_prefix(GOLDEN, 100, AB))
        assert tuple(itertools.islice(image, len(want))) == want

    def test_letters_outside_alphabet_rejected(self):
        phi = Morphism(AB, (1, 2), (3,))
        with pytest.raises(InvalidWordError):
            apply_morphism(phi, (1, 7))


class TestFactorContinuantBound:
    def test_equal_length_factor_ratio(self):
        # K(M) <= 4^k * c * K(M') for equal-length factors, exactly in integers
        for alphabet, slope in ((AB, GOLDEN), (Alphabet(1, 3), SlopeCF((1,), repeat=(1, 2)))):
            conv = []
            for k, p, q in slope.convergents():
                conv.append(q)
                if q > 60:
                    break
            window = complexity_window(slope, 25)
            w = sturmian_prefix(slope, window + 30, alphabet)
            for n in range(1, 26):
                k = max(j for j in range(len(conv)) if conv[j] <= n)
                ks = sorted(continuant(f) for f in factor_set(w, n))
                # extremal pair suffices: K max against K min
                assert alphabet.a * ks[-1] <= 4**k * alphabet.b * ks[0]


class TestSerialization:
    def test_parse_and_format(self):
        assert parse_word("1,2,3") == (1, 2, 3)
        assert parse_word(" 1,2 ") == (1, 2)
        assert parse_word("") == ()
        assert format_word((1, 2, 3)) == "1,2,3"

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidWordError):
            parse_word("1,x,3")
        with pytest.raises(InvalidWordError):
            parse_word("1,0,3")

    def test_fraction_cf(self):
        assert fraction_cf(Fraction(3, 8)) == (2, 1, 2)
        assert fraction_cf(Fraction(0, 1)) == ()
        assert fraction_cf(Fraction(1, 1)) == (1,)
        assert fraction_cf(Fraction(2, 5)) == (2, 2)


def _outcome(read):
    # the letters as a list, or the exception's type and text
    try:
        return read().tolist()
    except Exception as exc:  # noqa: BLE001 - every error must match
        return type(exc), str(exc)


def _line_parsed(path):
    # the line parser over the file in text mode, as open() reads it
    with open(path) as fh:
        return words._parse_lines(fh)


# files that the fast path takes: lines (blank ones too) of one-digit letters 1-9
_PLAIN_FILES = st.builds(
    lambda lines, end: b"\n".join(b",".join(line) for line in lines) + end,
    st.lists(st.lists(st.integers(1, 9).map(lambda x: str(x).encode()), max_size=8), max_size=8),
    st.sampled_from([b"", b"\n"]),
)
# what sends a file to the line parser, each placed at a random byte of a plain file
_DEFECTS = st.sampled_from(
    [b"10", b"123", b"007", b"9" * 15]  # 2-15 digits, and longer where a defect lands next to a digit
    + [b"9" * 16, str(2**53 + 1).encode(), b"12345678901234567890", b"1" + b"0" * 19]  # 16-20 digits
    + [b"9" * 400, b"0", b"00", b",", b",,", b"\r\n", b"\r", b" ", b"+", b"-", b"_", b"\t", b"\xff",
       "\u00e9".encode(), "\u0663".encode()]  # U+0663 is a digit that int() reads
)


class TestLoadLetters:
    def test_fast_path_matches_line_parser(self, tmp_path):
        path = tmp_path / "letters.txt"

        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(text=_PLAIN_FILES,
               defects=st.lists(st.tuples(st.integers(0, 10**6) | st.sampled_from([0, -1]), _DEFECTS), max_size=3))
        def check(text, defects):
            for at, defect in defects:
                at %= len(text) + 1
                text = text[:at] + defect + text[at:]
            path.write_bytes(text)
            assert _outcome(lambda: load_letters(path)) == _outcome(lambda: _line_parsed(path))

        check()

    @pytest.mark.parametrize("text", [b",1", b"1,", b"1\n,2", b"1,\n2", b"1,,2", b",", b"\n,\n", b"1\n\n,2\n", b"0"])
    def test_commas_and_zeros_go_to_the_line_parser(self, tmp_path, text):
        path = tmp_path / "letters.txt"
        path.write_bytes(text)
        got = _outcome(lambda: load_letters(path))
        assert isinstance(got, tuple) and got == _outcome(lambda: _line_parsed(path))

    def test_plain_files_skip_the_line_parser(self, tmp_path, monkeypatch):
        rng = random.Random(5)
        lines = [[rng.randint(1, 9) for _ in range(rng.randint(1, 900))] for _ in range(200)]
        one_line = [rng.randint(1, 9) for _ in range(3 * words._BLOCK)]  # longer than a block, cut at no line end
        monkeypatch.setattr(words, "_parse_lines", None)
        for text, letters in [
            ("\n".join(map(format_word, lines)) + "\n\n", [x for line in lines for x in line]),
            (format_word(one_line), one_line),
            ("", []),
            ("\n\n", []),
        ]:
            path = tmp_path / "letters.txt"
            path.write_text(text)
            assert load_letters(path).tolist() == letters

    @pytest.mark.parametrize("last, fails", [
        (b"2,\xff\n", True), (b"2,0\n", True), (b"2," + b"1" * 16 + b"\n", False), (b"2\r\n", False),
    ])
    def test_a_bad_last_line(self, tmp_path, last, fails):
        # the blocks before it were parsed, and the whole file goes to the line parser
        path = tmp_path / "letters.txt"
        path.write_bytes(b"1,2,3\n" * (3 * words._BLOCK // 6) + last)
        got = _outcome(lambda: load_letters(path))
        assert got == _outcome(lambda: _line_parsed(path))
        assert isinstance(got, tuple) == fails
