import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from _exact import assert_close, exact_log_ratio, product
from levycf import levy_empirical, tail_value
from levycf._kernels import BLOCK, CHUNK, SCALAR_BELOW, birkhoff_tails, logq_scan
from levycf.continuants import log_scaled


def log_ratio(arr, start):
    """log(Q_n / Q_start) from two calls, the ratio Q_start/Q_{start-1} carried from the first to the second."""
    _, _, r = logq_scan(arr[:start])
    e, m, _ = logq_scan(arr[start:], r)
    return log_scaled(e, m)


def test_logq_scan_matches_exact_oracle():
    # every start around the column, size-cut and chunk boundaries
    rng = random.Random(7)
    w = tuple(rng.choice((1, 1, 2, 3, 7)) for _ in range(3 * CHUNK + 17))
    arr = np.array(w, dtype=float)
    n = len(w)
    q_n = product(w).e11
    for start in (0, 5, BLOCK - 1, BLOCK, SCALAR_BELOW - 1, SCALAR_BELOW, CHUNK - 1, CHUNK, CHUNK + 1, n - 1):
        assert_close(log_ratio(arr, start), exact_log_ratio(q_n, product(w[:start]).e11))


def test_logq_scan_blocks_add_up():
    # calls cut anywhere give the same exponents and, to a few roundings, the same mantissas as one call
    rng = random.Random(8)
    w = tuple(rng.choice((1, 3)) for _ in range(CHUNK + 300))
    arr = np.array(w, dtype=float)
    cuts = (0, 40, 71, 200, SCALAR_BELOW + 1, CHUNK + 1, len(w))
    e, mantissas, r = 0, [], math.inf
    for lo, hi in zip(cuts, cuts[1:]):
        de, m, r = logq_scan(arr[lo:hi], r)
        e, mantissas = e + de, mantissas + [m]
    whole = logq_scan(arr)
    assert_close(log_scaled(e, *mantissas), exact_log_ratio(product(w).e11, 1))
    assert_close(log_scaled(*whole[:2]), log_scaled(e, *mantissas))
    assert abs(whole[2] - r) <= 4 * math.ulp(r)  # Q_n/Q_{n-1} either way


def test_logq_scan_empty_keeps_the_ratio():
    assert logq_scan(np.empty(0), 1.5) == (0, 1.0, 1.5)


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, SCALAR_BELOW - 1, SCALAR_BELOW, SCALAR_BELOW + 1,
                               67 * BLOCK + 5, 128 * BLOCK - 1, 128 * BLOCK, 128 * BLOCK + 1])
@pytest.mark.parametrize("big", [10**12, int(1e300)], ids=["1e12", "1e300"])
def test_logq_scan_huge_letters(n, big):
    # letters of 10^12 and 10^300 next to small ones, on both sides of the size cut and at n = 0 and +-1 mod BLOCK:
    # without renormalisation inside a column or the loop, two 10^300 letters (or a few 10^12 ones) overflow
    rng = random.Random(n)
    w = tuple(rng.choice((1, 2, big, big)) for _ in range(n))
    e, m, r = logq_scan(np.array(w, dtype=float))
    prod = product(w)
    assert_close(log_scaled(e, m), exact_log_ratio(prod.e11, 1))
    assert abs(r - prod.e11 / prod.e12) <= 4 * math.ulp(r)


@pytest.mark.parametrize("n", [1, 5, BLOCK, SCALAR_BELOW - 1, SCALAR_BELOW + 1, 128 * BLOCK + 1, CHUNK + 1])
def test_logq_scan_all_ones_is_fibonacci(n):
    # [0; 1, 1, ...] has Q_n = F_{n+1}, and Q_n/Q_{n-1} tends to the golden ratio
    fib = [0, 1]  # F_0, F_1
    while len(fib) < n + 2:
        fib.append(fib[-1] + fib[-2])
    e, m, r = logq_scan(np.ones(n))
    assert_close(log_scaled(e, m), exact_log_ratio(fib[n + 1], 1))
    assert abs(r - fib[n + 1] / fib[n]) <= 2 * math.ulp(r)


def test_logq_within_two_ulps_of_exact():
    # the contract: (log Q_n)/n within 2 ulps of the exact value on random words up to 10^5 letters
    rng = random.Random(14)
    for n, letters in [(10**5, (1, 2)), (60_001, (1, 2, 3, 7)), (SCALAR_BELOW + 7, (5, 1000)), (3000, (1, int(1e300))),
                       (777, (1, 10**12)), (33, (1, 9))]:
        w = tuple(rng.choice(letters) for _ in range(n))
        value = levy_empirical(np.array(w, dtype=float), n).value
        with mpmath.workdps(50):
            ref = mpmath.log(mpmath.mpf(product(w).e11)) / n
            assert abs(mpmath.mpf(value) - ref) <= 2 * math.ulp(float(ref)), n


def test_birkhoff_tails_match_exact_fractions():
    rng = random.Random(9)
    letters = [rng.choice((1, 2, 3, 50)) for _ in range(240)]
    tails = birkhoff_tails(np.array(letters, dtype=float), 200, 40)
    for i in range(200):
        exact = Fraction(letters[i + 39])
        for a in reversed(letters[i : i + 39]):
            exact = a + 1 / exact
        assert abs(tails[i] - exact) <= 4e-16 * exact


def test_birkhoff_tails_match_tail_value():
    rng = random.Random(10)
    letters = [rng.choice((1, 2)) for _ in range(60)]
    arr = np.array(letters, dtype=float)
    tails = birkhoff_tails(arr, 20, 40)
    for i in range(20):
        assert abs(tails[i] - tail_value(tuple(letters[i : i + 40]))) < 1e-13


def test_logq_scan_drift_at_one_million_terms():
    # no drift beyond the 1e-15 relative budget against the exact log Q_n
    rng = random.Random(12)
    w = tuple(rng.choice((1, 2)) for _ in range(10**6))
    assert_close(log_scaled(*logq_scan(np.array(w, dtype=float))[:2]), exact_log_ratio(product(w).e11, 1))
