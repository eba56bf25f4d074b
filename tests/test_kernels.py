import random
from fractions import Fraction

import mpmath
import numpy as np

from levycf import cf_matrix, tail_value
from levycf._kernels import CHUNK, DEPTH, birkhoff_tails, logq_scan


def product(w):
    """cf_matrix(w) by a balanced product tree, fast for long words."""
    if len(w) <= 64:
        return cf_matrix(w)
    half = len(w) // 2
    return product(w[:half]) @ product(w[half:])


def exact_log_ratio(q_n, q_start):
    """log(Q_n / Q_start) from exact continuants, at 50 digits."""
    with mpmath.workdps(50):
        return float(mpmath.log(mpmath.mpf(q_n) / q_start))


def assert_close(value, ref):
    assert abs(value - ref) <= 1e-15 * abs(ref) + 1e-15, (value, ref)


def test_logq_scan_matches_exact_oracle():
    # every start around the depth cut-off and each chunk boundary
    rng = random.Random(7)
    w = tuple(rng.choice((1, 1, 2, 3, 7)) for _ in range(3 * CHUNK + 17))
    arr = np.array(w, dtype=float)
    n = len(w)
    q_n = product(w).e11
    for start in (0, 5, DEPTH - 1, DEPTH, CHUNK - 1, CHUNK, CHUNK + 1, n - 1):
        assert_close(logq_scan(arr, start), exact_log_ratio(q_n, product(w[:start]).e11))


def test_logq_scan_blocks_add_up():
    rng = random.Random(8)
    w = tuple(rng.choice((1, 3)) for _ in range(CHUNK + 300))
    arr = np.array(w, dtype=float)
    cuts = (0, 40, 71, 200, CHUNK + 1, len(w))
    parts = [logq_scan(arr[:hi], lo) for lo, hi in zip(cuts, cuts[1:])]
    assert_close(sum(parts), exact_log_ratio(product(w).e11, 1))
    assert_close(logq_scan(arr), sum(parts))


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
    assert_close(logq_scan(np.array(w, dtype=float)), exact_log_ratio(product(w).e11, 1))
