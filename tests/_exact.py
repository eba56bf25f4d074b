"""The exact big-integer oracle for the float log Q_n routes."""

import mpmath

from levycf import cf_matrix


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
