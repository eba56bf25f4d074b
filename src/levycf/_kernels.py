"""The one float kernel behind the empirical Levy estimators.

birkhoff_tails evaluates depth-limited continued-fraction windows by a
backward sweep of t -> a + 1/t across all window starts at once.  logq_scan
reuses it through the mirror identity

    r_k = Q_k / Q_{k-1} = [a_k; a_{k-1}, ..., a_1],

so log Q_n is the sum of log r_k, each r_k a window of the reversed letters.
For letters >= 1 two steps of t -> a + 1/t contract by at least 1/4, so
truncating every window at DEPTH = 56 letters moves r_k by at most
4^-27 < 6e-17; windows that reach a_1 are padded with inf (1/inf = 0), which
makes r_k for k <= DEPTH bit-identical to the forward recurrence from
r_0 = inf.  logq_scan sums the logs exactly (math.fsum) in one sweep.
"""

import math

import numpy as np

DEPTH = 56
CHUNK = 1 << 16  # new letters per array that levy._chunks hands the kernel

# perfbench/worker.py reads this to report the kernel path
USING_NUMBA = False


def birkhoff_tails(letters, count, depth):
    """[a_i; a_{i+1}, ..., a_{i+depth-1}] for i = 0..count-1, as float64."""
    t = letters[depth - 1 : depth - 1 + count].copy()
    for j in range(depth - 2, -1, -1):
        np.reciprocal(t, out=t)
        t += letters[j : j + count]
    return t


def logq_scan(letters, start=0):
    """log Q_n - log Q_start for the float64 letters a_1..a_n, n = len(letters), in one sweep."""
    window = letters[max(0, start - DEPTH + 1) :][::-1]
    if start < DEPTH - 1:
        window = np.concatenate((window, np.full(DEPTH - 1 - start, math.inf)))
    t = birkhoff_tails(window, letters.shape[0] - start, DEPTH)
    np.log(t, out=t)
    return math.fsum(t)
