"""The float kernels behind the empirical Levy estimators.

birkhoff_tails evaluates depth-limited continued-fraction windows by a
backward sweep of t -> a + 1/t across all window starts at once.

logq_scan multiplies cf_matrix over the letters in float64, each product
held as a mantissa matrix and an int power of two, as ScaledMat2 is.  The
letters go in columns of BLOCK, all columns stepped at once by
(x, y) -> (a x + y, x) on each row; the column products are then multiplied
pairwise in a tree, and what is left over runs in a Python loop, as does any
input shorter than SCALAR_BELOW.  Renormalising by a power of two (frexp,
ldexp) rounds nothing, and a product of nonnegative matrices does not cancel,
so each entry keeps a relative error of a few eps per factor level (Higham,
Accuracy and Stability of Numerical Algorithms, 3.5).  The state that joins
two calls is the ratio r_k = Q_k/Q_{k-1}: with R the product over the next
letters, Q_{k+j}/Q_k = R_11 + R_21/r_k, so no letter is read twice.  The
contract, tested against exact big-integer continuants on random words of up
to 10^5 letters (letters up to 10^300 included): the (log Q_n)/n that
levy_empirical reads from these products lies within 2 ulps of the exact
value.
"""

import math

import numpy as np

BLOCK = 32  # letters per column of the vectorised phase; 16 took the same time on 2^16 letters, 64 about 10% more
# Below this many letters the Python loop is faster than the vectorised phase and its tree: both took
# about 250 us at 2048 letters (numpy 2.4, 2-core VM), the vectorised phase 140 us at 64 and the loop 12 us.
SCALAR_BELOW = 2048
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


def logq_scan(letters, r=math.inf):
    """Q_{k+n}/Q_k = 2**e * m for the float64 letters a_{k+1}..a_{k+n}, given r = Q_k/Q_{k-1}.

    r is inf at k = 0 (Q_{-1} = 0).  Returns (e, m, r') with e an int, m in
    [1, 2) and r' = Q_{k+n}/Q_{k+n-1}, the r of the next call.  Letters must
    be finite and >= 1.  Up to about 2^1000 (a 10^300 letter) every entry
    that the result reads stays a normal float; letters near the float
    maximum can push them to subnormals, which lose bits.
    """
    n = letters.shape[0]
    if n == 0:
        return 0, 1.0, r
    # from entries <= 1, k letters of at most top keep every entry below (top + 2)^k <= 2^1023: no step overflows
    k = max(1, int(1023 // math.log2(float(letters.max()) + 2.0)))
    mat, e, done = ((1.0, 0.0, 0.0, 1.0), 0, 0) if n < SCALAR_BELOW else _columns(letters, k)
    (x, y, z, w), e = _fold(letters[done:], mat, e, k)
    q = x + z / r
    f, g = math.frexp(q)
    return e + g - 1, 2.0 * f, q / (y + w / r)


def _renormalise(x, y, z, w, e):
    # scale each matrix by the power of two that puts its largest entry, x, in [0.5, 1)
    x, f = np.frexp(x)
    np.negative(f, out=f)
    return x, np.ldexp(y, f), np.ldexp(z, f), np.ldexp(w, f), e - f


def _columns(letters, k):
    # The product over the first BLOCK * (n // BLOCK) letters, as ((x, y, z, w), e, letters used).
    cols = letters.shape[0] // BLOCK
    a = np.ascontiguousarray(letters[: cols * BLOCK].reshape(cols, BLOCK).T)
    x, y, z, w = a[0].copy(), np.ones(cols), np.ones(cols), np.zeros(cols)
    e = np.zeros(cols, dtype=np.int64)
    for j in range(1, BLOCK):
        if j % k == 0:
            x, y, z, w, e = _renormalise(x, y, z, w, e)
        x, y = a[j] * x + y, x
        z, w = a[j] * z + w, z
    mats = _renormalise(x, y, z, w, e)
    while mats[0].shape[0] > 1:
        half = mats[0].shape[0] // 2
        (l11, l12, l21, l22, le), (r11, r12, r21, r22, re) = ([v[i : 2 * half : 2] for v in mats] for i in (0, 1))
        prod = (l11 * r11 + l12 * r21, l11 * r12 + l12 * r22, l21 * r11 + l22 * r21, l21 * r12 + l22 * r22, le + re)
        if mats[0].shape[0] % 2:  # an odd last matrix goes up a level as it is
            prod = [np.append(p, v[-1]) for p, v in zip(prod, mats)]
        mats = _renormalise(*prod)
    return tuple(v.item() for v in mats[:4]), mats[4].item(), cols * BLOCK


def _fold(letters, mat, e, k):
    # 2**e * mat times cf_matrix over the letters, in Python floats, renormalised every k letters
    x, y, z, w = mat
    vals = letters.tolist()
    for i in range(0, len(vals), k):
        for a in vals[i : i + k]:
            x, y = a * x + y, x
            z, w = a * z + w, z
        x, f = math.frexp(x)
        y, z, w, e = math.ldexp(y, -f), math.ldexp(z, -f), math.ldexp(w, -f), e + f
    return (x, y, z, w), e
