"""Levy constants: exact quadratic values, the slope function, and estimators.

The quadratic route turns an exact big-integer period trace t into
(1/s) log((t + sqrt(t^2 - (-1)^s 4)) / 2) with only float rounding.  Rational
slopes evaluate through the trace of their Christoffel word; irrational
slopes through a convergent with a rigorous O(1/q_k) error bound; and the
slope -> Levy-constant map inverts by Stern-Brocot bisection, which is valid
because the map is strictly increasing across rational slopes.  A long run of
bisection moves on one side, near an endpoint or near the f of a small
rational, is crossed in one jump: its traces obey a two-term recurrence whose
closed form predicts where the run ends, and one matrix power, by repeated
squaring, gives the node there, so the run costs a few exact evaluations
instead of one per node (invert_f).
"""

import decimal
import itertools
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .continuants import (
    PLAIN_BITS,
    BoundedInt,
    Mat2,
    ScaledMat2,
    Word,
    _power,
    _Unsettled,
    as_word,
    log_big,
    log_scaled,
    mantissa_bits,
    mediant_trace,
    narrow,
    trace,
)
from .errors import (
    InvalidWordError,
    NoConvergenceError,
    TargetOutOfRangeError,
    TraceRangeError,
    TruncatedStreamError,
)
from .words import (
    Alphabet,
    Morphism,
    SlopeCF,
    characteristic_letters,
    christoffel_trace,
    fraction_cf,
    morphism_letters,
    standard_sequence,
    sturmian_letters,
    xi_blocks,
)

METHOD_QUADRATIC = "quadratic-exact"
METHOD_RATIONAL = "rational-slope"
METHOD_IRRATIONAL = "irrational-slope-bounded"
METHOD_LOGQ = "empirical-logq"
METHOD_BIRKHOFF = "empirical-birkhoff"
XI_MMAX = 1000  # past m = 1023 the block length 2^m overflows a float
# The bounds on curve's qmax, so that no few-byte --qmax exhausts memory before the first row.  The
# farey_count sieve holds qmax + 1 ints (0.4 MB at 10^4, which is already about 3e7 rows).  The walk's
# stack holds the traces of one root-to-node path, whose denominators increase, so at most about
# qmax^2/2 * log2(b + 1) bits: curve_qmax lowers the bound for large letters to keep that under
# CURVE_STACK_BITS (32 MB).  At qmax 2000 with a = 10^300, b = a + 1 the walk peaked at 533 MB of RSS.
CURVE_QMAX = 10**4
CURVE_STACK_BITS = 2**28
# Rows per chunk of the curve walk (_farey_chunks); the writer formats and writes a chunk at a time.  Over 15
# rounds of a benchmark sweep in one process, chunks of 256, 1024 and 4096 rows took the same time within noise
# and peaked at 35.4, 37.1 and 37.9 MB of RSS.
CURVE_CHUNK = 256
# The deepest Birkhoff window, so that no few-digit --tail-depth runs for minutes: every birkhoff route takes
# O(tail_depth) numpy steps per batch of windows.  At 2048 the slowest, a Sturmian slope at n = 10^18, takes
# about 1.2 s as a child process on a 2-core VM.
TAIL_DEPTH_MAX = 2048
# Where the periodic difference form starts.  r_k = a_k + 1/r_{k-1} forgets r_0 at least by half per letter
# (a relative change d in r_{k-1} moves r_k by d/(r_{k-1} r_k) <= d/2), so past 64 letters the ratios of a
# periodic word repeat to 2^-64 and Q_{m+s}/Q_m is the same at every m >= 64 to below one rounding.
PERIODIC_LOGQ_START = 64


@dataclass(frozen=True)
class QuadPeriod:
    """Eventually periodic partial quotients: optional preperiod, then a period, folded once into t."""

    period: Word
    preperiod: Word = ()

    def __post_init__(self):
        object.__setattr__(self, "period", as_word(self.period))
        object.__setattr__(self, "preperiod", as_word(self.preperiod))
        if not self.period:
            raise ValueError("period must be nonempty")

    @property
    def s(self) -> int:
        return len(self.period)

    @cached_property
    def t(self) -> int:
        """Exact trace of the period, folded once per instance."""
        return trace(self.period)

    @cached_property
    def mu(self) -> float:
        """The trace mean, the positive root of T_s(mu) = t: mu = r - 1/r with r = exp(L), L the Levy value.

        r and -1/r are the eigenvalues of [[mu, 1], [1, 0]], so T_s(mu) = r^s +
        (-1/r)^s = t.  exp turns an absolute error in L into a relative one,
        so mu's relative error grows like L * 2^-53.  An r past float range
        raises OverflowError.
        """
        try:
            r = math.exp(levy_from_trace(self.t, self.s))
        except OverflowError:
            raise OverflowError("mu is past float range") from None
        return r - 1.0 / r


@dataclass(frozen=True)
class LevyResult:
    """A Levy value in nats per partial quotient.

    error_bound None means exact up to float rounding; otherwise it is a
    rigorous bound for the *-bounded methods and a clearly heuristic one for
    the empirical-* methods.
    """

    value: float
    error_bound: Optional[float]
    method: str


@dataclass(frozen=True)
class SlopePoint:
    """f and x at one rational slope, with the exact word trace."""

    fraction: Fraction
    f_value: float
    x_value: float
    trace: int


def levy_from_trace(t: int, s: int) -> float:
    """(1/s) log((t + sqrt(t^2 - (-1)^s 4)) / 2) for an exact integer trace.

    Stable for traces of any size: the log of t comes from log_big and the
    sqrt enters only through the ratio 4/t^2.  t may be a BoundedInt, whose
    log_big has the exact int's bits or raises _Unsettled.
    """
    if s < 1:
        raise ValueError(f"need s >= 1, got s={s}")
    lt = log_big(t)  # a t below 1 raises ValueError here
    if lt > 27.0:
        # |u4| < 4 e^-54 < 2^-54, so 1 + u4 rounds to 1 and the correction below is exactly 0
        return lt / s
    u4 = 4.0 * math.exp(-2.0 * lt)
    if s % 2 == 0:
        u4 = -u4
    return (lt + math.log1p((math.sqrt(1.0 + u4) - 1.0) / 2.0)) / s


def letter_levy(letter: int) -> float:
    """Levy constant of the constant continued fraction with this letter."""
    return levy_from_trace(letter, 1)


def levy_quadratic(qp: QuadPeriod) -> LevyResult:
    """Levy constant of an eventually periodic continued fraction.

    Depends on the period only; the preperiod is accepted and ignored.
    """
    return LevyResult(levy_from_trace(qp.t, qp.s), None, METHOD_QUADRATIC)


def trace_poly(n: int, x: float) -> float:
    """T_n(x) = Tr([[x,1],[1,0]]^n) via T_{k+1} = x T_k + T_{k-1}, T_0 = 2, T_1 = x."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if x <= 0:
        raise ValueError(f"x must be positive, got {x}")
    if n == 0:
        return 2.0
    t_prev, t = 2.0, float(x)
    for _ in range(n - 1):
        t_prev, t = t, x * t + t_prev
    return t


def _mu_root(w: Word, lt: float) -> float:
    """Root of T_n(mu) = T(w) from lt = log T(w), bisecting [min(w), max(w)] to adjacent floats.

    A second route to QuadPeriod.mu, kept as a reference for tests.  T_n is
    increasing, so a T_n(mid) that overflows to inf still compares as too large.
    """
    if lt >= math.log(sys.float_info.max):
        raise OverflowError("the period's trace is past float range for the bisection")
    n, lo, hi = len(w), float(min(w)), float(max(w))
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if math.log(trace_poly(n, mid)) < lt:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def mu_mean(w: Word) -> float:
    """The trace mean mu of a nonempty word: QuadPeriod(w).mu, folding w once."""
    return QuadPeriod(w).mu


def _f_x(p: int, q: int, t: int) -> tuple:
    # x is recovered as exp(f) - exp(-f) rather than by solving T_q(x) = T,
    # which would be ill-conditioned for large q.
    f = levy_from_trace(t, q)
    try:
        x = math.exp(f) - math.exp(-f)
    except OverflowError:
        raise OverflowError(f"x at slope {p}/{q} is past float range (f = {f!r})") from None
    return f, x


def slope_point(pq: Fraction, alphabet: Alphabet) -> SlopePoint:
    """Evaluate f and x at a rational slope from the exact Christoffel trace.

    The trace comes from matrix powers along the continued fraction of p/q
    (words.christoffel_trace), so its cost grows with log q, not with q.
    """
    pq = Fraction(pq)
    t = christoffel_trace(pq, alphabet)
    return SlopePoint(pq, *_f_x(pq.numerator, pq.denominator, t), t)


def farey_count(qmax: int) -> int:
    """The number of reduced p/q in [0, 1] with q <= qmax: 1 + the sum of Euler's phi, from a sieve."""
    phi = list(range(qmax + 1))
    for i in range(2, qmax + 1):
        if phi[i] == i:  # i is prime
            for j in range(i, qmax + 1, i):
                phi[j] -= phi[j] // i
    return 1 + sum(phi[1:])


def curve_qmax(alphabet: Alphabet) -> int:
    """The largest qmax that farey_points takes: CURVE_QMAX, or less where the stack would pass CURVE_STACK_BITS."""
    return min(CURVE_QMAX, math.isqrt(2 * CURVE_STACK_BITS // alphabet.b.bit_length()))


def farey_points(qmax: int, alphabet: Alphabet):
    """(p, q, f, x) at every reduced p/q in [0, 1] with q <= qmax, in increasing order, as a generator.

    The rows of _farey_chunks, one at a time; qmax and both endpoint rows are
    checked on the call, before the first row is read.
    """
    return (row for chunk in _farey_chunks(qmax, alphabet) for row in zip(*chunk))


def _farey_chunks(qmax: int, alphabet: Alphabet):
    """farey_points' rows in chunks of CURVE_CHUNK rows (the last may be shorter), each as four lists (ps, qs, fs, xs).

    qmax and both endpoint rows are checked here, before the first chunk is
    read: x increases with f, which increases with the slope, so when x fits
    a float at 0/1 and 1/1 it fits at every row.  The rows in between come
    from an in-order walk of the Stern-Brocot tree cut at q <= qmax.  Each
    bracket carries the traces of its two ends and of their difference node,
    so each node's trace costs one multiply (continuants.mediant_trace).  The
    stack is explicit because the path 1/2, 1/3, ... is qmax nodes deep; it
    and one chunk are all the walk keeps, so memory is O(qmax) traces however
    many rows are read.
    """
    limit = curve_qmax(alphabet)
    if not 1 <= qmax <= limit:
        raise ValueError(f"qmax must be in 1..{limit}, got {qmax}")
    a, b = alphabet.a, alphabet.b
    return _farey_walk(qmax, a, b, _f_x(0, 1, a), _f_x(1, 1, b))


def _farey_walk(qmax, a, b, first, last):
    exp, size = math.exp, CURVE_CHUNK
    ps, qs, fs, xs = [0], [1], [first[0]], [first[1]]
    stack = []
    # the bracket of Farey neighbours lo < hi, with the trace of their difference node
    p_lo, q_lo, t_lo, p_hi, q_hi, t_hi, t_diff = 0, 1, a, 1, 1, b, 2
    while True:
        while q_lo + q_hi <= qmax:  # down to the left: the mediant waits on the stack with its right bracket
            p, q = p_lo + p_hi, q_lo + q_hi
            t = mediant_trace(t_lo, t_hi, t_diff, q_lo if q_lo < q_hi else q_hi)
            stack.append((p, q, t, p_hi, q_hi, t_hi, t_lo))
            p_hi, q_hi, t_hi, t_diff = p, q, t, t_hi
        if not stack:
            break
        p_lo, q_lo, t_lo, p_hi, q_hi, t_hi, t_diff = stack.pop()
        f = levy_from_trace(t_lo, q_lo)
        ps.append(p_lo)
        qs.append(q_lo)
        fs.append(f)
        xs.append(exp(f) - exp(-f))  # no overflow: x at 1/1 is checked
        if len(ps) == size:
            yield ps, qs, fs, xs
            ps, qs, fs, xs = [], [], [], []
    ps.append(1)
    qs.append(1)
    fs.append(last[0])
    xs.append(last[1])
    yield ps, qs, fs, xs


_SPREAD_CONTEXT = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def tail_spread(alphabet: Alphabet) -> float:
    """[b; a,b,a,...] - [a; b,a,b,...], the widest gap between two tails over {a, b}.

    With d = sqrt(ab (ab + 4)) the two tails are b + (d - ab)/2a and
    a + (d - ab)/2b, so the gap is (b - a)(1 + 2/(ab + d)), a form that does
    not cancel when the letters are close.  It is evaluated at 50 digits in
    decimal and rounded once to a float, inf past float range.
    """
    a, b = alphabet.a, alphabet.b
    with decimal.localcontext(_SPREAD_CONTEXT):
        ab = decimal.Decimal(a * b)
        return float((b - a) * (1 + 2 / (ab + (ab * (ab + 4)).sqrt())))


def _settled(compute, bits):
    """compute(bits), on BoundedInt traces of that many bits, or compute(None), on exact ints, if a bound is not enough."""
    try:
        return compute(bits)
    except _Unsettled:
        return compute(None)


def _check_float_range(n: int, what: str) -> None:
    # f = log T / q reads q and the bit count of T as floats
    try:
        float(n)
    except OverflowError:
        message = f"{what} is past float range, about 2^{n.bit_length() - 1}, so f = log T / q is no float"
        raise TraceRangeError(message) from None


def f_irrational(slope: SlopeCF, k: int, alphabet: Alphabet) -> tuple:
    """f at an irrational slope theta, evaluated at its k-th convergent p/q: (LevyResult, p, q).

    The result's error_bound 5*G/q (G the per-alphabet tail spread) is a
    rigorous bound on |f(theta) - f(p/q)|.  p and q are returned so that a
    caller that reports the convergent reads the one the value came from.
    The trace T of p/q is not returned, and f = log T / q reads only its top
    64 bits and its bit length.  So the Christoffel recursion runs on
    BoundedInt entries of mantissa_bits(q) bits, about 128 + log2 q, and f
    has the bits that slope_point gives from the exact trace.  The
    recursion costs O(sum log d_k) products of that size, not products of
    O(q)-bit ints: on the golden slope over {1, 2}, 0.4 ms at k = 33, where
    the exact trace took 25 s, and 30 ms at k = 1000 (in process on a
    2-core VM).  A trace that cannot pass max(P, PLAIN_BITS) bits (q times
    the bit length of b + 1) is folded on exact ints, which cost less at that
    size.  If the bound does not fix the bits read, the same
    recursion reruns on exact ints.  q, and then the trace's bit count, must
    be floats: past float range either raises TraceRangeError, q before any
    trace is built.
    """
    if k < 1:
        raise ValueError(f"the convergent index k must be >= 1, got {k}")
    p, q = slope.convergent(k)
    _check_float_range(q, f"the denominator q_{k}")

    def f_value(bits):
        t = christoffel_trace(Fraction(p, q), alphabet, bits)
        _check_float_range(t.bit_length(), f"the trace's bit count at convergent {k}")
        return levy_from_trace(t, q)

    bits = mantissa_bits(q)
    f = _settled(f_value, bits if q * (alphabet.b + 1).bit_length() > max(bits, PLAIN_BITS) else None)
    spread = tail_spread(alphabet)
    bound = 5.0 * spread / q if 5.0 * spread < math.inf else spread / q * 5.0  # 5 G may pass float range alone
    return LevyResult(f, bound, METHOD_IRRATIONAL), p, q


@dataclass(frozen=True)
class InvertResult:
    """Stern-Brocot enclosure of a slope realizing a target Levy value.

    lower/upper are Farey neighbors with f(lower) <= target <= f(upper);
    mediant is the returned representative slope.  cf_digits is the continued
    fraction of the mediant (theta = [0; c1, c2, ...]); the limit slope agrees
    with it except possibly in the final digit.  exact means f(mediant) hit
    the target to the last float bit, in which case lower == upper == mediant.
    """

    lower: Fraction
    upper: Fraction
    mediant: Fraction
    f_lower: float
    f_upper: float
    cf_digits: tuple
    exact: bool
    steps: int

    @property
    def width(self) -> float:
        return self.f_upper - self.f_lower


# A jump lands only on a node whose f lies at least this far, relative to f_hi, inside both of the loop's
# tests, up to the roundings of the bound c it is compared with.  levy_from_trace is within about 2^-51
# relative of the exact f, which increases strictly with the slope, so every node before the landing one
# passes the loop's own float tests, ulp noise included.
_GALLOP_MARGIN = 2.0**-44


# The largest trace invert_f may multiply toward, in bits, so that a --tol a few ulps wide ends: the traces grow
# like Fibonacci numbers in bits, and a descent to a width of a few ulps never ends.  Traces past PLAIN_BITS are
# BoundedInts, so each step costs the same small multiply whatever the budget; it bounds the denominators, and
# with them mantissa_bits, and keeps the exact ints of a rerun bounded.  `invert 0.7 -a 1 -b 2 --tol 1e-14`
# peaks at 1.39e7 bits in 73 steps and still ends inside the budget: 0.3 ms in process on a 2-core VM, where
# exact ints took 8 s.  `--tol 3e-16` stops at the budget in 0.3 ms (7.6 s on exact ints).
INVERT_TRACE_BITS = 2**24


def _run_jump(fixed, moved, t_diff, c, sign, cap, bits):
    """Jump a same-side run toward the node where its f reaches c: (d, the end at node d, T_{d-1}), or None.

    fixed and moved are the (p, q, t, f) of the fixed end F and of the end N_0 that just moved.  The run's
    nodes are N_d = N_0 + d F, and N_{-1} = N_0 - F is the bracket's difference node (trace t_diff).  By
    mediant_trace with q_small = q_F < q_0, (T_d, T_{d-1}) = R^d (T_0, T_{-1}) with R = [[T_F, sigma], [1, 0]]
    and sigma = (-1)^(q_F + 1).  So T_d = A lam^d + B mu^d as in rn_family, where log lam = q_F f(F) and
    log A = log T_0 + log1p(sigma T_{-1} / (lam T_0)) - log1p(sigma / lam^2), and f(N_d) is about
    (log A + d log lam) / (q_0 + d q_F).  That reaches c at d* = (c q_0 - log A) / (q_F (f(F) - c)).  The
    node one short of d*, capped at cap and at about where the traces pass INVERT_TRACE_BITS, is evaluated
    exactly as R^d (T_0, T_{-1}).  It lands if sign * (c - f) > 0 and the loop could have computed it within
    INVERT_TRACE_BITS; otherwise d is halved.  R is seeded with the int T_F while d bits(T_F) + bits(T_0) <=
    PLAIN_BITS, so a short run of small traces multiplies no BoundedInt, and with a BoundedInt past that.
    None means that no node past the first lands; the loop steps those itself.
    """
    p_fix, q_fix, t_fix, f_fix = fixed
    p, q, t, _ = moved
    sigma = 1 if q_fix % 2 else -1
    log_lam, lt = q_fix * f_fix, log_big(t)
    log_a = (lt + math.log1p(sigma * math.exp(log_big(t_diff) - lt - log_lam))
             - math.log1p(sigma * math.exp(-2.0 * log_lam)))
    d = (c * q - log_a) / (q_fix * (f_fix - c)) - 1
    if not d >= 2:
        return None
    fix_bits, t_bits = t_fix.bit_length(), t.bit_length()
    d = int(min(d, cap, (INVERT_TRACE_BITS - fix_bits - t_bits) * math.log(2.0) / log_lam))
    while d >= 2:
        seed = t_fix if d * fix_bits + t_bits <= PLAIN_BITS else BoundedInt.of(t_fix, bits)
        r = Mat2(seed, sigma, 1, 0) ** d
        t_d = r.e11 * t + r.e12 * t_diff
        f_d = levy_from_trace(t_d, q + d * q_fix)
        if sign * (c - f_d) > 0:
            t_prev = r.e21 * t + r.e22 * t_diff
            if fix_bits + t_prev.bit_length() <= INVERT_TRACE_BITS:  # the loop's budget check at node d
                return d, (p + d * p_fix, q + d * q_fix, narrow(t_d, bits), f_d), narrow(t_prev, bits)
        d //= 2
    return None


def invert_f(target: float, alphabet: Alphabet, tol: float, max_steps: int = 10**6) -> InvertResult:
    """Find a slope whose Levy value encloses the target within tol.

    Descends the Stern-Brocot tree keeping a bracket of Farey neighbors and
    the traces of its two ends and of their difference node; each mediant's
    trace then costs one multiply (continuants.mediant_trace).  Terminates
    when f(upper) - f(lower) < tol; that width also dominates the convergent
    error bound of the limit slope.  tol must exceed the float spacing at the
    target, since below it only f(lower) == f(upper) could end the descent.
    Like max_steps, INVERT_TRACE_BITS caps the descent: when the two ends'
    traces together pass it, the next multiply is not made and
    NoConvergenceError is raised.

    Near an endpoint, or near the f of a small rational, the descent is one
    long run of moves on one side while the other end F stays fixed.  After
    every move, the run's closed form T_d = A lam^d + B mu^d (rn_family)
    predicts the last node whose f lies at least a relative margin
    _GALLOP_MARGIN inside both of the loop's tests (same side of the target,
    width >= tol), and one jump lands one node short of it, capped at
    max_steps - steps and at the trace budget, if that node, evaluated
    exactly, passes; otherwise the jump is halved (_run_jump).  f increases
    strictly with the slope and levy_from_trace is within that margin of it,
    so every skipped node passes the loop's own float tests: the result,
    steps and errors are those of the one-mediant loop, and the loop steps
    the last node or two of a run itself.

    No trace is returned, and the loop reads of each trace only its bit
    length and, through levy_from_trace, its top 64 bits.  So a trace past
    PLAIN_BITS, on the bounded route, is held as a BoundedInt of P =
    mantissa_bits(2 * INVERT_TRACE_BITS) bits, 154 at the default budget (a
    trace within the budget has fewer than 2 * INVERT_TRACE_BITS letters),
    by continuants.narrow, and so is the run matrix of a jump whose traces
    may pass PLAIN_BITS.  Each multiply then costs the same whatever the
    trace's size, and every f, bit length, decision and step count is that
    of the exact ints.  If a bound does not fix the bits read, the same
    descent reruns on exact ints.
    """
    if math.isnan(target):
        raise ValueError(f"target must be a number, got {target}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if tol <= math.ulp(target) < math.inf:  # then only f_lo == f_hi could end the descent
        raise ValueError(f"tol must exceed the float spacing at the target, {math.ulp(target)!r}, got {tol}")
    f0, f1 = letter_levy(alphabet.a), letter_levy(alphabet.b)
    if not f0 <= target <= f1:
        raise TargetOutOfRangeError(target, f0, f1)
    ends = ((0, 1, alphabet.a, f0), (1, 1, alphabet.b, f1))  # (p, q, t, f) of the lower and the upper end
    if target in (f0, f1):
        p, q, _, f = ends[target == f1]
        end = Fraction(p, q)
        return InvertResult(end, end, end, f, f, fraction_cf(end), True, 0)
    return _settled(lambda bits: _descend(target, tol, max_steps, ends, bits), mantissa_bits(2 * INVERT_TRACE_BITS))


def _descend(target, tol, max_steps, ends, bits):
    # invert_f's descent from the two ends, with each trace held as narrow(t, bits)
    ends = [(p, q, narrow(t, bits), f) for p, q, t, f in ends]
    t_diff = 2
    steps = 0
    while ends[1][3] - ends[0][3] >= tol:
        (p_lo, q_lo, t_lo, _), (p_hi, q_hi, t_hi, _) = ends
        if steps >= max_steps:
            raise NoConvergenceError(f"no enclosure of width {tol} within {max_steps} steps")
        if t_lo.bit_length() + t_hi.bit_length() > INVERT_TRACE_BITS:
            raise NoConvergenceError(
                f"no enclosure of width {tol} within the trace budget of {INVERT_TRACE_BITS} bits ({steps} steps)"
            )
        p, q = p_lo + p_hi, q_lo + q_hi
        t = narrow(mediant_trace(t_lo, t_hi, t_diff, min(q_lo, q_hi)), bits)
        f_med = levy_from_trace(t, q)
        steps += 1
        if f_med == target:
            med = Fraction(p, q)
            return InvertResult(med, med, med, f_med, f_med, fraction_cf(med), True, steps)
        # the end on the mediant's side of the target moves to it: sign is +1 for the lower end, -1 for the upper
        side = f_med > target
        sign = -1 if side else 1
        f_fix = ends[not side][3]
        t_diff, ends[side] = ends[side][2], (p, q, t, f_med)
        # the loop's side and width tests for the moving end, margin inside: sign * (c - f) > 0 passes both
        margin = _GALLOP_MARGIN * ends[1][3]
        c = sign * min(sign * target - margin, sign * f_fix - tol - margin)
        jump = _run_jump(ends[not side], ends[side], t_diff, c, sign, max_steps - steps, bits)
        if jump:
            d, ends[side], t_diff = jump
            steps += d
    (p_lo, q_lo, _, f_lo), (p_hi, q_hi, _, f_hi) = ends
    med = Fraction(p_lo + p_hi, q_lo + q_hi)
    return InvertResult(Fraction(p_lo, q_lo), Fraction(p_hi, q_hi), med, f_lo, f_hi, fraction_cf(med), False, steps)


def _chunks(letters, count: int, keep: int):
    # Yield arrays over the first count letters of a float64 array or of any iterable: the last keep (or fewer)
    # letters of the array before, then max(CHUNK, 2 keep) new ones. A short source fails after its letters,
    # and a letter below 1, NaN or infinite fails with its piece.
    step, filled, arr = max(_kernels.CHUNK, 2 * keep), 0, np.empty(0)
    it = None if isinstance(letters, np.ndarray) else iter(letters)
    while filled < count:
        want = min(step, count - filled)
        piece = letters[filled : filled + want] if it is None else np.fromiter(itertools.islice(it, want), np.float64)
        if not (piece >= 1).all():
            raise InvalidWordError("letters must be >= 1")
        if not (piece < math.inf).all():
            raise InvalidWordError("letters must be finite")
        if piece.shape[0] < want:
            raise TruncatedStreamError(f"need {count} letters, got {filled + piece.shape[0]}")
        filled += want
        arr = np.concatenate((arr[max(0, arr.shape[0] - keep) :], piece)) if keep else piece
        yield arr


def _check_tail_depth(tail_depth: int) -> None:
    # the bound of every birkhoff route; the CLI checks it before any source is read
    if not 2 <= tail_depth <= TAIL_DEPTH_MAX:
        raise ValueError(f"tail_depth must be in 2..{TAIL_DEPTH_MAX}, got {tail_depth}")


def _heuristic_bias(amax: int, n: int) -> float:
    # O(1/n) bias guess for (log Q_n)/n style estimates; not rigorous.
    return (math.log(2.0) + letter_levy(amax)) / n


def _exact_sum(values) -> Fraction:
    # The exact sum of a float array: math.fsum rounds it once, and each pass adds the rounded remainder.
    values, total = values.tolist(), Fraction(0)
    while part := math.fsum(values):
        values.append(-part)
        total += Fraction(part)
    return total


def _mean(total: Fraction, n: int) -> float:
    # float(total) / n, the two roundings of math.fsum(logs) / n; both are scaled by 2^-j first, which
    # keeps the bits and lets a total past float range still divide
    j = max(0, n.bit_length() - 64)
    return float(total / 2**j) / (n / 2**j)


def _birkhoff_result(value: float, amin: int, amax: int, n: int, tail_depth: int) -> LevyResult:
    # the heuristic bound of a birkhoff mean from the extremes of the letters read
    truncation = math.ldexp(tail_spread(Alphabet(amin, amax)), 2 - tail_depth) if amax > amin else 0.0
    return LevyResult(value, truncation + _heuristic_bias(amax, n), METHOD_BIRKHOFF)


def levy_empirical(letters, n: int, method: str = "logq", tail_depth: int = 40,
                   period: Optional[int] = None) -> LevyResult:
    """Empirical Levy estimate over the first letters of a stream.

    letters is a float64 array or any iterable, sized or endless; only this
    function decides how many are read.  "logq" returns (log Q_n)/n from n
    letters: _kernels.logq_scan multiplies cf_matrix over each array of them,
    the ratio Q_k/Q_{k-1} carries from one array to the next, and log Q_n is
    read once from the summed exponents and the mantissas.  "birkhoff"
    averages the log of depth-limited continued-fraction tails over n window
    starts, from the n + tail_depth - 1 letters they cover.  period=s means
    the source is purely s-periodic, sized or endless: its first s letters are
    read once and tiled, and n enters only through min and divmod, so the cost
    is that of one period for any n.  "logq" then returns the geometrically
    converging difference form log(Q_{m+s}/Q_m)/s at m = min(n,
    PERIODIC_LOGQ_START), the ratio read from the product over the s letters
    after m and the carried Q_m/Q_{m-1}, with no difference of two logs of
    size m: O(s) work, the same bits at every n >= m.  "birkhoff" sweeps
    the first min(n, s) windows; for n = k s + r their logs sum to k S_s + P_r,
    exact before its one rounding, so value, extremes and error_bound are bit
    for bit those of the sweep over all n windows (O(s * tail_depth) work).
    All error_bounds here are heuristic.  sturmian_logq and sturmian_birkhoff
    give both methods on a Sturmian stream without reading its letters.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if period is not None and period < 1:
        raise ValueError(f"period must be nonempty, got length {period}")
    if method not in ("logq", "birkhoff"):
        raise ValueError(f"unknown method {method!r}")
    if method == "birkhoff":
        _check_tail_depth(tail_depth)
    if period is not None:
        [word] = _chunks(letters, period, period)  # keep = period: one array of the whole period
        if method == "logq":
            m = min(n, PERIODIC_LOGQ_START)
            tiled = np.resize(word, m + period)
            _, _, r = _kernels.logq_scan(tiled[:m])
            e, q, _ = _kernels.logq_scan(tiled[m:], r)
            return LevyResult(log_scaled(e, q) / period, 1e-12, METHOD_LOGQ)
        windows = min(n, period)
        tiled = np.resize(word, windows + tail_depth - 1)
        logs = np.log(_kernels.birkhoff_tails(tiled, windows, tail_depth))
        k, r = divmod(n, period)
        value = _mean(k * _exact_sum(logs) + _exact_sum(logs[:r]), n)
        amin, amax = int(tiled.min()), int(tiled.max())
    elif method == "logq":
        e, mantissas, r, amax = 0, [], math.inf, 1
        for arr in _chunks(letters, n, 0):
            amax = max(amax, int(arr.max()))
            de, q, r = _kernels.logq_scan(arr, r)
            e += de
            mantissas.append(q)
        return LevyResult(log_scaled(e, *mantissas) / n, _heuristic_bias(amax, n), METHOD_LOGQ)
    else:
        extremes = []

        def logs():
            # each window start is swept once, in the first array with all its letters: an array keeps the
            # tail_depth - 1 letters that two windows overlap in
            for arr in _chunks(letters, n + tail_depth - 1, tail_depth - 1):
                extremes.extend((arr.min(), arr.max()))
                tails = _kernels.birkhoff_tails(arr, arr.shape[0] - tail_depth + 1, tail_depth)
                logs = np.log(tails, out=tails)
                # fsum reads Python floats, not a numpy scalar each, in slices that keep 4096 of them alive, not 2^16
                yield from (logs[i : i + 4096].tolist() for i in range(0, logs.shape[0], 4096))

        value = math.fsum(itertools.chain.from_iterable(logs())) / n
        amin, amax = int(min(extremes)), int(max(extremes))
    return _birkhoff_result(value, amin, amax, n, tail_depth)


def _ostrowski_prefix(slope: SlopeCF, length: int, alphabet: Alphabet, leaf):
    """The first `length` letters of s_{theta,0} = a c_theta as a monoid element, and the largest of them.

    Write length - 1 greedily as sum b_k q_k with q_k = |M_k|.  The prefix of
    c_theta of that length is then M_K^{b_K} ... M_1^{b_1} M_0^{b_0} (T. C. Brown,
    Canad. Math. Bull. 36, 1993), so the result is leaf(a) times the product of
    the M_k^{b_k}, folded from the left with the monoid's @ and **, with no
    letter generated: O(sum log d_k + log length) products.  leaf maps a
    letter to its monoid element.  The largest letter and the digits asked for
    are those of reading the first length letters of sturmian_letters: d_1..d_K
    with q_K >= length - 1, so a short digit list raises the same
    InsufficientDigitsError.  Only the M_k that the sum uses are built.
    """
    # s_{theta,0} = a a^{d_1} b ...: b is among the first length letters iff length - 1 > d_1.  An unread b would enter
    # only through M_1, which the prefix then does not use, so a stands in for it.  The leaves come before any
    # digit past d_1, so a letter past float range that is read fails first, as it does on the letter route.
    amax = alphabet.b if length - 1 > slope.digit(1) else alphabet.a
    m_a, m_b = leaf(alphabet.a), leaf(amax)
    lengths = []
    for _, _, q in slope.convergents():
        lengths.append(q)
        if q >= length - 1:
            break
    rest, counts = length - 1, []
    for q in reversed(lengths):
        count, rest = divmod(rest, q)
        counts.append(count)
    counts.reverse()  # b_0, b_1, ..., b_K
    used = max((k + 1 for k, count in enumerate(counts) if count), default=1)
    words = standard_sequence(map(slope.digit, range(1, used)), m_b, m_a, operator.pow, operator.matmul)
    prod = m_a
    for m, count in reversed(list(zip(words, counts))):
        if count:
            prod = prod @ m**count
    return prod, amax


def _cf_leaf(x: int) -> ScaledMat2:
    float(x)  # the letter route reads each letter as a float, so one past float range fails here as there
    return ScaledMat2.of(Mat2(x, 1, 1, 0))


def sturmian_logq(slope: SlopeCF, n: int, alphabet: Alphabet) -> LevyResult:
    """(log Q_n)/n of the Sturmian word s_{theta,0}, from the Ostrowski digits of n - 1.

    Q_n is the top-left entry of the product of cf_matrix over the first n
    letters, and _ostrowski_prefix gives that product from O(sum log d_k +
    log n) ScaledMat2 products, with no letter generated.  It asks for the
    digits that levy_empirical(sturmian_letters(...)) asks for, so a short
    digit list raises the same InsufficientDigitsError at the same n.  The
    error_bound and method are those of that route.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    prod, amax = _ostrowski_prefix(slope, n, alphabet, _cf_leaf)
    return LevyResult(prod.log_e11 / n, _heuristic_bias(amax, n), METHOD_LOGQ)


@dataclass(eq=False, slots=True)
class _WindowSums:
    """A word in the window-sum monoid of one depth D, for Sturmian birkhoff.

    It holds the word's length, the exact sum of the logs of its complete
    depth-D windows, and its first and last D - 1 letters as float64 (all of
    them when it is shorter).  A product adds the windows that straddle the
    join: every complete window of the last D - 1 letters of the left factor
    followed by the first D - 1 of the right one.  birkhoff_tails computes
    them, so each window's float is the one a sweep over the letters computes,
    and the sums are exact, so every bracketing of a word gives the same
    element.
    """

    depth: int
    length: int
    total: Fraction
    head: np.ndarray
    tail: np.ndarray

    @classmethod
    def of(cls, letters: np.ndarray, depth: int) -> "_WindowSums":
        """The element of a float64 array of letters, with the exact log sum of its complete windows."""
        keep, total = depth - 1, Fraction(0)
        if letters.shape[0] > keep:
            tails = _kernels.birkhoff_tails(letters, letters.shape[0] - keep, depth)
            total = _exact_sum(np.log(tails, out=tails))
        return cls(depth, letters.shape[0], total, letters[:keep], letters[-keep:])

    def __matmul__(self, other):
        keep = self.depth - 1
        straddle = _WindowSums.of(np.concatenate((self.tail, other.head)), self.depth)
        head = self.head if self.length >= keep else straddle.head
        tail = other.tail if other.length >= keep else straddle.tail
        return _WindowSums(self.depth, self.length + other.length, self.total + other.total + straddle.total, head, tail)

    def __pow__(self, e: int):
        return _power(self, e, None)  # e >= 1: the digits and Ostrowski counts that are powered


def sturmian_birkhoff(slope: SlopeCF, n: int, alphabet: Alphabet, tail_depth: int = 40) -> LevyResult:
    """levy_empirical(sturmian_letters(slope, alphabet), n, "birkhoff", tail_depth), bit for bit.

    The n windows cover the first n + tail_depth - 1 letters of s_{theta,0},
    which _ostrowski_prefix folds in the _WindowSums monoid, at a cost of
    O(tail_depth^2 (sum log d_k + log n)) whatever n is.  The value is
    float(exact sum) / n, the two roundings of the letter route, and the
    digits asked for and the extremes behind error_bound are those of the
    same letters, which that route reads.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_tail_depth(tail_depth)
    prod, amax = _ostrowski_prefix(slope, n + tail_depth - 1, alphabet,
                                   lambda x: _WindowSums.of(np.array([x], dtype=np.float64), tail_depth))
    return _birkhoff_result(_mean(prod.total, n), alphabet.a, amax, n, tail_depth)


@dataclass(frozen=True)
class XiOscillation:
    """Normalized log-denominators of xi at the doubling positions.

    points holds (m, u_m) with u_m = log Q_{2^m} / 2^m.  The even-m and odd-m
    subsequences approach two distinct accumulation points, so the continued
    fraction has no Levy constant.  The predicted_* fields come from solving
    the two-cycle u' = u/2 + L_block/2 and are a derived prediction, not a
    proved value.
    """

    points: tuple
    acc_even: float
    acc_odd: float
    predicted_even: float
    predicted_odd: float
    noise_floor: float

    @property
    def gap(self) -> float:
        return abs(self.acc_even - self.acc_odd)

    @property
    def predicted_gap(self) -> float:
        return abs(self.predicted_even - self.predicted_odd)


def xi_oscillation(alphabet: Alphabet, m_max: int) -> XiOscillation:
    """Locate both accumulation points of u_m = log Q_{2^m} / 2^m, m = 1..m_max.

    Q_{2^m} is the top-left entry, and the largest, of the product of xi's block
    matrices.  By Cayley-Hamilton a block of N letters c is M_c^N = F_N M_c + F_{N-1} I,
    and F_N / lam^N = (1 - z^N) / (lam + 1/lam) with lam = exp(letter_levy(c)) and
    z = -1/lam^2: each block enters as M_c^N / lam^N, positive and in O(1) whatever N.
    """
    if not 4 <= m_max <= XI_MMAX:
        raise ValueError(f"m_max must be in 4..{XI_MMAX}, got {m_max}")
    try:
        lams = {c: math.exp(letter_levy(c)) for c in (alphabet.a, alphabet.b)}
    except OverflowError:
        raise OverflowError("letter b is past float range for xi's block products") from None
    prod, log_q, points = Mat2(alphabet.a, 1, 1, 0), 0.0, []
    for j, (c, n) in enumerate(xi_blocks(alphabet, m_max)[1:], start=1):
        lam = lams[c]
        z = -1.0 / (lam * lam)
        w, v = (1.0 - z**n) / (lam + 1.0 / lam), (1.0 - z ** (n - 1)) / (lam * lam + 1.0)
        prod = prod @ Mat2(w * c + v, w, w, v)
        log_q += n * letter_levy(c) + math.log(prod.e11)
        prod = Mat2(1.0, prod.e12 / prod.e11, prod.e21 / prod.e11, prod.e22 / prod.e11)
        points.append((j, math.ldexp(log_q, -j)))
    evens = [u for m, u in points if m % 2 == 0]
    odds = [u for m, u in points if m % 2 == 1]
    la, lb = letter_levy(alphabet.a), letter_levy(alphabet.b)
    return XiOscillation(
        points=tuple(points),
        acc_even=sum(evens[-3:]) / len(evens[-3:]),
        acc_odd=sum(odds[-3:]) / len(odds[-3:]),
        predicted_even=(2.0 * la + lb) / 3.0,
        predicted_odd=(la + 2.0 * lb) / 3.0,
        noise_floor=max(abs(evens[-1] - evens[-2]), abs(odds[-1] - odds[-2])),
    )


def rn_family(pq: Fraction, ppqq: Fraction, alphabet: Alphabet, n_max: int) -> list:
    """Slope points along r_n = (p' + n p)/(q' + n q), n = 0..n_max.

    Requires |p' q - p q'| = 1.  The exact trace recurrence
    T(w_{r_n}) = T(w_{p/q}) T(w_{r_{n-1}}) + (-1)^{q+1} T(w_{r_{n-2}})
    is verified in big integers for every n >= 2 before returning.

    Convergence law.  Write t = T(w_{p/q}), sigma = (-1)^{q+1}, T_n =
    T(w_{r_n}) and q_n = q' + n q.  The roots of z^2 - t z - sigma are
    lam = (t + sqrt(t^2 + 4 sigma))/2, the dominant eigenvalue of the matrix
    of w_{p/q} (so f(p/q) = log(lam)/q), and mu = -sigma/lam, with
    |mu| = 1/lam.  Hence T_n = A lam^n + B mu^n with
    A = (T_1 - mu T_0)/(lam - mu), and for either sign of sigma

        q_n (f(r_n) - f(p/q)) = log(A) - (q'/q) log(lam) + O(lam^{-2n}).

    So f(r_n) - f(p/q), and with it x(r_n) - x(p/q), tends to 0 like 1/q_n,
    not geometrically.  For p/q = 1/2, p'/q' = 1/3 over {1, 2}: t = 4,
    T_0 = 6, T_1 = 23, lam = 2 + sqrt(3), A = (11 + 6 sqrt(3))/(2 sqrt(3))
    and the limit is log(A) - (3/2) log(lam) = -0.15485889958...
    """
    pq, ppqq = Fraction(pq), Fraction(ppqq)
    p, q = pq.numerator, pq.denominator
    pp, qq = ppqq.numerator, ppqq.denominator
    if abs(pp * q - p * qq) != 1:
        raise ValueError(f"cross-determinant of {pq} and {ppqq} must be +-1")
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    pts = [slope_point(Fraction(pp + n * p, qq + n * q), alphabet) for n in range(n_max + 1)]
    t_base = christoffel_trace(pq, alphabet)
    sign = -1 if q % 2 == 0 else 1
    for n in range(2, n_max + 1):
        if pts[n].trace != t_base * pts[n - 1].trace + sign * pts[n - 2].trace:
            raise ArithmeticError(f"trace recurrence violated at n={n}")
    return pts


def morphic_levy(phi: Morphism, slope: SlopeCF, n: int, method: str = "logq",
                 tail_depth: int = 40, intercept: str = "zero") -> LevyResult:
    """Empirical Levy estimate of [0; phi(s)] for a Sturmian source word s.

    intercept "zero" feeds phi the stream s_{theta,0}; "slope" the stream
    s_{theta,theta}.  The limit depends only on the slope; the estimate at
    finite n carries the usual heuristic error.
    """
    streams = {"zero": sturmian_letters, "slope": characteristic_letters}
    if intercept not in streams:
        raise ValueError(f"unknown intercept {intercept!r}")
    src = streams[intercept](slope, phi.alphabet)
    return levy_empirical(morphism_letters(phi, src), n, method=method, tail_depth=tail_depth)
