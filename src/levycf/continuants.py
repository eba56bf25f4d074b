"""Exact continuant and trace algebra for words of partial quotients.

A word is a tuple of positive integers, read as the partial quotients of a
continued fraction.  Every word maps to the 2x2 integer matrix product of
[[a_i, 1], [1, 0]]; its top-left entry is the continuant K (the denominator
of [0; a_1, ..., a_n]) and its trace T drives the quadratic Levy formula.
Integer arithmetic here is arbitrary precision, with two exceptions for
values too long to hold exactly: ScaledMat2, the float product scaled by a
power of two, and BoundedInt, an integer held as the top P bits of its
mantissa, a power-of-two shift and a rigorous integer error bound.  A
BoundedInt gives the top 64 bits and the bit length that log_big and the
callers' size checks read only when its bound fixes them, and raises
_Unsettled otherwise; those callers then rerun the same code on exact ints.
Floats otherwise appear only in the log-space helpers.
"""

import math
from typing import Iterable, NamedTuple

from .errors import InvalidWordError

Word = tuple  # tuple of positive ints; see as_word()

_LN2 = math.log(2.0)
# log 2 = _LN2_HI + _LN2_LO to about 2^-73; _LN2_HI has 17 bits, so k * _LN2_HI is exact for k < 2^36
_LN2_HI = 0.693145751953125
_LN2_LO = 1.4286068203094173e-06


class Mat2(NamedTuple):
    """2x2 matrix, entries row-major: ints, but floats in xi_oscillation and ScaledMat2.

    Entries are non-negative except in the run matrix [[t, -1], [1, 0]] of levy.invert_f.
    """

    e11: int
    e12: int
    e21: int
    e22: int

    @property
    def det(self) -> int:
        return self.e11 * self.e22 - self.e12 * self.e21

    @property
    def trace(self) -> int:
        return self.e11 + self.e22

    def __matmul__(self, other: "Mat2") -> "Mat2":
        a, b, c, d = self
        e, f, g, h = other
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __pow__(self, n: int) -> "Mat2":
        return _power(self, n, IDENTITY)


IDENTITY = Mat2(1, 0, 0, 1)


class ScaledMat2(NamedTuple):
    """Nonnegative 2x2 matrix 2**exponent * mantissa, the float mantissa's largest entry in [1, 2].

    A product of nonnegative matrices does not cancel, so each entry of a
    product of k factors keeps a relative error of about k * eps whatever its
    size (Higham, Accuracy and Stability of Numerical Algorithms, 3.5).  The
    scale is an int power of two, so nothing overflows and renormalising a
    product rounds nothing, and log_e11 = exponent * log 2 + log(e11) is one
    correctly rounded sum, with log 2 split in two parts.
    """

    mantissa: Mat2
    exponent: int

    @classmethod
    def of(cls, m: Mat2) -> "ScaledMat2":
        """Scale a nonnegative, nonzero Mat2; int entries of any size divide correctly rounded, without overflow."""
        top = max(m)
        if isinstance(top, int):
            e = top.bit_length() - 1
            d = 1 << e
            return cls(Mat2(m.e11 / d, m.e12 / d, m.e21 / d, m.e22 / d), e)
        e = math.frexp(top)[1] - 1
        d = math.ldexp(1.0, -e)  # a power of two: each product below is exact unless it falls below 2^-1022
        return cls(Mat2(m.e11 * d, m.e12 * d, m.e21 * d, m.e22 * d), e)

    @property
    def log_e11(self) -> float:
        return log_scaled(self.exponent, self.mantissa.e11)

    def __matmul__(self, other: "ScaledMat2") -> "ScaledMat2":
        p = ScaledMat2.of(self.mantissa @ other.mantissa)
        return ScaledMat2(p.mantissa, self.exponent + other.exponent + p.exponent)

    def __pow__(self, n: int) -> "ScaledMat2":
        return _power(self, n, SCALED_IDENTITY)


SCALED_IDENTITY = ScaledMat2(Mat2(1.0, 0.0, 0.0, 1.0), 0)


def log_scaled(exponent: int, *mantissas: float) -> float:
    """log(2**exponent * m_1 * ... * m_k) for positive float mantissas.

    exponent * log 2 and the log of each mantissa are summed with one
    rounding.  log 2 enters in two parts, and the product with the first is
    exact for |exponent| < 2^36.
    """
    return math.fsum((exponent * _LN2_HI, exponent * _LN2_LO, *map(math.log, mantissas)))


def _power(m, n: int, identity):
    """m**n by left-to-right repeated squaring; identity for n = 0.

    Takes bit_length(n) - 1 squarings plus one product by m for each
    further set bit of n.
    """
    if n < 0:
        raise ValueError(f"{type(m).__name__} power must be >= 0, got {n}")
    if n == 0:
        return identity
    result = m
    for bit in bin(n)[3:]:
        result = result @ result
        if bit == "1":
            result = result @ m
    return result


class _Unsettled(ArithmeticError):
    """A BoundedInt's error bound does not fix the bits asked for; the caller reruns on exact ints."""


# Ints of up to this many bits stay plain (narrow): below it a native multiply costs less than the Python-level
# BoundedInt arithmetic.  christoffel_trace on exact ints and on BoundedInts of mantissa_bits(q) bits cost the
# same at traces of 6,000-10,000 bits (about 0.5 ms each, in process on a 2-core VM).
PLAIN_BITS = 8192


def mantissa_bits(q: int) -> int:
    """P for the traces of words up to q letters: 128 bits plus the bit length of q.

    Each BoundedInt product or sum adds at most about two units in the last
    place to the relative error, and relative errors add through products,
    so a trace folded from q leaf factors is off by about q * 2^(2 - P)
    relative.  At P >= 128 + log2 q that is at most 2^-126: the top 64 bits
    and the bit length are then fixed unless the exact value lies within
    2^-62 of a rounding boundary.  The bound is rigorous at any P; P only
    sets how rarely _Unsettled is raised.
    """
    return 128 + q.bit_length()


class BoundedInt:
    """An integer T held as m * 2**s to within err * 2**s: |T - m 2^s| <= err 2^s, with |m| <= 2**bits.

    *, + and - take BoundedInts and plain ints and always return a
    BoundedInt, so a matrix seeded with one keeps every product it folds
    to `bits` bits: an exact m, with s = err = 0, until a result passes
    `bits` bits, then the top bits of the exact product or sum, floored, with
    the bound widened to cover both operands' errors and the floor
    (Brent and Zimmermann, Modern Computer Arithmetic, 3.3).  bit_length and
    top return the exact integer's bit length and leading bits when the
    bound fixes them, and raise _Unsettled otherwise.
    """

    __slots__ = ("m", "s", "err", "bits")

    def __init__(self, m: int, s: int, err: int, bits: int):
        self.m, self.s, self.err, self.bits = m, s, err, bits

    @classmethod
    def of(cls, n, bits):
        """An int n as a BoundedInt of `bits` bits, exact while it fits; a BoundedInt n, or bits None, keeps n."""
        return n if bits is None or type(n) is BoundedInt else _rounded(n, 0, 0, bits)

    def __repr__(self):
        return f"BoundedInt({self.m}, {self.s}, {self.err}, {self.bits})"

    def __mul__(self, other):
        m1, e1 = self.m, self.err
        if type(other) is int:
            return _rounded(m1 * other, self.s, e1 * abs(other), self.bits)
        if type(other) is not BoundedInt:
            return NotImplemented
        m2, e2 = other.m, other.err
        err = abs(m1) * e2 + abs(m2) * e1 + e1 * e2 if e1 or e2 else 0
        return _rounded(m1 * m2, self.s + other.s, err, self.bits)

    __rmul__ = __mul__

    def __add__(self, other):
        s1, m1, e1 = self.s, self.m, self.err
        if type(other) is int:
            s2, m2, e2 = 0, other, 0
        elif type(other) is BoundedInt:
            s2, m2, e2 = other.s, other.m, other.err
        else:
            return NotImplemented
        if s1 < s2:
            s1, m1, e1, s2, m2, e2 = s2, m2, e2, s1, m1, e1
        if s2 < s1:  # floor the finer operand to the coarser one's unit: off by under one unit, plus its error, ceiled
            d = s1 - s2
            m2, e2 = m2 >> d, 1 - (-e2 >> d)
        return _rounded(m1 + m2, s1, e1 + e2, self.bits)

    __radd__ = __add__

    def __neg__(self):
        return BoundedInt(-self.m, self.s, self.err, self.bits)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def bit_length(self) -> int:
        """The exact integer's bit length, as int.bit_length gives it."""
        lo, hi = abs(self.m) - self.err, abs(self.m) + self.err
        if lo < 0 or lo.bit_length() != hi.bit_length():
            raise _Unsettled("bit length")
        return lo.bit_length() + self.s if hi else 0

    def top(self, k: int) -> tuple:
        """(T >> shift, shift) with shift = max(0, T.bit_length() - k), for the positive exact T."""
        lo, hi = self.m - self.err, self.m + self.err
        if hi < 1:
            raise ValueError(f"log_big requires n >= 1, got {self!r}")
        if lo < 1:
            raise _Unsettled("leading bits")
        shift = max(0, lo.bit_length() + self.s - k)  # hi's bit length differs only if its top bits do
        j = shift - self.s
        top_lo, top_hi = (lo >> j, hi >> j) if j >= 0 else (lo << -j, hi << -j)
        if top_lo != top_hi:
            raise _Unsettled("leading bits")
        return top_lo, shift


def _rounded(m: int, s: int, err: int, bits: int) -> BoundedInt:
    # m * 2^s within err * 2^s, floored to a mantissa of `bits` bits: the floor is off by under one new unit,
    # and err / 2^k is ceiled
    k = m.bit_length() - bits
    if k > 0:
        return BoundedInt(m >> k, s + k, 1 - (-err >> k), bits)
    return BoundedInt(m, s, err, bits)


def narrow(n, bits):
    """n as a plain int when it is known exactly and has at most max(bits, PLAIN_BITS) bits, else as a BoundedInt.

    bits None keeps n as it is, for the exact route.
    """
    if bits is None:
        return n
    if type(n) is int:
        return n if n.bit_length() <= max(bits, PLAIN_BITS) else _rounded(n, 0, 0, bits)
    return n.m if not (n.s or n.err) and n.m.bit_length() <= max(bits, PLAIN_BITS) else n


def as_word(letters: Iterable[int]) -> Word:
    """Validate and freeze a letter sequence into a word tuple."""
    w = tuple(letters)
    for x in w:
        if not isinstance(x, int) or isinstance(x, bool) or x < 1:
            raise InvalidWordError(f"letters must be positive integers, got {x!r}")
    return w


def cf_matrix(w: Iterable[int]) -> Mat2:
    """Left-to-right product of [[a,1],[1,0]] over the word; identity if empty.

    Folding against a single-letter factor keeps each step linear in the
    current entry size, so the whole product is quadratic in the word length
    rather than cubic.
    """
    e11, e12, e21, e22 = 1, 0, 0, 1
    for x in as_word(w):
        e11, e12 = e11 * x + e12, e11
        e21, e22 = e21 * x + e22, e21
    return Mat2(e11, e12, e21, e22)


def continuant(w: Iterable[int]) -> int:
    """Continuant K(w): denominator of [0; w]. K(empty) = 1."""
    return cf_matrix(w).e11


def trace(w: Iterable[int]) -> int:
    """Trace of cf_matrix(w); the empty word gives Tr(I) = 2."""
    return cf_matrix(w).trace


def mediant_trace(t_lo: int, t_hi: int, t_diff: int, q_small: int) -> int:
    """Christoffel trace of the mediant of two Farey neighbours, from three traces.

    Let big and small be the neighbours of larger and smaller denominator and
    diff the slope big - small (numerators and denominators subtracted).  Then
    T(w_{lo+hi}) = T(w_big) T(w_small) - (-1)^q_small T(w_diff): this is
    tr(AB) = tr(A) tr(B) - det(B) tr(A B^-1) with B the matrix of w_small,
    whose determinant is (-1)^q_small, and A B^-1 conjugate to the matrix of
    w_diff.  The root pair 0/1, 1/1 has the empty diff, of trace 2.  The cost
    is one big multiply, against eight for the product of the parents' matrices.
    """
    t = t_lo * t_hi
    return t + t_diff if q_small % 2 else t - t_diff


def log_big(n) -> float:
    """Natural log of a positive big integer, a plain int or a BoundedInt.

    Extracts the top 64 bits plus the binary exponent instead of converting
    the full integer to float, so there is no overflow and the relative error
    stays below 1e-15 for any size.  A BoundedInt gives the same two ints as
    its exact value, or raises _Unsettled, so the log has the same bits.
    """
    if type(n) is BoundedInt:
        top, shift = n.top(64)
        return math.log(top) + shift * _LN2
    if n <= 0:
        raise ValueError(f"log_big requires n >= 1, got {n}")
    nb = n.bit_length()
    if nb <= 64:
        return math.log(n)
    shift = nb - 64
    return math.log(n >> shift) + shift * _LN2


def tail_value(w: Iterable[int]) -> float:
    """Value of the finite continued fraction [a_1; a_2, ..., a_D] as a float."""
    w = as_word(w)
    if not w:
        raise ValueError("tail_value requires a nonempty word")
    t = 0.0
    for x in reversed(w):
        t = x + (1.0 / t if t else 0.0)
    return t
