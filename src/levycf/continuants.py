"""Exact continuant and trace algebra for words of partial quotients.

A word is a tuple of positive integers, read as the partial quotients of a
continued fraction.  Every word maps to the 2x2 integer matrix product of
[[a_i, 1], [1, 0]]; its top-left entry is the continuant K (the denominator
of [0; a_1, ..., a_n]) and its trace T drives the quadratic Levy formula.
All integer arithmetic here is arbitrary precision; floats only appear in
the log-space helpers and in ScaledMat2, the float product scaled by a power
of two for words whose continuants are too long to hold exactly.
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


def log_big(n: int) -> float:
    """Natural log of a positive big integer.

    Extracts the top 64 bits plus the binary exponent instead of converting
    the full integer to float, so there is no overflow and the relative error
    stays below 1e-15 for any size.
    """
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
