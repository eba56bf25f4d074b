"""Mechanical, Christoffel, and standard words over a two-letter alphabet.

Letters are stored as the integers a, b themselves so that words feed
straight into the continuant algebra.  Slopes are either exact rationals
(fractions.Fraction) or continued-fraction digit lists (SlopeCF, encoding
theta = [0; 1+d1, d2, d3, ...]).  All word generation is exact integer
arithmetic: Sturmian and Christoffel words come from standard_sequence,
irrational mechanical words from a convergent with floor-ambiguity checks.
"""

import io
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .continuants import BoundedInt, Mat2, Word, as_word, continuant
from .errors import (
    FloorPrecisionError,
    InsufficientDigitsError,
    InvalidWordError,
    NotAFactorError,
    TraceRangeError,
)


@dataclass(frozen=True)
class Alphabet:
    """Ordered pair of distinct positive integers a < b."""

    a: int
    b: int

    def __post_init__(self):
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise TypeError("alphabet letters must be integers")
        if not 1 <= self.a < self.b:
            raise ValueError(f"alphabet requires 1 <= a < b, got a={self.a}, b={self.b}")

    @property
    def c(self) -> float:
        """Max continuant distortion ratio between the two letters."""
        return self.b / self.a


@dataclass(frozen=True)
class SlopeCF:
    """Slope given by continued-fraction digits: theta = [0; 1+d1, d2, d3, ...].

    `digits` is the known finite prefix d1, d2, ...; `repeat` optionally marks
    an eventually-periodic tail, which covers quadratic slopes (for example
    the golden slope is SlopeCF((), repeat=(1,))).  Every digit must be >= 1.
    """

    digits: tuple
    repeat: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        object.__setattr__(self, "repeat", tuple(self.repeat))
        for d in self.digits + self.repeat:
            if not isinstance(d, int) or isinstance(d, bool) or d < 1:
                raise ValueError(f"slope digits must be positive integers, got {d!r}")
        if not self.digits and not self.repeat:
            raise ValueError("slope needs at least one digit")

    def digit(self, i: int) -> int:
        """d_i, 1-based; raises InsufficientDigitsError past the known digits."""
        if i < 1:
            raise ValueError("digit index is 1-based")
        if i <= len(self.digits):
            return self.digits[i - 1]
        if self.repeat:
            return self.repeat[(i - len(self.digits) - 1) % len(self.repeat)]
        raise InsufficientDigitsError(f"slope digit d_{i} unknown (only {len(self.digits)} given)")

    def convergents(self) -> Iterator[tuple]:
        """Yield (k, p_k, q_k) for k = 0, 1, 2, ... starting at 0/1.

        q_k = |M_k| and p_k counts its b's: standard_sequence on (p, q) pairs from
        M_{-1} = b -> (1, 1) and M_0 = a -> (0, 1), so q_1 = 1 + d1.
        """
        pairs = standard_sequence(map(self.digit, itertools.count(1)), (1, 1), (0, 1),
                                  lambda m, d: (d * m[0], d * m[1]), lambda m, n: (m[0] + n[0], m[1] + n[1]))
        return ((k, p, q) for k, (p, q) in enumerate(pairs))

    def convergent(self, k: int) -> tuple:
        """(p_k, q_k), without stepping past a q_j beyond float range.

        Digits that do not reach d_k raise InsufficientDigitsError before any
        step.  q_j >= F_{j+2} grows at least as fast as the Fibonacci numbers,
        so it passes 2^1024 by j = 1475 whatever the digits, and every later
        q_k is larger still.  The walk stops at such a q_j with
        TraceRangeError, since f = log T / q reads q_k as a float, so a deep
        k costs at most 1475 steps and not k steps of k-digit ints.
        """
        if k < 0:
            raise ValueError("convergent index must be >= 0")
        if not self.repeat and k > len(self.digits):
            self.digit(len(self.digits) + 1)
        for j, p, q in self.convergents():
            if j == k:
                return p, q
            if q.bit_length() > 1024:
                raise TraceRangeError(f"the denominator q_{k} is past float range, as q_{j} already is "
                                      f"(about 2^{q.bit_length() - 1}), so f = log T / q is no float")

    def convergent_exceeding(self, bound) -> tuple:
        """First (k, p_k, q_k) with q_k > bound."""
        return next(c for c in self.convergents() if c[2] > bound)


@dataclass(frozen=True)
class Morphism:
    """Substitution on {a, b} into words of positive integers."""

    alphabet: Alphabet
    image_a: Word
    image_b: Word

    def __post_init__(self):
        object.__setattr__(self, "image_a", as_word(self.image_a))
        object.__setattr__(self, "image_b", as_word(self.image_b))
        if not self.image_a or not self.image_b:
            raise ValueError("morphism images must be nonempty")
        if self.image_a + self.image_b == self.image_b + self.image_a:
            raise ValueError("morphism images must not commute (phi(ab) == phi(ba))")

    @property
    def h(self) -> int:
        return max(len(self.image_a), len(self.image_b))

    @property
    def c_phi(self) -> float:
        ka, kb = continuant(self.image_a), continuant(self.image_b)
        return max(ka / kb, kb / ka)


def _check_rho(rho) -> Fraction:
    if isinstance(rho, float):
        raise TypeError("rho must be an exact rational (int or Fraction), not float")
    rho = Fraction(rho)
    if not 0 <= rho < 1:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    return rho


def _check_slope_fraction(theta: Fraction) -> Fraction:
    theta = Fraction(theta)
    if not 0 <= theta <= 1:
        raise ValueError(f"rational slope must lie in [0, 1], got {theta}")
    return theta


def _floors_rational(p, q, u, v, n):
    # floor(m*p/q + u/v) for m = 0..n, exact.
    den = q * v
    return [(m * p * v + u * q) // den for m in range(n + 1)]


def _floors_near_convergent(p, q, u, v, n):
    """Floors of m*(p/q) + u/v for m = 0..n, or the first ambiguous m.

    The true slope theta satisfies |theta - p/q| < 1/q^2, so floor(m*theta + rho)
    equals the rational floor whenever the fractional part keeps a margin of
    m/q^2 from both integer boundaries.  Returns (floors, None) on success and
    (None, m) on the first ambiguity.
    """
    den = q * v
    q2 = q * q
    floors = []
    for m in range(n + 1):
        num = m * p * v + u * q
        fl, rem = divmod(num, den)
        margin = m * den
        if rem * q2 < margin or (den - rem) * q2 < margin:
            return None, m
        floors.append(fl)
    return floors, None


_MAX_REFINEMENTS = 5


def _floors_irrational(slope: SlopeCF, rho: Fraction, n: int):
    u, v = rho.numerator, rho.denominator
    candidates = (c for c in slope.convergents() if c[2] > 2 * n * n)
    for tries, (_, p, q) in enumerate(candidates):
        floors, bad = _floors_near_convergent(p, q, u, v, n)
        if floors is not None:
            return floors
        if tries == _MAX_REFINEMENTS:
            raise FloorPrecisionError(bad)


def _letters_from_floors(floors, alphabet: Alphabet) -> Word:
    out = []
    for m in range(1, len(floors)):
        d = floors[m] - floors[m - 1]
        out.append(alphabet.b if d else alphabet.a)
    return tuple(out)


def mechanical_lower(theta, rho, n: int, alphabet: Alphabet) -> Word:
    """First n letters of the lower mechanical word s_{theta,rho}.

    Letter m is b when floor(m*theta + rho) - floor((m-1)*theta + rho) = 1,
    else a.  Exact for rational slopes; irrational slopes (SlopeCF) are
    evaluated through a convergent with q > 2n^2, refining on any floor that
    comes within the approximation margin of an integer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rho = _check_rho(rho)
    if isinstance(theta, SlopeCF):
        floors = _floors_irrational(theta, rho, n)
    else:
        theta = _check_slope_fraction(theta)
        floors = _floors_rational(theta.numerator, theta.denominator, rho.numerator, rho.denominator, n)
    return _letters_from_floors(floors, alphabet)


def mechanical_upper(theta, rho, n: int, alphabet: Alphabet) -> Word:
    """Upper mechanical word s'_{theta,rho}: same formula with ceilings."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rho = _check_rho(rho)
    if isinstance(theta, SlopeCF):
        # m*theta + rho is irrational for m >= 1, so ceil = floor + 1 there;
        # the m = 0 term is ceil(rho), which is exact.
        floors = _floors_irrational(theta, rho, n)
        ceils = [0 if rho == 0 else 1] + [f + 1 for f in floors[1:]]
    else:
        theta = _check_slope_fraction(theta)
        # ceil(x) = -floor(-x)
        ceils = [-f for f in _floors_rational(-theta.numerator, theta.denominator, -rho.numerator, rho.denominator, n)]
    return _letters_from_floors(ceils, alphabet)


def standard_sequence(digits, m_b, m_a, power, product) -> Iterator:
    """Yield M_0 = m_a, M_1, ... with M_{-1} = m_b and M_k = M_{k-1}^{d_k} M_{k-2}.

    Generic over the monoid: letter tuples take (itertools.repeat, _join),
    Mat2 takes (operator.pow, operator.matmul).  Only the last two terms are
    held; a digit source that raises (SlopeCF.digit) ends it with that error.
    """
    prev, cur = m_b, m_a
    yield cur
    for d in digits:
        prev, cur = cur, product(power(cur, d), prev)
        yield cur


def _join(words, last) -> Word:
    # One tuple, with no copy of M_{k-1}^{d_k} on the way: as `*` and `+`,
    # that copy raised the stream benchmark's peak RSS by 7 MB at some seeds.
    return tuple(itertools.chain(itertools.chain.from_iterable(words), last))


def _slope_words(slope: SlopeCF, alphabet: Alphabet) -> Iterator:
    # M_0, M_1, ... of the slope as letter tuples; |M_k| = q_k
    digits = map(slope.digit, itertools.count(1))
    return standard_sequence(digits, (alphabet.b,), (alphabet.a,), itertools.repeat, _join)


def _christoffel_conjugate(pq: Fraction, m_b, m_a, power, product):
    # M_n of p/q = [0; c_1, ..., c_n] with d_1 = c_1 - 1, d_k = c_k after that
    cf = fraction_cf(_check_slope_fraction(pq))
    digits = (cf[0] - 1,) + cf[1:] if cf else ()
    for m in standard_sequence(digits, m_b, m_a, power, product):
        pass
    return m


def christoffel(pq: Fraction, alphabet: Alphabet) -> Word:
    """Lower Christoffel word of slope p/q: the length-q prefix of s_{p/q,0}.

    For q >= 2 the standard word M_n of p/q is P x y with {x, y} = {a, b},
    and w_{p/q} = a P b (Lothaire, Algebraic Combinatorics on Words, ch. 2).
    """
    m = _christoffel_conjugate(pq, (alphabet.b,), (alphabet.a,), itertools.repeat, _join)
    return (alphabet.a,) + m[:-2] + (alphabet.b,) if len(m) > 1 else m


def fraction_cf(pq: Fraction) -> tuple:
    """Canonical continued fraction of p/q in [0, 1]: p/q = [0; c1, c2, ...].

    Plain Euclidean algorithm; the last quotient is >= 2 whenever q >= 2,
    and 0/1 gives the empty tuple.
    """
    pq = Fraction(pq)
    p, q = pq.numerator, pq.denominator
    if not 0 <= p <= q:
        raise ValueError(f"fraction must lie in [0, 1], got {pq}")
    digits = []
    while p:
        c, rem = divmod(q, p)
        digits.append(c)
        q, p = p, rem
    return tuple(digits)


def christoffel_trace(pq: Fraction, alphabet: Alphabet, bits=None):
    """Trace of the Christoffel word of p/q, computed without building the word.

    With p/q = [0; c_1, ..., c_n], d_1 = c_1 - 1 and d_k = c_k after that,
    the standard word M_n is a conjugate of w_{p/q}, so it has the same trace.
    standard_sequence runs on Mat2, where the powers by repeated squaring
    cost about sum(log2 d_k) big 2x2 products.  With bits set, the letter
    matrices are seeded with BoundedInt entries, so every product holds
    `bits` bits and the trace is a BoundedInt; the default is the exact int.
    """
    m_b, m_a = Mat2(alphabet.b, 1, 1, 0), Mat2(alphabet.a, 1, 1, 0)
    if bits is not None:
        m_b, m_a = (Mat2(*(BoundedInt.of(e, bits) for e in m)) for m in (m_b, m_a))
    return _christoffel_conjugate(pq, m_b, m_a, operator.pow, operator.matmul).trace


def stern_brocot_parents(pq: Fraction) -> tuple:
    """Farey parents (lower, upper) of a reduced fraction with q >= 2.

    The returned pair satisfies lower < p/q < upper, has p/q as its mediant,
    and each pairing with p/q has cross-determinant +-1.
    """
    pq = Fraction(pq)
    p, q = pq.numerator, pq.denominator
    if q < 2:
        raise ValueError(f"{pq} has no Stern-Brocot parents (q < 2)")
    if not 0 <= p <= q:
        raise ValueError(f"fraction must lie in [0, 1], got {pq}")
    s = pow(p, -1, q)
    r = (p * s - 1) // q
    return Fraction(r, s), Fraction(p - r, q - s)


def standard_factorization(pq: Fraction, alphabet: Alphabet) -> tuple:
    """Split w_{p/q} into the Christoffel words of its Farey parents.

    Returns (left, right) with left = w_{lower parent}, right = w_{upper
    parent} and left + right == christoffel(pq).
    """
    lower, upper = stern_brocot_parents(pq)
    return christoffel(lower, alphabet), christoffel(upper, alphabet)


def standard_words(slope: SlopeCF, k_max: int, alphabet: Alphabet) -> list:
    """Standard words M_{-1}, M_0, ..., M_{k_max} of the slope.

    M_{-1} = b, M_0 = a, M_n = M_{n-1}^{d_n} M_{n-2}; entry [k+1] of the
    returned list is M_k, and len(M_k) == q_k.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    return [(alphabet.b,)] + list(itertools.islice(_slope_words(slope, alphabet), k_max + 1))


def characteristic_letters(slope: SlopeCF, alphabet: Alphabet) -> Iterator[int]:
    """The characteristic word c_theta = s_{theta,theta}, as an endless letter stream.

    M_0, then for k = 0, 1, ... the rest of M_{k+1} = M_k^{d_{k+1}} M_{k-1}
    past its prefix M_k.  M_{k+1} is joined, and d_{k+1} asked for, only when
    a letter past q_k is read, so a reader of n letters holds no longer word
    and a short digit list raises InsufficientDigitsError at the first letter
    it does not fix.
    """

    def pieces():
        yield (alphabet.a,)
        pairs = itertools.pairwise(itertools.chain([(alphabet.b,)], _slope_words(slope, alphabet)))
        for d, (prev, cur) in zip(map(slope.digit, itertools.count(1)), pairs):
            yield from itertools.repeat(cur, d - 1)
            yield prev

    return itertools.chain.from_iterable(pieces())


def sturmian_letters(slope: SlopeCF, alphabet: Alphabet) -> Iterator[int]:
    """The Sturmian word s_{theta,0} = a c_theta, as an endless letter stream."""
    return itertools.chain((alphabet.a,), characteristic_letters(slope, alphabet))


def sturmian_prefix(slope: SlopeCF, n: int, alphabet: Alphabet) -> Word:
    """First n letters of s_{theta,0}, exactly: d_1..d_k with q_k >= n - 1 fix them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(itertools.islice(sturmian_letters(slope, alphabet), n))


def characteristic_prefix(slope: SlopeCF, n: int, alphabet: Alphabet) -> Word:
    """First n letters of s_{theta,theta} = c_theta: every M_k is a prefix of it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(itertools.islice(characteristic_letters(slope, alphabet), n))


def xi_blocks(alphabet: Alphabet, m_max: int) -> list:
    """Constant-letter runs (letter, length) covering the first 2^m_max letters of xi.

    xi is a, then 2^m letters b for each even m and a for each odd m; its
    continued fraction has no Levy constant.
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    blocks = [(alphabet.a, 1)]
    for m in range(m_max):
        blocks.append((alphabet.b if m % 2 == 0 else alphabet.a, 2**m))
    return blocks


def xi_word(alphabet: Alphabet, n: int) -> Word:
    """First n letters of the doubling-block word xi (see xi_blocks)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    blocks = xi_blocks(alphabet, max(1, (n - 1).bit_length()))
    return tuple(itertools.islice(itertools.chain.from_iterable(itertools.starmap(itertools.repeat, blocks)), n))


def factor_set(w: Word, n: int) -> set:
    """All distinct length-n factors of w."""
    if n < 0 or n > len(w):
        raise ValueError(f"factor length {n} outside 0..{len(w)}")
    return {w[i : i + n] for i in range(len(w) - n + 1)}


def complexity(w: Word, n: int) -> int:
    """Number of distinct length-n factors of w."""
    return len(factor_set(w, n))


def complexity_window(slope: SlopeCF, n: int) -> int:
    """Prefix length that provably exhibits all length-n factors of the slope's word.

    q_{k+1} + n, where q_{k+1} is the first convergent denominator exceeding n.
    """
    _, _, q = slope.convergent_exceeding(n)
    return q + n


@dataclass(frozen=True)
class FactorDecomposition:
    """Where a factor sits relative to the standard words of its slope.

    case "a": the factor occurs inside the periodic word M_k M_k ... M_k M_{k-1}
    at the given offset.  case "b": the factor splits as suffix + prefix of
    M_{k+1} with len(prefix) >= q_k - 1.
    """

    case: str
    k: int
    offset: int = None
    suffix: Word = None
    prefix: Word = None


def _find_sub(hay: Word, needle: Word) -> int:
    n = len(needle)
    for i in range(len(hay) - n + 1):
        if hay[i : i + n] == needle:
            return i
    return -1


def classify_factor(m_word: Word, slope: SlopeCF, alphabet: Alphabet) -> FactorDecomposition:
    """Decompose a factor of the slope's Sturmian word per its length class.

    With q_k <= len(m_word) <= q_{k+1} - 1, the factor either embeds in the
    q_k-periodic word M_k...M_k M_{k-1} (case a) or wraps a boundary of
    M_{k+1} as suffix U + prefix V with |V| >= q_k - 1 (case b).
    """
    m_word = as_word(m_word)
    n = len(m_word)
    if n < 1:
        raise ValueError("factor must be nonempty")
    # M_{k+1} is the first standard word longer than n; M_{-1} = b
    m_km1, m_k = None, (alphabet.b,)
    for k, m_kp1 in enumerate(_slope_words(slope, alphabet), start=-1):
        if len(m_kp1) > n:
            break
        m_km1, m_k = m_k, m_kp1
    q_k = len(m_k)
    d_next = slope.digit(k + 1)
    reference = m_k * (d_next + 1) + m_km1
    pos = _find_sub(reference, m_word)
    if pos >= 0:
        return FactorDecomposition(case="a", k=k, offset=pos)
    for u_len in range(0, n - (q_k - 1) + 1):
        u, v = m_word[:u_len], m_word[u_len:]
        if len(v) > len(m_kp1):
            continue
        if (u_len == 0 or m_kp1[-u_len:] == u) and m_kp1[: len(v)] == v:
            return FactorDecomposition(case="b", k=k, suffix=u, prefix=v)
    raise NotAFactorError(f"{m_word} is not a factor of the slope's word")


def morphism_letters(phi: Morphism, w) -> Iterator[int]:
    """Image of a letter stream under the substitution, read lazily."""
    images = {phi.alphabet.a: phi.image_a, phi.alphabet.b: phi.image_b}
    for x in w:
        if (image := images.get(x)) is None:
            raise InvalidWordError(f"letter {x} not in alphabet ({phi.alphabet.a}, {phi.alphabet.b})")
        yield from image


def apply_morphism(phi: Morphism, w: Word) -> Word:
    """Image of w under the substitution, letter by letter."""
    return tuple(morphism_letters(phi, w))


def _parse_letters(text: str) -> list:
    # the comma-separated integers of one stripped, nonempty line
    try:
        return list(map(int, text.split(",")))
    except ValueError as exc:
        raise InvalidWordError(f"cannot parse word {text!r}: {exc}") from None


def parse_word(text: str) -> Word:
    """Parse the serialized form: comma-separated positive integers."""
    text = text.strip()
    return as_word(_parse_letters(text)) if text else ()


def format_word(w: Word) -> str:
    return ",".join(str(x) for x in w)


# bytes per block of the fast parse, each extended to the end of its line, so its temporaries stay O(block)
_BLOCK = 1 << 14


def _block_letters(block: np.ndarray):
    # The letters of one block of file bytes that ends at a line end or at the end of the file, as float64;
    # None unless every byte is a digit 1-9, ',' or '\n', no two digits are adjacent and every ',' has a
    # digit on each side.
    d = block - np.uint8(48)  # digits to 0..9, every other byte to 10..255
    digit = (d >= 1) & (d <= 9)  # a 0 goes to the line parser, which rejects it
    comma = block == 44
    if not (digit | comma | (block == 10)).all() or (digit[1:] & digit[:-1]).any():
        return None
    if comma[0] or comma[-1] or (comma[1:] & ~digit[:-1]).any() or (comma[:-1] & ~digit[1:]).any():
        return None
    return d[digit].astype(np.float64)


def _parse_lines(fh) -> np.ndarray:
    # the letters of a text stream: each nonempty stripped line parsed and checked as parse_word does, and
    # appended as doubles to one growing buffer, which the array then views
    import array  # here, not at the top: its extension module adds about 0.2 MB of RSS to every process

    letters = array.array("d")
    for line in fh:
        if line := line.strip():
            word = _parse_letters(line)
            if min(word) < 1:
                as_word(word)  # raises, naming the first letter below 1
            letters.fromlist(word)
    return np.frombuffer(letters, dtype=np.float64)


def load_letters(path) -> np.ndarray:
    """The letters of a file, one word per line (comma-separated), blank lines skipped, as one float64 array.

    The file is read once, as bytes.  A file of one-digit letters 1-9,
    commas and line feeds only, whose every comma sits between two digits,
    is parsed by numpy in blocks of about _BLOCK bytes cut at line ends.  Any
    other file (letters of two or more digits, CRLF, spaces, signs, empty
    tokens, a 0, other bytes) goes to the line parser through a text wrapper
    over the same bytes, with open()'s universal newlines and locale
    encoding: each line is parsed and checked as parse_word does, and a
    letter past float range raises OverflowError.  Both give the same
    letters, and the errors are the line parser's.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    raw = np.frombuffer(data, dtype=np.uint8)
    letters = np.empty((len(data) + 1) // 2)  # one-digit letters are separated, so at most one per two bytes
    start = filled = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK - 1) + 1 or len(data)
        block = _block_letters(raw[start:end])
        if block is None:
            return _parse_lines(io.TextIOWrapper(io.BytesIO(data)))
        letters[filled : filled + block.shape[0]] = block
        start, filled = end, filled + block.shape[0]
    return letters[:filled]
