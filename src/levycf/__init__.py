"""Levy constants of periodic and Sturmian continued fractions.

Exact arbitrary-precision continuant/trace algebra, mechanical and
Christoffel word generation, the strictly increasing slope function
f(theta) = Levy constant of [0; s_{theta,0}], its Stern-Brocot inversion,
and log-space empirical estimators.
"""

from .continuants import (
    IDENTITY,
    Mat2,
    ScaledMat2,
    as_word,
    cf_matrix,
    continuant,
    log_big,
    mediant_trace,
    tail_value,
    trace,
)
from .errors import (
    FloorPrecisionError,
    InsufficientDigitsError,
    InvalidWordError,
    NoConvergenceError,
    NotAFactorError,
    TargetOutOfRangeError,
    TruncatedStreamError,
)
from .levy import (
    InvertResult,
    LevyResult,
    QuadPeriod,
    SlopePoint,
    XiOscillation,
    curve_qmax,
    f_irrational,
    farey_count,
    farey_points,
    invert_f,
    letter_levy,
    levy_empirical,
    levy_from_trace,
    levy_quadratic,
    morphic_levy,
    mu_mean,
    rn_family,
    slope_point,
    sturmian_birkhoff,
    sturmian_logq,
    tail_spread,
    trace_poly,
    xi_oscillation,
)
from .words import (
    Alphabet,
    FactorDecomposition,
    Morphism,
    SlopeCF,
    apply_morphism,
    characteristic_prefix,
    christoffel,
    christoffel_trace,
    classify_factor,
    complexity,
    complexity_window,
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

__version__ = "0.1.0"
