"""p-adic valuations of Tribonacci numbers.

Computes nu_p(T(n)) exactly, interpolates the Tribonacci sequence p-adically
along residue classes of its period, locates the zeros of the interpolants,
and decides per prime whether the integer and rational forms of the
Marques-Lengyel valuation conjecture hold, fail, or resist the method.
"""

from .padic import (
    DEFAULT_PRECISION,
    VAL_INF,
    PrecisionError,
    val_int,
)
from .tribonacci import ZERO_SET, trib, trib_mod, trib_val
from .galois import (
    EXCLUDED_PRIMES,
    PrimeContext,
    prime_context,
)
from .interpolation import (
    ConditionNotMet,
    SeriesTrunc,
    ZeroRecord,
    hensel_zero,
    series_coeffs,
)
from .classifier import (
    FORMS,
    QT,
    ZT,
    ClassificationRecord,
    FormulaCase,
    FormulaSpec,
    LinearCertificate,
    Verdict,
    builtin_spec,
    certify,
    class_series,
    classify_prime,
    crt_witness,
    published_table,
    reproduce_table,
    scan_range,
    validate_published_rows,
    verify_formula,
    witness_zero,
)

__version__ = "0.1.0"
