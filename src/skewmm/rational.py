"""Exact rational scalars shared across the package.

gmpy2's mpq is used when it is installed; the stdlib Fraction, the only
backend the tests and benchmarks have run on, is the fallback.  Both
normalize to lowest terms with a positive denominator, and both print as
"n" or "n/d", which is the canonical text form used by the file format.
No floating point is allowed anywhere in the toolchain.
"""

from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover
    Rat = Fraction

#: types accepted wherever a rational scalar is expected
SCALAR_TYPES = (int, Fraction, type(Rat(0)))


def as_rat(value):
    """Coerce an int/Fraction/Rat/decimal-free string to Rat.

    A value that already is a Rat is canonical and is returned unchanged.
    Floats are rejected: exactness is a hard invariant of this package.
    """
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed; use exact rationals")
    return Rat(value)
