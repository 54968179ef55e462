"""Exact rational scalars shared across the package.

Every rational is a stdlib `fractions.Fraction`, bound here to the name
`Rat`.  It normalizes to lowest terms with a positive denominator and
prints as "n" or "n/d", which is the canonical text form used by the file
format.  No floating point is allowed anywhere in the toolchain.
"""

from fractions import Fraction

Rat = Fraction

#: types accepted wherever a rational scalar is expected
SCALAR_TYPES = (int, Fraction)


def as_rat(value):
    """Coerce an int/Fraction/decimal-free string to Rat.

    A value that already is a Rat is canonical and is returned unchanged.
    Floats are rejected: exactness is a hard invariant of this package.
    """
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise TypeError("floating point values are not allowed; use exact rationals")
    return Rat(value)
