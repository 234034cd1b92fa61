"""Exact rational helpers shared by exponents, precisions and output."""

import re
from fractions import Fraction

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?")


def parse_rat(text: str, name="the text") -> Fraction:
    """ASCII 'p' or 'p/q', q > 0, as a Fraction; other text raises a ValueError calling it ``name``."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError("%s must be p or p/q in ASCII digits with q > 0, got %r" % (name, text))
    return Fraction(int(m[1]), int(m[2])) if m[2] else Fraction(int(m[1]))


def int_if_integral(x):
    """The stored form of an exact rational: an int when integral, else the
    Fraction itself.  Both compare and hash alike; ints are cheaper."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def exact(x, name):
    """The argument ``name``, an int or a Fraction, in stored form.  Anything
    else is refused, a float above all: its binary fraction is seldom the
    number meant (0.1 is 3602879701896397/2^55)."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise ValueError("%s must be an int or a Fraction, got %r" % (name, x))
    return int_if_integral(x)


def ratio(n, d):
    """n / d (d != 0) in stored form: an int when d divides n, else a Fraction."""
    if n % d == 0:
        return n // d
    return Fraction(n, d)


def format_rat(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' with q > 0 and gcd(p, q) = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
