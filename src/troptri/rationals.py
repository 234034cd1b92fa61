"""Exact rational helpers shared by exponents, precisions and output."""

from fractions import Fraction


def parse_rat(text: str) -> Fraction:
    """Parse 'p' or 'p/q' into a Fraction; raises ValueError otherwise."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError("zero denominator in %r" % text)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def int_if_integral(x):
    """The stored form of an exact rational: an int when integral, else the
    Fraction itself.  Both compare and hash alike; ints are cheaper."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


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
