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


def format_rat(x: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' with q > 0 and gcd(p, q) = 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
