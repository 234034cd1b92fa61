"""The system-file grammar: parsing, validation, round trips."""

import random
from fractions import Fraction

import pytest

from helpers import QQ, const, mpoly, tp, xvar, mconst
from troptri import (
    NonTriangularError,
    ParseError,
    PrimeField,
    ReservedIdentifierError,
    format_system,
    parse_system,
)

THREE_VAR_TEXT = """\
# three coordinates, all polygons already trustworthy
ring x1 x2 x3
poly t*x1^2 + x1 + 1
poly t*x1*x2^2 + x1*x2 + 1
poly x1*x2*x3 + 1
"""


def test_parse_three_variable_system():
    system = parse_system(THREE_VAR_TEXT)
    assert system.n == 3
    one = const(1)
    t = tp(1)
    assert system.polys[0] == mpoly(3, {(2, 0, 0): t, (1, 0, 0): one, (0, 0, 0): one})
    assert system.polys[1] == mpoly(3, {(1, 2, 0): t, (1, 1, 0): one, (0, 0, 0): one})
    assert system.polys[2] == mpoly(3, {(1, 1, 1): one, (0, 0, 0): one})


def test_parse_fractional_t_exponent():
    system = parse_system("ring x1\npoly t^(1/2)*x1 - 1\n")
    assert system.polys[0] == mpoly(1, {(1,): tp(Fraction(1, 2)), (0,): const(-1)})


def test_parse_negative_t_exponents():
    system = parse_system("ring x1\npoly t^-1*x1 + t^(-3/2)\n")
    assert system.polys[0] == mpoly(1, {(1,): tp(-1), (0,): tp(Fraction(-3, 2))})


def test_parse_rational_constants_and_parens():
    system = parse_system("ring x1\npoly 3/2*x1^2 - (x1 - 1/3)\n")
    want = mpoly(1, {(2,): const(Fraction(3, 2)), (1,): const(-1), (0,): const(Fraction(1, 3))})
    assert system.polys[0] == want


def test_parse_products_of_factors():
    system = parse_system("ring x1\npoly (x1 - 1 - t^2)*(x1 - 1 - t - t^2)\n")
    direct = parse_system(
        "ring x1\npoly x1^2 + (-2 - t - 2*t^2)*x1 + 1 + t + 2*t^2 + t^3 + t^4\n"
    )
    assert system.polys[0] == direct.polys[0]


def test_parse_non_triangular():
    with pytest.raises(NonTriangularError, match=r"^f1 uses x2; only x1\.\.x1 are allowed$"):
        parse_system("ring x1 x2\npoly x2 - 1\npoly x1\n")
    with pytest.raises(NonTriangularError, match=r"^f2 does not use x2$"):
        parse_system("ring x1 x2\npoly x1 - 1\npoly x1 + 1\n")
    with pytest.raises(NonTriangularError, match=r"^expected 2 poly lines for 2 coordinates, found 1$"):
        parse_system("ring x1 x2\npoly x1 - 1\n")
    with pytest.raises(NonTriangularError, match=r"^f2 is the zero polynomial$"):
        parse_system("ring x1 x2\npoly x1 - 1\npoly x2 - x2\n")


def test_parse_reserved_identifier():
    with pytest.raises(ReservedIdentifierError):
        parse_system("ring x1\npoly x1 + u1\n")
    with pytest.raises(ReservedIdentifierError):
        parse_system("ring u1\npoly u1\n")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_system("ring x1\npoly x1 + @\n")
    assert err.value.line == 2
    assert err.value.col is not None
    with pytest.raises(ParseError) as err:
        parse_system("ring x1\npoly x1 +\n")
    assert err.value.line == 2


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_system("poly x1\n")
    with pytest.raises(ParseError):
        parse_system("ring y1\npoly y1\n")
    with pytest.raises(ParseError):
        parse_system("ring x2 x1\npoly x1\npoly x2\n")


def test_parse_explicit_rational_header():
    system = parse_system("ring x1 q\npoly x1 - 1\n")
    assert system.field == QQ


def test_parse_prime_field_header():
    system = parse_system("ring x1 fp:5\npoly x1^2 - 1\n")
    assert system.field == PrimeField(5)
    assert system.polys[0] == mpoly(
        1, {(2,): const(1, field=PrimeField(5)), (0,): const(4, field=PrimeField(5))}, field=PrimeField(5)
    )
    with pytest.raises(ParseError):
        parse_system("ring x1 fp:6\npoly x1\n")


def test_fractional_exponent_rejected_off_t():
    with pytest.raises(ParseError):
        parse_system("ring x1\npoly x1^(1/2)\n")
    with pytest.raises(ParseError):
        parse_system("ring x1\npoly (1 + t)^(1/2)*x1\n")


def test_roundtrip_three_variable_system():
    system = parse_system(THREE_VAR_TEXT)
    again = parse_system(format_system(system))
    assert [f for f in again.polys] == [f for f in system.polys]
    assert again.field == system.field


def test_roundtrip_random_systems():
    from oracle_systems import random_system_with_expected_points

    rng = random.Random(71)
    for _ in range(25):
        system, _ = random_system_with_expected_points(rng)
        text = format_system(system)
        again = parse_system(text)
        assert list(again.polys) == list(system.polys)


def test_roundtrip_prime_field_system():
    f1 = (xvar(1, 0, field=PrimeField(7)) - mconst(1, tp(2, 3, field=PrimeField(7)), field=PrimeField(7)))
    from troptri import TriangularSystem

    system = TriangularSystem([f1])
    text = format_system(system)
    assert "fp:7" in text
    assert list(parse_system(text).polys) == [f1]
