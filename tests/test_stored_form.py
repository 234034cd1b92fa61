"""Stored form of exact scalars: an int when integral, else a Fraction.

An int and a Fraction of the same value compare and hash alike, so the
stored form only changes the cost of the arithmetic.  These properties
check that no operation leaves an integral Fraction or makes a float, and
that every result equals the same operation on plain Fractions.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from troptri import PuiseuxScalar, RationalField

QQ = RationalField()

rationals = st.fractions(-20, 20, max_denominator=6)
# elements as the field stores them, plus integral Fractions from outside
elements = rationals.map(lambda x: x.numerator if x.denominator == 1 else x) | rationals
exponents = st.fractions(-4, 4, max_denominator=4) | st.integers(-4, 4)


def assert_stored(x):
    assert type(x) is int or (type(x) is Fraction and x.denominator != 1), repr(x)


def assert_exponents_stored(s):
    for e, _ in s.terms:
        assert_stored(e)


@st.composite
def scalars(draw):
    pairs = draw(st.lists(st.tuples(exponents, elements), max_size=4))
    return PuiseuxScalar.from_terms(QQ, pairs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(elements, elements, st.integers(-10**6, 10**6))
def test_field_operations_return_stored_form(a, b, n):
    fa, fb = Fraction(a), Fraction(b)
    results = [
        (QQ.add(a, b), fa + fb),
        (QQ.sub(a, b), fa - fb),
        (QQ.mul(a, b), fa * fb),
        (QQ.neg(QQ.add(a, 0)), -fa),
        (QQ.from_int(n), Fraction(n)),
    ]
    if b != 0:
        results += [(QQ.inv(b), 1 / fb), (QQ.div(a, b), fa / fb)]
    for got, want in results:
        assert_stored(got)
        assert got == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scalars(), scalars(), exponents, elements)
def test_scalar_exponents_return_stored_form(a, b, w, c):
    for s in (a, b, a + b, a * b, a.shift(w), PuiseuxScalar.t_power(QQ, w, QQ.add(c, 0))):
        assert_exponents_stored(s)


def test_inverse_and_quotient_of_ints_are_fractions():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2
