"""Stored form of exact scalars: an int when integral, else a Fraction.

An int and a Fraction of the same value compare and hash alike, so the
stored form only changes the cost of the arithmetic.  These properties
check that no operation leaves an integral Fraction or makes a float, and
that every result equals the same operation on plain Fractions.  F_p
elements are ints in 0..p-1 after every operation, so the engine tests,
prints and orders residue elements of both fields as plain numbers.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from troptri import NonSplittingError, PrimeField, PuiseuxScalar, RationalField, ResiduePoly, roots_in_units

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
    for s in (a, b, a + b, a * b, a * PuiseuxScalar.t_power(QQ, w), PuiseuxScalar.t_power(QQ, w, QQ.add(c, 0))):
        assert_exponents_stored(s)


def test_inverse_and_quotient_of_ints_are_fractions():
    assert QQ.inv(2) == Fraction(1, 2) and type(QQ.inv(2)) is Fraction
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2


primes = st.sampled_from([2, 3, 5, 7, 11, 101, 65537, 999983])
integers = st.integers(-10**12, 10**12)


def assert_canonical(x, p):
    assert type(x) is int and 0 <= x < p, (repr(x), p)


@st.composite
def fp_scalars(draw, field):
    pairs = draw(st.lists(st.tuples(exponents, integers.map(field.from_int)), max_size=4))
    return PuiseuxScalar.from_terms(field, pairs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(primes, integers, integers)
def test_prime_field_results_are_canonical(p, m, n):
    field = PrimeField(p)
    a, b = field.from_int(m), field.from_int(n)
    results = [a, b, field.add(a, b), field.mul(a, b), field.neg(a)]
    if b != 0:
        results += [field.inv(b), field.div(a, b)]
    for x in results:
        assert_canonical(x, p)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(primes.flatmap(lambda p: st.tuples(*[fp_scalars(PrimeField(p))] * 2)))
def test_prime_field_scalar_coefficients_are_canonical(pair):
    a, b = pair
    p = a.field.p
    for s in (a + b, a * b):
        for _, c in s.terms:
            assert_canonical(c, p)
            assert c != 0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(primes, st.lists(integers, min_size=1, max_size=5), st.lists(integers, max_size=3), integers)
def test_prime_field_roots_are_canonical(p, roots, extra, lead):
    # a product of linear factors, times a few random coefficients that
    # may keep it from splitting
    field = PrimeField(p)
    coeffs = [field.from_int(lead) or 1]
    for r in roots:
        r = field.from_int(r)
        shifted = [0] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] = field.add(shifted[j], field.mul(field.neg(r), c))
        coeffs = shifted
    for j, c in zip(range(len(coeffs)), extra):
        coeffs[j] = field.add(coeffs[j], field.from_int(c))
    poly = ResiduePoly(field, coeffs)
    if poly.is_zero():
        return
    try:
        found = roots_in_units(poly)
    except NonSplittingError:
        return
    for r in found:
        assert_canonical(r, p)
        assert r != 0
        value = 0
        for c in reversed(poly.coeffs):
            value = field.add(field.mul(value, r), c)
        assert value == 0
