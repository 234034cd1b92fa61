"""Residue fields: exact arithmetic and unit-root extraction."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import troptri
from helpers import horner, time_limit, unit_roots_naive
from troptri import (
    DivisionByZero,
    NonSplittingError,
    PrimeField,
    RationalField,
    ResiduePoly,
)

QQ = RationalField()
F5 = PrimeField(5)


def roots_in_units(p):
    """``troptri.roots_in_units`` under a time limit, so that a hang fails the test."""
    with time_limit(10):
        return troptri.roots_in_units(p)


def test_rational_field_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.sub(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.div(Fraction(1), Fraction(4)) == Fraction(1, 4)
    assert QQ.neg(Fraction(2)) == Fraction(-2)
    assert QQ.inv(Fraction(3, 7)) == Fraction(7, 3)


def test_rational_identity_and_canonical_form():
    rng = random.Random(7)
    for _ in range(50):
        a = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
        assert QQ.mul(a, QQ.one) == a
        assert QQ.add(a, QQ.zero) == a
        # canonical: equality is plain structural equality of Fractions
        assert QQ.add(a, QQ.neg(a)) == QQ.zero


def test_rational_division_by_zero():
    with pytest.raises(DivisionByZero):
        QQ.div(Fraction(1), Fraction(0))
    with pytest.raises(DivisionByZero):
        QQ.inv(Fraction(0))


def test_prime_field_matches_bruteforce_table():
    # independent oracle: the full multiplication table of Z/5 built by hand
    table = {(a, b): (a * b) % 5 for a in range(5) for b in range(5)}
    for (a, b), want in table.items():
        assert F5.mul(a, b) == want
    assert F5.mul(3, 4) == 2
    assert F5.add(3, 4) == 2
    assert F5.inv(2) == 3
    with pytest.raises(DivisionByZero):
        F5.inv(0)


def test_prime_field_validation():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(10**6 + 3)
    assert PrimeField(2).p == 2
    assert PrimeField(999983).p == 999983


def test_residue_poly_normalization():
    p = ResiduePoly(QQ, [Fraction(1), Fraction(0), Fraction(0)])
    assert p.degree() == 0
    assert ResiduePoly(QQ, [Fraction(0)]).is_zero()


def test_roots_square_factor():
    # x^2 - 2x + 1 = (x - 1)^2
    p = ResiduePoly(QQ, [Fraction(1), Fraction(-2), Fraction(1)])
    assert roots_in_units(p) == {Fraction(1)}


def test_roots_exclude_zero():
    # x^2 - x = x(x - 1): the root 0 is not a unit
    p = ResiduePoly(QQ, [Fraction(0), Fraction(-1), Fraction(1)])
    assert roots_in_units(p) == {Fraction(1)}


def test_roots_linear():
    p = ResiduePoly(QQ, [Fraction(1), Fraction(1)])
    assert roots_in_units(p) == {Fraction(-1)}


def test_roots_non_splitting_over_rationals():
    # oracle: the rational root theorem candidates for x^2 - 2 are
    # +-1, +-2 and none of them is a root
    cands = [Fraction(s * p, q) for s in (1, -1) for p in (1, 2) for q in (1,)]
    assert all(c * c != 2 for c in cands)
    p = ResiduePoly(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    with pytest.raises(NonSplittingError):
        roots_in_units(p)


def test_roots_non_splitting_over_f5():
    # oracle: exhaustive check that 2 is not a square mod 5
    assert all((c * c) % 5 != 2 for c in range(5))
    p = ResiduePoly(F5, [3, 0, 1])  # x^2 - 2 = x^2 + 3 over F5
    with pytest.raises(NonSplittingError):
        roots_in_units(p)


def test_roots_fractional_and_repeated():
    # 2x^3 - 3x^2 + x = x(2x - 1)(x - 1)
    p = ResiduePoly(QQ, [Fraction(0), Fraction(1), Fraction(-3), Fraction(2)])
    assert roots_in_units(p) == {Fraction(1, 2), Fraction(1)}


def test_random_split_products_recovered():
    rng = random.Random(123)
    for _ in range(60):
        roots = set()
        while len(roots) < rng.randint(1, 4):
            r = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            if r != 0:
                roots.add(r)
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = [Fraction(0)] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        p = ResiduePoly(QQ, coeffs)
        found = roots_in_units(p)
        assert found == roots
        for c in found:
            assert horner(QQ, p.coeffs, c) == 0


def test_f5_roots_agree_with_exhaustive_evaluation():
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [rng.randrange(5) for _ in range(rng.randint(2, 5))]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        p = ResiduePoly(F5, coeffs)
        if p.is_zero():
            continue
        want = {c for c in range(1, 5) if horner(F5, p.coeffs, c) == 0}
        try:
            got = roots_in_units(p)
        except NonSplittingError:
            continue
        assert got == want


# one irreducible quadratic per field: x^2 - 2 over Q and F5, x^2 + x + 1
# over F2, x^2 + 1 over F3, F7 and F10007 (p = 3 mod 4)
_FIELDS = {
    QQ: [Fraction(-2), Fraction(0), Fraction(1)],
    PrimeField(2): [1, 1, 1],
    PrimeField(3): [1, 0, 1],
    F5: [3, 0, 1],
    PrimeField(7): [1, 0, 1],
    PrimeField(10007): [1, 0, 1],
}


def _times(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    return out


def _from_roots(field, roots):
    coeffs = [field.one]
    for r in roots:
        coeffs = _times(field, coeffs, [field.neg(r), field.one])
    return coeffs


@st.composite
def _root_cases(draw):
    """A scaled product of linear factors with multiplicities, times a power
    of x, a quadratic that may not split, or both."""
    field = draw(st.sampled_from(list(_FIELDS)))
    if field == QQ:
        elements = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    else:
        elements = st.integers(0, field.p - 1)
    lead = draw(elements.filter(lambda c: c != 0))
    roots = []
    for r in draw(st.lists(elements, max_size=3, unique=True)):
        roots += [r] * draw(st.integers(1, 2))
    coeffs = [field.zero] * draw(st.integers(0, 2)) + _times(field, [lead], _from_roots(field, roots))
    quadratic = st.lists(elements, min_size=2, max_size=2).map(lambda c: c + [field.one])
    extra = draw(st.none() | st.just(_FIELDS[field]) | quadratic)
    if extra is not None:
        coeffs = _times(field, coeffs, extra)
    return field, coeffs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_root_cases())
def test_unit_roots_match_the_enumeration(case):
    field, coeffs = case
    with time_limit(10):
        assert field.unit_roots(coeffs) == unit_roots_naive(field, coeffs)


def test_large_prime_split_cubic_returns_the_constructed_roots():
    p = 999983
    field = PrimeField(p)
    roots = {p - 1, p - 2, p - 7}
    assert roots_in_units(ResiduePoly(field, _from_roots(field, sorted(roots)))) == roots


def test_large_prime_irreducible_quadratic_does_not_split():
    p = 999983  # p = 3 mod 4, so -1 is not a square
    assert p % 4 == 3
    with pytest.raises(NonSplittingError):
        roots_in_units(ResiduePoly(PrimeField(p), [1, 0, 1]))


def test_large_rational_roots_are_found():
    # x^2 - 10^24 and (3x - 10^12)(x + 7/5): coefficients far past any
    # enumeration of divisors
    p = ResiduePoly(QQ, [Fraction(-10**24), Fraction(0), Fraction(1)])
    assert roots_in_units(p) == {Fraction(10**12), Fraction(-10**12)}
    q = ResiduePoly(QQ, _from_roots(QQ, [Fraction(10**12, 3), Fraction(-7, 5)]))
    assert roots_in_units(q) == {Fraction(10**12, 3), Fraction(-7, 5)}
