"""Stored form of exact scalars: an int when integral, else a Fraction.

An int and a Fraction of the same value compare and hash alike, so the
stored form only changes the cost of the arithmetic.  These properties
check that no operation leaves an integral Fraction or makes a float, and
that every result equals the same operation on plain Fractions.  F_p
elements are ints in 0..p-1 after every operation, so the engine tests,
prints and orders residue elements of both fields as plain numbers.

A Puiseux scalar stores its exponents as int numerators over one least
common denominator; the exponents read here come through its rational
view ``terms``.  Its arithmetic is checked against dicts keyed by
Fraction exponents, and the integer Newton hull against the hull taken
over rational heights.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import const, from_coeffs, series, sum_mpoly, tp, uval
from oracles import newton_polygon_rational
from troptri import (
    NonSplittingError,
    PrimeField,
    PuiseuxScalar,
    RationalField,
    ResiduePoly,
    RootTree,
    initial_form,
    newton_polygon,
    parse_system,
    roots_in_units,
)

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
    return series(QQ, pairs)


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
        results += [(QQ.div(1, b), 1 / fb), (QQ.div(a, b), fa / fb)]
    for got, want in results:
        assert_stored(got)
        assert got == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(scalars(), scalars(), exponents, elements)
def test_scalar_exponents_return_stored_form(a, b, w, c):
    for s in (a, b, a + b, a * b, a * PuiseuxScalar.t_power(QQ, w), PuiseuxScalar.t_power(QQ, w, QQ.add(c, 0))):
        assert_exponents_stored(s)


def test_inverse_and_quotient_of_ints_are_fractions():
    assert QQ.div(1, 2) == Fraction(1, 2) and type(QQ.div(1, 2)) is Fraction
    assert QQ.div(1, 3) == Fraction(1, 3) and type(QQ.div(1, 3)) is Fraction
    assert type(QQ.div(6, 3)) is int and QQ.div(6, 3) == 2


primes = st.sampled_from([2, 3, 5, 7, 11, 101, 65537, 999983])
integers = st.integers(-10**12, 10**12)


def assert_canonical(x, p):
    assert type(x) is int and 0 <= x < p, (repr(x), p)


@st.composite
def fp_scalars(draw, field):
    pairs = draw(st.lists(st.tuples(exponents, integers.map(field.from_int)), max_size=4))
    return series(field, pairs)


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


# exponents with denominators 1..6, so sums and products need a common one
wide_exponents = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
series_fields = st.sampled_from([QQ, PrimeField(7)])


def reference(field, pairs):
    """The dict Fraction exponent -> nonzero coefficient of a sum of terms."""
    out = {}
    for e, c in pairs:
        e = Fraction(e)
        out[e] = field.add(out.get(e, 0), c)
    return {e: c for e, c in out.items() if c != 0}


def reference_product(field, a, b):
    return reference(field, [(e1 + e2, field.mul(c1, c2)) for e1, c1 in a.items() for e2, c2 in b.items()])


def assert_form(s):
    """Least common denominator, strictly increasing numerators, no zero coefficient."""
    assert type(s.den) is int and s.den >= 1
    assert gcd(s.den, *[n for n, _ in s.nums]) == 1
    if not s.nums:
        assert s.den == 1
    numerators = [n for n, _ in s.nums]
    assert all(type(n) is int for n in numerators)
    assert all(m < n for m, n in zip(numerators, numerators[1:]))
    assert all(c != 0 for _, c in s.nums)


def assert_matches(s, ref):
    assert_form(s)
    assert_exponents_stored(s)
    assert s.terms == tuple(sorted(ref.items()))
    if ref:
        low = min(ref)
        assert s.valuation() == low and s.terms[0] == (low, ref[low])
        assert_stored(s.valuation())


@st.composite
def scalar_pairs(draw):
    field = draw(series_fields)
    coeffs = st.integers(-3, 3).map(field.from_int)
    terms = st.lists(st.tuples(wide_exponents, coeffs), max_size=4)
    return field, draw(terms), draw(terms), draw(wide_exponents), draw(coeffs.filter(bool))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scalar_pairs())
def test_scalar_arithmetic_matches_fraction_keyed_reference(case):
    field, pa, pb, w, c = case
    a, b = series(field, pa), series(field, pb)
    ra, rb = reference(field, pa), reference(field, pb)
    tw = PuiseuxScalar.t_power(field, w, c)
    neg_b = {e: field.neg(x) for e, x in rb.items()}
    assert_matches(a, ra)
    assert_matches(tw, {w: c})
    assert_matches(a + b, reference(field, [*ra.items(), *rb.items()]))
    assert_matches(-b, neg_b)
    assert_matches(a - b, reference(field, [*ra.items(), *neg_b.items()]))
    assert_matches(a * b, reference_product(field, ra, rb))
    assert_matches(a * tw, reference_product(field, ra, {w: c}))
    assert_matches(a - a, {})
    # the stored form is canonical, so equal values are equal objects
    assert PuiseuxScalar(field, a.terms) == a and hash(PuiseuxScalar(field, a.terms)) == hash(a)
    assert (a + b) * tw == a * tw + b * tw


@st.composite
def one_term_cases(draw):
    """A field, one term c*t^w and the terms of a scalar whose exponents have
    another denominator than w's (before either is reduced)."""
    field = draw(series_fields)
    coeffs = st.integers(-3, 3).map(field.from_int)
    d1, d2 = draw(st.lists(st.integers(1, 6), min_size=2, max_size=2, unique=True))
    w = Fraction(draw(st.integers(-12, 12)), d1)
    exps = st.integers(-12, 12).map(lambda n: Fraction(n, d2))
    return field, w, draw(coeffs.filter(bool)), draw(st.lists(st.tuples(exps, coeffs), max_size=4))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(one_term_cases())
def test_one_term_products_and_sums_match_the_fraction_keyed_reference(case):
    field, w, c, pairs = case
    tw = PuiseuxScalar.t_power(field, w, c)
    a = series(field, pairs)
    ra = reference(field, pairs)
    product = reference_product(field, ra, {w: c})
    assert_matches(tw * a, product)
    assert_matches(a * tw, product)
    assert_matches(tw * tw, {2 * w: field.mul(c, c)})
    total = reference(field, [*ra.items(), (w, c)])
    assert_matches(tw + a, total)
    assert_matches(a + tw, total)
    # a sum that loses the term at w, whose denominator may then shrink
    assert_matches(a + tw + (-tw), ra)
    assert_matches(-tw + (a + tw), ra)


def test_one_term_fast_paths_keep_the_stored_form():
    half = tp(Fraction(1, 2))
    s = half * half
    assert (s.den, s.nums) == (1, ((1, 1),)) and type(s.terms[0][0]) is int
    s = tp(Fraction(1, 3)) * tp(Fraction(1, 6))
    assert (s.den, s.nums) == (2, ((1, 1),))
    s = half * (half + tp(Fraction(3, 2), 2))
    assert (s.den, s.nums) == (1, ((1, 1), (2, 2)))
    for a in (const(3), half + const(1), tp(Fraction(2, 3), -2) + half):
        zero = a + (-a)
        assert (zero.den, zero.nums) == (1, ())
    s = const(Fraction(1, 2)) * const(4)
    assert s.nums == ((0, 2),) and type(s.nums[0][1]) is int
    assert QQ.mul(Fraction(1, 2), 4) == 2 and type(QQ.mul(Fraction(1, 2), 4)) is int
    assert QQ.add(Fraction(1, 2), Fraction(3, 2)) == 2 and type(QQ.add(Fraction(1, 2), Fraction(3, 2))) is int


@st.composite
def upolys(draw):
    """A UPoly over Q in x1 whose coefficients are K[u1, u2] elements with
    exponent denominators 1..6."""
    coeffs = st.integers(-3, 3).filter(bool)
    scalar = st.lists(st.tuples(wide_exponents, coeffs), min_size=1, max_size=3).map(
        lambda pairs: series(QQ, pairs)
    )
    coeff = st.dictionaries(st.tuples(st.just(0), st.integers(0, 1), st.integers(0, 1)), scalar,
                            min_size=1, max_size=2).map(lambda terms: sum_mpoly(QQ, 3, terms.items()))
    pairs = draw(st.dictionaries(st.integers(0, 7), coeff, min_size=1, max_size=6))
    return from_coeffs(QQ, 3, 0, pairs.items())


@settings(max_examples=300, derandomize=True, deadline=None)
@given(upolys())
def test_integer_newton_hull_matches_the_rational_hull(f):
    if f.is_zero():
        return
    polygon = newton_polygon(f)
    assert polygon == newton_polygon_rational(f)
    for j, v in polygon.vertices:
        assert_stored(v)
    for c in f.coeffs.values():
        low = min(s.valuation() for s in c.terms.values())
        assert uval(c) == low
        assert_stored(uval(c))
        assert c.initial_terms() == {d: s.terms[0][1] for d, s in c.terms.items() if s.valuation() == low}
    assert polygon.slopes() == [Fraction(v2 - v1, j2 - j1) for (j1, v1), (j2, v2) in polygon.edges()]
    for s in polygon.slopes():
        assert_stored(s)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(upolys())
def test_tropical_points_are_the_negated_slopes_in_decreasing_order(f):
    if f.is_zero():
        return
    points = newton_polygon(f).tropical_points()
    assert type(points) is tuple
    assert all(a > b for a, b in zip(points, points[1:]))
    edges = newton_polygon_rational(f).edges()
    assert set(points) == {-Fraction(v2 - v1, j2 - j1) for (j1, v1), (j2, v2) in edges}
    for w in points:
        assert_stored(w)


def _initial_form_by_fractions(f, w):
    """``initial_form`` with the scores w*j + val(c) taken as Fractions."""
    scored = [(Fraction(w) * j + Fraction(uval(c)), j, c) for j, c in f.coeffs.items()]
    best = min(s for s, _, _ in scored)
    zero = (0,) * f.nvars
    coeffs = [f.field.zero] * (max(j for s, j, _ in scored if s == best) + 1)
    for s, j, c in scored:
        if s == best:
            terms = c.initial_terms()
            if len(terms) != 1 or zero not in terms:
                return None
            coeffs[j] = terms[zero]
    return ResiduePoly(f.field, coeffs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(upolys(), exponents)
def test_integer_scores_of_the_initial_form_match_fraction_scores(f, w):
    if f.is_zero():
        return
    got = initial_form(f, w)
    assert got == _initial_form_by_fractions(f, w)
    if got is not None:
        for c in got.coeffs:
            assert_stored(c)


def test_points_and_root_exponents_keep_the_stored_form():
    # both x1 roots start with the term 1*t^0, whose exponent comes out of
    # the expansion rather than the parser
    system = parse_system("ring x1 x2\npoly (x1 - 1 - t)*(x1 - 1 - t^2)\npoly x2 - x1 + 1\n")
    tree = RootTree(system, 1, 32).run()
    assert tree.point_set() == {(0, 1), (0, 2)}
    for point in tree.points():
        for x in point:
            assert_stored(x)
    for v in tree.vertices.values():
        if v.root is not None:
            for e, _ in v.root.known:
                assert_stored(e)
            if v.root.tail is not None:
                assert_stored(v.root.tail)


def test_precisions_keep_the_stored_form():
    # at --pstep 1/2 the head's precision steps through 1/2, 1, 3/2, ...,
    # and every precision a vertex carries on the way is stored
    system = parse_system("ring x1 x2\npoly x1^2 - x1 - t\npoly x2 - x1 + 1 + t - t^2 + 2*t^3\n")
    tree = RootTree(system, Fraction(1, 2), Fraction(32))
    assert type(tree.p_step) is Fraction and type(tree.p_max) is int
    precs = set()
    while tree.step():
        precs.update(v.prec for v in tree.vertices.values())
    assert tree.point_set() == {(1, 0), (0, 4)}
    assert precs == {Fraction(k, 2) for k in range(8)}
    for p in precs:
        assert_stored(p)
