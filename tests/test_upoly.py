"""K[u]-coefficients and the univariate/multivariate polynomial layers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    QQ,
    compose_naive,
    const,
    from_coeffs,
    initial,
    initial_part_naive,
    lift,
    mconst,
    mpoly,
    paper_f2_tilde,
    ps,
    root,
    shift_substitute_naive,
    sum_mpoly,
    tail_variables,
    tp,
    uc,
    uconst,
    unlift,
    upoly,
    uval,
    xvar,
)
from oracles import Poly, as_mpoly, compose_roots, eval_residue, evaluate, shift_and_rescale, specialize
from troptri import (
    MPoly,
    PrimeField,
    UPoly,
    ZeroHasNoValuation,
    ZeroSubstitutionError,
    compose,
    initial_form,
)


def test_f2_tilde_expands_to_known_coefficients():
    # the product (x2 - t - t^2 u1)(x2 - 1 - t - t^2 u1), multiplied out
    f2 = paper_f2_tilde()
    assert f2.coeffs[2] == uconst(2, const(1))
    assert f2.coeffs[1] == uc(2, (ps((0, -1), (1, -2)), (0, 0)), (tp(2, -2), (1, 0)))
    assert f2.coeffs[0] == uc(
        2,
        (ps((1, 1), (2, 1)), (0, 0)),
        (ps((2, 1), (3, 2)), (1, 0)),
        (tp(4), (2, 0)),
    )


def test_uval_examples():
    a0 = uc(2, (ps((1, 1), (2, 1)), (0, 0)), (ps((2, 1), (3, 2)), (1, 0)), (tp(4), (2, 0)))
    assert uval(a0) == 1
    assert uval(uc(2, (const(-1), (1, 0)), (ps((0, -1), (1, -1)), (0, 0)))) == 0
    assert uval(uc(2, (tp(1), (0, 1)))) == 1
    with pytest.raises(ZeroHasNoValuation):
        uval(MPoly(QQ, 2))


def test_uinitial_examples():
    a0 = uc(2, (ps((1, 1), (2, 1)), (0, 0)), (ps((2, 1), (3, 2)), (1, 0)), (tp(4), (2, 0)))
    assert a0.initial_terms() == {(0, 0): Fraction(1)}
    a1 = uc(2, (tp(4, -2), (1, 0)), (tp(2), (0, 0)))
    assert a1.initial_terms() == {(0, 0): Fraction(1)}
    b = uc(2, (tp(2), (1, 0)), (tp(4), (2, 0)))
    assert b.initial_terms() == {(1, 0): Fraction(1)}


def test_initial_form_weight_zero():
    # t x^2 + x + 1 at weight 0: the dominant part is x + 1
    f = upoly(1, 0, {2: tp(1), 1: const(1), 0: const(1)})
    h = initial_form(f, 0)
    assert list(h.coeffs) == [Fraction(1), Fraction(1)]


def test_initial_form_of_close_roots_product():
    from helpers import paper_f1

    h = initial_form(paper_f1(), 0)
    assert list(h.coeffs) == [Fraction(1), Fraction(-2), Fraction(1)]


def test_initial_form_weight_two():
    # x^2 + (-2t^2 - t)x + (t^4 + t^3) at weight 2 keeps j = 0, 1: -x + 1
    f = upoly(1, 0, {2: const(1), 1: ps((1, -1), (2, -2)), 0: ps((3, 1), (4, 1))})
    h = initial_form(f, 2)
    assert list(h.coeffs) == [Fraction(1), Fraction(-1)]


def test_initial_form_flags_tail_variables():
    f = upoly(2, 1, {1: const(1), 0: uc(2, (tp(2, -1), (1, 0)))})
    assert initial_form(f, 2) is None


def test_compose_direct_substitution():
    # f2 = x2 - (x1 - 1 - t) composed with the bare tail for x1
    f2 = xvar(2, 1) - xvar(2, 0) + mconst(2, ps((0, 1), (1, 1)))
    bare = root(0, [], 0)  # u1
    g = compose_roots(f2, [bare], 1)
    assert g.coeffs == upoly(2, 1, {1: const(1), 0: uc(2, (const(-1), (1, 0)), (ps((0, 1), (1, 1)), (0, 0)))}).coeffs


def test_compose_with_refined_root():
    f2 = xvar(2, 1) - xvar(2, 0) + mconst(2, ps((0, 1), (1, 1)))
    refined = root(0, [(0, 1), (1, 1)], 2)  # 1 + t + u1 t^2
    g = compose_roots(f2, [refined], 1)
    assert g.coeffs == upoly(2, 1, {1: const(1), 0: uc(2, (tp(2, -1), (1, 0)))}).coeffs


def test_compose_empty_root_sequence():
    f1 = mpoly(1, {(2,): tp(1), (1,): const(1), (0,): const(1)})
    g = compose(f1, 0)
    assert g.coeffs == upoly(1, 0, {2: tp(1), 1: const(1), 0: const(1)}).coeffs


def test_compose_zero_result():
    f2 = xvar(2, 1) - xvar(2, 0)
    exact = root(0, [(0, 1)], None)
    f = xvar(2, 1) - xvar(2, 1)  # zero polynomial
    with pytest.raises(ZeroSubstitutionError):
        compose_roots(f, [exact], 1)


def test_compose_rejects_coordinates_beyond_the_kept_one():
    f = xvar(3, 2) - xvar(3, 0)
    with pytest.raises(ValueError, match="uses x3 beyond the kept coordinate x2"):
        compose_roots(f, [root(0, [(0, 1)], 1)], 1)


_EXPONENTS = st.fractions(min_value=-2, max_value=3, max_denominator=2)
_COEFFS = st.sampled_from([1, 2, 3, -1, -2, -3])


@st.composite
def _compose_cases(draw):
    """A sparse f in x_1..x_{k+1} of 2-4 variables, and k random roots."""
    nvars = draw(st.integers(2, 4))
    k = draw(st.integers(0, nvars - 1))
    degrees = st.tuples(*[st.integers(0, 2)] * (k + 1)).map(lambda d: d + (0,) * (nvars - k - 1))
    scalars = st.lists(st.tuples(_EXPONENTS, _COEFFS), min_size=1, max_size=2).map(
        lambda pairs: ps(*pairs)
    )
    f = sum_mpoly(QQ, nvars, draw(st.dictionaries(degrees, scalars, max_size=5)).items())
    roots = []
    for i in range(k):
        exps = sorted(draw(st.sets(_EXPONENTS, max_size=2)))
        known = [(e, draw(_COEFFS)) for e in exps]
        if known:
            last = exps[-1]
            tails = st.fractions(min_value=last, max_value=4, max_denominator=2)
            tail = draw(st.none() | tails.filter(lambda w: w > last))
        else:
            tail = draw(st.fractions(min_value=-2, max_value=4, max_denominator=2))
        roots.append(root(i, known, tail))
    return f, roots, k


def _compose_outcome(fn, f, values, k):
    try:
        return fn(f, values, k).coeffs
    except ZeroSubstitutionError:
        return "zero"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_compose_cases())
def test_compose_matches_the_naive_substitution(case):
    f, roots, k = case
    values = [as_mpoly(r, QQ, f.nvars) for r in roots]
    assert _compose_outcome(compose_roots, f, roots, k) == _compose_outcome(compose_naive, f, values, k)



@pytest.mark.parametrize("n", range(10))
def test_mpoly_pow_is_repeated_multiplication(n):
    f = mpoly(2, {(1, 0): const(2), (0, 1): tp(1), (0, 0): ps((-1, 1), (0, -3))})
    want = mconst(2, const(1))
    for _ in range(n):
        want = want * f
    assert f**n == want

_SHIFT_FIELDS = st.sampled_from([QQ, PrimeField(7)])
_SHIFT_SCALES = st.just(Fraction(0)) | st.fractions(min_value=0, max_value=3, max_denominator=3)


@st.composite
def _scalars(draw, field, max_terms):
    pairs = draw(st.lists(st.tuples(_EXPONENTS, _COEFFS), max_size=max_terms))
    return ps(*pairs, field=field)


@st.composite
def _shift_cases(draw):
    """A UPoly of degree 0-6 with K[u] coefficients, and a multi-term prefix."""
    field = draw(_SHIFT_FIELDS)
    nvars = draw(st.integers(1, 3))
    var = draw(st.integers(0, nvars - 1))
    u_degrees = st.tuples(*[st.integers(0, 2)] * nvars)
    coeff = st.dictionaries(u_degrees, _scalars(field, 2), min_size=1, max_size=3).map(
        lambda terms: sum_mpoly(field, nvars, terms.items())
    )
    top = draw(st.integers(0, 6))
    coeffs = draw(st.dictionaries(st.integers(0, top), coeff, max_size=top + 1))
    coeffs[top] = draw(coeff.filter(lambda c: not c.is_zero()))
    f = from_coeffs(field, nvars, var, coeffs.items())
    return f, draw(_scalars(field, 3)), draw(_scalars(field, 3)), draw(_SHIFT_SCALES)


_VALUE_SHAPES = st.sampled_from(["bare tail", "exact", "known plus tail", "unused coordinate"])


@st.composite
def _substitute_cases(draw):
    """A sparse MPoly, a coordinate, and a root a + t^e*u_index as the engine
    puts it in: a a scalar, maybe zero, and e the tail's exponent, None when
    the root is exact."""
    field = draw(_SHIFT_FIELDS)
    nvars = draw(st.integers(1, 3))
    index = draw(st.integers(0, nvars - 1))
    degrees = st.tuples(*[st.integers(0, 3)] * nvars)
    f = sum_mpoly(field, nvars, draw(st.dictionaries(degrees, _scalars(field, 2), max_size=5)).items())
    shape = draw(_VALUE_SHAPES)
    nonzero = _scalars(field, 3).filter(lambda c: not c.is_zero())
    a = draw(_scalars(field, 3) if shape in ("bare tail", "unused coordinate") else nonzero)
    e = draw(_EXPONENTS)
    if shape == "bare tail":
        a = ps(field=field)
    elif shape == "exact":
        e = None
    elif shape == "unused coordinate":
        f = MPoly(field, nvars, f.den, {d: c for d, c in f.terms.items() if not d[index]})
    return f, index, a, e


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_substitute_cases())
def test_substitute_matches_horners_rule(case):
    f, index, a, e = case
    got = f.substitute(index, a.terms, e)
    value = Poly.constant(f.field, f.nvars, a)
    if e is not None:
        value = value + Poly.variable(f.field, f.nvars, index, tp(e, field=f.field))
    assert got == evaluate(UPoly.from_mpoly(f, index), value)
    if not any(d[index] for d in f.terms):
        assert got is f


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_shift_cases())
def test_shift_substitute_matches_the_naive_horner_rule(case):
    f, prefix, other, scale = case
    assert f.shift_substitute(prefix.terms).coeffs == shift_substitute_naive(f, prefix, 0).coeffs
    assert shift_and_rescale(f, prefix, scale).coeffs == shift_substitute_naive(f, prefix, scale).coeffs
    # recentering twice is recentering once at the sum
    twice = f.shift_substitute(prefix.terms).shift_substitute(other.terms)
    assert twice.coeffs == f.shift_substitute((prefix + other).terms).coeffs


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_recentering_a_cube_at_its_root_cancels_every_lower_coefficient(field):
    # c * (x1 - a)^3 with a four-term a and a coefficient c in u2, u3: at a
    # every lower coefficient cancels to exactly zero, term by term
    a = ps((-1, 2), (0, 1), (Fraction(1, 2), -3), (2, 5), field=field)
    c = uc(
        3,
        (ps((0, 1), (1, 2), field=field), (0, 0, 0)),
        (tp(1, 3, field=field), (0, 1, 0)),
        (ps((-1, 4), field=field), (0, 1, 2)),
        field=field,
    )
    cube = (xvar(3, 0, field=field) - mconst(3, a, field=field)) ** 3 * c
    f = UPoly.from_mpoly(cube, 0)
    assert len(f.coeffs) == 4
    shifted = f.shift_substitute(a.terms)
    assert shifted.coeffs == {3: c}
    assert all(terms and all(terms.values()) for terms in shifted.coeffs[3].terms.values())
    # the same cancellation through MPoly.substitute: x1 -> a + t^(1/3)*u1
    s = tp(Fraction(1, 3), field=field)
    assert cube.substitute(0, a.terms, Fraction(1, 3)) == c * Poly.variable(field, 3, 0, s) ** 3
    assert cube.substitute(0, a.terms, None).is_zero()


def _copied(terms):
    """A copy of a stored form's terms that shares no dict with it."""
    return {d: dict(t) for d, t in terms.items()}


def _initial_parts(coeffs):
    """Each nonzero coefficient's (val_pair, initial_term, initial_terms),
    filling what it keeps."""
    return [(c.val_pair(), c.initial_term(), c.initial_terms()) for c in coeffs if not c.is_zero()]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_shift_cases(), _substitute_cases())
def test_recentering_leaves_its_input_as_it_was(shift_case, substitute_case):
    # the root tree's store shares polynomials between branches, and
    # polynomials share their numerator dicts, so the kernel must work on
    # copies of the dicts it writes, and the initial part each coefficient
    # keeps must still describe its terms
    f, prefix, _, _ = shift_case
    before = {j: _copied(c.terms) for j, c in f.coeffs.items()}
    kept = _initial_parts(f.coeffs.values())
    f.shift_substitute(prefix.terms)
    assert {j: c.terms for j, c in f.coeffs.items()} == before
    assert _initial_parts(f.coeffs.values()) == kept
    assert kept == [initial_part_naive(c) for c in f.coeffs.values()]
    g, index, a, e = substitute_case
    before = _copied(g.terms)
    kept = _initial_parts([g, *UPoly.from_mpoly(g, index).coeffs.values()])
    g.substitute(index, a.terms, e)
    assert g.terms == before
    if not g.is_zero():
        assert _initial_parts([g])[0] == kept[0] == initial_part_naive(g)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_substitute_cases(), st.booleans())
def test_the_kept_initial_part_matches_a_naive_recomputation(case, term_first):
    f, index, _, _ = case
    for c in [f, *UPoly.from_mpoly(f, index).coeffs.values()]:
        if c.is_zero():
            for _ in range(2):
                for method in (c.val_pair, c.initial_term, c.initial_terms):
                    with pytest.raises(ZeroHasNoValuation):
                        method()
            continue
        first = c.initial_term() if term_first else c.val_pair()
        for _ in range(2):
            assert _initial_parts([c]) == [initial_part_naive(c)]
        assert first is (c.initial_term() if term_first else c.val_pair())


def test_shift_substitute_identity():
    f = paper_f2_tilde()
    assert f.shift_substitute(()) is f


def test_a_upoly_takes_its_coefficient_dict_over():
    # every builder hands over a dict of its own, so none is copied, and
    # recentering builds a new one without writing the old
    coeffs = {1: mconst(2, const(1)), 0: mconst(2, const(-1))}
    f = UPoly(QQ, 2, 1, coeffs)
    assert f.coeffs is coeffs
    before = dict(coeffs)
    shifted = f.shift_substitute(((0, 1),))
    assert shifted.coeffs is not coeffs and coeffs == before
    assert shifted.coeffs == {1: mconst(2, const(1))}


def test_shift_substitute_paper_fixtures():
    # the four recentered/rescaled forms of the two-factor product
    f2 = paper_f2_tilde()
    shifted = shift_and_rescale(f2, ps((0, 1), (1, 1)), 2)
    assert shifted.coeffs == upoly(
        2,
        1,
        {
            2: tp(4),
            1: uc(2, (tp(4, -2), (1, 0)), (tp(2), (0, 0))),
            0: uc(2, (tp(4), (2, 0)), (tp(2, -1), (1, 0))),
        },
    ).coeffs
    shifted2 = shift_and_rescale(f2, tp(1), 2)
    assert shifted2.coeffs == upoly(
        2,
        1,
        {
            2: tp(4),
            1: uc(2, (tp(4, -2), (1, 0)), (tp(2, -1), (0, 0))),
            0: uc(2, (tp(4), (2, 0)), (tp(2), (1, 0))),
        },
    ).coeffs


def test_specialize_u_examples():
    g = upoly(2, 1, {1: const(1), 0: uc(2, (const(-1), (1, 0)), (ps((0, 1), (1, 1)), (0, 0)))})
    h = specialize(g, {0: const(1)})
    assert h.coeffs == upoly(2, 1, {1: const(1), 0: tp(1)}).coeffs

    g2 = upoly(2, 1, {1: const(1), 0: uc(2, (tp(2, -1), (1, 0)))})
    h2 = specialize(g2, {0: ps((0, 1), (1, 1))})
    assert h2.coeffs == upoly(2, 1, {1: const(1), 0: ps((2, -1), (3, -1))}).coeffs


def test_specialize_u_requires_valuation_zero():
    g = upoly(2, 1, {1: const(1), 0: uc(2, (const(1), (1, 0)))})
    with pytest.raises(ValueError):
        specialize(g, {0: tp(1)})
    with pytest.raises(ValueError):
        specialize(g, {0: ps()})
    assert specialize(g, {}).coeffs == g.coeffs


def test_uval_is_a_valuation_randomized():
    rng = random.Random(31)
    for _ in range(200):
        a = _random_ucoeff(rng)
        b = _random_ucoeff(rng)
        assert uval(a * b) == uval(a) + uval(b)
        s = a + b
        if not s.is_zero():
            assert uval(s) >= min(uval(a), uval(b))


def test_compose_is_multiplicative_randomized():
    rng = random.Random(57)
    for _ in range(120):
        k = rng.randint(0, 2)
        f = _random_mpoly(rng, k + 1, 3)
        g = _random_mpoly(rng, k + 1, 3)
        roots = [_random_root(rng, i) for i in range(k)]
        try:
            fg = compose_roots(f * g, roots, k)
        except ZeroSubstitutionError:
            continue
        cf = compose_roots(f, roots, k)
        cg = compose_roots(g, roots, k)
        assert lift(fg) == lift(cf) * lift(cg)


def test_shift_substitute_is_multiplicative_randomized():
    rng = random.Random(77)
    for _ in range(120):
        f = _random_upoly(rng)
        g = _random_upoly(rng)
        prefix = ps((0, rng.choice([1, 2, -1])), (1, rng.randint(-2, 2)))
        scale = Fraction(rng.randint(0, 3), rng.randint(1, 2))
        lhs = shift_and_rescale(unlift(lift(f) * lift(g), f.var), prefix, scale)
        assert lift(lhs) == lift(shift_and_rescale(f, prefix, scale)) * lift(shift_and_rescale(g, prefix, scale))


def test_specialize_commutes_with_ufree_shift():
    rng = random.Random(99)
    for _ in range(100):
        f = _random_upoly(rng)
        prefix = ps((0, rng.choice([1, -1, 2])), (2, rng.randint(-2, 2)))
        scale = Fraction(rng.randint(0, 2))
        values = {i: const(rng.choice([1, 2, 3, -1])) for i in tail_variables(f)}
        a = specialize(shift_and_rescale(f, prefix, scale), values)
        b = shift_and_rescale(specialize(f, values), prefix, scale)
        assert a.coeffs == b.coeffs


def test_specialization_never_lowers_uval():
    rng = random.Random(13)
    for _ in range(200):
        c = _random_ucoeff(rng)
        values = {i: _random_unit(rng) for i in c.variables()}
        s = specialize(c, values)
        if s.is_zero():
            continue
        assert uval(s) >= uval(c)
        residues = {i: initial(v) for i, v in values.items()}
        survives = eval_residue(QQ, c.initial_terms(), residues)[0]
        if survives != 0:
            assert uval(s) == uval(c)


def _random_unit(rng):
    s = const(rng.choice([1, 2, 3, -1, -2]))
    if rng.random() < 0.4:
        s = s + tp(Fraction(rng.randint(1, 3), 2), rng.randint(-2, 2))
    return s


def _random_ucoeff(rng, nvars=2):
    terms = []
    for _ in range(rng.randint(1, 3)):
        deg = tuple(rng.randint(0, 1) for _ in range(nvars))
        scalar = ps((Fraction(rng.randint(-2, 4), rng.randint(1, 2)), rng.choice([1, 2, -1, -3])))
        terms.append((scalar, deg))
    c = uc(nvars, *terms)
    if c.is_zero():
        return uconst(nvars, const(1))
    return c


def _random_upoly(rng, nvars=2, var=1):
    coeffs = {}
    for j in range(rng.randint(1, 3) + 1):
        if rng.random() < 0.3:
            continue
        coeffs[j] = _random_ucoeff(rng, nvars)
    if not coeffs:
        coeffs[1] = uconst(nvars, const(1))
    return from_coeffs(QQ, nvars, var, list(coeffs.items()))


def _random_mpoly(rng, width, nvars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = [0] * nvars
        for i in range(width):
            deg[i] = rng.randint(0, 2)
        scalar = ps((Fraction(rng.randint(-2, 3)), rng.choice([1, 2, -1])))
        terms[tuple(deg)] = scalar
    p = sum_mpoly(QQ, nvars, terms.items())
    if p.is_zero():
        return mconst(nvars, const(1))
    return p


def _random_root(rng, index):
    if rng.random() < 0.3:
        return root(index, [(0, rng.choice([1, 2, -1]))], None)
    known = [] if rng.random() < 0.5 else [(0, rng.choice([1, 2, -1]))]
    tail = Fraction(rng.randint(0 if not known else 1, 2))
    return root(index, known, tail)
