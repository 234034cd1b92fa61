"""Root expansion and the two predicates on approximate roots."""

import random
from fractions import Fraction

import pytest

from helpers import (
    QQ,
    const,
    mconst,
    paper_f1,
    paper_f2_tilde,
    ps,
    root,
    tp,
    uc,
    upoly,
    xvar,
)
from oracles import ExactRootError, has_maximal_precision, is_approximate_root, relative_precision
from troptri import (
    ApproxRoot,
    TropError,
    UPoly,
    expansion,
    initial_form,
    puiseux_expansion,
)


def test_worked_expansion_of_close_roots():
    # two roots agreeing in the constant term: one comes out exact, the
    # other truncated with its tail at t^2
    f = paper_f1()
    got = set(puiseux_expansion(f, 0, 2))
    assert got == {root(0, [(0, 1), (2, 1)], None), root(0, [(0, 1), (1, 1)], 2)}


def test_expansion_zero_budget_returns_bare_tail():
    f = paper_f1()
    assert set(puiseux_expansion(f, 0, 0)) == {root(0, [], 0)}
    assert set(puiseux_expansion(f, 0, -1)) == {root(0, [], 0)}


def test_expansion_linear_exact():
    f = upoly(1, 0, {1: const(1), 0: tp(1, -1)})  # x - t
    assert set(puiseux_expansion(f, 1, 5)) == {root(0, [(1, 1)], None)}


def test_expansion_stops_on_tail_variable_in_dominant_part():
    # x2 - t^2 u1: at weight 2 the dominant equation still contains u1
    f = upoly(2, 1, {1: const(1), 0: uc(2, (tp(2, -1), (1, 0)))})
    assert set(puiseux_expansion(f, 2, 3)) == {ApproxRoot(1, (), Fraction(2))}


def test_expansion_rejects_bad_target():
    f = paper_f1()
    with pytest.raises(ValueError, match="^7 is not a tropical point of the polynomial$"):
        puiseux_expansion(f, 7, 2)


def test_expansion_refuses_float_arguments():
    # x^2 - t: its roots have valuation 1/2
    f = upoly(1, 0, {2: const(1), 0: tp(1, -1)})
    with pytest.raises(ValueError, match=r"^w must be an int or a Fraction, got 0\.5$"):
        puiseux_expansion(f, 0.5, 3)
    assert set(puiseux_expansion(f, Fraction(1, 2), 0)) == {ApproxRoot(0, (), Fraction(1, 2))}


def test_expansion_refuses_a_float_budget():
    # a float budget would run the relative precision in float arithmetic
    f = upoly(1, 0, {2: const(1), 0: tp(1, -1)})
    with pytest.raises(ValueError, match=r"^p_rel must be an int or a Fraction, got 3\.0$"):
        puiseux_expansion(f, Fraction(1, 2), 3.0)
    assert set(puiseux_expansion(f, Fraction(1, 2), Fraction(6, 2))) == set(puiseux_expansion(f, Fraction(1, 2), 3))


def test_expansion_rejects_untrusted_polygon():
    f = upoly(2, 1, {1: const(1), 0: uc(2, (const(1), (1, 0)), (ps((0, -1), (1, -1)), (0, 0)))})
    with pytest.raises(ValueError):
        puiseux_expansion(f, 0, 2)


def test_expansion_continues_past_exact_hit():
    # (x - 1)(x - 1 - t)(x - 1 - t^2): recentering at 1 zeroes the constant
    # term, yet the other two roots extend the same prefix
    x = xvar(1, 0)
    lin = lambda s: x - mconst(1, s)
    f = UPoly.from_mpoly(lin(const(1)) * lin(ps((0, 1), (1, 1))) * lin(ps((0, 1), (2, 1))), 0)
    got = set(puiseux_expansion(f, 0, 5))
    assert got == {
        root(0, [(0, 1)], None),
        root(0, [(0, 1), (1, 1)], None),
        root(0, [(0, 1), (2, 1)], None),
    }


def test_expansion_negative_valuation_root():
    # t x^2 + x + 1 has a root of valuation -1
    f = upoly(1, 0, {2: tp(1), 1: const(1), 0: const(1)})
    got = puiseux_expansion(f, -1, 1)
    assert all(r.valuation() == -1 for r in got)
    got0 = puiseux_expansion(f, 0, 1)
    assert all(r.valuation() == 0 for r in got0)


def test_returned_roots_have_target_valuation_and_pass_the_predicate():
    rng = random.Random(88)
    for _ in range(40):
        f, _ = _factored_poly(rng)
        ws = sorted({r for r in _trop(f)})
        for w in ws:
            got = puiseux_expansion(f, w, Fraction(rng.randint(0, 4)))
            for r in got:
                assert r.valuation() == w
                if not r.is_exact:
                    assert is_approximate_root(f, r)


def test_truncated_roots_have_enough_precision_or_are_blocked():
    rng = random.Random(89)
    for _ in range(40):
        f, _ = _factored_poly(rng)
        for w in _trop(f):
            p_rel = Fraction(rng.randint(1, 4))
            for r in puiseux_expansion(f, w, p_rel):
                if r.is_exact:
                    continue
                assert relative_precision(r) >= p_rel or has_maximal_precision(f, r)


def test_every_constructed_root_is_covered():
    # completeness against the known factorization: each true root must
    # extend some returned prefix
    rng = random.Random(90)
    for _ in range(40):
        f, roots = _factored_poly(rng)
        for w in {r.valuation() for r in roots}:
            got = puiseux_expansion(f, w, 3)
            for true_root in roots:
                if true_root.valuation() != w:
                    continue
                assert any(_extends(true_root, r) for r in got)


def test_is_approximate_root_fixtures():
    f2 = paper_f2_tilde()
    assert is_approximate_root(f2, root(1, [], 0))
    assert is_approximate_root(f2, root(1, [], 1))
    assert is_approximate_root(f2, root(1, [(0, 1), (1, 1)], 2))
    assert is_approximate_root(f2, root(1, [(1, 1)], 2))
    assert not is_approximate_root(f2, root(1, [], 2))


def test_is_approximate_root_rejects_exact_substitution():
    f = upoly(1, 0, {1: const(1), 0: uc(1, (const(-1), (1,)))})  # x - u1
    with pytest.raises(ExactRootError):
        is_approximate_root(f, root(0, [], 0))
    f2 = paper_f2_tilde()
    with pytest.raises(ExactRootError):
        is_approximate_root(f2, root(1, [(0, 1)], None))


def test_has_maximal_precision_fixtures():
    f2 = paper_f2_tilde()
    assert not has_maximal_precision(f2, root(1, [], 0))
    assert not has_maximal_precision(f2, root(1, [], 1))
    assert has_maximal_precision(f2, root(1, [(0, 1), (1, 1)], 2))
    assert has_maximal_precision(f2, root(1, [(1, 1)], 2))


def test_root_shape_validation():
    for known, tail, message in [
        ((), None, "a root needs known terms or a tail"),
        (((0, 1), (1, 0)), 2, "known coefficients must be nonzero"),
        (((0, 1), (0, 2)), None, "known exponents must strictly increase"),
        (((1, 1), (0, 2)), 3, "known exponents must strictly increase"),
        (((1, 1),), 1, "the tail must sit past every known term"),
        (((0, 1), (1, 2)), 0, "the tail must sit past every known term"),
        # a zero coefficient anywhere wins over an order fault before it, and
        # an order fault among the known terms over a misplaced tail
        (((1, 1), (0, 2), (2, 0)), None, "known coefficients must be nonzero"),
        (((1, 1), (0, 2)), 0, "known exponents must strictly increase"),
    ]:
        terms = tuple((Fraction(e), QQ.from_int(c)) for e, c in known)
        with pytest.raises(ValueError) as info:
            ApproxRoot(0, terms, tail)
        assert str(info.value) == message
    assert relative_precision(root(0, [], 0)) == 0
    assert relative_precision(root(0, [(0, 1)], 3)) == 3
    assert relative_precision(root(0, [(0, 1)], None)) is None


def test_root_is_an_unchangeable_value():
    a = root(1, [(0, 1), (Fraction(1, 2), -2)], 3)
    b = ApproxRoot(1, ((0, 1), (Fraction(1, 2), -2)), 3)
    assert a == b and hash(a) == hash(b) == hash((1, a.known, 3))
    assert len({a, b}) == 1
    assert a != root(0, [(0, 1), (Fraction(1, 2), -2)], 3)
    assert a != root(1, [(0, 1), (Fraction(1, 2), -2)], None)
    assert a != (1, a.known, 3)
    for name in ("index", "known", "tail", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        del a.tail
    assert (a.index, a.tail) == (1, 3)


def _trop(f):
    from troptri import newton_polygon

    return newton_polygon(f).tropical_points()


def _factored_poly(rng):
    """A u-free product of (x - root) factors with its root list."""
    roots = []
    seen = set()
    for _ in range(rng.randint(1, 3)):
        lead_exp = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        terms = [(lead_exp, rng.choice([1, 2, -1]))]
        for k in range(rng.randint(0, 2)):
            terms.append((lead_exp + Fraction(k + 1, 1), rng.choice([1, -1, 2])))
        r = ps(*terms)
        if r.terms in seen:
            continue
        seen.add(r.terms)
        roots.append(r)
    x = xvar(1, 0)
    f = mconst(1, const(1))
    for r in roots:
        f = f * (x - mconst(1, r))
    true_roots = [root(0, [(e, int(c) if c.denominator == 1 else c) for e, c in r.terms], None) for r in roots]
    return UPoly.from_mpoly(f, 0), true_roots


def _extends(true_root, approx):
    """Does the exact root continue the approximate one past its tail?"""
    if approx.is_exact:
        return true_root.known == approx.known
    prefix = tuple(term for term in true_root.known if term[0] < approx.tail)
    if prefix != approx.known:
        return False
    rest = true_root.known[len(prefix):]
    return not rest or rest[0][0] >= approx.tail


def test_the_recursion_cap_bounds_the_expansion(monkeypatch):
    # x^2 - x - t: the root -t + t^2 - ... of valuation 1 never ends, so
    # each further digit is one recursion level deeper
    f = upoly(1, 0, {2: const(1), 1: const(-1), 0: tp(1, -1)})
    assert expansion.MAX_DEPTH == 64
    monkeypatch.setattr(expansion, "MAX_DEPTH", 0)
    with pytest.raises(TropError, match="^expansion exceeded 0 recursion levels$"):
        puiseux_expansion(f, 1, 1)
    monkeypatch.setattr(expansion, "MAX_DEPTH", 1)
    assert set(puiseux_expansion(f, 1, 1)) == {root(0, [(1, -1)], 2)}


def test_a_zero_polynomial_has_no_expansion_and_no_initial_form():
    zero = UPoly(QQ, 1, 0, {})
    with pytest.raises(ValueError, match="^cannot expand roots of the zero polynomial$"):
        puiseux_expansion(zero, 0, 1)
    with pytest.raises(ValueError, match="^the zero polynomial has no initial form$"):
        initial_form(zero, 0)
