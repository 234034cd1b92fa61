"""Finite Puiseux scalars: arithmetic, valuation, initial coefficient."""

import random
from fractions import Fraction

import pytest

from helpers import QQ, const, initial, mconst, ps, read_bench_module, tp
from oracles import scalar_sub
from troptri import PrimeField, PuiseuxScalar
from troptri.rationals import int_if_integral


def test_product_of_conjugates():
    # (1 + t)(1 - t) = 1 - t^2
    a = ps((0, 1), (1, 1))
    b = ps((0, 1), (1, -1))
    assert a * b == ps((0, 1), (2, -1))


def test_additive_identity():
    rng = random.Random(2)
    zero = ps()
    for _ in range(30):
        a = _random_scalar(rng)
        assert a + zero == a
        assert scalar_sub(a, a) == zero


def test_fractional_exponent_product():
    # exponents add: 2 t^(1/2) * 3 t^(1/2) = 6 t
    assert tp(Fraction(1, 2), 2) * tp(Fraction(1, 2), 3) == tp(1, 6)


def test_valuation_examples():
    assert ps((Fraction(1, 2), 2), (1, 3)).valuation() == Fraction(1, 2)
    assert const(1).valuation() == 0
    # constant coefficient of the recentered quadratic with two close roots
    a = ps((0, 1), (1, 1), (2, 2), (3, 1), (4, 1))
    assert a.valuation() == 0
    with pytest.raises(ValueError, match="^0 has no valuation$"):
        ps().valuation()


def test_initial_examples():
    # the engine reads a scalar's initial coefficient as the residue of a
    # constant coefficient
    assert mconst(1, ps((Fraction(1, 2), 2), (1, 3))).initial_terms() == {(0,): 2}
    assert mconst(1, ps((0, -2), (1, -1), (2, -2))).initial_terms() == {(0,): -2}
    assert initial(const(7)) == 7


def test_negative_exponents():
    a = ps((-1, 1), (0, 2))
    assert a.valuation() == -1
    assert (a * tp(1)).valuation() == 0
    assert a * tp(2) == ps((1, 1), (2, 2))


def test_cancellation_is_exact():
    a = ps((0, 1), (1, 5))
    b = ps((0, -1), (2, 2))
    assert (a + b) == ps((1, 5), (2, 2))
    assert (a + b).valuation() == 1


def test_valuation_laws_randomized():
    rng = random.Random(11)
    for _ in range(300):
        a = _random_scalar(rng, nonzero=True)
        b = _random_scalar(rng, nonzero=True)
        assert (a * b).valuation() == a.valuation() + b.valuation()
        assert initial(a * b) == QQ.mul(initial(a), initial(b))
        s = a + b
        if not s.is_zero():
            assert s.valuation() >= min(a.valuation(), b.valuation())
            if a.valuation() != b.valuation():
                assert s.valuation() == min(a.valuation(), b.valuation())


def test_sum_and_product_match_the_generators_dict_series():
    # bench/workloads.py adds and multiplies series as {exponent: coefficient}
    # dicts with Fraction keys, sharing no code with the scalar's numerators
    workloads = read_bench_module("workloads")
    rng = random.Random(33)
    pairs = cancelled = 0
    for field, gen_field in ((QQ, workloads.Field()), (PrimeField(7), workloads.Field(7))):
        for _ in range(300):
            a, b = _random_series(rng, gen_field), _random_series(rng, gen_field)
            if rng.random() < 0.3:
                # b takes away some of a's terms, so the sum cancels exactly
                gone = {e: c for e, c in a.items() if rng.random() < 0.6}
                b = workloads.s_add(gen_field, b, workloads.s_neg(gen_field, gone))
            total, product = workloads.s_add(gen_field, a, b), workloads.s_mul(gen_field, a, b)
            sa, sb = _from_series(field, a), _from_series(field, b)
            assert sa + sb == _from_series(field, total), (a, b)
            assert sa * sb == _from_series(field, product), (a, b)
            pairs += 1
            cancelled += len(total) < len(set(a) | set(b))
    assert pairs >= 500 and cancelled > 50


def _random_series(rng, gen_field):
    """A {exponent: nonzero coefficient} dict with negative and fractional exponents."""
    out = {}
    for _ in range(rng.randint(0, 4)):
        e = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))
        c = gen_field.norm(Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3])) if gen_field.p is None
                           else rng.randint(1, gen_field.p - 1))
        if c:
            out[e] = c
    return out


def _from_series(field, series):
    """The scalar of a dict series, through __init__, which makes its stored form."""
    return PuiseuxScalar(field, tuple((int_if_integral(e), int_if_integral(c)) for e, c in sorted(series.items())))


# A scalar has no power operator of its own: the engine raises a scalar to a
# power only as a constant polynomial, when the parser reads "(1 + t)^3".


def test_pow():
    a = ps((0, 1), (1, 1))
    assert mconst(1, a) ** 0 == mconst(1, const(1))
    assert mconst(1, a) ** 3 == mconst(1, a * a * a)


@pytest.mark.parametrize("n", range(10))
def test_pow_is_repeated_multiplication(n):
    a = ps((-1, 2), (0, 1), (Fraction(3, 2), -3))
    want = const(1)
    for _ in range(n):
        want = want * a
    assert mconst(1, a) ** n == mconst(1, want)


def _random_scalar(rng, nonzero=False):
    nterms = rng.randint(1 if nonzero else 0, 3)
    exps = rng.sample([Fraction(k, rng.randint(1, 3)) for k in range(-4, 7)], k=min(nterms, 4)) if nterms else []
    pairs = [(e, rng.choice([1, 2, 3, -1, -2, -3])) for e in set(exps)]
    s = ps(*pairs)
    if nonzero and s.is_zero():
        return const(1)
    return s
