"""Finite Puiseux scalars: arithmetic, valuation, initial coefficient."""

import random
from fractions import Fraction

import pytest

from helpers import QQ, const, initial, mconst, ps, tp
from oracles import scalar_sub


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
