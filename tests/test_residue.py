"""Residue fields: exact arithmetic and unit-root extraction."""

import random
import signal
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import troptri
from helpers import TimeLimitExceeded, horner, time_limit, unit_roots_naive
from oracles import is_prime_trial_division
from troptri import (
    DivisionByZero,
    NonSplittingError,
    PrimeField,
    RationalField,
    ResiduePoly,
)
from troptri.residue import _fp_divmod, _fp_mulmod, _is_prime, _repeated_root, _strip_unit_part

QQ = RationalField()
F5 = PrimeField(5)


def roots_in_units(p):
    """``troptri.roots_in_units`` under a time limit, so that a hang fails the test."""
    with time_limit(10):
        return troptri.roots_in_units(p)


def test_time_limits_nest():
    # the wrapper above runs inside the tests' own limits: an inner limit
    # must neither outlast an outer one nor stop it counting
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.1):
            with time_limit(10):
                time.sleep(0.5)
    with pytest.raises(TimeLimitExceeded):
        with time_limit(0.2):
            with time_limit(10):
                pass
            time.sleep(0.5)
    # an inner body that swallows the enclosing limit's expiry still ends it
    with pytest.raises(TimeLimitExceeded, match="enclosing"):
        with time_limit(0.1):
            with time_limit(10):
                with pytest.raises(TimeLimitExceeded):
                    time.sleep(0.5)
    with time_limit(10):
        with time_limit(0.1):
            pass
        assert 9 < signal.getitimer(signal.ITIMER_REAL)[0] <= 10
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0


def _not_split(field):
    return "polynomial does not split over %s" % field.name


def _verdict(field, coeffs):
    """``roots_in_units`` on ``coeffs``: its roots, or the message of the
    NonSplittingError it raises."""
    try:
        return roots_in_units(ResiduePoly(field, coeffs))
    except NonSplittingError as exc:
        return str(exc)


def _naive_verdict(field, coeffs):
    """``_verdict`` by the enumeration oracle."""
    roots, split = unit_roots_naive(field, coeffs)
    return roots if split else _not_split(field)


def test_rational_field_ops():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 4)) == Fraction(1, 2)
    assert QQ.div(Fraction(1), Fraction(4)) == Fraction(1, 4)
    assert QQ.neg(Fraction(2)) == Fraction(-2)
    assert QQ.div(1, Fraction(3, 7)) == Fraction(7, 3)


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
        QQ.div(3, 0)


def test_rational_division_keeps_exact_quotients_as_ints():
    # an exact quotient is an int, whatever the operands' types; else a
    # reduced Fraction with a positive denominator
    for a, b, q in [(6, 3, 2), (6, -3, -2), (-7, 1, -7), (0, 5, 0),
                    (Fraction(3, 2), Fraction(1, 2), 3), (4, Fraction(2, 3), 6)]:
        assert type(QQ.div(a, b)) is int and QQ.div(a, b) == q
    for a, b, q in [(1, 2, Fraction(1, 2)), (6, -4, Fraction(-3, 2)),
                    (Fraction(1, 3), 2, Fraction(1, 6)), (5, Fraction(2, 3), Fraction(15, 2))]:
        assert type(QQ.div(a, b)) is Fraction and QQ.div(a, b) == q


@st.composite
def _fp_products(draw):
    """(a, b, f, p): two polynomials over F_p and a monic f of degree >= 1,
    lists of coefficients low degree first."""
    p = draw(st.sampled_from([2, 3, 7, 10007, 45589, 998244353]))
    element = st.integers(0, p - 1)
    f = draw(st.lists(element, min_size=1, max_size=5)) + [1]
    a, b = (draw(st.lists(element, max_size=8)) for _ in range(2))
    return a, b, f, p


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_fp_products())
def test_fp_product_modulo_f_matches_the_division_route(case):
    # the remainder reduced in place is the remainder _fp_divmod gives the
    # product, trimmed alike
    a, b, f, p = case
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    assert _fp_mulmod(a, b, f, p) == _fp_divmod([c % p for c in product], f, p)[1]


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
        PrimeField(10**24 + 7)  # prime, but above the cap
    assert PrimeField(2).p == 2
    assert PrimeField(999983).p == 999983
    assert PrimeField(10**6 + 3).p == 10**6 + 3


def test_miller_rabin_agrees_with_trial_division_below_200000():
    assert [n for n in range(200_000) if _is_prime(n)] == [
        n for n in range(200_000) if is_prime_trial_division(n)
    ]


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233), for k = 1..12, the ones below PrimeField.MAX_PRIME, with their
# prime factors
_PSI = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),
]
_BASES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def _strong_probable_prime(n, b):
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(b, d, n)
    return x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, r))


@pytest.mark.parametrize("k", range(1, 13))
def test_miller_rabin_rejects_the_least_pseudoprime_to_each_base_prefix(k):
    psi, factors = _PSI[k - 1]
    assert prod(factors) == psi
    # psi_k fools the first k bases, so the test must go on to the next one
    assert all(_strong_probable_prime(psi, b) for b in _BASES[:k])
    if k == 12 or _PSI[k][0] != psi:
        assert not _strong_probable_prime(psi, _BASES[k])
    assert not _is_prime(psi)


def test_miller_rabin_rejects_carmichael_numbers():
    assert not any(_is_prime(n) for n in (561, 1105, 1729))


def test_miller_rabin_on_large_numbers():
    # psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the
    # twelve prime bases 2..37; base 41 exposes it
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not _is_prime(318665857834031151167461)
    assert _is_prime(2**61 - 1) and _is_prime(10**24 + 7)
    assert not _is_prime((2**31 - 1) * (2**61 - 1))
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert PrimeField.MAX_PRIME == 10**24


def test_residue_poly_normalization():
    p = ResiduePoly(QQ, [Fraction(1), Fraction(0), Fraction(0)])
    assert p.coeffs == (1,)
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
# over F2, x^2 + 1 over F3, F7 and F10007 (p = 3 mod 4), x^2 - 3 over F257
# (p - 1 = 2^8, so square roots there take every step of Tonelli-Shanks)
_FIELDS = {
    QQ: [Fraction(-2), Fraction(0), Fraction(1)],
    PrimeField(2): [1, 1, 1],
    PrimeField(3): [1, 0, 1],
    F5: [3, 0, 1],
    PrimeField(7): [1, 0, 1],
    PrimeField(10007): [1, 0, 1],
    PrimeField(257): [254, 0, 1],
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
    assert _verdict(field, coeffs) == _naive_verdict(field, coeffs)


@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(10007)],
                         ids=["QQ", "F2", "F3", "F7", "F10007"])
def test_a_repeated_root_in_closed_form_agrees_with_the_general_path(field, monkeypatch):
    # lead*(x - r)^d, with d = 1..9 (so p divides d for some of them), and
    # the same with one coefficient moved or one root changed
    rng = random.Random(4711)
    if field == QQ:
        element = lambda: Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    else:
        element = lambda: rng.randrange(field.p)
    cases = []
    for _ in range(150):
        r, lead, d = element(), element(), rng.randint(1, 9)
        if r == 0 or lead == 0:
            continue
        power = _times(field, [lead], _from_roots(field, [r] * d))
        other = _times(field, [lead], _from_roots(field, [r] * (d - 1) + [element()]))
        moved = list(power)
        k = rng.randrange(d)
        moved[k] = field.add(moved[k], field.one)
        for coeffs in (power, other, moved):
            cases.append(([field.zero] * rng.randint(0, 2) + coeffs, d, coeffs is power))
    closed = []
    for coeffs, d, is_power in cases:
        work = _strip_unit_part(coeffs)
        r = _repeated_root(field, work) if len(work) > 1 else None
        closed.append((_verdict(field, coeffs), r))
        if field.from_int(len(work) - 1) == 0:
            assert r is None
        elif is_power:
            assert r is not None
    monkeypatch.setattr(troptri.residue, "_repeated_root", lambda field, f: None)
    for (coeffs, _, _), (got, r) in zip(cases, closed):
        assert got == _verdict(field, coeffs) == _naive_verdict(field, coeffs)
        assert r is None or got == {r}


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


def _refuse(monkeypatch, name):
    """Make ``troptri.residue.<name>`` fail the test when it is called."""

    def refuse(*args):
        raise AssertionError("called %s%r" % (name, args))

    monkeypatch.setattr(troptri.residue, name, refuse)


def test_a_linear_squarefree_part_gives_its_root_without_the_p_adic_search(monkeypatch):
    # (3x - 7)^4 * x^2 and (x + 10^30/7)^3: the roots of a cluster agreeing
    # on a term; the squarefree part is linear, so no root is searched for mod p
    _refuse(monkeypatch, "_rational_candidates")
    power = [0, 0] + _times(QQ, [81], _from_roots(QQ, [Fraction(7, 3)] * 4))
    assert _verdict(QQ, power) == {Fraction(7, 3)}
    big = Fraction(-10**30, 7)
    assert _verdict(QQ, _from_roots(QQ, [big] * 3)) == {big}


def test_a_quadratic_squarefree_part_gives_its_roots_without_the_p_adic_search(monkeypatch):
    _refuse(monkeypatch, "_rational_candidates")
    # (3x - 7)^2 (5x + 2) x: squarefree part (3x - 7)(5x + 2), discriminant 41^2
    split = [0] + _times(QQ, [45], _from_roots(QQ, [Fraction(7, 3), Fraction(7, 3), Fraction(-2, 5)]))
    assert _verdict(QQ, split) == {Fraction(7, 3), Fraction(-2, 5)}
    big = [Fraction(10**12, 3), Fraction(-7, 5)]
    assert _verdict(QQ, _from_roots(QQ, big)) == set(big)
    # irrational discriminants: 8 for x^2 - 2, 5 for x^2 - x - 1, -4 for
    # x^2 + 1, and 4*10^24 + 4 for x^2 - 10^24 - 1, one above a square
    for coeffs in ([-2, 0, 1], [-1, -1, 1], [1, 0, 1], [-(10**24) - 1, 0, 1]):
        assert _verdict(QQ, coeffs) == "polynomial does not split over QQ"
    # (x^2 - 2)^3: squarefree part x^2 - 2 again, the cube left undivided
    assert _verdict(QQ, _times(QQ, [-2, 0, 1], _times(QQ, [-2, 0, 1], [-2, 0, 1]))) == _not_split(QQ)


def test_a_prime_field_polynomial_of_degree_at_most_2_is_solved_without_powering(monkeypatch):
    _refuse(monkeypatch, "_fp_powmod")
    for p in (3, 5, 17, 10007, 7340033, 998244353):
        field = PrimeField(p)
        assert _verdict(field, [p - 2, 1]) == {2}
        assert _verdict(field, _from_roots(field, [1, p - 1])) == {1, p - 1}
        assert _verdict(field, _times(field, [2], _from_roots(field, [2, 2]))) == {2}
        nonresidue = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
        assert _verdict(field, [p - nonresidue, 0, 1]) == "polynomial does not split over F%d" % p


def _random_quadratics(p, count):
    """``count`` random quadratics over F_p with nonzero end coefficients."""
    rng = random.Random(p)
    return [[rng.randrange(1, p), rng.randrange(p), rng.randrange(1, p)] for _ in range(count)]


@pytest.mark.parametrize("p", [17, 97, 257])
def test_quadratic_roots_match_the_enumeration_modulo_primes_1_mod_16(p):
    # p - 1 = 2^4, 3 * 2^5 and 2^8
    field = PrimeField(p)
    for coeffs in [[p - a, 0, 1] for a in range(1, p)] + _random_quadratics(p, 300):
        assert _verdict(field, coeffs) == _naive_verdict(field, coeffs), coeffs


@pytest.mark.parametrize("p, odd, power", [(7340033, 7, 20), (998244353, 119, 23)])
def test_square_roots_modulo_primes_with_a_large_power_of_two_in_p_minus_1(p, odd, power):
    assert p - 1 == odd * 2**power
    field = PrimeField(p)
    # z has order 2^power, so z^(2^k) has order 2^(power - k) and its square
    # needs power - k - 1 steps of Tonelli-Shanks
    generator = next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)
    z = pow(generator, odd, p)
    for k in range(power):
        w = pow(z, 2**k, p)
        assert roots_in_units(ResiduePoly(field, [(-w * w) % p, 0, 1])) == {w, p - w}
    with pytest.raises(NonSplittingError):
        roots_in_units(ResiduePoly(field, [p - z, 0, 1]))
    seen = {True: 0, False: 0}
    for c, b, a in _random_quadratics(p, 200):
        disc = (b * b - 4 * a * c) % p
        is_square = pow(disc, (p - 1) // 2, p) <= 1
        seen[is_square] += 1
        roots = _verdict(field, [c, b, a])
        if not is_square:
            assert roots == _not_split(field)
            continue
        assert len(roots) == (1 if disc == 0 else 2)
        assert all((a * r * r + b * r + c) % p == 0 for r in roots)
    assert min(seen.values()) > 50


def test_the_lifting_prime_is_found_by_trying_every_unit_in_little_time(monkeypatch):
    # roots 1, 1 + M and 1 + 2M for M the product of the primes below 100:
    # modulo each of those primes the three roots agree, so the roots are not
    # simple there and the lifting prime is at least 101
    searched = []
    search = troptri.residue._rational_candidates
    monkeypatch.setattr(troptri.residue, "_rational_candidates", lambda f: searched.append(f) or search(f))
    primes = [q for q in range(2, 100) if is_prime_trial_division(q)]
    m = 1
    for q in primes:
        m *= q
    roots = {1, 1 + m, 1 + 2 * m}
    coeffs = _from_roots(QQ, sorted(roots))
    with time_limit(0.1):
        assert troptri.roots_in_units(ResiduePoly(QQ, coeffs)) == roots
    assert len(searched) == 1
