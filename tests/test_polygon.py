"""Newton polygons: hull, tropical points, substitution invariance."""

import random
from fractions import Fraction

import pytest

from helpers import (
    QQ,
    const,
    from_coeffs,
    mconst,
    paper_f1,
    paper_f2_tilde,
    ps,
    tp,
    uc,
    uconst,
    upoly,
    uval,
    xvar,
)
from oracles import hull_value, on_lower_edge, span, specialize, support_points, uniqueness_oracle
from troptri import Polygon, UPoly, ZeroPolynomialError, is_unique, newton_polygon


def test_polygon_of_quadratic_with_unit_and_inverse_roots():
    f = upoly(1, 0, {2: tp(1), 1: const(1), 0: const(1)})
    polygon = newton_polygon(f)
    assert polygon.vertices == ((0, Fraction(0)), (1, Fraction(0)), (2, Fraction(1)))
    assert polygon.slopes() == [Fraction(0), Fraction(1)]
    assert polygon.tropical_points() == (Fraction(0), Fraction(-1))


def test_polygon_of_f2_tilde():
    # coefficient valuations are 1, 0, 0 by direct inspection
    f2 = paper_f2_tilde()
    assert [uval(c) for _, c in sorted(f2.coeffs.items())] == [1, 0, 0]
    polygon = newton_polygon(f2)
    assert polygon.vertices == ((0, Fraction(1)), (1, Fraction(0)), (2, Fraction(0)))


def test_polygon_single_monomial():
    f = upoly(1, 0, {3: tp(Fraction(1, 2), 5)})
    polygon = newton_polygon(f)
    assert polygon.vertices == ((3, Fraction(1, 2)),)
    assert polygon.edges() == []
    assert polygon.tropical_points() == ()


def test_polygon_midpoint_is_not_a_vertex():
    f = upoly(1, 0, {0: const(1), 1: const(2), 2: const(1)})
    polygon = newton_polygon(f)
    assert polygon.vertices == ((0, Fraction(0)), (2, Fraction(0)))
    assert on_lower_edge(polygon, 1, Fraction(0))
    assert not on_lower_edge(polygon, 1, Fraction(1))


def test_polygon_rejects_zero():
    with pytest.raises(ZeroPolynomialError):
        newton_polygon(UPoly(QQ, 1, 0, {}))


def test_tropical_points_of_recentered_quadratic():
    f = upoly(1, 0, {2: const(1), 1: ps((1, -1), (2, -2)), 0: ps((3, 1), (4, 1))})
    assert newton_polygon(f).tropical_points() == (Fraction(2), Fraction(1))


def test_convexity_enforced():
    for corners, message in [
        ((), "a polygon needs at least one vertex"),
        (((1, 0), (1, 1)), "vertices must be strictly increasing in j"),
        (((0, 0), (2, 1), (1, 3)), "vertices must be strictly increasing in j"),
        (((0, 0), (1, 2), (2, 0)), "slopes must strictly increase (convexity)"),
        (((0, 2), (1, 0), (3, 0), (4, -1)), "slopes must strictly increase (convexity)"),
        # any dj <= 0 wins over a convexity fault before it
        (((0, 0), (1, 2), (2, 0), (2, 5)), "vertices must be strictly increasing in j"),
    ]:
        with pytest.raises(ValueError) as info:
            Polygon(corners)
        assert str(info.value) == message


def test_polygon_keeps_integer_corners_and_compares_by_vertices():
    polygon = Polygon(((0, 3), (2, 0), (3, 1)), 6)
    assert polygon.corners == ((0, 3), (2, 0), (3, 1))
    assert polygon.vertices == ((0, Fraction(1, 2)), (2, 0), (3, Fraction(1, 6)))
    assert polygon.tropical_points() == (Fraction(1, 4), Fraction(-1, 6))
    assert polygon.slopes() == [Fraction(-1, 4), Fraction(1, 6)]
    assert polygon.edges() == [((0, Fraction(1, 2)), (2, 0)), ((2, 0), (3, Fraction(1, 6)))]
    same = Polygon(((0, 6), (2, 0), (3, 2)), 12)
    assert polygon == same and hash(polygon) == hash(same)
    assert polygon != Polygon(((0, 3), (2, 0), (3, 2)), 6)
    assert repr(polygon) == "Polygon[(0, 1/2), (2, 0), (3, 1/6)]"


def test_is_unique_examples():
    # x2 - (u1 - 1 - t): the constant vertex has a two-term dominant part
    f = upoly(2, 1, {1: const(1), 0: uc(2, (const(1), (1, 0)), (ps((0, -1), (1, -1)), (0, 0)))})
    assert not is_unique(f)

    g = upoly(2, 1, {1: const(1), 0: uc(2, (tp(2, -1), (1, 0)))})
    assert is_unique(g)

    # the two-term coefficient 1 + t*u1 is harmless: its dominant part is 1
    h = upoly(2, 0, {1: const(1), 0: uc(2, (const(1), (0, 0)), (tp(1), (1, 0)))})
    assert is_unique(h)


def test_uniqueness_oracle_examples():
    f = upoly(2, 1, {1: const(1), 0: uc(2, (const(1), (1, 0)), (ps((0, -1), (1, -1)), (0, 0)))})
    assert not uniqueness_oracle(f, trials=50, seed=1)
    # explicit witness pair for the same polynomial
    one_plus_t = specialize(f, {0: ps((0, 1), (1, 1))})
    two = specialize(f, {0: const(2)})
    assert newton_polygon(one_plus_t).vertices != newton_polygon(two).vertices

    h = upoly(2, 0, {1: const(1), 0: uc(2, (const(1), (0, 0)), (tp(1), (1, 0)))})
    assert uniqueness_oracle(h, trials=50, seed=1)

    ufree = paper_f1()
    assert uniqueness_oracle(ufree, trials=5, seed=1)


def test_ufree_polygons_track_factored_roots():
    # polynomials built from known roots: the tropical points must be the
    # distinct root valuations
    rng = random.Random(20)
    for _ in range(60):
        roots = []
        for _ in range(rng.randint(1, 4)):
            exp = Fraction(rng.randint(-2, 3), rng.randint(1, 2))
            lead = rng.choice([1, 2, -1, -2])
            tail_terms = [(exp, lead)]
            if rng.random() < 0.5:
                tail_terms.append((exp + rng.randint(1, 2), rng.choice([1, -1])))
            roots.append(ps(*tail_terms))
        x = xvar(1, 0)
        product = mconst(1, const(1))
        for r in roots:
            product = product * (x - mconst(1, r))
        f = UPoly.from_mpoly(product, 0)
        assert is_unique(f)
        got = newton_polygon(f).tropical_points()
        assert got == tuple(sorted({r.valuation() for r in roots}, reverse=True))


def test_support_points_lie_on_or_above_hull():
    rng = random.Random(40)
    for _ in range(80):
        f = _random_upoly(rng)
        polygon = newton_polygon(f)
        lo, hi = span(polygon)
        for j, v in support_points(f):
            assert lo <= j <= hi
            assert v >= hull_value(polygon, j)


def test_syntactic_test_matches_oracle_on_random_corpus():
    rng = random.Random(3000)
    checked = 0
    for _ in range(120):
        f = _random_upoly(rng)
        if is_unique(f):
            assert uniqueness_oracle(f, trials=30, seed=7)
            checked += 1
    assert checked > 20


def _random_upoly(rng, nvars=3):
    coeffs = {}
    for j in range(rng.randint(1, 4) + 1):
        if rng.random() < 0.35:
            continue
        terms = []
        for _ in range(rng.randint(1, 3)):
            deg = [0] * nvars
            for i in range(nvars):
                if rng.random() < 0.3:
                    deg[i] = 1
            scalar = ps((Fraction(rng.randint(0, 4), rng.randint(1, 2)), rng.choice([1, 2, 3, -1, -2])))
            terms.append((scalar, tuple(deg)))
        c = uc(nvars, *terms)
        if not c.is_zero():
            coeffs[j] = c
    if not coeffs:
        coeffs[1] = uconst(nvars, const(1))
    return from_coeffs(QQ, nvars, 0, list(coeffs.items()))
