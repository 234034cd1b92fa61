"""Newton polygons of univariate polynomials over valued coefficients.

The polygon of f = sum a_j x^j is the lower convex hull of the points
(j, val(a_j)) together with everything above it; the negated slopes of
its lower edges are the valuations of the roots of f.  When coefficients
carry tail variables, the polygon is trustworthy only if no admissible
substitution for the tails can move a hull vertex; ``is_unique`` decides
that syntactically and ``uniqueness_oracle`` probes it semantically with
random and adversarial substitutions.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroPolynomialError
from .puiseux import PuiseuxScalar
from .rationals import format_rat
from .residue import ResiduePoly, unit_roots_partial
from .upoly import UPoly


@dataclass(frozen=True)
class Polygon:
    """Lower hull vertices (j, v), strictly increasing in j and in slope."""

    vertices: tuple

    def __post_init__(self):
        vs = self.vertices
        if not vs:
            raise ValueError("a polygon needs at least one vertex")
        for (j1, _), (j2, _) in zip(vs, vs[1:]):
            if j2 <= j1:
                raise ValueError("vertices must be strictly increasing in j")
        slopes = self.slopes()
        for s1, s2 in zip(slopes, slopes[1:]):
            if s2 <= s1:
                raise ValueError("slopes must strictly increase (convexity)")

    def edges(self):
        return list(zip(self.vertices, self.vertices[1:]))

    def slopes(self):
        return [
            Fraction(v2 - v1, j2 - j1) for (j1, v1), (j2, v2) in self.edges()
        ]

    def tropical_points(self):
        """Negated lower-edge slopes: the candidate root valuations."""
        return {-s for s in self.slopes()}

    def span(self):
        return self.vertices[0][0], self.vertices[-1][0]

    def hull_value(self, j):
        """Height of the lower hull above j (j within the span)."""
        lo, hi = self.span()
        if not lo <= j <= hi:
            raise ValueError("j=%s outside the polygon span [%s, %s]" % (j, lo, hi))
        for (j1, v1), (j2, v2) in self.edges():
            if j1 <= j <= j2:
                return v1 + Fraction(v2 - v1, j2 - j1) * (j - j1)
        return self.vertices[0][1]

    def on_lower_edge(self, j, v) -> bool:
        """True when the point (j, v) lies on one of the lower edges."""
        for (j1, v1), (j2, v2) in self.edges():
            if j1 <= j <= j2 and v == v1 + Fraction(v2 - v1, j2 - j1) * (j - j1):
                return True
        return False

    def to_json_dict(self):
        return {
            "vertices": [
                [[j, 1], [v.numerator, v.denominator]] for j, v in self.vertices
            ]
        }

    def __repr__(self):
        return "Polygon[%s]" % ", ".join(
            "(%d, %s)" % (j, format_rat(v)) for j, v in self.vertices
        )


def lower_hull(points):
    """Lower convex hull of (j, v) points, exact monotone chain.

    Returns the hull corners only; points lying in the interior of an
    edge are dropped.
    """
    points = sorted(points)
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it sits on or above the segment
            # joining its neighbours; only true corners survive
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def support_points(f: UPoly):
    return [(j, c.uval()) for j, c in sorted(f.coeffs.items())]


def newton_polygon(f: UPoly) -> Polygon:
    """The Newton polygon of a nonzero polynomial."""
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    return Polygon(tuple(lower_hull(support_points(f))))


def is_unique(f: UPoly) -> bool:
    """Whether the polygon survives every valuation-zero tail substitution.

    Criterion: at every hull *vertex* the minimum-valuation part of the
    coefficient must consist of a single u-monomial; then no admissible
    substitution can raise (or keep ambiguous) that vertex.  Testing the
    whole coefficient for being a monomial would be too strict: in
    x + (1 + t*u1) the constant coefficient has two terms but its
    valuation is 0 under every substitution.
    """
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    polygon = newton_polygon(f)
    for j, _ in polygon.vertices:
        if len(f.coeffs[j].initial_terms()) != 1:
            return False
    return True


def uniqueness_oracle(f: UPoly, trials: int = 100, seed: int = 0) -> bool:
    """Randomized semantic check of polygon uniqueness.

    Draws ``trials`` random valuation-zero Puiseux tuples for the tail
    variables, adds adversarial tuples built by solving single-variable
    cancellations of the dominant coefficient terms, specializes, and
    compares the resulting polygons pairwise.  Returns False on any
    mismatch.  Probabilistic; intended for tests.
    """
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    variables = sorted(f.variables())
    if not variables:
        return True
    field = f.field
    rng = random.Random(seed)

    tuples = [_generic_tuple(f, variables, rng)]
    for _ in range(trials):
        tuples.append({i: _random_unit(field, rng) for i in variables})
    tuples.extend(_adversarial_tuples(f, variables, rng))

    shapes = []
    for values in tuples:
        g = f.specialize_u(values)
        shapes.append(None if g.is_zero() else newton_polygon(g).vertices)
    return all(s == shapes[0] for s in shapes)


def _random_unit(field, rng) -> PuiseuxScalar:
    """A random valuation-zero finite Puiseux value."""
    c0 = field.from_int(rng.choice([1, 2, 3, 5, -1, -2, -3]))
    value = PuiseuxScalar.constant(field, c0)
    if rng.random() < 0.5:
        exp = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        c1 = field.from_int(rng.randint(-3, 3))
        value = value + PuiseuxScalar.t_power(field, exp, c1)
    return value


def _generic_tuple(f, variables, rng):
    """A tuple keeping every coefficient at its nominal valuation."""
    field = f.field
    initials = [c.initial_terms() for c in f.coeffs.values()]
    for _ in range(64):
        values = {i: field.from_int(rng.randint(1, 97)) for i in variables}
        if all(not field.is_zero(_eval_residue(field, g, values)) for g in initials):
            return {i: PuiseuxScalar.constant(field, v) for i, v in values.items()}
    return {i: PuiseuxScalar.constant(field, field.one) for i in variables}


def _eval_residue(field, terms, values):
    total = field.zero
    for deg, coeff in terms.items():
        prod = coeff
        for i, e in enumerate(deg):
            for _ in range(e):
                prod = field.mul(prod, values.get(i, field.one))
        total = field.add(total, prod)
    return total


def _adversarial_tuples(f, variables, rng):
    """Substitutions designed to cancel dominant coefficient terms.

    For each coefficient's initial and each variable occurring in it, fix
    the other variables at random units and solve the resulting
    univariate residue polynomial for nonzero roots.
    """
    field = f.field
    out = []
    for c in f.coeffs.values():
        initial = c.initial_terms()
        if len(initial) < 2:
            continue
        active = sorted({i for deg in initial for i, e in enumerate(deg) if e})
        for i in active:
            for _ in range(3):
                others = {k: field.from_int(rng.randint(1, 12)) for k in variables if k != i}
                coeffs = {}
                for deg, coeff in initial.items():
                    prod = coeff
                    for k, e in enumerate(deg):
                        if k == i:
                            continue
                        for _ in range(e):
                            prod = field.mul(prod, others.get(k, field.one))
                    d = deg[i]
                    coeffs[d] = field.add(coeffs.get(d, field.zero), prod)
                top = max(coeffs)
                dense = [coeffs.get(d, field.zero) for d in range(top + 1)]
                for root in unit_roots_partial(ResiduePoly(field, dense)):
                    values = {k: PuiseuxScalar.constant(field, v) for k, v in others.items()}
                    values[i] = PuiseuxScalar.constant(field, root)
                    out.append(values)
    return out
