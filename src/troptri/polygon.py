"""Newton polygons of univariate polynomials over valued coefficients.

The polygon of f = sum a_j x^j is the lower convex hull of the points
(j, val(a_j)) together with everything above it; the negated slopes of
its lower edges are the valuations of the roots of f.  When coefficients
carry tail variables, the polygon is trustworthy only if no admissible
substitution for the tails can move a hull vertex; ``is_unique`` decides
that syntactically, from the coefficients at the hull vertices alone.
Callers that already hold the polygon pass it in, so each polygon is
built once.  The randomized semantic cross-check of ``is_unique`` is a
test oracle (``tests/oracles.py``), not part of the package.
"""

from dataclasses import dataclass, field
from math import lcm

from .errors import ZeroPolynomialError
from .rationals import format_rat, ratio
from .upoly import UPoly


@dataclass(frozen=True)
class Polygon:
    """Lower hull vertices (j, v), strictly increasing in j and in slope."""

    vertices: tuple
    _slopes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the checks and the slopes run on the heights scaled to integers
        vs = self.vertices
        if not vs:
            raise ValueError("a polygon needs at least one vertex")
        scale = lcm(*[v.denominator for _, v in vs])
        points = [(j, v.numerator * (scale // v.denominator)) for j, v in vs]
        steps = [(j2 - j1, h2 - h1) for (j1, h1), (j2, h2) in zip(points, points[1:])]
        if any(dj <= 0 for dj, _ in steps):
            raise ValueError("vertices must be strictly increasing in j")
        for (dj1, dh1), (dj2, dh2) in zip(steps, steps[1:]):
            if dh2 * dj1 <= dh1 * dj2:
                raise ValueError("slopes must strictly increase (convexity)")
        object.__setattr__(self, "_slopes", tuple(ratio(dh, dj * scale) for dj, dh in steps))

    def edges(self):
        return list(zip(self.vertices, self.vertices[1:]))

    def slopes(self):
        return list(self._slopes)

    def tropical_points(self):
        """Negated lower-edge slopes: the candidate root valuations."""
        return {-s for s in self._slopes}

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


def newton_polygon(f: UPoly) -> Polygon:
    """The Newton polygon of a nonzero polynomial.

    The hull runs on integers: every height is scaled by the least common
    denominator of the coefficients' valuations, and only the corners are
    turned back into rationals.
    """
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    support = [(j, c.val_pair()) for j, c in sorted(f.coeffs.items())]
    scale = lcm(*[d for _, (_, d) in support])
    corners = lower_hull([(j, n * (scale // d)) for j, (n, d) in support])
    return Polygon(tuple((j, ratio(h, scale)) for j, h in corners))


def is_unique(f: UPoly, polygon=None) -> bool:
    """Whether the polygon survives every valuation-zero tail substitution.

    Criterion: at every hull *vertex* the minimum-valuation part of the
    coefficient must consist of a single u-monomial; then no admissible
    substitution can raise (or keep ambiguous) that vertex.  Testing the
    whole coefficient for being a monomial would be too strict: in
    x + (1 + t*u1) the constant coefficient has two terms but its
    valuation is 0 under every substitution.  ``polygon`` is f's Newton
    polygon when the caller has already built it.
    """
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    if polygon is None:
        polygon = newton_polygon(f)
    for j, _ in polygon.vertices:
        if len(f.coeffs[j].initial_terms()) != 1:
            return False
    return True
