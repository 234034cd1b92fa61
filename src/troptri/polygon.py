"""Newton polygons of univariate polynomials over valued coefficients.

The polygon of f = sum a_j x^j is the lower convex hull of the points
(j, val(a_j)) together with everything above it; the negated slopes of
its lower edges are the valuations of the roots of f.  When coefficients
carry tail variables, the polygon is trustworthy only if no admissible
substitution for the tails can move a hull vertex; ``is_unique`` decides
that syntactically, from the coefficients at the hull vertices alone.
``newton_polygon`` keeps each polygon in its polynomial's ``polygon``
slot, so each polygon is built once and lives as long as its polynomial.
A polygon keeps the hull's integer corners; only SVG and tests read vertices.
The randomized semantic cross-check of ``is_unique`` is a test oracle
(``tests/oracles.py``), not part of the package.
"""

from math import lcm

from .errors import ZeroPolynomialError
from .rationals import format_rat, ratio
from .upoly import UPoly


class Polygon:
    """Lower hull corners (j, h / scale), strictly increasing in j and in slope,
    kept as the ints (j, h) and ``scale``; equal when the vertices are.  One
    walk checks the corners, naming a step in j <= 0 before a convexity fault."""

    __slots__ = ("corners", "scale", "_points")

    def __init__(self, corners, scale=1):
        if not corners:
            raise ValueError("a polygon needs at least one vertex")
        points, convex = [], True
        (j1, h1), dj1, dh1 = corners[0], 0, 0
        for j2, h2 in corners[1:]:
            dj, dh = j2 - j1, h2 - h1
            if dj <= 0:
                raise ValueError("vertices must be strictly increasing in j")
            convex = convex and (not points or dh * dj1 > dh1 * dj)
            points.append(ratio(-dh, dj * scale))
            j1, h1, dj1, dh1 = j2, h2, dj, dh
        if not convex:
            raise ValueError("slopes must strictly increase (convexity)")
        self.corners = tuple(corners)
        self.scale = scale
        self._points = tuple(points)

    @property
    def vertices(self):
        return tuple((j, ratio(h, self.scale)) for j, h in self.corners)

    def edges(self):
        return list(zip(self.vertices, self.vertices[1:]))

    def slopes(self):
        return [-w for w in self._points]

    def tropical_points(self):
        """Negated lower-edge slopes, the candidate root valuations, as a
        strictly decreasing tuple."""
        return self._points

    def __eq__(self, other):
        return isinstance(other, Polygon) and other.vertices == self.vertices

    def __hash__(self):
        return hash(self.vertices)

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
    """The Newton polygon of a nonzero polynomial, built on the first call
    and kept in ``f.polygon``.

    The hull runs on integers: every height is scaled by the least common
    denominator of the coefficients' valuations, and the polygon keeps the
    integer corners with that scale.
    """
    if f.polygon is not None:
        return f.polygon
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    support = [(j, c.val_pair()) for j, c in sorted(f.coeffs.items())]
    scale = lcm(*[d for _, (_, d) in support])
    corners = lower_hull([(j, n * (scale // d)) for j, (n, d) in support])
    f.polygon = Polygon(corners, scale)
    return f.polygon


def is_unique(f: UPoly) -> bool:
    """Whether f's Newton polygon survives every valuation-zero tail substitution.

    Criterion: at every hull *vertex* the minimum-valuation part of the
    coefficient must consist of a single u-monomial; then no admissible
    substitution can raise (or keep ambiguous) that vertex.  Testing the
    whole coefficient for being a monomial would be too strict: in
    x + (1 + t*u1) the constant coefficient has two terms but its
    valuation is 0 under every substitution.  The polygon is the one
    ``newton_polygon`` keeps on f, so the zero polynomial raises as there.
    """
    for j, _ in newton_polygon(f).corners:
        if f.coeffs[j].initial_term() is None:
            return False
    return True
