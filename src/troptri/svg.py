"""Deterministic SVG rendering of Newton polygons.

The picture shows the hull region (everything on or above the lower
hull), emphasizes the lower edges, dots the vertices, and labels each
lower edge with its slope and each vertex with the dominant residue part
of its coefficient.  All pixel coordinates are computed with exact
rationals and rounded once, so identical inputs give identical bytes.
"""

import os
from fractions import Fraction

from .polygon import Polygon
from .rationals import format_rat
from .upoly import format_residue_terms

WIDTH = 420
HEIGHT = 320
MARGIN = 48


def _px(value: Fraction) -> str:
    cents = round(Fraction(value) * 100)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return "%s%d.%02d" % (sign, cents // 100, cents % 100)


def polygon_svg(polygon: Polygon, vertex_labels=None, title=None) -> str:
    """Render one polygon; ``vertex_labels`` aligns with its vertices."""
    vs = polygon.vertices
    jmin, jmax = vs[0][0], vs[-1][0]
    vmin = min(v for _, v in vs)
    vmax = max(v for _, v in vs)
    vpad = max(Fraction(1), Fraction(vmax - vmin) / 2)
    top = vmax + vpad
    jspan = max(Fraction(jmax - jmin), Fraction(1))
    vspan = max(top - vmin, Fraction(1))
    unit_x = Fraction(WIDTH - 2 * MARGIN) / jspan
    unit_y = Fraction(HEIGHT - 2 * MARGIN) / vspan

    def X(j):
        return MARGIN + (Fraction(j) - jmin) * unit_x

    def Y(v):
        return HEIGHT - MARGIN - (Fraction(v) - vmin) * unit_y

    out = []
    out.append(
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%d" height="%d" viewBox="0 0 %d %d">' % (WIDTH, HEIGHT, WIDTH, HEIGHT)
    )
    if title:
        out.append("  <title>%s</title>" % _escape(title))

    # shaded region: lower hull plus everything above it, clipped at `top`
    region = ["%s,%s" % (_px(X(jmin)), _px(Y(top)))]
    for j, v in vs:
        region.append("%s,%s" % (_px(X(j)), _px(Y(v))))
    region.append("%s,%s" % (_px(X(jmax)), _px(Y(top))))
    out.append('  <polygon points="%s" fill="#cfe0f5" stroke="none"/>' % " ".join(region))

    # lower edges with slope labels
    for ((j1, v1), (j2, v2)), slope in zip(polygon.edges(), polygon.slopes()):
        out.append(
            '  <line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#000" stroke-width="2"/>'
            % (_px(X(j1)), _px(Y(v1)), _px(X(j2)), _px(Y(v2)))
        )
        mx = (X(j1) + X(j2)) / 2
        my = (Y(v1) + Y(v2)) / 2 - 8
        out.append(
            '  <text x="%s" y="%s" font-size="13" text-anchor="middle">%s</text>'
            % (_px(mx), _px(my), _escape(format_rat(slope)))
        )

    # vertices and their labels
    labels = vertex_labels or [None] * len(vs)
    for (j, v), label in zip(vs, labels):
        out.append(
            '  <circle cx="%s" cy="%s" r="3.5" fill="#000"/>' % (_px(X(j)), _px(Y(v)))
        )
        if label is not None:
            out.append(
                '  <text x="%s" y="%s" font-size="12" text-anchor="middle">%s</text>'
                % (_px(X(j)), _px(Y(v) + 16), _escape(label))
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_polygon_log(directory, polygon_log):
    """Write polygon_000.svg, polygon_001.svg, ... into the directory, one
    per (kind, f index, vertex id, polynomial) of a root tree's log, each
    vertex labelled with its coefficient's dominant residue part; IO errors
    propagate as OSError."""
    os.makedirs(directory, exist_ok=True)
    for index, (kind, findex, vid, poly) in enumerate(polygon_log):
        polygon = poly.polygon
        labels = [
            format_residue_terms(poly.coeffs[j].initial_terms()) for j, _ in polygon.vertices
        ]
        data = polygon_svg(polygon, labels, "%s f%d at vertex %d" % (kind, findex, vid))
        path = os.path.join(directory, "polygon_%03d.svg" % index)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(data)


def _escape(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )
