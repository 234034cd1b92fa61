"""Newton-Puiseux expansion over coefficients with symbolic tails.

``puiseux_expansion`` peels a root of prescribed valuation off a
univariate polynomial term by term: read the dominant residue equation
off the polygon, enumerate its unit roots, recenter, and recurse on the
higher tropical points.  Expansion stops in one of three ways: the
recentered polynomial's constant term vanishes (the accumulated prefix
is an exact root), a tail variable contaminates the dominant equation or
the recentered polygon (no further digit can be trusted), or the
relative-precision budget runs out.  Truncated roots keep a symbolic
tail u_i * t^(w_r) standing for their unknown continuation.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ExactRootError,
    InvalidTargetError,
    RecursionLimitError,
    ZeroPolynomialError,
)
from .polygon import is_unique, newton_polygon
from .puiseux import PuiseuxScalar
from .rationals import format_rat
from .residue import roots_in_units
from .upoly import MPoly, UPoly, _zero_deg, initial_form

DEFAULT_MAX_DEPTH = 64


@dataclass(frozen=True)
class ApproxRoot:
    """A root prefix c_1 t^(w_1) + ... + c_{r-1} t^(w_{r-1}) [+ u_i t^(w_r)].

    ``known`` holds the computed terms with strictly increasing rational
    exponents and nonzero residue coefficients.  ``tail`` is the exponent
    w_r of the symbolic continuation u_i * t^(w_r), or None when the root
    is exact (a finite Puiseux series, nothing unknown left).
    """

    index: int
    known: tuple
    tail: object  # Fraction | None

    def __post_init__(self):
        if not self.known and self.tail is None:
            raise ValueError("a root needs known terms or a tail")
        if any(c == 0 for _, c in self.known):
            raise ValueError("known coefficients must be nonzero")
        exps = [e for e, _ in self.known]
        if any(b <= a for a, b in zip(exps, exps[1:])):
            raise ValueError("known exponents must strictly increase")
        if self.tail is not None and exps and self.tail <= exps[-1]:
            raise ValueError("the tail must sit past every known term")

    @property
    def is_exact(self):
        return self.tail is None

    def valuation(self) -> Fraction:
        if self.known:
            return self.known[0][0]
        return self.tail

    def relative_precision(self):
        """w_r - w_0 for truncated roots, None (= unbounded) for exact ones."""
        if self.tail is None:
            return None
        return self.tail - self.valuation()

    def known_scalar(self, field) -> PuiseuxScalar:
        return PuiseuxScalar(field, self.known)

    def as_ucoeff(self, field, nvars) -> MPoly:
        """The root as an element of K[u], tail included."""
        value = MPoly.constant(field, nvars, self.known_scalar(field))
        if self.tail is not None:
            value = value + MPoly.variable(
                field, nvars, self.index, PuiseuxScalar.t_power(field, self.tail)
            )
        return value

    def with_prefix(self, exp, coeff):
        return ApproxRoot(self.index, ((exp, coeff),) + self.known, self.tail)

    def sort_key(self):
        exact_rank = 0 if self.tail is None else 1
        return (self.valuation(), exact_rank, self.known, self.tail or Fraction(0))

    def __repr__(self):
        return "<root x%d: %s>" % (self.index + 1, self.format_plain())

    def format_plain(self):
        bits = ["%s t^%s" % (c, e) for e, c in self.known]
        if self.tail is not None:
            bits.append("u%d t^%s" % (self.index + 1, self.tail))
        return " + ".join(bits) if bits else "0"


def puiseux_expansion(f: UPoly, w, p_rel, max_depth: int = DEFAULT_MAX_DEPTH) -> set:
    """All approximate roots of f with valuation w.

    Each returned root is either exact, or truncated with relative
    precision at least ``p_rel``, or truncated earlier because a tail
    variable blocks any further digit (maximal precision).  Requires a
    polygon that is immune to tail substitutions and a target valuation
    w that the polygon actually offers.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot expand roots of the zero polynomial")
    if not is_unique(f):
        raise ValueError("the Newton polygon is not substitution-invariant")
    w = Fraction(w)
    if w not in newton_polygon(f).tropical_points():
        raise InvalidTargetError("%s is not a tropical point of the polynomial" % format_rat(w))
    return _expand(f, w, Fraction(p_rel), 0, max_depth)


def _expand(f: UPoly, w, p_rel, depth, max_depth) -> set:
    if depth > max_depth:
        raise RecursionLimitError("expansion exceeded %d recursion levels" % max_depth)
    field = f.field
    i = f.var
    bare = {ApproxRoot(i, (), w)}
    h = initial_form(f, w)
    if p_rel <= 0 or h.contains_u():
        return bare
    out = set()
    for c in sorted(roots_in_units(h.residue_poly()), key=field.sort_key):
        shifted = f.shift_substitute(PuiseuxScalar.t_power(field, w, c), 0)
        if not is_unique(shifted):
            return bare
        if shifted.constant_coeff().is_zero():
            out.add(ApproxRoot(i, ((w, c),), None))
        higher = sorted(
            w2 for w2 in newton_polygon(shifted).tropical_points() if w2 > w
        )
        if higher:
            # every branch is charged the gap to the nearest admissible
            # point; the budget hits zero no later than the accumulated
            # exponent gain reaches p_rel
            budget = p_rel - (higher[0] - w)
            for w2 in higher:
                for sub in _expand(shifted, w2, budget, depth + 1, max_depth):
                    out.add(sub.with_prefix(w, c))
    return out


def is_approximate_root(f: UPoly, root: ApproxRoot) -> bool:
    """Whether the truncated root genuinely covers roots of f.

    Substitutes the root (tail included) into f and inspects the dominant
    residue part of the result as a polynomial in the root's own tail
    variable: if at least two distinct tail-degrees survive, some
    valuation-zero tail value cancels the dominant part, so true roots
    extend the prefix.  A single surviving tail-degree means nothing can
    cancel and the prefix is off the mark.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot test roots against the zero polynomial")
    if root.tail is None:
        raise ExactRootError("the root is exact; substitute and compare with zero instead")
    value = root.as_ucoeff(f.field, f.nvars)
    image = f.evaluate_ucoeff(value)
    if image.is_zero():
        raise ExactRootError("the root substitutes to exactly zero")
    degrees = {deg[root.index] for deg in image.initial_terms()}
    return len(degrees) >= 2


def has_maximal_precision(f: UPoly, root: ApproxRoot) -> bool:
    """Whether expanding the root any further is blocked by tail variables.

    Recenters f at the known part and rescales by the tail exponent; the
    root cannot be refined exactly when that polynomial's polygon is
    substitution-invariant yet some support point on a lower edge keeps a
    tail variable in its dominant residue part.
    """
    if root.tail is None:
        raise ValueError("exact roots have nothing left to refine")
    field = f.field
    g = f.shift_substitute(root.known_scalar(field), root.tail)
    if g.is_zero() or not is_unique(g):
        return False
    polygon = newton_polygon(g)
    zero = _zero_deg(f.nvars)
    for j, c in g.coeffs.items():
        v = c.uval()
        if polygon.on_lower_edge(j, v) and any(d != zero for d in c.initial_terms()):
            return True
    return False
