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

from dataclasses import dataclass, field

from .errors import InvalidTargetError, RecursionLimitError, ZeroPolynomialError
from .polygon import is_unique, newton_polygon
from .puiseux import PuiseuxScalar
from .rationals import format_rat, int_if_integral
from .residue import roots_in_units
from .upoly import UPoly, initial_form

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
    tail: object  # int | Fraction | None
    _hash: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_hash", hash((self.index, self.known, self.tail)))

    def __hash__(self):
        return self._hash

    @property
    def is_exact(self):
        return self.tail is None

    def valuation(self):
        if self.known:
            return self.known[0][0]
        return self.tail

    def known_scalar(self, field) -> PuiseuxScalar:
        return PuiseuxScalar(field, self.known)

    def scalars(self, field):
        """(a, s) with the root a + s*u_index: the known part and the tail's
        t-power, each None when it is 0."""
        a = self.known_scalar(field) if self.known else None
        s = None if self.tail is None else PuiseuxScalar.t_power(field, self.tail)
        return a, s

    def with_prefix(self, exp, coeff):
        return ApproxRoot(self.index, ((exp, coeff),) + self.known, self.tail)

    def sort_key(self):
        exact_rank = 0 if self.tail is None else 1
        return (self.valuation(), exact_rank, self.known, self.tail or 0)

    def __repr__(self):
        bits = ["%s t^%s" % (c, e) for e, c in self.known]
        if self.tail is not None:
            bits.append("u%d t^%s" % (self.index + 1, self.tail))
        return "<root x%d: %s>" % (self.index + 1, " + ".join(bits) or "0")


def puiseux_expansion(f: UPoly, w, p_rel, max_depth: int = DEFAULT_MAX_DEPTH) -> dict:
    """All approximate roots of f with valuation w.

    Each returned root is either exact, or truncated with relative
    precision at least ``p_rel``, or truncated earlier because a tail
    variable blocks any further digit (maximal precision).  Requires a
    polygon that is immune to tail substitutions and a target valuation
    w that the polygon actually offers.

    The result maps each root to the polynomial its expansion stopped
    at: f recentered at the root's known terms (f itself when it has
    none), or None for an exact root, which needs none.  Refining the
    root later resumes from that polynomial.
    """
    if f.is_zero():
        raise ZeroPolynomialError("cannot expand roots of the zero polynomial")
    polygon = newton_polygon(f)
    if not is_unique(f, polygon):
        raise ValueError("the Newton polygon is not substitution-invariant")
    w = int_if_integral(w)
    if w not in polygon.tropical_points():
        raise InvalidTargetError("%s is not a tropical point of the polynomial" % format_rat(w))
    return _expand(f, w, p_rel, 0, max_depth)


def _expand(f: UPoly, w, p_rel, depth, max_depth) -> dict:
    if depth > max_depth:
        raise RecursionLimitError("expansion exceeded %d recursion levels" % max_depth)
    field = f.field
    i = f.var
    bare = {ApproxRoot(i, (), w): f}
    if p_rel <= 0:
        return bare
    h = initial_form(f, w)
    if h is None:
        return bare
    out = {}
    for c in sorted(roots_in_units(h)):
        shifted = f.shift_substitute(PuiseuxScalar.t_power(field, w, c))
        polygon = newton_polygon(shifted)
        if not is_unique(shifted, polygon):
            return bare
        if 0 not in shifted.coeffs:
            out[ApproxRoot(i, ((w, c),), None)] = None
        higher = [w2 for w2 in reversed(polygon.tropical_points()) if w2 > w]
        if higher:
            # every branch is charged the gap to the nearest admissible
            # point; the budget hits zero no later than the accumulated
            # exponent gain reaches p_rel
            budget = p_rel - (higher[0] - w)
            for w2 in higher:
                for sub, g in _expand(shifted, w2, budget, depth + 1, max_depth).items():
                    out[sub.with_prefix(w, c)] = g
    return out
