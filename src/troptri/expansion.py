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

from .errors import TropError
from .polygon import is_unique, newton_polygon
from .rationals import exact, format_rat
from .residue import roots_in_units
from .upoly import UPoly, initial_form

# The most levels ``_expand`` recurses, one per term past the first.  Each
# level recenters a polynomial that grows with the terms put in, so a root on
# a fine exponent grid (t^(1/1000)) that needs more terms costs about the
# square of the cap before it fails; 64 frames leave most of Python's stack.
MAX_DEPTH = 64


class ApproxRoot:
    """A root prefix c_1 t^(w_1) + ... + c_{r-1} t^(w_{r-1}) [+ u_i t^(w_r)].

    ``known`` holds the computed terms with strictly increasing rational
    exponents and nonzero residue coefficients.  ``tail`` is the exponent
    w_r of the symbolic continuation u_i * t^(w_r), or None when the root
    is exact (a finite Puiseux series, nothing unknown left).  A root cannot
    be changed; it equals and hashes as its (index, known, tail).  One pass
    checks ``known``: a zero coefficient is named before an order fault.
    """

    __slots__ = ("index", "known", "tail", "_hash")

    def __init__(self, index, known, tail):
        if not known and tail is None:
            raise ValueError("a root needs known terms or a tail")
        last, unordered = None, False
        for e, c in known:
            if c == 0:
                raise ValueError("known coefficients must be nonzero")
            unordered = unordered or (last is not None and e <= last)
            last = e
        if unordered:
            raise ValueError("known exponents must strictly increase")
        if tail is not None and known and tail <= last:
            raise ValueError("the tail must sit past every known term")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "known", known)
        object.__setattr__(self, "tail", tail)
        object.__setattr__(self, "_hash", hash((index, known, tail)))

    def __setattr__(self, name, value=None):
        raise AttributeError("an ApproxRoot cannot be changed (%r)" % name)

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = type(other) is ApproxRoot
        return same and (self.index, self.known, self.tail) == (other.index, other.known, other.tail)

    def __hash__(self):
        return self._hash

    @property
    def is_exact(self):
        return self.tail is None

    def valuation(self):
        if self.known:
            return self.known[0][0]
        return self.tail

    def sort_key(self):
        exact_rank = 0 if self.tail is None else 1
        return (self.valuation(), exact_rank, self.known, self.tail or 0)

    def __repr__(self):
        bits = ["%s t^%s" % (c, e) for e, c in self.known]
        if self.tail is not None:
            bits.append("u%d t^%s" % (self.index + 1, self.tail))
        return "<root x%d: %s>" % (self.index + 1, " + ".join(bits) or "0")


def puiseux_expansion(f: UPoly, w, p_rel, known=()) -> dict:
    """All approximate roots of f with valuation w, each built with the
    prefix ``known`` (terms below w that f was recentered at) in front.

    Each returned root is either exact, or truncated with relative
    precision at least ``p_rel``, or truncated earlier because a tail
    variable blocks any further digit (maximal precision).  Requires a
    polygon that is immune to tail substitutions and a target valuation
    w that the polygon actually offers.

    The result maps each root to the polynomial its expansion stopped
    at: f recentered at the root's terms past ``known`` (f itself when
    it has none), or None for an exact root, which needs none.  Refining
    the root later resumes from that polynomial.
    """
    if f.is_zero():
        raise ValueError("cannot expand roots of the zero polynomial")
    if not is_unique(f):
        raise ValueError("the Newton polygon is not substitution-invariant")
    w, p_rel = exact(w, "w"), exact(p_rel, "p_rel")
    if w not in newton_polygon(f).tropical_points():
        raise ValueError("%s is not a tropical point of the polynomial" % format_rat(w))
    return _expand(f, w, p_rel, 0, known)


def _expand(f: UPoly, w, p_rel, depth, known=()) -> dict:
    """The roots of f of valuation w, each built with the terms ``known``
    that led to f in front; at most MAX_DEPTH levels below the first."""
    if depth > MAX_DEPTH:
        raise TropError("expansion exceeded %d recursion levels" % MAX_DEPTH)
    h = initial_form(f, w) if p_rel > 0 else None
    if h is None:
        return {ApproxRoot(f.var, known, w): f}
    out = {}
    for c in sorted(roots_in_units(h)):
        shifted = f.shift_substitute(((w, c),))
        if not is_unique(shifted):
            return {ApproxRoot(f.var, known, w): f}
        prefix = known + ((w, c),)
        if 0 not in shifted.coeffs:
            out[ApproxRoot(f.var, prefix, None)] = None
        higher = [w2 for w2 in reversed(newton_polygon(shifted).tropical_points()) if w2 > w]
        if higher:
            # every branch is charged the gap to the nearest admissible
            # point; the budget hits zero no later than the accumulated
            # exponent gain reaches p_rel
            budget = p_rel - (higher[0] - w)
            for w2 in higher:
                out.update(_expand(shifted, w2, budget, depth + 1, prefix))
    return out
