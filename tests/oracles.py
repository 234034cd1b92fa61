"""Independent oracles for the engine's predicates and structures.

``to_stored`` and ``to_scalars`` convert between an MPoly's stored form and
its view as a {degree: PuiseuxScalar} dict, the one place the tests do so.
``Poly`` is an MPoly with the ring operations, and ``scalar_constant``,
``t_power``, ``scalar_neg`` and ``scalar_sub`` complete the scalars' own:
the package needs none of them, since the parser multiplies out on
integers and a root goes in as its own terms, so they are the reference
the parser is checked against and what ``helpers`` makes its fixtures with.
``evaluate`` is Horner's rule, the reference for ``MPoly.substitute``, and
``as_mpoly`` is a root as the K[u] value it puts in; ``compose_roots`` is
``compose`` after putting roots in by ``MPoly.substitute``;
``is_prime_trial_division`` is the reference for the Miller-Rabin test;
``newton_polygon_rational`` is the Newton hull taken over the rational
heights; ``uniqueness_oracle`` probes ``is_unique`` by specializing the tails;
``is_approximate_root`` and ``has_maximal_precision`` are the paper's
two predicates on truncated roots; ``shift_and_rescale`` is the
recentering the second one reads, followed by a rescaling;
``expression_mpoly`` is the value of a parsed expression tree with every
atom built as a one-term MPoly, the reference for the parser;
``select_leaf_scan`` is the root tree's next leaf found by scanning every
vertex, the reference for ``RootTree._select_leaf``'s heap;
``points_walk`` is the tree's point set found by carrying each vertex's
vector down and deduping the leaves on their vectors, the reference for
``RootTree.point_rows``.
"""

import operator
import random
from fractions import Fraction
from math import comb, lcm

from troptri import (
    MPoly,
    NonSplittingError,
    Polygon,
    PuiseuxScalar,
    ResiduePoly,
    UPoly,
    ZeroPolynomialError,
    compose,
    is_unique,
    newton_polygon,
    roots_in_units,
)
from troptri.polygon import lower_hull
from troptri.rationals import ratio
from troptri.sysparse import MAX_POWER_SIZE


def scalar_constant(field, c):
    """The scalar c (0 when c is 0)."""
    return PuiseuxScalar(field, ((0, c),) if c != 0 else ())


def t_power(field, exp, coeff=None):
    """The scalar coeff*t^exp, coeff 1 by default (0 when coeff is 0)."""
    if coeff is None:
        coeff = field.one
    return PuiseuxScalar(field, ((exp, coeff),) if coeff != 0 else ())


def scalar_neg(s):
    neg = s.field.neg
    return PuiseuxScalar(s.field, tuple((e, neg(c)) for e, c in s.terms))


def scalar_sub(a, b):
    return a + scalar_neg(b)


def to_stored(scalars):
    """The (den, terms) an MPoly stores for a {degree: PuiseuxScalar} dict with
    no zero scalar: the scalars' numerators over their least common
    denominator, the terms in the dict's order."""
    den = lcm(*[s.den for s in scalars.values()])
    return den, {deg: {n * (den // s.den): c for n, c in s.nums} for deg, s in scalars.items()}


def to_scalars(f):
    """The {degree: PuiseuxScalar} dict of an MPoly, in its stored order."""
    return {deg: PuiseuxScalar.from_numerators(f.field, f.den, terms) for deg, terms in f.terms.items()}


class Poly(MPoly):
    """An MPoly with the ring operations, which give a Poly also where one
    side is a plain MPoly.  They work on the scalar view (``to_scalars``).
    A sum keeps the left side's terms in their order and puts the right
    side's new ones after them, dropping a term that cancels; a product goes
    through the pairs of terms in order and drops the zero sums at the end."""

    __slots__ = ()

    @classmethod
    def of(cls, f):
        return f if isinstance(f, Poly) else cls(f.field, f.nvars, f.den, f.terms)

    @classmethod
    def of_scalars(cls, field, nvars, scalars):
        """The Poly of a {degree: PuiseuxScalar} dict with no zero scalar."""
        return cls(field, nvars, *to_stored(scalars))

    @classmethod
    def constant(cls, field, nvars, scalar):
        return cls.of_scalars(field, nvars, {} if scalar.is_zero() else {(0,) * nvars: scalar})

    @classmethod
    def variable(cls, field, nvars, index, scalar=None):
        """scalar * (variable ``index``); the scalar defaults to 1."""
        if scalar is None:
            scalar = scalar_constant(field, field.one)
        deg = tuple(int(i == index) for i in range(nvars))
        return cls.of_scalars(field, nvars, {} if scalar.is_zero() else {deg: scalar})

    def __add__(self, other):
        out = to_scalars(self)
        for deg, scalar in to_scalars(other).items():
            if deg in out:
                s = out[deg] + scalar
                if s.is_zero():
                    del out[deg]
                else:
                    out[deg] = s
            else:
                out[deg] = scalar
        return Poly.of_scalars(self.field, self.nvars, out)

    def __radd__(self, other):
        return Poly.of(other) + self

    def __neg__(self):
        return Poly.of_scalars(self.field, self.nvars, {d: scalar_neg(s) for d, s in to_scalars(self).items()})

    def __sub__(self, other):
        return self + -Poly.of(other)

    def __rsub__(self, other):
        return Poly.of(other) - self

    def __mul__(self, other):
        out = {}
        right = to_scalars(other)
        for d1, s1 in to_scalars(self).items():
            for d2, s2 in right.items():
                deg = tuple(map(operator.add, d1, d2))
                prod = s1 * s2
                out[deg] = out[deg] + prod if deg in out else prod
        return Poly.of_scalars(self.field, self.nvars, {d: s for d, s in out.items() if not s.is_zero()})

    def __rmul__(self, other):
        return Poly.of(other) * self

    def __pow__(self, n):
        """By squaring and multiplying, from the constant 1 up."""
        result = Poly.constant(self.field, self.nvars, scalar_constant(self.field, self.field.one))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def mul_scalar(self, scalar):
        if scalar.is_zero():
            return Poly(self.field, self.nvars)
        return Poly.of_scalars(self.field, self.nvars, {d: s * scalar for d, s in to_scalars(self).items()})


def from_coeffs(field, nvars, var, pairs):
    """UPoly from (degree, MPoly) pairs; repeated degrees add up, zeros drop."""
    acc = {}
    for j, c in pairs:
        acc[j] = acc[j] + c if j in acc else Poly.of(c)
    return UPoly(field, nvars, var, {j: c for j, c in acc.items() if not c.is_zero()})


def uval(c):
    """The minimum valuation over an MPoly's Puiseux coefficients."""
    return ratio(*c.val_pair())


def tail_variables(f):
    """The indices of the tail variables u that a UPoly's coefficients use."""
    return set().union(*[c.variables() for c in f.coeffs.values()])


class ExactRootError(Exception):
    """The root is exact, so the approximate-root predicate measures nothing."""


def specialize(poly, values):
    """Put valuation-zero Puiseux values in for u-variables of an MPoly or UPoly.

    ``values`` maps variable index -> PuiseuxScalar; any other valuation
    would change which monomials dominate and is rejected.
    """
    for i, v in values.items():
        if v.is_zero() or v.valuation() != 0:
            raise ValueError("substituted value for u%d must have valuation 0" % (i + 1))
    if isinstance(poly, UPoly):
        return from_coeffs(poly.field, poly.nvars, poly.var, [
            (j, specialize(c, values)) for j, c in poly.coeffs.items()
        ])
    for i, v in values.items():
        poly = poly.substitute(i, v.terms, None)
    return poly


def as_mpoly(root, field, nvars) -> MPoly:
    """The root as an element of K[u]: its known terms plus u_index*t^tail."""
    value = Poly.constant(field, nvars, PuiseuxScalar(field, root.known))
    if root.tail is not None:
        value = value + Poly.variable(field, nvars, root.index, t_power(field, root.tail))
    return value


def compose_roots(f: MPoly, roots, target):
    """``compose(f, target)`` after putting each root in for its coordinate."""
    for r in roots:
        f = f.substitute(r.index, r.known, r.tail)
    return compose(f, target)


def evaluate(f: UPoly, value: MPoly) -> MPoly:
    """f with the K[u] element ``value`` put in for its variable (Horner's rule)."""
    acc = Poly(f.field, f.nvars)
    for j in range(max(f.coeffs, default=-1), -1, -1):
        acc = acc * value
        c = f.coeffs.get(j)
        if c is not None:
            acc = acc + c
    return acc


def expression_mpoly(tree, field, nvars):
    """The MPoly of an expression tree, built with polynomial arithmetic only.

    ``tree`` is ("num", n, d) for n/d, ("t", e) for t^e, ("x", i) for x_i
    (1-based), ("neg", a), ("add" | "sub" | "mul", a, b) or ("pow", a, k).
    Every number and power of t is a one-term MPoly.  Returns None when a
    power passes the parser's size limit on its base.
    """
    kind = tree[0]
    if kind == "num":
        c = field.div(field.from_int(tree[1]), field.from_int(tree[2]))
        return Poly.constant(field, nvars, scalar_constant(field, c))
    if kind == "t":
        return Poly.constant(field, nvars, t_power(field, tree[1]))
    if kind == "x":
        return Poly.variable(field, nvars, tree[1] - 1)
    a = expression_mpoly(tree[1], field, nvars)
    if a is None:
        return None
    if kind == "neg":
        return -a
    if kind == "pow":
        e = tree[2]
        k = sum(map(len, a.terms.values()))
        if e > MAX_POWER_SIZE or (k >= 2 and comb(e + k - 1, k - 1) > MAX_POWER_SIZE):
            return None
        return a**e
    b = expression_mpoly(tree[2], field, nvars)
    if b is None:
        return None
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    return a * b


def is_prime_trial_division(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def shift_and_rescale(f, prefix, scale):
    """f evaluated at prefix + t^scale * x: recentered at ``prefix``, then
    rescaled so that x^j gains the factor t^(scale*j)."""
    g = f.shift_substitute(prefix.terms)
    return UPoly(g.field, g.nvars, g.var, {
        j: Poly.of(c).mul_scalar(t_power(g.field, Fraction(scale) * j))
        for j, c in g.coeffs.items()
    })


def support_points(f: UPoly):
    """The points (j, val(a_j)) of f = sum a_j x^j, with rational heights
    taken as the least valuation of each coefficient's scalars."""
    return [(j, min(s.valuation() for s in to_scalars(c).values())) for j, c in sorted(f.coeffs.items())]


def newton_polygon_rational(f: UPoly) -> Polygon:
    """The Newton polygon, its lower hull taken over rational heights."""
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    hull = lower_hull(support_points(f))
    scale = lcm(*[Fraction(v).denominator for _, v in hull])
    return Polygon([(j, int(v * scale)) for j, v in hull], scale)


def span(polygon):
    return polygon.vertices[0][0], polygon.vertices[-1][0]


def hull_value(polygon, j):
    """Height of the lower hull above j (j within the span)."""
    lo, hi = span(polygon)
    if not lo <= j <= hi:
        raise ValueError("j=%s outside the polygon span [%s, %s]" % (j, lo, hi))
    for (j1, v1), (j2, v2) in polygon.edges():
        if j1 <= j <= j2:
            return v1 + Fraction(v2 - v1, j2 - j1) * (j - j1)
    return polygon.vertices[0][1]


def on_lower_edge(polygon, j, v) -> bool:
    """True when the point (j, v) lies on one of the lower edges."""
    for (j1, v1), (j2, v2) in polygon.edges():
        if j1 <= j <= j2 and v == v1 + Fraction(v2 - v1, j2 - j1) * (j - j1):
            return True
    return False


def uniqueness_oracle(f: UPoly, trials: int = 100, seed: int = 0) -> bool:
    """Randomized semantic check of polygon uniqueness.

    Draws ``trials`` random valuation-zero Puiseux tuples for the tail
    variables, adds adversarial tuples built by solving single-variable
    cancellations of the dominant coefficient terms, specializes, and
    compares the resulting polygons pairwise.  Returns False on any
    mismatch.  Probabilistic.
    """
    if f.is_zero():
        raise ZeroPolynomialError("the zero polynomial has no Newton polygon")
    variables = sorted(tail_variables(f))
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
        g = specialize(f, values)
        shapes.append(None if g.is_zero() else newton_polygon(g).vertices)
    return all(s == shapes[0] for s in shapes)


def _random_unit(field, rng) -> PuiseuxScalar:
    """A random valuation-zero finite Puiseux value."""
    c0 = field.from_int(rng.choice([1, 2, 3, 5, -1, -2, -3]))
    value = scalar_constant(field, c0)
    if rng.random() < 0.5:
        exp = Fraction(rng.randint(1, 4), rng.randint(1, 2))
        c1 = field.from_int(rng.randint(-3, 3))
        value = value + t_power(field, exp, c1)
    return value


def _generic_tuple(f, variables, rng):
    """A tuple keeping every coefficient at its nominal valuation."""
    field = f.field
    initials = [c.initial_terms() for c in f.coeffs.values()]
    for _ in range(64):
        values = {i: field.from_int(rng.randint(1, 97)) for i in variables}
        if all(eval_residue(field, g, values)[0] != 0 for g in initials):
            return {i: scalar_constant(field, v) for i, v in values.items()}
    return {i: scalar_constant(field, field.one) for i in variables}


def eval_residue(field, terms, values, keep=None):
    """Put residue values in for every u-variable except ``keep``.

    ``terms`` maps u-degree -> residue element.  Returns the result by
    its degree in u_keep (all under degree 0 when ``keep`` is None).
    """
    out = {}
    for deg, coeff in terms.items():
        prod = coeff
        for k, e in enumerate(deg):
            if k == keep:
                continue
            for _ in range(e):
                prod = field.mul(prod, values.get(k, field.one))
        d = 0 if keep is None else deg[keep]
        out[d] = field.add(out.get(d, field.zero), prod)
    return out


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
                coeffs = eval_residue(field, initial, others, keep=i)
                dense = [coeffs.get(d, field.zero) for d in range(max(coeffs) + 1)]
                for root in _roots_if_split(ResiduePoly(field, dense)):
                    values = {k: scalar_constant(field, v) for k, v in others.items()}
                    values[i] = scalar_constant(field, root)
                    out.append(values)
    return out


def _roots_if_split(poly):
    """The nonzero roots of ``poly``; none when it is zero or does not split."""
    try:
        return roots_in_units(poly)
    except (NonSplittingError, ZeroPolynomialError):
        return set()


def relative_precision(root):
    """w_r - w_0 for truncated roots, None (= unbounded) for exact ones."""
    if root.tail is None:
        return None
    return root.tail - root.valuation()


def is_approximate_root(f: UPoly, root) -> bool:
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
    image = evaluate(f, as_mpoly(root, f.field, f.nvars))
    if image.is_zero():
        raise ExactRootError("the root substitutes to exactly zero")
    degrees = {deg[root.index] for deg in image.initial_terms()}
    return len(degrees) >= 2


def has_maximal_precision(f: UPoly, root) -> bool:
    """Whether expanding the root any further is blocked by tail variables.

    Recenters f at the known part and rescales by the tail exponent; the
    root cannot be refined exactly when that polynomial's polygon is
    substitution-invariant yet some support point on a lower edge keeps a
    tail variable in its dominant residue part.
    """
    if root.tail is None:
        raise ValueError("exact roots have nothing left to refine")
    g = shift_and_rescale(f, PuiseuxScalar(f.field, root.known), root.tail)
    if g.is_zero() or not is_unique(g):
        return False
    polygon = newton_polygon(g)
    zero = (0,) * f.nvars
    for j, c in g.coeffs.items():
        if on_lower_edge(polygon, j, uval(c)) and any(d != zero for d in c.initial_terms()):
            return True
    return False


def select_leaf_scan(tree):
    """The deepest open leaf of the tree; among those, the oldest (smallest
    id); None when no leaf is open."""
    best = None
    for v in tree.vertices.values():
        if v.children or v.dead or v.depth >= tree.n:
            continue
        if best is None or (v.depth, -v.vid) > (best.depth, -best.vid):
            best = v
    return best


def points_walk(tree):
    """Branch valuation vectors, depth-first, first occurrence kept."""
    out = {}  # a dict keeps each key where it was first put in
    stack = [(tree.root_id, ())]
    while stack:
        vid, vals = stack.pop()
        v = tree.vertices[vid]
        if v.root is not None:
            vals = vals + (v.root.valuation(),)
        if v.children:
            stack.extend((c, vals) for c in reversed(v.children))
        elif v.depth == tree.n:
            out[vals] = None
    return list(out)


def check_invariants(tree):
    """Structural sanity: connectivity, depth bound, branch typing, precisions.

    No vertex is ever removed, so the ids are 0..N-1 in insertion order, and
    a vertex is made after its parent."""
    assert list(tree.vertices) == list(range(len(tree.vertices)))
    assert tree.root_id in tree.vertices
    for vid, v in tree.vertices.items():
        assert v.vid == vid
        assert v.depth <= tree.n
        # only grow marks a vertex dead, and a vertex of depth n never grows
        assert not (v.dead and v.depth == tree.n)
        if v.parent is not None:
            assert tree.vertices[v.parent].children.count(vid) == 1
            assert vid > v.parent
        for c in v.children:
            child = tree.vertices[c]
            assert child.parent == v.vid
            assert child.depth == v.depth + 1
        if v.root is not None:
            assert v.root.index == v.depth - 1
            assert v.prec <= tree.branch(v.vid)[0].prec
