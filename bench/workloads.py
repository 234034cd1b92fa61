"""Seeded generators of triangular systems with independently known answers.

Every system is a product of factors x_i - rho - sum(mult * x_m) with m < i,
written in factored form exactly as a user would type it.  Its solutions are
therefore known from the construction: pick one factor per polynomial and
back-substitute.  The expected tropical points are the coordinatewise
valuations of those solutions, computed here with a few lines of exact series
arithmetic that share no code with the engine (no polygons, no residue root
finding, no troptri import).

A generator never looks at the engine's output.  It only resamples a system
whose own construction puts a solution off the torus (a zero coordinate).

The structure of each system depends on its index in the corpus only; the
seed picks its coefficients and moduli (see ``corpus``).
"""

import random
from fractions import Fraction

WORKLOADS = ("oracle-deep", "close-roots", "residue-wide")


class Field:
    """The residue field of a generated system: Q (p is None) or F_p."""

    def __init__(self, p=None):
        self.p = p

    def norm(self, c):
        return Fraction(c) if self.p is None else int(c) % self.p

    def header(self):
        return "" if self.p is None else " fp:%d" % self.p


# -- exact finite Puiseux series: dict exponent -> nonzero coefficient --------


def s_add(field, a, b):
    out = dict(a)
    for e, c in b.items():
        s = field.norm(out.get(e, 0) + c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def s_mul(field, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out = s_add(field, out, {e1 + e2: field.norm(c1 * c2)})
    return out


def s_neg(field, a):
    return {e: field.norm(-c) for e, c in a.items()}


# -- text -------------------------------------------------------------------------


def _exp_text(e):
    if e == 0:
        return ""
    if e.denominator == 1:
        return "t^(%d)" % e.numerator
    return "t^(%d/%d)" % (e.numerator, e.denominator)


def series_text(a):
    """A series as the input grammar spells it, e.g. '3 - 2*t^(1/2)'."""
    out = ""
    for e in sorted(a):
        c = a[e]
        sign = "-" if c < 0 else "+"
        c = abs(c)
        tpart = _exp_text(e)
        if c == 1 and tpart:
            body = tpart
        else:
            body = str(c) + ("*" + tpart if tpart else "")
        if not out:
            out = body if sign == "+" else "-" + body
        else:
            out += " %s %s" % (sign, body)
    return out


def factor_text(i, rho, extras):
    """The factor x_i - rho - sum(mult * x_m) in the input grammar."""
    parts = ["x%d" % (i + 1)]
    if rho:
        parts.append("(%s)" % series_text(rho))
    for m, mult in extras:
        if mult == {Fraction(0): 1}:
            parts.append("x%d" % (m + 1))
        else:
            parts.append("(%s)*x%d" % (series_text(mult), m + 1))
    return "(" + " - ".join(parts) + ")"


class System:
    """A generated system: its input text and its expected point set."""

    __slots__ = ("text", "expected")

    def __init__(self, text, expected):
        self.text = text
        self.expected = expected


def build(field, specs):
    """Text and expected valuation vectors for factor specs, or None.

    ``specs[i]`` lists the factors of f_{i+1} as (rho, extras) pairs.  Returns
    None when some solution has a zero coordinate (not a torus point).
    """
    solutions = [()]
    for factors in specs:
        extended = []
        for prefix in solutions:
            for rho, extras in factors:
                z = rho
                for m, mult in extras:
                    z = s_add(field, z, s_mul(field, mult, prefix[m]))
                if not z:
                    return None
                extended.append(prefix + (z,))
        solutions = extended
    expected = frozenset(tuple(min(z) for z in sol) for sol in solutions)
    n = len(specs)
    lines = ["ring " + " ".join("x%d" % (i + 1) for i in range(n)) + field.header()]
    for i, factors in enumerate(specs):
        lines.append("poly " + "*".join(factor_text(i, rho, ex) for rho, ex in factors))
    return System("\n".join(lines) + "\n", expected)


# -- oracle-deep ------------------------------------------------------------------

# factor counts per polynomial, cycled over the corpus; the leaf count (their
# product) is what sets a system's cost
_DEEP_SHAPES = (
    (2, 2, 2, 2, 2),
    (4, 1, 2, 1, 4),
    (2, 2, 2, 2, 2, 2),
    (1, 4, 1, 4, 2),
    (3, 2, 1, 2, 3),
    (2, 1, 3, 1, 2, 3),
    (1, 2, 4, 1, 4),
    (4, 2, 1, 1, 2, 2),
    (2, 3, 1, 4, 1),
    (1, 2, 2, 2, 1, 4),
)


def oracle_deep(index, shape, rng):
    """Factored systems over Q in 4-6 variables, built like the test oracle:
    roots with 1-2 terms and exponents in {-2..3}/q, half of the factors
    shifted by a monomial multiple of an earlier coordinate."""
    field = Field()
    q = shape.randint(1, 3)
    plan = []
    for i, count in enumerate(_DEEP_SHAPES[index % len(_DEEP_SHAPES)]):
        factors = []
        for _ in range(count):
            exps = sorted(Fraction(k, q) for k in shape.sample(range(-2, 4), shape.randint(1, 2)))
            extra = None
            if i > 0 and shape.random() < 0.5:
                extra = (shape.randrange(i), Fraction(shape.randrange(4) if shape.random() < 0.5 else 0, q))
            factors.append((exps, extra))
        plan.append(factors)
    while True:
        specs = []
        for factors in plan:
            specs.append([
                ({e: Fraction(rng.choice((1, 2, 3, -1, -2, -3))) for e in exps},
                 [] if extra is None
                 else [(extra[0], {extra[1]: Fraction(rng.choice((1, 2, -1, -2)))})])
                for exps, extra in factors
            ])
        system = build(field, specs)
        if system is not None:
            return system


# -- close-roots ------------------------------------------------------------------


def _distinct(rng, count):
    return [Fraction(c) for c in rng.sample((1, -1, 2, -2, 3, -3), count)]


def close_roots(index, shape, rng):
    """2-3 variables whose x1 roots agree on 2-10 leading terms.  x2 is
    recentred at that shared prefix and x3 at the leading term of one x2
    value, so every branch needs reinforcing before it can grow.

    The roots of each polynomial part at one exponent, with distinct
    coefficients.  When they part at different exponents, the engine can
    reinforce a root into copies of a subtree grown for a sibling root, and
    with three variables it then never finishes; that defect belongs to a
    regression test, not to a workload.
    """
    field = Field()
    n = 2 + index % 2
    depth = 2 + (index // 2) % 9
    q = shape.randint(1, 2)
    exps = [Fraction(shape.randint(-1, 1), q)]
    for _ in range(depth):
        exps.append(exps[-1] + Fraction(shape.randint(1, 2), q))
    e_split = exps.pop()
    n_roots, n_x2, n_x3 = shape.randint(2, 3), shape.randint(1, 2), shape.randint(1, 2)
    e2 = e_split + Fraction(shape.randint(0, 3), q)
    gap3 = Fraction(shape.randint(1, 3), q)
    root_for_x3, term_for_x3 = shape.randrange(n_roots), shape.randrange(n_x2)
    one = {Fraction(0): Fraction(1)}
    while True:
        prefix = {e: Fraction(rng.choice((1, 2, 3, -1, -2, -3))) for e in exps}
        x1_roots = [s_add(field, prefix, {e_split: d}) for d in _distinct(rng, n_roots)]
        x2_terms = [{e2: c} for c in _distinct(rng, n_x2)]
        specs = [
            [(r, []) for r in x1_roots],
            [(s_add(field, s, s_neg(field, prefix)), [(0, one)]) for s in x2_terms],
        ]
        if n == 3:
            x2 = s_add(field, x1_roots[root_for_x3],
                       s_add(field, x2_terms[term_for_x3], s_neg(field, prefix)))
            if not x2:
                continue
            lead = min(x2)
            specs.append([
                (s_add(field, {lead + gap3: c}, {lead: -x2[lead]}), [(1, one)])
                for c in _distinct(rng, n_x3)
            ])
        system = build(field, specs)
        if system is not None:
            return system


# -- residue-wide -----------------------------------------------------------------


def _primes_between(lo, hi):
    def is_prime(n):
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    return [n for n in range(lo, hi) if is_prime(n)]


def residue_wide(index, shape, rng):
    """Small factored systems with large residue constants, half over F_p
    with p in 10^4..6*10^4 and half over Q with constants up to 3000.
    Three in ten recentre x2 at the constant of an x1 root, which forces an
    expansion of f1 and so residue root finding on large numbers; the rest
    need no expansion and measure per-system overhead."""
    over_fp = index % 2 == 0
    forced = index % 10 in (1, 4, 7)
    n = 2 if forced else 1 + (index // 2) % 3
    # moduli and constant sizes sweep their range over the corpus in steps
    step = (index // 2) % 10
    counts = [shape.randint(2, 3)] + [shape.randint(1, 2) for _ in range(n - 1)]
    tails = [[Fraction(shape.randint(1, 3)) if shape.random() < 0.7 else None for _ in range(c)]
             for c in counts]
    if forced and not over_fp:
        # exact x1 roots: past the constant, the rational root search would
        # enumerate divisors of products of root differences, whose count
        # swings by orders of magnitude from one seed to the next
        tails[0] = [None] * counts[0]
    targets = [(shape.randrange(counts[0]), Fraction(shape.randint(1, 4))) for _ in range(counts[-1])]
    if over_fp:
        # F_p roots are found by trying 1, 2, ... until the polynomial is
        # used up, so the cost follows the largest root; keep roots near p
        lo = 10_000 + 5_000 * step
        field = Field(rng.choice(_primes_between(lo, lo + 1_000)))
        constants, signs = range(9 * lo // 10, lo), None
    else:
        # prime constants: the divisor count of their product, which the
        # rational root search enumerates, is then the same for every seed
        field = Field()
        big = 300 + 270 * step + shape.randrange(270)
        constants, signs = _primes_between(9 * big // 10, big), (1, -1)
    one = {Fraction(0): field.norm(1)}
    while True:
        specs = []
        for i, poly_tails in enumerate(tails):
            factors = []
            for k, tail in enumerate(poly_tails):
                if forced and i == 1:
                    # x2 = x1 - c + t^e, where c is the constant of one x1 root
                    root, e = targets[k]
                    c = specs[0][root][0][Fraction(0)]
                    factors.append((s_add(field, {e: field.norm(1)}, {Fraction(0): field.norm(-c)}),
                                    [(0, one)]))
                    continue
                c = rng.choice(constants) * (rng.choice(signs) if signs else 1)
                rho = {Fraction(0): field.norm(c)}
                if tail is not None:
                    rho = s_add(field, rho, {tail: field.norm(rng.randint(1, 9))})
                factors.append((rho, []))
            specs.append(factors)
        system = build(field, specs)
        if system is not None:
            return system


GENERATORS = {
    "oracle-deep": oracle_deep,
    "close-roots": close_roots,
    "residue-wide": residue_wide,
}


def corpus(workload, seed, size):
    """``size`` systems of one workload; the same seed gives the same systems.

    The structure of system i (variables, factor counts, exponents, which
    root a coordinate is recentred at) is drawn from a generator seeded by i
    alone; the seed draws the coefficients and moduli.  So every seed gives
    the same mix of hard and easy systems, and seed-to-seed spread in the
    metrics is mostly measurement noise.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    make = GENERATORS[workload]
    return [make(i, random.Random("%s shape %d" % (workload, i)), rng) for i in range(size)]
