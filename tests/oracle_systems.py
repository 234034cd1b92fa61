"""Random triangular systems with independently known tropical points.

Each polynomial is built as a product of factors x_i - h(x_1..x_{i-1}),
so every solution of the system can be written down by direct
back-substitution of the chosen factor branches.  The expected tropical
points are the coordinatewise valuations of those explicit solutions,
computed with plain scalar arithmetic and no polygon machinery at all.
"""

from fractions import Fraction

from helpers import QQ, mconst, series, xvar
from oracles import scalar_constant, scalar_neg, scalar_sub, t_power
from troptri import TriangularSystem


def random_system_with_expected_points(rng, max_vars=3, max_factors=3):
    """A random solvable system plus its expected tropical point set."""
    while True:
        built = _try_build(rng, max_vars, max_factors)
        if built is not None:
            return built


def _try_build(rng, max_vars, max_factors):
    n = rng.randint(1, max_vars)
    q = rng.randint(1, 3)
    specs = []
    for i in range(n):
        factors = []
        for _ in range(rng.randint(1, max_factors)):
            rho = _random_root(rng, q)
            extra = None
            if i > 0 and rng.random() < 0.5:
                m = rng.randrange(i)
                mult = _random_multiplier(rng, q)
                extra = (m, mult)
            factors.append((rho, extra))
        specs.append(factors)
    return _build(specs)


def _build(specs):
    """The system whose line i is the product of x_i - rho - mult*x_m.

    ``specs[i]`` lists line i's factors as (rho, extra), with extra None or
    (m, mult).  Returns the system and its points, or None when some
    solution has a zero coordinate.
    """
    n = len(specs)
    solutions = [()]
    for factors in specs:
        extended = []
        for prefix in solutions:
            for rho, extra in factors:
                z = rho
                if extra is not None:
                    m, mult = extra
                    z = z + mult * prefix[m]
                if z.is_zero():
                    return None  # not a torus solution; resample
                extended.append(prefix + (z,))
        solutions = extended

    expected = {tuple(z.valuation() for z in sol) for sol in solutions}

    polys = []
    for i, factors in enumerate(specs):
        f = mconst(n, scalar_constant(QQ, QQ.one))
        for rho, extra in factors:
            factor = xvar(n, i) - mconst(n, rho)
            if extra is not None:
                m, mult = extra
                factor = factor - xvar(n, m).mul_scalar(mult)
            f = f * factor
        polys.append(f)
    return TriangularSystem(polys), expected


def prefix_cancelling_system_with_expected_points(rng):
    """A 3-variable system whose x1 roots share a prefix the next line cancels.

    The x1 roots are P + s_k: one nonzero constant P, and series s_k that
    part at different exponents.  Then x2 = x1 - P + rho2 and x3 = x2 - rho3,
    with terms of rho2 and rho3 drawn partly from the s_k so that some cancel.
    """
    while True:
        built = _build(_prefix_cancelling_specs(rng))
        if built is not None:
            return built


def _prefix_cancelling_specs(rng):
    q = rng.randint(1, 2)
    exponents = [Fraction(k, q) for k in range(1, 4 * q + 1)]
    coeff = lambda: QQ.from_int(rng.choice([1, 2, -1, -2]))
    parts = []
    for e in rng.sample(exponents, rng.randint(2, 3)):
        terms = [(e, coeff())]
        later = [x for x in exponents if x > e]
        if later and rng.random() < 0.7:
            terms.append((rng.choice(later), coeff()))
        parts.append(series(QQ, terms))
    pool = [term for s in parts for term in s.terms] + [(e, coeff()) for e in exponents]
    rho2, rho3 = (
        series(QQ, [(e, c * rng.choice([1, -1])) for e, c in rng.sample(pool, rng.randint(1, 2))])
        for _ in range(2)
    )
    prefix = scalar_constant(QQ, QQ.from_int(rng.choice([1, 2, 3, -1, -2, -3])))
    one = scalar_constant(QQ, QQ.one)
    return [[(prefix + s, None) for s in parts], [(scalar_sub(rho2, prefix), (0, one))], [(scalar_neg(rho3), (1, one))]]


def _random_root(rng, q):
    """A finite Puiseux series over Q with exponents in {-2..3}/q."""
    exponents = sorted(
        rng.sample([Fraction(k, q) for k in range(-2, 4)], rng.randint(1, 2))
    )
    terms = [(e, QQ.from_int(rng.choice([1, 2, 3, -1, -2, -3]))) for e in exponents]
    return series(QQ, terms)


def _random_multiplier(rng, q):
    coeff = QQ.from_int(rng.choice([1, 2, -1, -2]))
    if rng.random() < 0.5:
        exp = Fraction(rng.choice(range(0, 4)), q)
        return t_power(QQ, exp, coeff)
    return scalar_constant(QQ, coeff)
