"""Shared builders for the test suite."""

import contextlib
import signal
from fractions import Fraction
from math import lcm

from troptri import (
    ApproxRoot,
    MPoly,
    PrimeField,
    PuiseuxScalar,
    RationalField,
    TriangularSystem,
    UPoly,
    ZeroSubstitutionError,
)
from troptri.rationals import ratio

QQ = RationalField()


def fr(num, den=1):
    return Fraction(num, den)


def series(field, pairs):
    """The scalar sum of c*t^e over (exponent, coefficient) pairs in any
    order, built by scalar addition: repeated exponents add up, zeros drop."""
    acc = PuiseuxScalar.constant(field, field.zero)
    for e, c in pairs:
        acc = acc + PuiseuxScalar.t_power(field, Fraction(e), c)
    return acc


def ps(*pairs, field=QQ):
    """Scalar from (exponent, integer-ish coefficient) pairs."""
    return series(field, [(e, field.from_int(c) if isinstance(c, int) else c) for e, c in pairs])


def initial(s):
    """The coefficient of a nonzero scalar's least exponent."""
    return s.terms[0][1]


def const(c, field=QQ):
    return PuiseuxScalar.constant(field, field.from_int(c) if isinstance(c, int) else c)


def tp(exp, coeff=1, field=QQ):
    return PuiseuxScalar.t_power(field, Fraction(exp), field.from_int(coeff))


def sum_mpoly(field, nvars, pairs):
    """The MPoly sum of scalar*monomial over (exponent tuple, scalar) pairs in
    any order, built by MPoly addition: repeated monomials add up, zeros drop."""
    acc = MPoly.zero(field, nvars)
    for deg, s in pairs:
        if not s.is_zero():
            acc = acc + MPoly(field, nvars, {tuple(deg): s})
    return acc


def uc(nvars, *terms, field=QQ):
    """K[u] coefficient (an MPoly in u) from (scalar, u-degree tuple) pairs."""
    return sum_mpoly(field, nvars, [(deg, s) for s, deg in terms])


def uconst(nvars, scalar, field=QQ):
    return MPoly.constant(field, nvars, scalar)


def from_coeffs(field, nvars, var, pairs):
    """UPoly from (degree, MPoly) pairs; repeated degrees add up, zeros drop."""
    acc = {}
    for j, c in pairs:
        acc[j] = acc[j] + c if j in acc else c
    return UPoly(field, nvars, var, {j: c for j, c in acc.items() if not c.is_zero()})


def uval(c):
    """The minimum valuation over an MPoly's Puiseux coefficients."""
    return ratio(*c.val_pair())


def val_pair_naive(c):
    """``MPoly.val_pair`` recomputed from the scalars' rational valuations."""
    low = Fraction(min(s.valuation() for s in c.terms.values()))
    return low.numerator, low.denominator


def initial_terms_naive(c):
    """``MPoly.initial_terms`` recomputed from the scalars' rational valuations."""
    low = min(s.valuation() for s in c.terms.values())
    return {deg: s.terms[0][1] for deg, s in c.terms.items() if s.valuation() == low}


def initial_part_naive(c):
    """(val_pair, initial_term, initial_terms) of a nonzero MPoly, recomputed."""
    terms = initial_terms_naive(c)
    return val_pair_naive(c), next(iter(terms.items())) if len(terms) == 1 else None, terms


def upoly(nvars, var, coeffs, field=QQ):
    """UPoly from {degree: MPoly-or-scalar}."""
    pairs = []
    for j, c in coeffs.items():
        if isinstance(c, PuiseuxScalar):
            c = MPoly.constant(field, nvars, c)
        pairs.append((j, c))
    return from_coeffs(field, nvars, var, pairs)


def mpoly(nvars, terms, field=QQ):
    """MPoly from {x-degree tuple: scalar}."""
    return sum_mpoly(field, nvars, terms.items())


def xvar(nvars, index, field=QQ):
    return MPoly.variable(field, nvars, index)


def mconst(nvars, scalar, field=QQ):
    return MPoly.constant(field, nvars, scalar)


def compose_naive(f, values, target):
    """``compose`` by the product-of-powers rule, term by term.

    An oracle independent of the engine's one-coordinate kernel, which
    recenters and rescales: each term of f becomes its scalar times the
    product of the values' powers, and the pieces are summed per power of
    x_{target}.
    """
    field, nvars = f.field, f.nvars
    acc = {}
    for deg, scalar in f.terms.items():
        if any(e and i > target for i, e in enumerate(deg)):
            raise ValueError("polynomial uses a coordinate beyond x%d" % (target + 1))
        piece = MPoly.constant(field, nvars, scalar)
        for i, value in enumerate(values):
            if deg[i]:
                piece = piece * value ** deg[i]
        j = deg[target]
        acc[j] = acc[j] + piece if j in acc else piece
    coeffs = {j: c for j, c in acc.items() if not c.is_zero()}
    if not coeffs:
        raise ZeroSubstitutionError("substitution produced the zero polynomial")
    return UPoly(field, nvars, target, coeffs)


def lift(f):
    """A UPoly as an MPoly in one more variable, the last, standing for x.

    So MPoly arithmetic multiplies UPolys, also where a coefficient uses u
    at the index of x, which ``UPoly.from_mpoly`` would read as x.
    """
    return MPoly(f.field, f.nvars + 1, {
        deg + (j,): s for j, c in f.coeffs.items() for deg, s in c.terms.items()
    })


def unlift(m, var):
    """The UPoly in coordinate ``var`` that ``lift`` maps to m."""
    nvars = m.nvars - 1
    coeffs = {}
    for deg, s in m.terms.items():
        coeffs.setdefault(deg[-1], {})[deg[:-1]] = s
    return UPoly(m.field, nvars, var, {j: MPoly(m.field, nvars, terms) for j, terms in coeffs.items()})


def tail_variables(f):
    """The indices of the tail variables u that a UPoly's coefficients use."""
    return set().union(*[c.variables() for c in f.coeffs.values()])


def shift_substitute_naive(f, prefix, scale):
    """``oracles.shift_and_rescale`` by Horner's rule over whole polynomials;
    with scale 0 this is ``UPoly.shift_substitute``.

    An oracle independent of the engine's in-place Taylor shift: f is
    evaluated at the linear polynomial prefix + t^scale * x, with one
    product of full polynomials (``lift``) per degree.
    """
    field, nvars = f.field, f.nvars + 1
    lin = MPoly.constant(field, nvars, prefix) + MPoly.variable(
        field, nvars, nvars - 1, PuiseuxScalar.t_power(field, Fraction(scale))
    )
    acc = MPoly.zero(field, nvars)
    for j in range(max(f.coeffs, default=-1), -1, -1):
        acc = acc * lin
        c = f.coeffs.get(j)
        if c is not None:
            acc = acc + MPoly(field, nvars, {deg + (0,): s for deg, s in c.terms.items()})
    return unlift(acc, f.var)


def root(index, known, tail):
    """ApproxRoot from (exponent, int coeff) pairs and a tail exponent or None."""
    terms = tuple((Fraction(e), QQ.from_int(c)) for e, c in known)
    return ApproxRoot(index, terms, Fraction(tail) if tail is not None else None)


def paper_f1(nvars=1, var=0):
    """(x - 1 - t^2) * (x - 1 - t - t^2), the quadratic with two close roots."""
    x = xvar(nvars, var)
    r1 = ps((0, 1), (2, 1))
    r2 = ps((0, 1), (1, 1), (2, 1))
    return UPoly.from_mpoly((x - mconst(nvars, r1)) * (x - mconst(nvars, r2)), var)


def paper_f2_tilde(nvars=2):
    """(x2 - t - t^2 u1) * (x2 - 1 - t - t^2 u1) over K[u1][x2]."""
    x2 = xvar(nvars, 1)
    t2u1 = MPoly.variable(QQ, nvars, 0, tp(2))
    a = uconst(nvars, tp(1)) + t2u1
    b = uconst(nvars, ps((0, 1), (1, 1))) + t2u1
    return UPoly.from_mpoly((x2 - a) * (x2 - b), 1)


def three_var_system():
    """{t x1^2 + x1 + 1, t x1 x2^2 + x1 x2 + 1, x1 x2 x3 + 1}."""
    one = const(1)
    t = tp(1)
    f1 = mpoly(3, {(2, 0, 0): t, (1, 0, 0): one, (0, 0, 0): one})
    f2 = mpoly(3, {(1, 2, 0): t, (1, 1, 0): one, (0, 0, 0): one})
    f3 = mpoly(3, {(1, 1, 1): one, (0, 0, 0): one})
    return TriangularSystem([f1, f2, f3])


def close_roots_system():
    """{(x1-1-t^2)(x1-1-t-t^2), x2 - (x1-1-t)}: needs one reinforcement."""
    one = const(1)
    f1_factors = [ps((0, 1), (2, 1)), ps((0, 1), (1, 1), (2, 1))]
    x1 = xvar(2, 0)
    f1 = (x1 - mconst(2, f1_factors[0])) * (x1 - mconst(2, f1_factors[1]))
    x2 = xvar(2, 1)
    f2 = x2 - x1 + mconst(2, ps((0, 1), (1, 1)))
    return TriangularSystem([f1, f2])


def unit_roots_naive(field, coeffs):
    """``field.unit_roots`` by enumerating candidate roots.

    An oracle independent of the engine's root splitting and p-adic
    lifting: over F_p every unit is tried, over Q every +-u/v with u
    dividing the constant and v the leading coefficient of the
    denominator-free polynomial (rational root theorem).  Each candidate
    that is a root is deflated out while it still is one.
    """
    work = list(coeffs)
    while work and work[0] == 0:
        work.pop(0)
    if len(work) <= 1:
        return set(), True
    if isinstance(field, PrimeField):
        candidates = range(1, field.p)
    else:
        den = lcm(*(c.denominator for c in work))
        ints = [int(c * den) for c in work]
        candidates = set()
        for u in _divisors(abs(ints[0])):
            for v in _divisors(abs(ints[-1])):
                candidates.add(Fraction(u, v))
                candidates.add(Fraction(-u, v))
        candidates = sorted(candidates)
    roots = set()
    for cand in candidates:
        while len(work) > 1 and horner(field, work, cand) == 0:
            work = _deflate(field, work, cand)
            roots.add(cand)
    return roots, len(work) == 1


def _divisors(n):
    out = set()
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.add(i)
            out.add(n // i)
        i += 1
    return sorted(out)


def horner(field, coeffs, x):
    acc = field.zero
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def _deflate(field, coeffs, root):
    # synthetic division by (x - root); exact because root is a root
    out = [field.zero] * (len(coeffs) - 1)
    carry = field.zero
    for i in range(len(coeffs) - 1, 0, -1):
        carry = field.add(coeffs[i], field.mul(root, carry))
        out[i - 1] = carry
    return out


class TimeLimitExceeded(BaseException):
    """Raised by ``time_limit``.  Not an Exception, so that hypothesis
    reports it at once instead of shrinking through more hanging runs."""


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging past ``seconds``, which may be a fraction."""

    def expired(signum, frame):
        raise TimeLimitExceeded("no result after %g s" % seconds)

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
