"""Shared builders for the test suite."""

from fractions import Fraction

from troptri import (
    ApproxRoot,
    MPoly,
    PuiseuxScalar,
    RationalField,
    TriangularSystem,
    UPoly,
    ZeroSubstitutionError,
)

QQ = RationalField()


def fr(num, den=1):
    return Fraction(num, den)


def ps(*pairs, field=QQ):
    """Scalar from (exponent, integer-ish coefficient) pairs."""
    return PuiseuxScalar.from_terms(
        field, [(Fraction(e), field.from_int(c) if isinstance(c, int) else c) for e, c in pairs]
    )


def const(c, field=QQ):
    return PuiseuxScalar.constant(field, field.from_int(c) if isinstance(c, int) else c)


def tp(exp, coeff=1, field=QQ):
    return PuiseuxScalar.t_power(field, Fraction(exp), field.from_int(coeff))


def uc(nvars, *terms, field=QQ):
    """K[u] coefficient (an MPoly in u) from (scalar, u-degree tuple) pairs."""
    return MPoly.from_terms(field, nvars, [(deg, scalar) for scalar, deg in terms])


def uconst(nvars, scalar, field=QQ):
    return MPoly.constant(field, nvars, scalar)


def upoly(nvars, var, coeffs, field=QQ):
    """UPoly from {degree: MPoly-or-scalar}."""
    pairs = []
    for j, c in coeffs.items():
        if isinstance(c, PuiseuxScalar):
            c = MPoly.constant(field, nvars, c)
        pairs.append((j, c))
    return UPoly.from_coeffs(field, nvars, var, pairs)


def mpoly(nvars, terms, field=QQ):
    """MPoly from {x-degree tuple: scalar}."""
    return MPoly.from_terms(field, nvars, list(terms.items()))


def xvar(nvars, index, field=QQ):
    return MPoly.variable(field, nvars, index)


def mconst(nvars, scalar, field=QQ):
    return MPoly.constant(field, nvars, scalar)


def compose_naive(f, values, target):
    """``compose`` by the product-of-powers rule, term by term.

    An oracle independent of the engine's one-coordinate Horner kernel:
    each term of f becomes its scalar times the product of the values'
    powers, and the pieces are summed per power of x_{target}.
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


def shift_substitute_naive(f, prefix, scale):
    """``UPoly.shift_substitute`` by Horner's rule over whole polynomials.

    An oracle independent of the engine's in-place Taylor shift: f is
    evaluated at the linear polynomial prefix + t^scale * x, with one
    product of full UPolys per degree.
    """
    field, nvars, var = f.field, f.nvars, f.var
    if f.is_zero():
        return UPoly(field, nvars, var, {})
    lin = UPoly.from_coeffs(field, nvars, var, [
        (0, MPoly.constant(field, nvars, prefix)),
        (1, MPoly.constant(field, nvars, PuiseuxScalar.t_power(field, Fraction(scale)))),
    ])
    acc = UPoly(field, nvars, var, {})
    for j in range(f.degree(), -1, -1):
        acc = acc * lin
        c = f.coeffs.get(j)
        if c is not None:
            acc = acc + UPoly.x_power(field, nvars, var, 0, c)
    return acc


def root(index, known, tail):
    """ApproxRoot from (exponent, int coeff) pairs and a tail exponent or None."""
    terms = tuple((Fraction(e), QQ.from_int(c)) for e, c in known)
    return ApproxRoot(index, terms, Fraction(tail) if tail is not None else None)


def paper_f1(nvars=1, var=0):
    """(x - 1 - t^2) * (x - 1 - t - t^2), the quadratic with two close roots."""
    x = UPoly.x_power(QQ, nvars, var)
    r1 = ps((0, 1), (2, 1))
    r2 = ps((0, 1), (1, 1), (2, 1))
    as_poly = lambda s: UPoly.x_power(QQ, nvars, var, 0, MPoly.constant(QQ, nvars, s))
    return (x - as_poly(r1)) * (x - as_poly(r2))


def paper_f2_tilde(nvars=2):
    """(x2 - t - t^2 u1) * (x2 - 1 - t - t^2 u1) over K[u1][x2]."""
    x2 = UPoly.x_power(QQ, nvars, 1)
    t2u1 = MPoly.variable(QQ, nvars, 0, tp(2))
    a = uconst(nvars, tp(1)) + t2u1
    b = uconst(nvars, ps((0, 1), (1, 1))) + t2u1
    lift = lambda c: UPoly.x_power(QQ, nvars, 1, 0, c)
    return (x2 - lift(a)) * (x2 - lift(b))


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
