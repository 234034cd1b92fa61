"""Exact residue fields and unit-root extraction.

Two concrete fields are provided: the rationals (elements are
``fractions.Fraction``) and prime fields F_p for p <= 10^6 (elements are
ints in 0..p-1).  ``roots_in_units`` returns the nonzero roots of a
univariate polynomial and refuses to continue when the polynomial does
not split into linear factors over the configured field.

Both fields find roots with one F_p kernel, in time polynomial in the
degree, log p and the bit size of the coefficients (Cantor and
Zassenhaus, Math. Comp. 36, 1981).  It takes g = gcd(f, x^p - x), the
product of the distinct linear factors of f, by powering x modulo f,
and splits g by equal-degree splitting: gcd(h, (x + a)^((p-1)/2) - 1)
for random a separates the roots r with r + a a square from the rest.
Over Q the rational roots of the squarefree part are found modulo the
smallest prime that divides neither end coefficient and keeps them
simple, Hensel-lifted until the modulus bounds numerator and denominator
and recovered by rational reconstruction (Loos, SIAM J. Comput. 12,
1983).  In both fields every
candidate is then checked by exact evaluation and deflated out as often
as it divides, which gives the multiplicities and whether the
polynomial splits.
"""

import random
from fractions import Fraction
from math import gcd, lcm

from .errors import DivisionByZero, NonSplittingError, ZeroPolynomialError


class RationalField:
    """The field of arbitrary-precision rationals."""

    __slots__ = ()
    name = "QQ"

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("cannot invert 0 in %s" % self.name)
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise DivisionByZero("division by 0 in %s" % self.name)
        return a / b

    def is_zero(self, a):
        return a == 0

    def format(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return "%d/%d" % (a.numerator, a.denominator)

    def sort_key(self, a):
        return a

    def unit_roots(self, coeffs):
        """All nonzero rational roots of sum(coeffs[j] * x**j).

        Returns ``(roots, split)`` where ``split`` is True when the
        polynomial, after the power of x dividing it is removed, factors
        completely into linear pieces over the rationals.  Candidates come
        from the squarefree part by p-adic lifting; found roots are
        deflated out to account for multiplicities.
        """
        work = _strip_unit_part(coeffs)
        if len(work) <= 1:
            return set(), True
        den = lcm(*(c.denominator for c in work))
        ints = [c.numerator * (den // c.denominator) for c in work]
        if len(ints) == 2:
            candidates = [Fraction(-ints[0], ints[1])]
        else:
            candidates = _rational_candidates(_squarefree_part(ints))
        return _deflate_roots(self, work, candidates)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The prime field F_p; elements are canonical ints in 0..p-1.

    p is capped because the primality check on construction is trial
    division.
    """

    __slots__ = ("p",)
    MAX_PRIME = 10**6

    def __init__(self, p):
        if p < 2 or p > self.MAX_PRIME or not _is_prime(p):
            raise ValueError("modulus must be a prime <= %d, got %r" % (self.MAX_PRIME, p))
        self.p = p

    @property
    def name(self):
        return "F%d" % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise DivisionByZero("cannot invert 0 in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a):
        return a % self.p == 0

    def format(self, a):
        return str(a % self.p)

    def sort_key(self, a):
        return a % self.p

    def unit_roots(self, coeffs):
        """All roots in F_p*, found by root splitting; see RationalField."""
        work = _strip_unit_part(coeffs)
        if len(work) <= 1:
            return set(), True
        return _deflate_roots(self, work, _fp_roots(work, self.p))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class ResiduePoly:
    """Univariate polynomial over a residue field, dense coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and field.is_zero(coeffs[-1]):
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if not self.coeffs:
            raise ZeroPolynomialError("the zero polynomial has no degree")
        return len(self.coeffs) - 1

    def __eq__(self, other):
        return (
            isinstance(other, ResiduePoly)
            and other.field == self.field
            and other.coeffs == self.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return "ResiduePoly(%r, %r)" % (self.field, list(self.coeffs))


def roots_in_units(poly: ResiduePoly) -> set:
    """The distinct nonzero roots of ``poly`` over its residue field.

    Raises NonSplittingError when the unit part of ``poly`` does not
    factor into linear pieces (counted with multiplicity), since missing
    roots would silently lose tropical branches downstream.
    """
    if poly.is_zero():
        raise ZeroPolynomialError("cannot take roots of the zero polynomial")
    roots, split = poly.field.unit_roots(poly.coeffs)
    if not split:
        raise NonSplittingError(
            "polynomial does not split over %s" % poly.field.name, poly=poly
        )
    return roots


def _strip_unit_part(coeffs):
    coeffs = list(coeffs)
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    return coeffs[k:]


def _divide_linear(field, coeffs, root):
    """Quotient and remainder of the division by (x - root), by synthetic
    division; the remainder is the value at ``root``."""
    out = [None] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = field.add(coeffs[i], field.mul(root, carry))
    return out, carry


def _deflate_roots(field, work, candidates):
    """``(roots, split)``: the candidates that are roots of ``work``, each
    deflated out as often as it divides, and whether nothing but a
    constant is left."""
    roots = set()
    for c in sorted(candidates, key=field.sort_key):
        while len(work) > 1:
            quotient, value = _divide_linear(field, work, c)
            if not field.is_zero(value):
                break
            work = quotient
            roots.add(c)
    return roots, len(work) == 1


# Dense polynomials over F_p are coefficient lists, lowest degree first,
# with entries in 0..p-1 and no trailing zeros; [] is the zero polynomial.


def _fp_roots(f, p):
    """The distinct roots in F_p* of f, whose constant term is nonzero."""
    f = _fp_monic(_fp_trim([c % p for c in f]), p)
    if len(f) <= 1:
        return []
    # x^p - x is the product of all x - r; f(0) != 0 leaves r = 0 out
    xp = _fp_powmod([0, 1], p, f, p) + [0, 0]
    xp[1] = (xp[1] - 1) % p
    stack = [_fp_gcd(f, _fp_trim(xp), p)]
    rng = random.Random(0)
    roots = []
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) > 2:
            # two distinct units exist, so p is odd
            while True:
                w = _fp_powmod([rng.randrange(p), 1], (p - 1) // 2, h, p) or [0]
                w[0] = (w[0] - 1) % p
                g = _fp_gcd(h, _fp_trim(w), p)
                if 1 < len(g) < len(h):
                    break
            stack.append(g)
            stack.append(_fp_divmod(h, g, p)[0])
    return roots


def _fp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_monic(a, p):
    if not a or a[-1] == 1:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _fp_divmod(a, f, p):
    """Quotient and remainder of a by the monic f."""
    n = len(f) - 1
    r = list(a)
    q = [0] * max(len(r) - n, 0)
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i]
        if c:
            q[i - n] = c
            for j in range(n):
                r[i - n + j] = (r[i - n + j] - c * f[j]) % p
    return q, _fp_trim(r[:n])


def _fp_mulmod(a, b, f, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _fp_divmod([c % p for c in prod], f, p)[1]


def _fp_powmod(base, e, f, p):
    """base^e modulo the monic f, squaring only while bits of e remain."""
    base = _fp_divmod(base, f, p)[1]
    result = [1]
    while e:
        if e & 1:
            result = _fp_mulmod(result, base, f, p)
        e >>= 1
        if e:
            base = _fp_mulmod(base, base, f, p)
    return result


def _fp_gcd(a, b, p):
    """The monic gcd of a and b, not both zero."""
    while b:
        b = _fp_monic(b, p)
        a, b = b, _fp_divmod(a, b, p)[1]
    return _fp_monic(a, p)


# Integer polynomials: coefficient lists as above, over Z.


def _squarefree_part(f):
    """f / gcd(f, f') as a primitive integer polynomial."""
    g = _zz_gcd(f, [j * c for j, c in enumerate(f)][1:])
    if len(g) > 1:
        f = _zz_exact_quotient(f, g)
    return _zz_primitive(f)


def _zz_primitive(a):
    """a divided by the gcd of its coefficients, leading coefficient > 0."""
    content = gcd(*a)
    if a[-1] < 0:
        content = -content
    return [c // content for c in a]


def _zz_gcd(a, b):
    """gcd over Q of nonzero a and b, by primitive pseudo-remainders."""
    a, b = _zz_primitive(a), _zz_primitive(b)
    while len(b) > 1:
        r = _zz_pseudo_remainder(a, b)
        a, b = b, (_zz_primitive(r) if r else [])
    return a if not b else [1]


def _zz_pseudo_remainder(a, b):
    n, lead = len(b) - 1, b[-1]
    a = list(a)
    while len(a) > n:
        c = a.pop()
        a = [x * lead for x in a]
        for j in range(n):
            a[len(a) - n + j] -= c * b[j]
        while a and a[-1] == 0:
            a.pop()
    return a


def _zz_exact_quotient(a, b):
    """a / b for a primitive divisor b of a (Gauss: the quotient is integral)."""
    n, lead = len(b) - 1, b[-1]
    a = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = a[i] // lead
        q[i - n] = c
        for j in range(n + 1):
            a[i - n + j] -= c * b[j]
    return q


def _rational_candidates(f):
    """Rationals among which lie all roots of the squarefree primitive f.

    A root u/v in lowest terms has u | f[0] and v | f[-1], so the roots
    modulo a prime p dividing neither are units.  With every one of them
    simple, each lifts to a unique root modulo p^k; once p^k exceeds
    2*|f[0]|*|f[-1]|, reconstruction from it gives u/v back.
    """
    low, high = abs(f[0]), abs(f[-1])
    df = [j * c for j, c in enumerate(f)][1:]
    p = 1
    while True:
        p += 1
        if not _is_prime(p) or low % p == 0 or high % p == 0:
            continue
        roots = _fp_roots(f, p)
        if all(_eval_mod(df, r, p) for r in roots):
            break
    bound = 2 * low * high
    candidates = []
    for r in roots:
        m = p
        while m <= bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        candidates.append(_reconstruct(r, m, low))
    return candidates


def _eval_mod(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _reconstruct(r, m, bound):
    """A fraction u/v with u = v*r (mod m) and |u| <= bound.

    Half-extended Euclid on (m, r), stopped at the first remainder at
    most ``bound``.  If some such u/v has 2*bound*|v| < m, this is it
    (von zur Gathen and Gerhard, Modern Computer Algebra, section 5.10).
    """
    r0, r1, t0, t1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return Fraction(r1, t1)


def _is_prime(n):
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
