"""Exact residue fields and unit-root extraction.

Two concrete fields are provided: the rationals (an element is an
``int`` when integral, else a ``fractions.Fraction``) and prime fields
F_p for p <= ``PrimeField.MAX_PRIME`` = 10^24 (elements are ints in
0..p-1).  Elements of both are canonical, so callers test them with
``== 0``, print them with ``format_rat`` and order them with
``sorted``.

``roots_in_units`` is the one path to the nonzero roots of a univariate
polynomial, for both fields.  It strips the power of x, takes r in
closed form when the rest is lead*(x - r)^d, d a unit (r = -c[d-1]/(d*c[d]),
checked on every coefficient), and otherwise asks the field's
``candidates`` for the polynomial to deflate, the candidate roots and
the division by a root's linear factor.  It deflates each candidate out
as often as it divides, which gives the distinct roots, and refuses to
continue (NonSplittingError) when more than a constant is left.

The fields find their candidates in time polynomial in the degree, log p
and the bit size of the coefficients.  F_p deflates the polynomial as it
is.  At degree 2 its roots are (-b +- s)/(2a) for a*x^2 + b*x + c with
s^2 = b^2 - 4ac: Euler's criterion says whether s exists and
Tonelli-Shanks finds it.  Above degree 2 it takes g = gcd(f, x^p - x), the
product of the distinct linear factors of f, by powering x modulo f, and
splits g by equal-degree splitting until every piece has degree at most
2: gcd(h, (x + a)^((p-1)/2) - 1) for random a separates the roots r with
r + a a square from the rest (Cantor and Zassenhaus, Math. Comp. 36,
1981).  Q deflates the denominator-free integer polynomial, where a root
u/v divides out as the factor v*x - u.  Its squarefree part (of degree
>= 2, as every d is a unit of Q) gives the candidates: at degree 2 by the
quadratic formula with s = isqrt(b^2 - 4ac) if that is a square, above
by trying every unit modulo the least prime that divides neither end
coefficient and keeps the roots simple (at most about B*log(B) for a
B-bit discriminant), Hensel-lifting until the modulus bounds numerator
and denominator and recovering by rational reconstruction (Loos, SIAM J.
Comput. 12, 1983).
"""

import random
from bisect import bisect_right
from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import NonSplittingError
from .rationals import int_if_integral, ratio


class RationalField:
    """The field of arbitrary-precision rationals."""

    __slots__ = ()
    name = "QQ"
    zero, one = 0, 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        return -a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by 0 in %s" % self.name)
        return ratio(a, b)

    def candidates(self, work):
        """The denominator-free integer polynomial of ``work``, the rationals
        among which its roots lie (from its squarefree part: at degree 2 in
        closed form, above by p-adic lifting) and its division by a root."""
        den = lcm(*(c.denominator for c in work))
        ints = [c.numerator * (den // c.denominator) for c in work]
        squarefree = _squarefree_part(ints)
        if len(squarefree) == 3:
            c, b, a = squarefree
            disc = b * b - 4 * a * c
            s = isqrt(max(disc, 0))
            candidates = [ratio(r - b, 2 * a) for r in (s, -s) if s * s == disc]
        else:
            candidates = _rational_candidates(squarefree)
        return ints, candidates, _zz_divide_root

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


class PrimeField:
    """The prime field F_p; elements are canonical ints in 0..p-1.

    p is capped below the bound up to which the primality check on
    construction (deterministic Miller-Rabin) is exact.
    """

    __slots__ = ("p",)
    MAX_PRIME = 10**24
    zero, one = 0, 1

    def __init__(self, p):
        if p < 2 or p > self.MAX_PRIME or not _is_prime(p):
            raise ValueError("modulus must be a prime <= %d, got %r" % (self.MAX_PRIME, p))
        self.p = p

    @property
    def name(self):
        return "F%d" % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("cannot invert 0 in %s" % self.name)
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def candidates(self, work):
        """``work`` itself, its distinct roots in F_p* and its division by a
        root's linear factor; see RationalField."""
        p = self.p

        def divide(f, root):
            quotient, remainder = _fp_divmod(f, [-root % p, 1], p)
            return None if remainder else quotient

        return work, _fp_roots(work, p), divide

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


class ResiduePoly:
    """Univariate polynomial over a residue field, dense coefficients."""

    __slots__ = ("field", "coeffs", "roots")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.field = field
        self.coeffs = tuple(coeffs)
        self.roots = None  # kept by roots_in_units

    def is_zero(self):
        return not self.coeffs

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
    """The distinct nonzero roots of ``poly`` over its residue field, by the
    steps of the module docstring.

    Raises NonSplittingError when the unit part of ``poly`` does not
    factor into linear pieces (counted with multiplicity), since missing
    roots would silently lose tropical branches downstream.
    """
    if poly.roots is not None:
        return poly.roots
    if poly.is_zero():
        raise ValueError("cannot take roots of the zero polynomial")
    field = poly.field
    work = _strip_unit_part(poly.coeffs)
    if len(work) <= 1:
        return set()
    if (r := _repeated_root(field, work)) is not None:
        poly.roots = {r}
        return poly.roots
    work, candidates, divide = field.candidates(work)
    roots = set()
    for c in sorted(candidates):
        while len(work) > 1 and (quotient := divide(work, c)) is not None:
            work = quotient
            roots.add(c)
    if len(work) > 1:
        raise NonSplittingError("polynomial does not split over %s" % field.name)
    poly.roots = roots
    return roots


def _strip_unit_part(coeffs):
    coeffs = list(coeffs)
    k = 0
    while k < len(coeffs) and coeffs[k] == 0:
        k += 1
    return coeffs[k:]


def _repeated_root(field, f):
    """r when f = f[d]*(x - r)^d, d = deg f a unit of the field, else None:
    r = -f[d-1]/(d*f[d]) is checked against every lower coefficient."""
    d, mul = len(f) - 1, field.mul
    if field.from_int(d) == 0:
        return None
    minus_r = field.div(f[d - 1], mul(field.from_int(d), f[d]))
    power, binom = f[d], 1
    for k in range(1, d + 1):
        power, binom = mul(power, minus_r), binom * (d - k + 1) // k
        if f[d - k] != mul(power, field.from_int(binom)):
            return None
    return field.neg(minus_r)


# Dense polynomials over F_p are coefficient lists, lowest degree first,
# with entries in 0..p-1 and no trailing zeros; [] is the zero polynomial.


def _fp_roots(f, p):
    """The distinct roots in F_p* of f, whose constant term is nonzero; f and
    each piece the splitting leaves are solved in closed form at degree <= 2."""
    f = _fp_monic(_fp_trim([c % p for c in f]), p)
    rng = []  # the splitting's random.Random(0), built at the first draw

    def draw():
        if not rng:
            rng.append(random.Random(0))
        return rng[0].randrange(p)

    if len(f) > 3 or p == 2:
        # x^p - x is the product of all x - r; f(0) != 0 leaves r = 0 out,
        # and over F_2 at most x + 1
        xp = _fp_powmod([0, 1], p, f, p) + [0, 0]
        xp[1] = (xp[1] - 1) % p
        f = _fp_gcd(f, _fp_trim(xp), p)
    stack, roots, half = [f], [], (p + 1) // 2
    while stack:
        h = stack.pop()
        if len(h) == 2:
            roots.append(-h[0] % p)
        elif len(h) == 3:
            # (-b +- s)/2 for s^2 = b^2 - 4c, if Euler's criterion finds an s
            b, disc = h[1], (h[1] * h[1] - 4 * h[0]) % p
            if pow(disc, (p - 1) // 2, p) <= 1:
                s = _fp_sqrt(disc, p, draw)
                roots += {(s - b) * half % p, (-s - b) * half % p}
        elif len(h) > 3:
            # three distinct units exist, so p is odd
            while True:
                w = _fp_powmod([draw(), 1], (p - 1) // 2, h, p) or [0]
                w[0] = (w[0] - 1) % p
                g = _fp_gcd(h, _fp_trim(w), p)
                if 1 < len(g) < len(h):
                    break
            stack += [g, _fp_divmod(h, g, p)[0]]
    return roots


def _fp_sqrt(a, p, draw):
    """A square root of the square a modulo the odd prime p (Tonelli and
    Shanks).  It needs a non-residue only when 4 divides p - 1, and draws
    one from ``draw``: half the units are, so two draws are expected."""
    s = ((p - 1) & (1 - p)).bit_length() - 1  # 2^s exactly divides p - 1
    q = (p - 1) >> s
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    if t > 1:  # else r^2 = a, also for a = 0
        z = next(z for z in iter(draw, None) if pow(z, (p - 1) // 2, p) == p - 1)
        m, c = s, pow(z, q, p)
        while t != 1:
            i = next(i for i in range(1, m) if pow(t, 1 << i, p) == 1)  # t has order 2^i
            b = pow(c, 1 << (m - i - 1), p)
            m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


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
    """a*b modulo the monic f, reduced in place with no quotient built."""
    n = len(f) - 1
    r = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            r[i + j] += x * y
    for i in range(len(r) - 1, n - 1, -1):
        c = r[i] % p
        for j in range(n):
            r[i - n + j] -= c * f[j]
    return _fp_trim([c % p for c in r[:n]])


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


def _zz_divide_root(a, root):
    """a / (v*x - u) for root = u/v in lowest terms, or None when u/v is not
    a root of a.  Divides from the top; by Gauss the quotient of a root is
    integral, so a leading coefficient not divisible by v or a nonzero
    remainder refutes it."""
    u, v = root.numerator, root.denominator
    q = [0] * (len(a) - 1)
    carry = 0
    for i in range(len(a) - 1, 0, -1):
        c, rem = divmod(a[i] + carry, v)
        if rem:
            return None
        q[i - 1] = c
        carry = c * u
    return q if a[0] + carry == 0 else None


def _rational_candidates(f):
    """Rationals among which lie all roots of the squarefree primitive f.

    A root u/v in lowest terms has u | f[0] and v | f[-1], so the roots
    modulo a prime p dividing neither are units, found by trying each of
    the p - 1.  With every one of them simple, each lifts to a unique root
    modulo p^k; once p^k exceeds 2*|f[0]|*|f[-1]|, reconstruction from it
    gives u/v back.  The primes passed over divide f[0]*f[-1]*disc(f), a
    number of B bits, so p is at most about B*log(B) and the search costs
    O(p^2) evaluations of f, polynomial in B.
    """
    low, high = abs(f[0]), abs(f[-1])
    df = [j * c for j, c in enumerate(f)][1:]
    p = 1
    while True:
        p += 1
        if not _is_prime(p) or low % p == 0 or high % p == 0:
            continue
        roots = [r for r in range(1, p) if _eval_mod(f, r, p) == 0]
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
    return int_if_integral(Fraction(r1, t1))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k bases (OEIS A014233)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
           341550071728321, 3825123056546413051, 3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)


def _is_prime(n):
    """Miller-Rabin to the first k of the 13 prime bases 2..41, k the least
    with n < psi_k (Jaeschke, Math. Comp. 61, 1993), so exact below psi_13 =
    3317044064679887385961981 (Sorenson and Webster, Math. Comp. 86, 2017),
    and for every n up to PrimeField.MAX_PRIME."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # 2^r exactly divides n - 1
    for b in _MR_BASES[: bisect_right(_MR_PSI, n) + 1]:
        x = pow(b, (n - 1) >> r, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True
