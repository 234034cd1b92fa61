"""Finite Puiseux series: exact finite sums of rational powers of t.

A scalar is a sum c_1*t^(w_1) + ... + c_k*t^(w_k) with strictly
increasing rational exponents (negative exponents allowed) and nonzero
residue-field coefficients.  It is stored over one common denominator:
``den`` is a positive int and ``nums`` holds the pairs (n_i, c_i) with
w_i = n_i / den, n_i strictly increasing.  ``den`` is the least such
denominator (1 for zero), so equal scalars store equal ``(den, nums)``.
The arithmetic works on the integer numerators only; exponents leave
as rationals (an int when integral, else a ``fractions.Fraction``)
through ``valuation``, ``terms`` and ``format``.  All arithmetic is
exact; cancellation removes terms only when they are exactly zero.

This is the library's value type, and no CLI run builds one: the engine
takes a root as its own (exponent, coefficient) pairs and adds and
multiplies on an MPoly's numerators (``upoly``).  ``MPoly.format`` writes
each of its terms out through ``from_numerators`` and ``format``, and the
sum and product here serve the tests and the public API.
"""

from math import gcd, lcm

from .rationals import format_rat, ratio


def _scalar(field, den, nums):
    s = object.__new__(PuiseuxScalar)
    s.field = field
    s.den = den
    s.nums = nums
    return s


def _reduced(field, den, nums):
    """The scalar of sorted nonzero ``nums`` over ``den``, with den made least."""
    if den != 1:
        g = gcd(den, nums[0][0]) if len(nums) == 1 else gcd(den, *[n for n, _ in nums])
        if g != 1:
            den //= g
            nums = [(n // g, c) for n, c in nums]
    return _scalar(field, den, tuple(nums))


def _over(pairs, den):
    """(exponent, coefficient) pairs as (numerator over ``den``, coefficient)."""
    return [(e.numerator * (den // e.denominator), c) for e, c in pairs]


def _common(a, b):
    """The least common denominator of two scalars and both their numerators over it."""
    if a.den == b.den:
        return a.den, a.nums, b.nums
    den = lcm(a.den, b.den)
    ka, kb = den // a.den, den // b.den
    return den, [(n * ka, c) for n, c in a.nums], [(n * kb, c) for n, c in b.nums]


class PuiseuxScalar:
    __slots__ = ("field", "den", "nums")

    def __init__(self, field, terms=()):
        # terms must already be canonical: sorted, unique exponents, no zeros
        self.field = field
        self.den = lcm(*[e.denominator for e, _ in terms])
        self.nums = tuple(_over(terms, self.den))

    @classmethod
    def from_numerators(cls, field, den, nums):
        """The scalar sum(c*t^(n/den)) of a {numerator: nonzero c} dict."""
        return _reduced(field, den, sorted(nums.items()))

    @property
    def terms(self):
        """The (exponent, coefficient) pairs with rational exponents."""
        den = self.den
        if den == 1:
            return self.nums
        return tuple((ratio(n, den), c) for n, c in self.nums)

    def is_zero(self):
        return not self.nums

    def valuation(self):
        """The least exponent carrying a nonzero coefficient."""
        if not self.nums:
            raise ValueError("0 has no valuation")
        return ratio(self.nums[0][0], self.den)

    def __add__(self, other):
        field = self.field
        den, a, b = _common(self, other)
        i = j = 0
        out = []
        while i < len(a) and j < len(b):
            if a[i][0] < b[j][0]:
                out.append(a[i])
                i += 1
            elif a[i][0] > b[j][0]:
                out.append(b[j])
                j += 1
            else:
                c = field.add(a[i][1], b[j][1])
                if c != 0:
                    out.append((a[i][0], c))
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return _reduced(field, den, out)

    def __mul__(self, other):
        field = self.field
        den, a, b = _common(self, other)
        mul, add = field.mul, field.add
        acc = {}
        for n1, c1 in a:
            for n2, c2 in b:
                n = n1 + n2
                prod = mul(c1, c2)
                if n in acc:
                    acc[n] = add(acc[n], prod)
                else:
                    acc[n] = prod
        return _reduced(field, den, [(n, c) for n, c in sorted(acc.items()) if c != 0])

    def __eq__(self, other):
        return (
            isinstance(other, PuiseuxScalar)
            and other.field == self.field
            and other.den == self.den
            and other.nums == self.nums
        )

    def __hash__(self):
        return hash((self.field, self.den, self.nums))

    def format(self, mono="") -> str:
        """The scalar times the monomial ``mono`` ('' for none) in the input
        format, e.g. 'x1 + (-2)*t^(1/2)*x1': one summand per power of t, each
        a plain product of atoms, so the text reparses whatever the signs are."""
        if not self.nums:
            return "0"
        parts = []
        for e, c in self.terms:
            cs = format_rat(c)
            factors = []
            if cs != "1" or (e == 0 and not mono):
                factors.append("(%s)" % cs if cs.startswith("-") else cs)
            if e == 1:
                factors.append("t")
            elif e.denominator == 1 and e > 0:
                factors.append("t^%d" % e)
            elif e != 0:
                factors.append("t^(%s)" % format_rat(e))
            if mono:
                factors.append(mono)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return "<%s>" % self.format()
