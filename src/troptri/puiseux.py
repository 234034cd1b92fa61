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

Most products have a one-term side c*t^(n/d): they add n to the other
side's numerators, over the lcm only when the denominators differ, and
reduce by one gcd, or none over denominator 1.
"""

from math import gcd, lcm

from .errors import ZeroHasNoValuation
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
    def constant(cls, field, coeff):
        if coeff == 0:
            return _scalar(field, 1, ())
        return _scalar(field, 1, ((0, coeff),))

    @classmethod
    def t_power(cls, field, exp, coeff=None):
        if coeff is None:
            coeff = field.one
        if coeff == 0:
            return _scalar(field, 1, ())
        return _scalar(field, exp.denominator, ((exp.numerator, coeff),))

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
            raise ZeroHasNoValuation("0 has no valuation")
        return ratio(self.nums[0][0], self.den)

    def __add__(self, other):
        field = self.field
        den, a, b = (self.den, self.nums, other.nums) if self.den == other.den else _common(self, other)
        i = j = 0
        out = []
        cancelled = False
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
                else:
                    cancelled = True
                i += 1
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        if cancelled and den != 1:
            # without a cancellation the least common denominator stays least
            return _reduced(field, den, out)
        return _scalar(field, den, tuple(out))

    def __neg__(self):
        neg = self.field.neg
        return _scalar(self.field, self.den, tuple((n, neg(c)) for n, c in self.nums))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        field = self.field
        a, b = self, other
        if len(b.nums) != 1:
            a, b = b, a
        if len(b.nums) == 1:
            # one term shifts the other's exponents in order, and a field
            # has no zero divisors, so nothing merges or cancels
            ((n2, c2),) = b.nums
            mul = field.mul
            if a.den == b.den:
                den = a.den
                nums = [(n1 + n2, mul(c1, c2)) for n1, c1 in a.nums]
            else:
                den = lcm(a.den, b.den)
                ka, n2 = den // a.den, n2 * (den // b.den)
                nums = [(n1 * ka + n2, mul(c1, c2)) for n1, c1 in a.nums]
            return _reduced(field, den, nums)
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

    def format(self) -> str:
        if not self.nums:
            return "0"
        parts = []
        for e, c in self.terms:
            cs = format_rat(c)
            if e == 0:
                parts.append(cs)
            else:
                ts = "t" if e == 1 else "t^(%s)" % format_rat(e)
                if cs == "1":
                    parts.append(ts)
                elif cs == "-1":
                    parts.append("-%s" % ts)
                else:
                    parts.append("%s*%s" % (cs, ts))
        text = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                text += " - %s" % part[1:]
            else:
                text += " + %s" % part
        return text

    def __repr__(self):
        return "<%s>" % self.format()
