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
each of its terms out through ``from_numerators`` and ``format``.  The sum
and product serve the tests and the public API, so they are written
plainly: each collects its terms in one dict over the least common
denominator of its operands, and ``from_numerators`` makes that least.
"""

from math import gcd, lcm

from .rationals import format_rat, ratio


def _collect(field, den, pairs):
    """The scalar sum(c*t^(n/den)) of (n, c) pairs, like powers added up."""
    add = field.add
    acc = {}
    for n, c in pairs:
        acc[n] = add(acc[n], c) if n in acc else c
    return PuiseuxScalar.from_numerators(field, den, {n: c for n, c in acc.items() if c != 0})


class PuiseuxScalar:
    __slots__ = ("field", "den", "nums")

    def __init__(self, field, terms=()):
        # terms must already be canonical: sorted, unique exponents, no zeros
        self.field = field
        self.den = den = lcm(*[e.denominator for e, _ in terms])
        self.nums = tuple((e.numerator * (den // e.denominator), c) for e, c in terms)

    @classmethod
    def from_numerators(cls, field, den, nums):
        """The scalar sum(c*t^(n/den)) of a {numerator: nonzero c} dict, made through __init__."""
        g = gcd(den, *nums)
        s = cls(field)
        s.den = den // g
        s.nums = tuple((n // g, c) for n, c in sorted(nums.items()))
        return s

    @property
    def terms(self):
        """The (exponent, coefficient) pairs with rational exponents."""
        return tuple((ratio(n, self.den), c) for n, c in self.nums)

    def is_zero(self):
        return not self.nums

    def valuation(self):
        """The least exponent carrying a nonzero coefficient."""
        if not self.nums:
            raise ValueError("0 has no valuation")
        return ratio(self.nums[0][0], self.den)

    def __add__(self, other):
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        pairs = [(n * ka, c) for n, c in self.nums] + [(n * kb, c) for n, c in other.nums]
        return _collect(self.field, den, pairs)

    def __mul__(self, other):
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        mul = self.field.mul
        pairs = [(n1 * ka + n2 * kb, mul(c1, c2)) for n1, c1 in self.nums for n2, c2 in other.nums]
        return _collect(self.field, den, pairs)

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
