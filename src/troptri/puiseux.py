"""Finite Puiseux series: exact finite sums of rational powers of t.

A scalar is a sum c_1*t^(w_1) + ... + c_k*t^(w_k) with strictly
increasing rational exponents (negative exponents allowed) and nonzero
residue-field coefficients.  An exponent is an ``int`` when integral,
else a ``fractions.Fraction``; the two compare and hash alike, so only
the cost of the arithmetic differs.  All arithmetic is exact;
cancellation removes terms only when they are exactly zero.
"""

from .errors import ZeroHasNoValuation
from .rationals import format_rat, int_if_integral


class PuiseuxScalar:
    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        # terms must already be canonical: sorted, unique exponents, no zeros
        self.field = field
        self.terms = tuple(terms)

    @classmethod
    def from_terms(cls, field, pairs):
        """Canonicalize arbitrary (exponent, coefficient) pairs."""
        acc = {}
        for exp, coeff in pairs:
            exp = int_if_integral(exp)
            if exp in acc:
                acc[exp] = field.add(acc[exp], coeff)
            else:
                acc[exp] = coeff
        terms = [(e, c) for e, c in sorted(acc.items()) if c != 0]
        return cls(field, terms)

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def constant(cls, field, coeff):
        if coeff == 0:
            return cls(field, ())
        return cls(field, ((0, coeff),))

    @classmethod
    def t_power(cls, field, exp, coeff=None):
        if coeff is None:
            coeff = field.one
        if coeff == 0:
            return cls(field, ())
        return cls(field, ((int_if_integral(exp), coeff),))

    def is_zero(self):
        return not self.terms

    def valuation(self):
        """The least exponent carrying a nonzero coefficient."""
        if not self.terms:
            raise ZeroHasNoValuation("0 has no valuation")
        return self.terms[0][0]

    def initial(self):
        """The coefficient of the least exponent."""
        if not self.terms:
            raise ZeroHasNoValuation("0 has no initial coefficient")
        return self.terms[0][1]

    def __add__(self, other):
        field = self.field
        i = j = 0
        a, b = self.terms, other.terms
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
        return PuiseuxScalar(field, out)

    def __neg__(self):
        field = self.field
        return PuiseuxScalar(field, tuple((e, field.neg(c)) for e, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        field = self.field
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = int_if_integral(e1 + e2)
                prod = field.mul(c1, c2)
                if e in acc:
                    acc[e] = field.add(acc[e], prod)
                else:
                    acc[e] = prod
        terms = [(e, c) for e, c in sorted(acc.items()) if c != 0]
        return PuiseuxScalar(field, terms)

    def __eq__(self, other):
        return (
            isinstance(other, PuiseuxScalar)
            and other.field == self.field
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, self.terms))

    def format(self) -> str:
        if not self.terms:
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
