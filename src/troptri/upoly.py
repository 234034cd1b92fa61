"""Polynomials whose coefficients carry symbolic valuation-zero tails.

Root approximations leave their unwritten low-order tails symbolic: tail
variable u_i stands for an unknown series of valuation zero belonging to
coordinate i.  Coefficients therefore live in K[u_1..u_n] where K is the
field of finite Puiseux series, and the valuation extends to them as the
minimum over the Puiseux values.  Keeping the tails symbolic is what
makes truncation exact: a coefficient is deleted only when it is exactly
zero, never because it merely looks small.

Two layers:

* ``MPoly`` -- a sparse polynomial over K in n variables.  It holds the
               input polynomials in x_1..x_n, and the coefficients in
               K[u_1..u_n] once roots have been substituted.
* ``UPoly`` -- a univariate polynomial in one coordinate x_i whose
               coefficients are MPolys in the tail variables u.

An MPoly keeps its coefficients as integer t-numerators over one
denominator, the form the parser builds.  A root goes in as its own terms,
(exponent, coefficient) pairs and a tail exponent; substitution,
recentering and the valuations work on those ints, and a
``PuiseuxScalar`` is only written out (``MPoly.format``), never put in.
"""

from __future__ import annotations

from functools import cache
from math import gcd, lcm

from .errors import TropError
from .puiseux import PuiseuxScalar
from .rationals import format_rat, ratio
from .residue import ResiduePoly


@cache
def _zero_deg(nvars):
    """The all-zero exponent tuple, one shared object per length."""
    return (0,) * nvars


class MPoly:
    """Sparse polynomial over K: one t-exponent denominator ``den`` and
    ``terms``, a map exponent tuple -> {t-numerator: nonzero coefficient};
    the term (deg, {n: c}) is c*t^(n/den) times the monomial deg.

    ``den`` is a common denominator, not necessarily the least: ``val_pair``
    reduces, and ``__eq__`` and ``__hash__`` compare exponents as rationals.
    The same type serves the input polynomials in x_1..x_n and the
    K[u_1..u_n] coefficients of a UPoly; ``format`` writes it in x_1..x_n
    unless told the letter u.
    ``terms`` and its dicts are never changed once built, so polynomials
    share them, and ``val_pair`` and ``initial_term``, read many times over,
    are found in one pass on first use and kept (a kept ``initial_terms``
    dict would cost 224 bytes per polynomial)."""

    __slots__ = ("field", "nvars", "den", "terms", "_val", "_lead")

    def __init__(self, field, nvars, den=1, terms=None):
        # terms is taken over, not copied; no dict in it is empty or holds a zero
        self.field = field
        self.nvars = nvars
        self.den = den
        self.terms = {} if terms is None else terms
        self._val = None  # set with _lead by _keep_initial_part

    def is_zero(self):
        return not self.terms

    def variables(self):
        out = set()
        for deg in self.terms:
            for i, e in enumerate(deg):
                if e:
                    out.add(i)
        return out

    def _keep_initial_part(self):
        """(val_pair, initial_term), computed in one pass; both are kept."""
        if not self.terms:
            raise ValueError("0 has no valuation")
        n = None
        for deg, s in self.terms.items():
            m = min(s)
            if n is None or m < n:
                n, lead = m, (deg, s[m])
            elif m == n:
                lead = None
        g = gcd(n, self.den)
        self._val, self._lead = part = (n // g, self.den // g), lead
        return part

    def val_pair(self):
        """Minimum valuation over all Puiseux coefficients, as (numerator,
        denominator) in lowest terms with a positive denominator."""
        return self._val or self._keep_initial_part()[0]

    def initial_term(self):
        """The one residue term attaining the minimum valuation, as (u-exponent
        tuple, residue element), or None when several do.  Raises on zero."""
        return self._lead if self._val else self._keep_initial_part()[1]

    def initial_terms(self):
        """The residue terms attaining the minimum valuation.

        Returns a dict u-exponent tuple -> residue element: the image of
        this coefficient in the residue field with the tails kept
        symbolic.  Raises on zero.
        """
        n, d = self.val_pair()
        n *= self.den // d
        return {deg: s[n] for deg, s in self.terms.items() if n in s}

    def substitute(self, index, known, tail):
        """Put a root in for x_index: ``known`` the (exponent, coefficient) pairs
        of its known part, possibly empty, and ``tail`` the exponent e of its
        tail t^e*u_index, or None when the root is exact.

        Variable ``index`` is x_index before and u_index after, so a root's
        known terms recenter the polynomial and its tail rescales it.  A
        polynomial that does not use x_index comes back as the same object.
        So does zero, which exact roots can cancel a polynomial to before a
        branch's last root goes in: the paths below take no zero polynomial,
        and ``compose`` reports it as a TropError.
        """
        if not any(deg[index] for deg in self.terms):
            return self
        if not known:
            # a bare tail: every monomial stays, x_index^k gains t^(k*e)
            return self._rescaled(self.den, self.terms.items(), index, tail)
        coeffs = _taylor_shift(UPoly.from_mpoly(self, index).coeffs, known)
        if tail is None:
            return coeffs.get(0, MPoly(self.field, self.nvars))
        return self._rescaled(coeffs[max(coeffs)].den, (
            (d[:index] + (j,) + d[index + 1:], terms) for j, c in coeffs.items() for d, terms in c.terms.items()
        ), index, tail)

    def _rescaled(self, den, pairs, index, e):
        """The MPoly of the (exponent tuple, numerator dict) pairs over ``den``,
        with t^(k*e) put on x_index^k: k*e joins the numerators."""
        new = lcm(den, e.denominator)
        q, m = new // den, e.numerator * (new // e.denominator)
        return MPoly(self.field, self.nvars, new, {
            d: terms if q == 1 and not d[index] else {n * q + d[index] * m: c for n, c in terms.items()}
            for d, terms in pairs
        })

    def _key(self):
        """What equality compares: the terms with rational exponents."""
        den = self.den
        return self.field, self.nvars, frozenset(
            (d, frozenset((ratio(n, den), c) for n, c in terms.items())) for d, terms in self.terms.items()
        )

    def __eq__(self, other):
        return isinstance(other, MPoly) and other._key() == self._key()

    def __hash__(self):
        return hash(self._key())

    def format(self, letter="x") -> str:
        """Render in the input format, highest monomial first, e.g. 'x1^2 + t*x1'."""
        field, den = self.field, self.den
        return " + ".join(
            PuiseuxScalar.from_numerators(field, den, self.terms[deg]).format(format_monomial(letter, deg))
            for deg in sorted(self.terms, reverse=True)
        ) or "0"

    def __repr__(self):
        return "<%s>" % self.format()


def format_monomial(letter, deg) -> str:
    """Render an exponent tuple as e.g. 'x1^2*x3'; '' for the constant monomial."""
    return "*".join(
        "%s%d" % (letter, i + 1) if e == 1 else "%s%d^%d" % (letter, i + 1, e)
        for i, e in enumerate(deg)
        if e
    )


class UPoly:
    """Univariate polynomial in coordinate ``var`` over MPoly coefficients in u, taking its
    ``coeffs`` dict over; never changed once built, so ``newton_polygon`` and ``initial_form``
    keep their results here, and compared by identity, as the root tree's store keys it."""

    __slots__ = ("field", "nvars", "var", "coeffs", "polygon", "initial")

    def __init__(self, field, nvars, var, coeffs=None):
        self.field = field
        self.nvars = nvars
        self.var = var
        self.coeffs = {} if coeffs is None else coeffs
        self.polygon = self.initial = None

    @classmethod
    def from_mpoly(cls, f: MPoly, var):
        """f as a polynomial in variable ``var`` over its other variables; the
        coefficients share f's numerator dicts."""
        coeffs = {}
        for deg, terms in f.terms.items():
            j = deg[var]
            if j:
                deg = _zero_deg(f.nvars) if sum(deg) == j else deg[:var] + (0,) + deg[var + 1:]
            coeffs.setdefault(j, {})[deg] = terms
        return cls(f.field, f.nvars, var, {
            j: MPoly(f.field, f.nvars, f.den, terms) for j, terms in coeffs.items()
        })

    def is_zero(self):
        return not self.coeffs

    def shift_substitute(self, known) -> UPoly:
        """Evaluate at a + x, a the sum of c*t^e over the (exponent, coefficient)
        pairs ``known``: recenter the polynomial at a.  Exact; the degree is
        preserved, and with no pairs the polynomial comes back as it is.
        """
        if not known or not self.coeffs:
            return self
        return UPoly(self.field, self.nvars, self.var, _taylor_shift(self.coeffs, known))

    def __repr__(self):
        coeffs = ", ".join("%d: <%s>" % (j, c.format("u")) for j, c in self.coeffs.items())
        return "<UPoly in x%d: {%s}>" % (self.var + 1, coeffs)


def _taylor_shift(coeffs, known):
    """The nonzero coefficients of f(x + p), f = sum coeffs[j]*x^j != 0 and p
    the sum of c*t^e over the (exponent, coefficient) pairs ``known``, by
    repeated synthetic division: pass i leaves the coefficient of x^i in a[i].

    Everything runs on numerators over one common denominator, the lcm of
    the exponents' and the coefficients' denominators.  a holds copies of
    the numerator dicts it writes to, never the inputs, which other
    polynomials share; each step adds p times a[j + 1] into a[j] in place,
    deleting a term that cancels to zero, and the MPolys are built once at
    the end."""
    d = max(coeffs)
    field, nvars = coeffs[d].field, coeffs[d].nvars
    den = lcm(*[e.denominator for e, _ in known], *[c.den for c in coeffs.values()])
    shift = [(e.numerator * (den // e.denominator), c) for e, c in known]
    a = [{} for _ in range(d + 1)]
    for j, c in coeffs.items():
        k = den // c.den
        a[j] = {deg: dict(terms) if k == 1 else {n * k: x for n, x in terms.items()} for deg, terms in c.terms.items()}
    add, mul = field.add, field.mul
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            dst = a[j]
            for deg, terms in a[j + 1].items():
                acc = dst.get(deg)
                if acc is None:
                    acc = dst[deg] = {}
                for m, pc in shift:
                    for n, c in terms.items():
                        n += m
                        c = mul(c, pc)
                        if n in acc:
                            c = add(acc[n], c)
                            if not c:
                                del acc[n]
                                continue
                        acc[n] = c
                if not acc:
                    del dst[deg]
    return {j: MPoly(field, nvars, den, terms) for j, terms in enumerate(a) if terms}


def compose(f: MPoly, target: int) -> UPoly:
    """f, with roots already put in for the coordinates before ``target``,
    as a polynomial in coordinate ``target`` over K[u].

    Raises TropError when everything cancelled, which flags a degenerate
    input system.
    """
    if any(any(deg[target + 1:]) for deg in f.terms):
        beyond = min(i for i in f.variables() if i > target)
        raise ValueError("polynomial uses x%d beyond the kept coordinate x%d" % (beyond + 1, target + 1))
    if f.is_zero():
        raise TropError("substitution produced the zero polynomial")
    return UPoly.from_mpoly(f, target)


def initial_form(f: UPoly, w):
    """The residue polynomial of the terms of f minimizing w*j + val(coefficient).

    None when a tail variable survives in those terms: then the dominant
    equation has no residue roots to offer.  The last one is kept in ``f.initial``, read back
    for the same w object: the tree's trust test and the expansion after it build it once.
    """
    if f.initial is not None and f.initial[0] is w:
        return f.initial[1]
    try:
        wn, wd = w.numerator, w.denominator
    except AttributeError:
        raise ValueError("w must be an int or a Fraction, got %r" % (w,)) from None
    if f.is_zero():
        raise ValueError("the zero polynomial has no initial form")
    # w*j + val(c) times wd*m, m the lcm of the valuations' denominators: an int
    vals = {j: c.val_pair() for j, c in f.coeffs.items()}
    m = lcm(*[d for _, d in vals.values()])
    scores = {j: wn * j * m + n * wd * (m // d) for j, (n, d) in vals.items()}
    best = min(scores.values())
    top = [j for j, score in scores.items() if score == best]
    zero = _zero_deg(f.nvars)
    coeffs = [f.field.zero] * (max(top) + 1)
    for j in top:
        term = f.coeffs[j].initial_term()
        if term is None or term[0] != zero:
            coeffs = None
            break
        coeffs[j] = term[1]
    f.initial = w, coeffs and ResiduePoly(f.field, coeffs)
    return f.initial[1]


def format_residue_terms(terms) -> str:
    """Render a dict u-degree -> residue element, highest monomial first,
    e.g. '-u1 + 1'."""
    parts = []
    for deg in sorted(terms, reverse=True):
        mono = format_monomial("u", deg)
        cs = format_rat(terms[deg])
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-" + mono)
        else:
            parts.append("%s*%s" % (cs, mono))
    return " + ".join(parts) or "0"
