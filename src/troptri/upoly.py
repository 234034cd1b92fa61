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
"""

from __future__ import annotations

import operator
from functools import cache
from math import gcd, lcm

from .errors import ZeroHasNoValuation, ZeroSubstitutionError
from .puiseux import PuiseuxScalar
from .rationals import format_rat
from .residue import ResiduePoly


@cache
def _zero_deg(nvars):
    """The all-zero exponent tuple, one shared object per length."""
    return (0,) * nvars


class MPoly:
    """Sparse polynomial over K: map exponent tuple -> nonzero scalar.

    The same type serves the input polynomials in x_1..x_n and the
    K[u_1..u_n] coefficients of a UPoly; only ``format`` names the letter.
    ``terms`` is never changed once built, so ``val_pair`` and ``initial_term``,
    read many times over, are found in one pass on first use and kept (a kept
    ``initial_terms`` dict would cost 224 bytes per polynomial).
    """

    __slots__ = ("field", "nvars", "terms", "_val", "_lead")

    def __init__(self, field, nvars, terms=None):
        # terms must already be canonical (no zero scalars)
        self.field = field
        self.nvars = nvars
        self.terms = dict(terms) if terms else {}
        self._val = None  # set with _lead by _keep_initial_part

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars, {})

    @classmethod
    def constant(cls, field, nvars, scalar):
        if scalar.is_zero():
            return cls(field, nvars, {})
        return cls(field, nvars, {_zero_deg(nvars): scalar})

    @classmethod
    def variable(cls, field, nvars, index, scalar=None):
        """scalar * (variable ``index``); the scalar defaults to 1."""
        if scalar is None:
            scalar = PuiseuxScalar.constant(field, field.one)
        if scalar.is_zero():
            return cls(field, nvars, {})
        deg = [0] * nvars
        deg[index] = 1
        return cls(field, nvars, {tuple(deg): scalar})

    def is_zero(self):
        return not self.terms

    def variables(self):
        out = set()
        for deg in self.terms:
            for i, e in enumerate(deg):
                if e:
                    out.add(i)
        return out

    def __add__(self, other):
        out = dict(self.terms)
        for deg, scalar in other.terms.items():
            if deg in out:
                s = out[deg] + scalar
                if s.is_zero():
                    del out[deg]
                else:
                    out[deg] = s
            else:
                out[deg] = scalar
        return MPoly(self.field, self.nvars, out)

    def __neg__(self):
        return MPoly(self.field, self.nvars, {d: -s for d, s in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for d1, s1 in self.terms.items():
            for d2, s2 in other.terms.items():
                deg = tuple(map(operator.add, d1, d2))
                prod = s1 * s2
                if deg in out:
                    out[deg] = out[deg] + prod
                else:
                    out[deg] = prod
        return MPoly(self.field, self.nvars, {d: s for d, s in out.items() if not s.is_zero()})

    def __pow__(self, n):
        result = MPoly.constant(self.field, self.nvars, PuiseuxScalar.constant(self.field, self.field.one))
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def mul_scalar(self, scalar):
        if scalar.is_zero():
            return MPoly.zero(self.field, self.nvars)
        return MPoly(self.field, self.nvars, {d: s * scalar for d, s in self.terms.items()})

    def _keep_initial_part(self):
        """(val_pair, initial_term), computed in one pass; both are kept."""
        if not self.terms:
            raise ZeroHasNoValuation("0 has no valuation")
        n = d = None
        for deg, s in self.terms.items():
            (sn, c), sd = s.nums[0], s.den
            if d is None or sn * d < n * sd:
                n, d, lead = sn, sd, (deg, c)
            elif sn * d == n * sd:
                lead = None
        g = gcd(n, d)
        self._val, self._lead = part = (n // g, d // g), lead
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
        return {deg: s.nums[0][1] for deg, s in self.terms.items() if s.nums[0][0] * d == n * s.den}

    def substitute(self, index, a, s):
        """Put a + s*u_index in for x_index (a, s scalars, each None when it is 0).

        Variable ``index`` is x_index before and u_index after, so a root's
        known terms recenter the polynomial and its tail rescales it.  A
        polynomial that does not use x_index comes back as the same object.
        """
        if not any(deg[index] for deg in self.terms):
            return self
        if a is None and s is not None:
            # a bare tail: every monomial stays, x_index^k gains the factor s^k
            powers = _powers(s, max(deg[index] for deg in self.terms))
            return MPoly(self.field, self.nvars, {
                d: c * powers[d[index]] if d[index] else c for d, c in self.terms.items()
            })
        coeffs = UPoly.from_mpoly(self, index).coeffs
        if a is not None:
            coeffs = _taylor_shift(coeffs, a)
        if s is None:
            return coeffs.get(0, MPoly.zero(self.field, self.nvars))
        powers = _powers(s, max(coeffs))
        return MPoly(self.field, self.nvars, {
            d[:index] + (j,) + d[index + 1:]: scalar * powers[j] if j else scalar
            for j, c in coeffs.items() for d, scalar in c.terms.items()
        })

    def __eq__(self, other):
        return (
            isinstance(other, MPoly)
            and other.field == self.field
            and other.nvars == self.nvars
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def format(self, letter="x") -> str:
        """Render with variables named letter1..lettern, e.g. 'x1^2 + (1 + t)*x1'."""
        return _format_sum(letter, {d: s.format() for d, s in self.terms.items()})

    def __repr__(self):
        return "<%s>" % self.format()


def format_monomial(letter, deg) -> str:
    """Render an exponent tuple as e.g. 'x1^2*x3'; '' for the constant monomial."""
    return "*".join(
        "%s%d" % (letter, i + 1) if e == 1 else "%s%d^%d" % (letter, i + 1, e)
        for i, e in enumerate(deg)
        if e
    )


def _format_sum(letter, coeffs) -> str:
    """Render a dict exponent tuple -> coefficient text, highest monomial first."""
    parts = []
    for deg in sorted(coeffs, reverse=True):
        mono = format_monomial(letter, deg)
        cs = coeffs[deg]
        if not mono:
            parts.append(cs)
        elif cs == "1":
            parts.append(mono)
        elif cs == "-1":
            parts.append("-%s" % mono)
        else:
            parts.append("%s*%s" % ("(%s)" % cs if " " in cs else cs, mono))
    return " + ".join(parts) or "0"


class UPoly:
    """Univariate polynomial in coordinate ``var`` over MPoly coefficients in u;
    never changed once built, so ``newton_polygon`` keeps its polygon here, and
    compared by identity, which is how the root tree's store keys it."""

    __slots__ = ("field", "nvars", "var", "coeffs", "polygon")

    def __init__(self, field, nvars, var, coeffs=None):
        self.field = field
        self.nvars = nvars
        self.var = var
        self.coeffs = dict(coeffs) if coeffs else {}
        self.polygon = None

    @classmethod
    def from_mpoly(cls, f: MPoly, var):
        """f as a polynomial in variable ``var`` over its other variables."""
        coeffs = {}
        for deg, scalar in f.terms.items():
            j = deg[var]
            if j:
                deg = _zero_deg(f.nvars) if sum(deg) == j else deg[:var] + (0,) + deg[var + 1:]
            coeffs.setdefault(j, {})[deg] = scalar
        return cls(f.field, f.nvars, var, {
            j: MPoly(f.field, f.nvars, terms) for j, terms in coeffs.items()
        })

    def is_zero(self):
        return not self.coeffs

    def shift_substitute(self, prefix: PuiseuxScalar) -> UPoly:
        """Evaluate at prefix + x, i.e. recenter the polynomial at ``prefix``.

        Exact; the degree is preserved.
        """
        if prefix.is_zero() or not self.coeffs:
            return UPoly(self.field, self.nvars, self.var, self.coeffs)
        return UPoly(self.field, self.nvars, self.var, _taylor_shift(self.coeffs, prefix))

    def format(self) -> str:
        return _format_sum("x", {
            tuple(j if i == self.var else 0 for i in range(self.nvars)): c.format("u")
            for j, c in self.coeffs.items()
        })

    def __repr__(self):
        return "<%s>" % self.format()


def _taylor_shift(coeffs, prefix):
    """The nonzero coefficients of f(x + prefix), f = sum coeffs[j]*x^j != 0, by
    repeated synthetic division: pass i leaves the coefficient of x^i in a[i].

    a holds copies of the coefficients' term dicts, never the inputs, which
    other polynomials share; each step adds prefix times a[j + 1] into a[j]
    in place, deleting a term that cancels to zero, and the MPolys are built
    once at the end."""
    d = max(coeffs)
    field, nvars = coeffs[d].field, coeffs[d].nvars
    a = [dict(coeffs[j].terms) if j in coeffs else {} for j in range(d + 1)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            dst = a[j]
            for deg, scalar in a[j + 1].items():
                scalar = scalar * prefix
                if deg in dst:
                    scalar = dst[deg] + scalar
                    if scalar.is_zero():
                        del dst[deg]
                        continue
                dst[deg] = scalar
    return {j: MPoly(field, nvars, terms) for j, terms in enumerate(a) if terms}


def _powers(s, k):
    """[None, s, s^2, ..., s^k]; no caller reads s^0."""
    powers = [None, s]
    for _ in range(k - 1):
        powers.append(powers[-1] * s)
    return powers


def compose(f: MPoly, target: int) -> UPoly:
    """f, with roots already put in for the coordinates before ``target``,
    as a polynomial in coordinate ``target`` over K[u].

    Raises ZeroSubstitutionError when everything cancelled, which flags a
    degenerate input system.
    """
    if any(any(deg[target + 1:]) for deg in f.terms):
        beyond = min(i for i in f.variables() if i > target)
        raise ValueError("polynomial uses x%d beyond the kept coordinate x%d" % (beyond + 1, target + 1))
    if f.is_zero():
        raise ZeroSubstitutionError("substitution produced the zero polynomial")
    return UPoly.from_mpoly(f, target)


def initial_form(f: UPoly, w):
    """The residue polynomial of the terms of f minimizing w*j + val(coefficient).

    None when a tail variable survives in those terms: then the dominant
    equation has no residue roots to offer.
    """
    if f.is_zero():
        raise ZeroHasNoValuation("the zero polynomial has no initial form")
    # w*j + val(c) times wd*m, m the lcm of the valuations' denominators: an int
    wn, wd = w.numerator, w.denominator
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
            return None
        coeffs[j] = term[1]
    return ResiduePoly(f.field, coeffs)


def format_residue_terms(terms) -> str:
    """Render a dict u-degree -> residue element, e.g. '-u1 + 1'."""
    return _format_sum("u", {d: format_rat(c) for d, c in terms.items()})
