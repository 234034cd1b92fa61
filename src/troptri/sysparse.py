"""Text format for triangular systems.

    # comments start with '#'
    ring x1 x2 x3 [q | fp:<p>]
    poly t*x1^2 + x1 + 1
    poly t*x1*x2^2 + x1*x2 + 1
    poly x1*x2*x3 + 1

Expressions use +, -, *, ^ and parentheses over integer or rational
constants, the coordinates x1..xn, and t.  Fractional or negative
exponents are allowed on t only and are written t^(p/q) or t^-1.
Identifiers starting with 'u' are reserved for the engine's tail
variables and rejected.  The i-th poly line may use x1..xi only and must
use xi.  A power whose expansion would pass MAX_POWER_SIZE is rejected
before it is computed, and so are parentheses nested deeper than
MAX_NESTING.
"""

import re
from fractions import Fraction
from math import comb

from .errors import NonTriangularError, ParseError, ReservedIdentifierError
from .puiseux import PuiseuxScalar
from .rationals import format_rat, ratio
from .residue import PrimeField, RationalField
from .roottree import TriangularSystem
from .upoly import MPoly, format_monomial

# Largest power the parser expands.  The size of base^e is its term bound
# C(e + k - 1, k - 1) for a base of k >= 2 terms (one term: an x-monomial
# times one power of t), and e itself for a single term or a constant, since
# the degree is what later work grows with.  At the limit one power takes
# at most about 1.4 s to expand ((7/3*x1 + 5/11)^255, 256 terms, on a 2.1 GHz
# Xeon); (x1 + 1)^200000 would run for hours.
MAX_POWER_SIZE = 256

# Deepest parenthesis nesting the parser accepts.  Each level costs four
# frames of the recursive descent, so this stays far below Python's
# default recursion limit of 1000.
MAX_NESTING = 100

# the last group catches any other character, so one pass finds every token
_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^/])|(\S))")


class _Tokenizer:
    """The tokens of one expression; ``offset`` is the line's column before it."""

    def __init__(self, text, line_no, offset):
        self.line_no = line_no
        self.end_col = offset + len(text) + 1
        self.tokens = []
        for m in _TOKEN.finditer(text):
            col = m.start(m.lastindex) + offset + 1
            if m.lastindex == 4:
                raise ParseError("unexpected character %r" % m.group(4), line_no, col)
            self.tokens.append((m.group(m.lastindex), col))
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def next(self):
        if self.index >= len(self.tokens):
            raise ParseError("unexpected end of expression", self.line_no, self.end_col)
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, want):
        tok, col = self.next()
        if tok != want:
            raise ParseError("expected %r, found %r" % (want, tok), self.line_no, col)


class _ExprParser:
    """Recursive descent over one poly line; yields an MPoly.

    Numbers and powers of t stay PuiseuxScalars, combined by scalar
    arithmetic, until they meet a polynomial: a product takes them in by
    ``mul_scalar``, and a sum, a power or the result lifts them to a constant.
    """

    def __init__(self, tokens, field, nvars):
        self.toks = tokens
        self.field = field
        self.nvars = nvars
        self.nesting = 0

    def parse(self) -> MPoly:
        value = self.lift(self.expression())
        if self.toks.peek() is not None:
            tok, col = self.toks.next()
            raise ParseError("unexpected %r after expression" % tok, self.toks.line_no, col)
        return value

    def lift(self, value) -> MPoly:
        if isinstance(value, PuiseuxScalar):
            return MPoly.constant(self.field, self.nvars, value)
        return value

    def expression(self):
        negate = False
        if self.toks.peek() == "-":
            self.toks.next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while self.toks.peek() in ("+", "-"):
            op, _ = self.toks.next()
            rhs = self.term()
            if type(value) is not type(rhs):
                value, rhs = self.lift(value), self.lift(rhs)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.toks.peek() == "*":
            self.toks.next()
            rhs = self.factor()
            if type(value) is type(rhs):
                value = value * rhs
            elif isinstance(value, MPoly):
                value = value.mul_scalar(rhs)
            else:
                value = rhs.mul_scalar(value)
        return value

    def factor(self):
        base, base_kind = self.atom()
        if self.toks.peek() != "^":
            return PuiseuxScalar.t_power(self.field, 1) if base_kind == "t" else base
        _, col = self.toks.next()
        if base_kind == "t":
            return PuiseuxScalar.t_power(self.field, self.signed_rational_exponent())
        exp = self.natural_exponent()
        base = self.lift(base)
        k = sum(len(s.nums) for s in base.terms.values())
        if exp > MAX_POWER_SIZE or (k >= 2 and comb(exp + k - 1, k - 1) > MAX_POWER_SIZE):
            raise ParseError(
                "power too large: exponent %s on a %d-term base exceeds the size limit %d"
                % (exp, k, MAX_POWER_SIZE),
                self.toks.line_no,
                col,
            )
        return base**exp

    def atom(self):
        tok, col = self.toks.next()
        if tok == "(":
            if self.nesting == MAX_NESTING:
                raise ParseError(
                    "parentheses nested deeper than %d" % MAX_NESTING, self.toks.line_no, col
                )
            self.nesting += 1
            value = self.expression()
            self.toks.expect(")")
            self.nesting -= 1
            return value, "expr"
        if tok.isdigit():
            value = self.rational_constant(self.integer(tok, col), col)
            return PuiseuxScalar.constant(self.field, value), "num"
        if tok == "t":
            return None, "t"  # factor builds the power of t once it has the exponent
        if tok.startswith("u"):
            raise ReservedIdentifierError(
                "%r is reserved for internal tail variables" % tok, self.toks.line_no, col
            )
        m = re.fullmatch(r"x(\d+)", tok)
        if m:
            idx = self.integer(m.group(1), col)
            if not 1 <= idx <= self.nvars:
                raise ParseError("unknown variable %r" % tok, self.toks.line_no, col)
            return MPoly.variable(self.field, self.nvars, idx - 1), "var"
        raise ParseError("unexpected %r" % tok, self.toks.line_no, col)

    def rational_constant(self, numerator, col):
        """The field element of numerator[/denominator]; ``col`` is where it starts."""
        if self.toks.peek() == "/":
            self.toks.next()
            value = Fraction(numerator, self.nonzero_denominator())
        else:
            value = Fraction(numerator)
        if value.denominator == 1:
            return self.field.from_int(value.numerator)
        den = self.field.from_int(value.denominator)
        if den == 0:
            message = "the denominator %d is 0 in %s" % (value.denominator, self.field.name)
            raise ParseError(message, self.toks.line_no, col)
        return self.field.div(self.field.from_int(value.numerator), den)

    def integer(self, digits, col) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise ParseError("the number has too many digits", self.toks.line_no, col) from None

    def nonzero_denominator(self) -> int:
        tok, col = self.toks.next()
        den = self.integer(tok, col) if tok.isdigit() else 0
        if den == 0:
            raise ParseError("expected a nonzero denominator", self.toks.line_no, col)
        return den

    def natural_exponent(self) -> int:
        tok, col = self.toks.next()
        if not tok.isdigit():
            raise ParseError(
                "fractional or negative exponents are only allowed on t", self.toks.line_no, col
            )
        return self.integer(tok, col)

    def signed_rational_exponent(self):
        """The exponent of t in stored form: an int when integral, else a Fraction."""
        tok, col = self.toks.next()
        if tok.isdigit():
            return self.integer(tok, col)
        if tok == "-":
            tok, col = self.toks.next()
            if not tok.isdigit():
                raise ParseError("expected an integer exponent", self.toks.line_no, col)
            return -self.integer(tok, col)
        if tok == "(":
            sign = 1
            tok, col = self.toks.next()
            if tok == "-":
                sign = -1
                tok, col = self.toks.next()
            if not tok.isdigit():
                raise ParseError("expected an integer numerator", self.toks.line_no, col)
            num = self.integer(tok, col)
            den = 1
            if self.toks.peek() == "/":
                self.toks.next()
                den = self.nonzero_denominator()
            self.toks.expect(")")
            return ratio(sign * num, den)
        raise ParseError("expected an exponent", self.toks.line_no, col)


def parse_system(text: str) -> TriangularSystem:
    """Parse a system file into a validated TriangularSystem."""
    header = None
    header_line = None
    poly_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            if not line.startswith("ring"):
                raise ParseError("the file must start with a ring header", line_no, 1)
            header = line
            header_line = line_no
            continue
        if not line.startswith("poly"):
            raise ParseError("expected a poly line", line_no, 1)
        offset = len(raw) - len(raw.lstrip()) + len("poly")
        poly_lines.append((line_no, offset, line[len("poly"):]))
    if header is None:
        raise ParseError("empty input: no ring header found", 1, 1)

    field, nvars = _parse_header(header, header_line)
    if len(poly_lines) != nvars:
        raise NonTriangularError(
            "expected %d poly lines for %d coordinates, found %d"
            % (nvars, nvars, len(poly_lines))
        )

    polys = []
    for line_no, offset, expr in poly_lines:
        polys.append(_ExprParser(_Tokenizer(expr, line_no, offset), field, nvars).parse())
    return TriangularSystem(polys)


def _parse_header(header, line_no):
    parts = header.split()
    assert parts[0] == "ring"
    names = parts[1:]
    field = RationalField()
    if names and (names[-1] == "q" or names[-1].startswith("fp:")):
        spec = names.pop()
        if spec.startswith("fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                raise ParseError("bad prime in %r" % spec, line_no, 1) from None
            try:
                field = PrimeField(p)
            except ValueError as exc:
                raise ParseError(str(exc), line_no, 1) from None
    if not names:
        raise ParseError("the ring header declares no variables", line_no, 1)
    for i, name in enumerate(names):
        if name.startswith("u"):
            raise ReservedIdentifierError(
                "%r is reserved for internal tail variables" % name, line_no, 1
            )
        if name != "x%d" % (i + 1):
            raise ParseError(
                "variables must be named x1..xn in order; found %r" % name, line_no, 1
            )
    return field, len(names)


def format_system(system: TriangularSystem) -> str:
    """Render a system in the input format.

    Reparsing gives an equal system when no x-degree passes MAX_POWER_SIZE.
    """
    field = system.field
    if isinstance(field, PrimeField):
        header = "ring %s fp:%d" % (" ".join("x%d" % (i + 1) for i in range(system.n)), field.p)
    else:
        header = "ring %s" % " ".join("x%d" % (i + 1) for i in range(system.n))
    lines = [header]
    for f in system.polys:
        lines.append("poly %s" % _format_mpoly(f))
    return "\n".join(lines) + "\n"


def _format_mpoly(f: MPoly) -> str:
    # one summand per (x-monomial, t-power) pair; every summand is a plain
    # product of atoms, so the result reparses whatever the signs are
    parts = []
    for deg in sorted(f.terms, reverse=True):
        mono = format_monomial("x", deg)
        for e, c in f.terms[deg].terms:
            factors = []
            cs = format_rat(c)
            if cs.startswith("-"):
                cs = "(%s)" % cs
            if e != 0:
                if e == 1:
                    ts = "t"
                elif e.denominator == 1 and e > 0:
                    ts = "t^%d" % e.numerator
                else:
                    ts = "t^(%s)" % format_rat(e)
                if cs != "1":
                    factors.append(cs)
                factors.append(ts)
            else:
                if cs != "1" or not mono:
                    factors.append(cs)
            if mono:
                factors.append(mono)
            parts.append("*".join(factors))
    return " + ".join(parts) if parts else "0"
