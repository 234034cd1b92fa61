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
from itertools import islice
from math import comb

from .errors import NonTriangularError, ParseError, ReservedIdentifierError
from .puiseux import PuiseuxScalar
from .rationals import ratio
from .residue import PrimeField, RationalField
from .roottree import TriangularSystem
from .upoly import MPoly

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

# A character that no token starts with matches as an empty token in front
# of it, so the one pass that splits a line also finds its bad characters.
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*^/]|(?=\S))")
_VARIABLE = re.compile(r"x(\d+)")
_RESERVED = "%r is reserved for internal tail variables"


class _Tokenizer:
    """The token texts of one expression, ended by a ``None`` sentinel.

    ``offset`` is the line's column before the expression.  Tokens carry no
    columns; ``column`` finds one only for an error that names its token."""

    def __init__(self, text, line_no, offset):
        self.text = text
        self.line_no = line_no
        self.offset = offset
        self.tokens = _TOKEN.findall(text) + [None]
        if "" in self.tokens:
            col = self.column(self.tokens.index(""))
            raise ParseError("unexpected character %r" % text[col - offset - 1], line_no, col)

    def column(self, index) -> int:
        """The column of token ``index``, found by splitting the text again up to it."""
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return self.offset + (len(self.text) if m is None else m.start(1)) + 1

    def error(self, index, message, kind=ParseError):
        """A ``kind`` error at token ``index``; the sentinel's column is the line's end."""
        return kind(message, self.line_no, self.column(index))


class _ExprParser:
    """Recursive descent over one poly line's token list; yields an MPoly.

    The methods read the list at ``self.at``, the index of the next token.
    Numbers and powers of t stay PuiseuxScalars, combined by scalar
    arithmetic, until they meet a polynomial: a product takes them in by
    ``mul_scalar``, and a sum, a power or the result lifts them to a constant."""

    def __init__(self, tokens, field, nvars):
        self.toks = tokens
        self.tokens = tokens.tokens
        self.at = 0
        self.field = field
        self.nvars = nvars
        self.nesting = 0
        self.unit = PuiseuxScalar.constant(field, field.one)

    def parse(self) -> MPoly:
        value = self.lift(self.expression())
        if self.tokens[self.at] is not None:
            raise self.toks.error(self.at, "unexpected %r after expression" % self.tokens[self.at])
        return value

    def take(self):
        """The next token and its index, stepped past; the sentinel is an error."""
        i = self.at
        tok = self.tokens[i]
        if tok is None:
            raise self.toks.error(i, "unexpected end of expression")
        self.at = i + 1
        return i, tok

    def close(self):
        i, tok = self.take()
        if tok != ")":
            raise self.toks.error(i, "expected ')', found %r" % tok)

    def lift(self, value) -> MPoly:
        if isinstance(value, PuiseuxScalar):
            return MPoly.constant(self.field, self.nvars, value)
        return value

    def expression(self):
        tokens = self.tokens
        if tokens[self.at] == "-":
            self.at += 1
            value = -self.term()
        else:
            value = self.term()
        op = tokens[self.at]
        while op == "+" or op == "-":
            self.at += 1
            rhs = self.term()
            if type(value) is not type(rhs):
                if op == "-" and type(rhs) is PuiseuxScalar:
                    rhs, op = -rhs, "+"
                value, rhs = self.lift(value), self.lift(rhs)
            value = value + rhs if op == "+" else value - rhs
            op = tokens[self.at]
        return value

    def term(self):
        tokens = self.tokens
        value = self.factor()
        while tokens[self.at] == "*":
            self.at += 1
            rhs = self.factor()
            if type(value) is type(rhs):
                value = value * rhs
            elif isinstance(value, MPoly):
                value = value.mul_scalar(rhs)
            else:
                value = rhs.mul_scalar(value)
        return value

    def factor(self):
        base = self.atom()
        i = self.at
        if self.tokens[i] != "^":
            return PuiseuxScalar.t_power(self.field, 1) if base is None else base
        self.at = i + 1
        if base is None:
            return PuiseuxScalar.t_power(self.field, self.signed_rational_exponent())
        j, tok = self.take()
        if not tok.isdigit():
            raise self.toks.error(j, "fractional or negative exponents are only allowed on t")
        exp = self.integer(tok, j)
        base = self.lift(base)
        k = sum(len(s.nums) for s in base.terms.values())
        if exp > MAX_POWER_SIZE or (k >= 2 and comb(exp + k - 1, k - 1) > MAX_POWER_SIZE):
            message = "power too large: exponent %s on a %d-term base exceeds the size limit %d"
            raise self.toks.error(i, message % (exp, k, MAX_POWER_SIZE))
        return base**exp

    def atom(self):
        i, tok = self.take()
        if tok == "(":
            if self.nesting == MAX_NESTING:
                raise self.toks.error(i, "parentheses nested deeper than %d" % MAX_NESTING)
            self.nesting += 1
            value = self.expression()
            self.close()
            self.nesting -= 1
            return value
        if tok.isdigit():
            value = self.rational_constant(self.integer(tok, i), i)
            return PuiseuxScalar.constant(self.field, value)
        if tok == "t":
            return None  # factor builds the power of t once it has the exponent
        if tok.startswith("u"):
            raise self.toks.error(i, _RESERVED % tok, ReservedIdentifierError)
        m = _VARIABLE.fullmatch(tok)
        if m:
            idx = self.integer(m.group(1), i)
            if not 1 <= idx <= self.nvars:
                raise self.toks.error(i, "unknown variable %r" % tok)
            return MPoly.variable(self.field, self.nvars, idx - 1, self.unit)
        raise self.toks.error(i, "unexpected %r" % tok)

    def rational_constant(self, numerator, index):
        """The field element of numerator[/denominator]; it starts at token ``index``."""
        if self.tokens[self.at] != "/":
            return self.field.from_int(numerator)
        value = Fraction(numerator, self.denominator())
        if value.denominator == 1:
            return self.field.from_int(value.numerator)
        den = self.field.from_int(value.denominator)
        if den == 0:
            message = "the denominator %d is 0 in %s" % (value.denominator, self.field.name)
            raise self.toks.error(index, message)
        return self.field.div(self.field.from_int(value.numerator), den)

    def integer(self, digits, index) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.toks.error(index, "the number has too many digits") from None

    def denominator(self) -> int:
        """The nonzero denominator after the '/' at ``self.at``."""
        self.at += 1
        i, tok = self.take()
        den = self.integer(tok, i) if tok.isdigit() else 0
        if den == 0:
            raise self.toks.error(i, "expected a nonzero denominator")
        return den

    def signed_rational_exponent(self):
        """The exponent of t in stored form: an int when integral, else a Fraction."""
        i, tok = self.take()
        if tok.isdigit():
            return self.integer(tok, i)
        if tok == "-":
            i, tok = self.take()
            if not tok.isdigit():
                raise self.toks.error(i, "expected an integer exponent")
            return -self.integer(tok, i)
        if tok == "(":
            sign = 1
            i, tok = self.take()
            if tok == "-":
                sign = -1
                i, tok = self.take()
            if not tok.isdigit():
                raise self.toks.error(i, "expected an integer numerator")
            num = self.integer(tok, i)
            den = self.denominator() if self.tokens[self.at] == "/" else 1
            self.close()
            return ratio(sign * num, den)
        raise self.toks.error(i, "expected an exponent")


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
            raise ReservedIdentifierError(_RESERVED % name, line_no, 1)
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
        lines.append("poly %s" % f.format())
    return "\n".join(lines) + "\n"

