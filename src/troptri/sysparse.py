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
MAX_NESTING.  A line is multiplied out on integer t-exponents over one
denominator, into the form an MPoly stores (``_ExprParser``).
"""

import operator
import re
from fractions import Fraction
from itertools import islice
from math import comb, lcm

from .errors import NonTriangularError, ParseError
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

# Deepest parenthesis nesting the parser accepts.  Each level costs two
# frames of the recursive descent, so this stays far below Python's
# default recursion limit of 1000.
MAX_NESTING = 100

# A character that no token starts with matches as an empty token in front
# of it, so the one pass that splits a line also finds its bad characters.
_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*^/]|(?=\S))")
_VARIABLE = re.compile(r"x(\d+)")
_RESERVED = "%r is reserved for internal tail variables"


def _t_denominator(tokens) -> int:
    """The lcm of the d in the token runs t ^ ( [-] n / d.  A d that is 0, no
    number or too long to convert fails the parse, so it is left out."""
    den, k = 1, 0
    for _ in range(tokens.count("/")):
        k = tokens.index("/", k) + 1
        start = k - 6 if tokens[k - 3] == "-" else k - 5
        if start >= 0 and tokens[start:start + 3] == ["t", "^", "("]:
            try:
                den = lcm(den, int(tokens[k]) or 1)
            except (TypeError, ValueError):  # None, not digits, or too many
                pass
    return den


class _ExprParser:
    """Recursive descent over one poly line's token texts; yields an MPoly.

    The token list ends in a ``None`` sentinel, and the methods read it at
    ``self.at``, the index of the next token.  ``offset`` is the line's
    column before the expression.  Tokens carry no columns; ``column``
    finds one only for an error that names its token.
    A value is {x-degree tuple: {t-numerator: coefficient}}, each t-exponent
    over ``self.den``, one denominator per line: an MPoly's stored form,
    which ``parse`` hands over.  A term folds its sign and atoms into one
    monomial and multiplies out only parenthesized factors of several terms;
    a sum adds in place.  Both run the loops of polynomial addition and
    multiplication, so terms are stored in the order polynomial arithmetic
    on the atoms gives."""

    def __init__(self, text, line_no, offset, field, nvars):
        self.text = text
        self.line_no = line_no
        self.offset = offset
        self.tokens = _TOKEN.findall(text) + [None]
        if "" in self.tokens:
            col = self.column(self.tokens.index(""))
            raise ParseError("unexpected character %r" % text[col - offset - 1], line_no, col)
        self.at = 0
        self.field = field
        self.nvars = nvars
        self.nesting = 0
        self.den = _t_denominator(self.tokens)
        self.minus_one = field.neg(field.one)

    def column(self, index) -> int:
        """The column of token ``index``, found by splitting the text again up to it."""
        m = next(islice(_TOKEN.finditer(self.text), index, None), None)
        return self.offset + (len(self.text) if m is None else m.start(1)) + 1

    def error(self, index, message):
        """A ParseError at token ``index``; the sentinel's column is the line's end."""
        return ParseError(message, self.line_no, self.column(index))

    def parse(self) -> MPoly:
        value = self.expression()
        if self.tokens[self.at] is not None:
            raise self.error(self.at, "unexpected %r after expression" % self.tokens[self.at])
        return MPoly(self.field, self.nvars, self.den, value)

    def take(self):
        """The next token and its index, stepped past; the sentinel is an error."""
        i = self.at
        tok = self.tokens[i]
        if tok is None:
            raise self.error(i, "unexpected end of expression")
        self.at = i + 1
        return i, tok

    def close(self):
        i, tok = self.take()
        if tok != ")":
            raise self.error(i, "expected ')', found %r" % tok)

    def expression(self):
        tokens = self.tokens
        op = tokens[self.at]
        if op == "-":
            self.at += 1
        value = self.term(self.minus_one if op == "-" else self.field.one)
        while (op := tokens[self.at]) == "+" or op == "-":
            self.at += 1
            self.add_into(value, self.term(self.minus_one if op == "-" else self.field.one))
        return value

    def term(self, coeff):
        """``coeff`` times the product of the factors at ``self.at``."""
        tokens, field, mul = self.tokens, self.field, self.field.mul
        # the monomial's t-numerator and x-degrees, and the other factors' product
        n, deg, value = 0, [0] * self.nvars, None
        while True:
            i, tok = self.take()
            if tok == "(":
                if self.nesting == MAX_NESTING:
                    raise self.error(i, "parentheses nested deeper than %d" % MAX_NESTING)
                self.nesting += 1
                inner = self.expression()
                self.close()
                self.nesting -= 1
                if tokens[self.at] == "^":
                    inner = self.power(inner, self.exponent(sum(map(len, inner.values()))))
                if len(inner) == 1 and len(s := next(iter(inner.values()))) == 1:
                    # one term multiplies as an atom does: nothing merges or cancels
                    ((d, _),), ((m, c),) = inner.items(), s.items()
                    coeff, n, deg = mul(coeff, c), n + m, list(map(operator.add, deg, d))
                elif inner:
                    value = inner if value is None else self.product(value, inner)
                else:
                    coeff = field.zero
            elif tok == "t":
                if tokens[i + 1] == "^":
                    self.at = i + 2
                    n += self.t_numerator()
                else:
                    n += self.den
            elif tok.isdigit():
                c = self.rational_constant(self.integer(tok, i), i)
                for _ in range(self.exponent(1 if c else 0) if tokens[self.at] == "^" else 1):
                    coeff = mul(coeff, c)
            elif tok.startswith("u"):
                raise self.error(i, _RESERVED % tok)
            else:
                m = _VARIABLE.fullmatch(tok)
                if not m:
                    raise self.error(i, "unexpected %r" % tok)
                idx = self.integer(m.group(1), i)
                if not 1 <= idx <= self.nvars:
                    raise self.error(i, "unknown variable %r" % tok)
                deg[idx - 1] += self.exponent(1) if tokens[self.at] == "^" else 1
            if tokens[self.at] != "*":
                break
            self.at += 1
        if not coeff:
            return {}
        mono = tuple(deg)
        if value is None:
            return {mono: {n: coeff}}
        if n == 0 and coeff == field.one and not any(mono):
            return value
        return {tuple(map(operator.add, d, mono)): {k + n: mul(c, coeff) for k, c in s.items()}
                for d, s in value.items()}

    def exponent(self, k) -> int:
        """The exponent after the '^' at ``self.at``, on a base of ``k`` terms."""
        i = self.at
        self.at += 1
        j, tok = self.take()
        if not tok.isdigit():
            raise self.error(j, "fractional or negative exponents are only allowed on t")
        exp = self.integer(tok, j)
        if exp > MAX_POWER_SIZE or (k >= 2 and comb(exp + k - 1, k - 1) > MAX_POWER_SIZE):
            message = "power too large: exponent %s on a %d-term base exceeds the size limit %d"
            raise self.error(i, message % (exp, k, MAX_POWER_SIZE))
        return exp

    def power(self, base, exp):
        """base^exp by the square-and-multiply of MPoly powers."""
        result = {(0,) * self.nvars: {0: self.field.one}}
        while exp:
            if exp & 1:
                result = self.product(result, base)
            exp >>= 1
            base = self.product(base, base) if exp else base
        return result

    def product(self, a, b):
        """a*b; a term whose sum passes through zero keeps its place."""
        add, mul = self.field.add, self.field.mul
        out = {}
        for d1, s1 in a.items():
            for d2, s2 in b.items():
                acc = out.setdefault(tuple(map(operator.add, d1, d2)), {})
                for n1, c1 in s1.items():
                    for n2, c2 in s2.items():
                        m, c = n1 + n2, mul(c1, c2)
                        if m in acc:
                            c = add(acc[m], c)
                            if not c:
                                del acc[m]
                                continue
                        acc[m] = c
        return {d: s for d, s in out.items() if s}

    def add_into(self, acc, other):
        """acc + other, into acc: a term whose sum is zero leaves, a new one goes last."""
        add = self.field.add
        for d, s in other.items():
            mine = acc.setdefault(d, s)
            if mine is s:
                continue
            for m, c in s.items():
                if m in mine:
                    c = add(mine[m], c)
                    if not c:
                        del mine[m]
                        continue
                mine[m] = c
            if not mine:
                del acc[d]

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
            raise self.error(index, message)
        return self.field.div(self.field.from_int(value.numerator), den)

    def integer(self, digits, index) -> int:
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            raise self.error(index, "the number has too many digits") from None

    def denominator(self) -> int:
        """The nonzero denominator after the '/' at ``self.at``."""
        self.at += 1
        i, tok = self.take()
        den = self.integer(tok, i) if tok.isdigit() else 0
        if den == 0:
            raise self.error(i, "expected a nonzero denominator")
        return den

    def t_numerator(self) -> int:
        """The exponent of t at ``self.at`` as a numerator over ``self.den``."""
        i, tok = self.take()
        if tok.isdigit():
            return self.integer(tok, i) * self.den
        if tok == "-":
            i, tok = self.take()
            if not tok.isdigit():
                raise self.error(i, "expected an integer exponent")
            return -self.integer(tok, i) * self.den
        if tok == "(":
            sign = self.den
            i, tok = self.take()
            if tok == "-":
                sign = -sign
                i, tok = self.take()
            if not tok.isdigit():
                raise self.error(i, "expected an integer numerator")
            num = self.integer(tok, i) * sign
            if self.tokens[self.at] == "/":
                num //= self.denominator()
            self.close()
            return num
        raise self.error(i, "expected an exponent")


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
            if line.split(None, 1)[0] != "ring":
                raise ParseError("the file must start with a ring header", line_no, 1)
            header = raw.split("#", 1)[0]
            header_line = line_no
            continue
        if line.split(None, 1)[0] != "poly":
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
        polys.append(_ExprParser(expr, line_no, offset, field, nvars).parse())
    return TriangularSystem(polys)


def _parse_header(header, line_no):
    """The field and the number of coordinates of a ring header, the line
    without its comment; an error names its word's column (``_header_error``)."""
    names = header.split()[1:]
    field = RationalField()
    if names and (names[-1] == "q" or names[-1].startswith("fp:")):
        spec = names.pop()
        if spec.startswith("fp:"):
            try:
                p = int(spec[3:])
            except ValueError:
                raise _header_error(header, line_no, len(names) + 1, "bad prime in %r" % spec) from None
            try:
                field = PrimeField(p)
            except ValueError as exc:
                raise _header_error(header, line_no, len(names) + 1, str(exc)) from None
    if not names:
        raise _header_error(header, line_no, len(header.split()), "the ring header declares no variables")
    for i, name in enumerate(names, start=1):
        if name.startswith("u"):
            raise _header_error(header, line_no, i, _RESERVED % name)
        if name != "x%d" % i:
            raise _header_error(header, line_no, i, "variables must be named x1..xn in order; found %r" % name)
    return field, len(names)


def _header_error(header, line_no, index, message):
    """A ParseError at the header's word ``index`` ("ring" is word 0), or at the
    line's end past its last word; as on a poly line, found only for an error."""
    m = next(islice(re.finditer(r"\S+", header), index, None), None)
    return ParseError(message, line_no, (len(header.rstrip()) if m is None else m.start()) + 1)


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

