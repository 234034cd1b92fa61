"""The system-file grammar: parsing, validation, round trips."""

import random
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import QQ, const, mpoly, tp, xvar, mconst
from oracles import expression_mpoly, to_scalars
from troptri import (
    NonTriangularError,
    ParseError,
    PrimeField,
    format_system,
    parse_system,
)
from troptri.sysparse import _ExprParser

THREE_VAR_TEXT = """\
# three coordinates, all polygons already trustworthy
ring x1 x2 x3
poly t*x1^2 + x1 + 1
poly t*x1*x2^2 + x1*x2 + 1
poly x1*x2*x3 + 1
"""


def test_parse_three_variable_system():
    system = parse_system(THREE_VAR_TEXT)
    assert system.n == 3
    one = const(1)
    t = tp(1)
    assert system.polys[0] == mpoly(3, {(2, 0, 0): t, (1, 0, 0): one, (0, 0, 0): one})
    assert system.polys[1] == mpoly(3, {(1, 2, 0): t, (1, 1, 0): one, (0, 0, 0): one})
    assert system.polys[2] == mpoly(3, {(1, 1, 1): one, (0, 0, 0): one})


def test_parse_fractional_t_exponent():
    system = parse_system("ring x1\npoly t^(1/2)*x1 - 1\n")
    assert system.polys[0] == mpoly(1, {(1,): tp(Fraction(1, 2)), (0,): const(-1)})


def test_parse_negative_t_exponents():
    system = parse_system("ring x1\npoly t^-1*x1 + t^(-3/2)\n")
    assert system.polys[0] == mpoly(1, {(1,): tp(-1), (0,): tp(Fraction(-3, 2))})


def test_parse_rational_constants_and_parens():
    system = parse_system("ring x1\npoly 3/2*x1^2 - (x1 - 1/3)\n")
    want = mpoly(1, {(2,): const(Fraction(3, 2)), (1,): const(-1), (0,): const(Fraction(1, 3))})
    assert system.polys[0] == want


def test_parse_products_of_factors():
    system = parse_system("ring x1\npoly (x1 - 1 - t^2)*(x1 - 1 - t - t^2)\n")
    direct = parse_system(
        "ring x1\npoly x1^2 + (-2 - t - 2*t^2)*x1 + 1 + t + 2*t^2 + t^3 + t^4\n"
    )
    assert system.polys[0] == direct.polys[0]


def test_parse_non_triangular():
    with pytest.raises(NonTriangularError, match=r"^f1 uses x2; only x1\.\.x1 are allowed$"):
        parse_system("ring x1 x2\npoly x2 - 1\npoly x1\n")
    with pytest.raises(NonTriangularError, match=r"^f2 does not use x2$"):
        parse_system("ring x1 x2\npoly x1 - 1\npoly x1 + 1\n")
    with pytest.raises(NonTriangularError, match=r"^expected 2 poly lines for 2 coordinates, found 1$"):
        parse_system("ring x1 x2\npoly x1 - 1\n")
    with pytest.raises(NonTriangularError, match=r"^f2 is the zero polynomial$"):
        parse_system("ring x1 x2\npoly x1 - 1\npoly x2 - x2\n")


def test_parse_reserved_identifier():
    with pytest.raises(ParseError, match="^line 2, column 11: 'u1' is reserved for internal tail variables$"):
        parse_system("ring x1\npoly x1 + u1\n")
    with pytest.raises(ParseError, match="^line 1, column 6: 'u1' is reserved for internal tail variables$"):
        parse_system("ring u1\npoly u1\n")


@pytest.mark.parametrize(
    "header, message",
    [
        ("ring x1 u1", "column 9: 'u1' is reserved for internal tail variables"),
        ("ring x1 fp:8", "column 9: modulus must be a prime <= %d, got 8" % 10**24),
        ("ring x1 fp:abc", "column 9: bad prime in 'fp:abc'"),
        (" \tring  x1 x3 q # x4", "column 12: variables must be named x1..xn in order; found 'x3'"),
        ("ring fp:7  # x1", "column 10: the ring header declares no variables"),
    ],
    ids=["reserved", "composite", "bad-prime", "indented", "no-variables"],
)
def test_a_ring_header_error_names_the_column_of_its_word(header, message):
    # counted on the whole line, leading whitespace included, as on poly
    # lines; a header without variables is faulted at its end
    with pytest.raises(ParseError, match="^line 1, %s$" % re.escape(message)):
        parse_system(header + "\npoly x1\n")


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_system("ring x1\npoly x1 + @\n")
    assert err.value.line == 2
    assert err.value.col is not None
    with pytest.raises(ParseError) as err:
        parse_system("ring x1\npoly x1 +\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("ring x1\npoly x1 + @", "line 2, column 11: unexpected character '@'"),
        ("ring x1\npoly x1 x1", "line 2, column 9: unexpected 'x1' after expression"),
        ("ring x1\npoly (x1 + 1 t", "line 2, column 14: expected ')', found 't'"),
        ("ring x1\npoly x1 + x2", "line 2, column 11: unknown variable 'x2'"),
        ("ring x1\npoly x1^", "line 2, column 9: unexpected end of expression"),
        ("ring x1\npoly x1 + t^x1", "line 2, column 13: expected an exponent"),
        ("ring x1\npoly t^-x1", "line 2, column 9: expected an integer exponent"),
        ("ring x1\npoly t^(x1)", "line 2, column 9: expected an integer numerator"),
        (
            "ring x1\npoly x1^(1/2)",
            "line 2, column 9: fractional or negative exponents are only allowed on t",
        ),
        ("ring x1\npoly x1 + 1/0", "line 2, column 13: expected a nonzero denominator"),
        ("ring x1\npoly t^(1/0)*x1", "line 2, column 11: expected a nonzero denominator"),
        ("ring x1 fp:5\npoly x1 + 2/5", "line 2, column 11: the denominator 5 is 0 in F5"),
        # the end of an expression is counted on the whole line, after 'poly'
        ("ring x1\npoly x1 +", "line 2, column 10: unexpected end of expression"),
        ("ring x1\n\tpoly x1 + 1 +   # c", "line 2, column 15: unexpected end of expression"),
        # the keyword is the line's first whitespace-separated word, and the
        # expression starts right after it, even where its text repeats it
        ("ring x1\n  polyly", "line 2, column 1: expected a poly line"),
        ("ring x1\npoly\tpolyly", "line 2, column 6: unexpected 'polyly'"),
        ("ring x1\n  poly polyly", "line 2, column 8: unexpected 'polyly'"),
    ],
)
def test_parse_error_messages_and_columns(text, message):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert str(err.value) == message


def _bench_workloads():
    """``bench/workloads.py``, read rather than imported, so nothing is written next to it."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    module = types.ModuleType("bench_workloads")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_bad_character_column_in_benchmark_lines():
    # the column is found only once the error is raised, so check it on real
    # lines: '@' anywhere after 'poly', under a space or a tab indent; glued
    # to 'poly', it makes the line's first word no keyword
    workloads = _bench_workloads()
    rng = random.Random(18)
    texts = [s.text for w in workloads.WORKLOADS for s in workloads.corpus(w, 18, 30)]
    for case in range(200):
        lines = rng.choice(texts).splitlines()
        k = rng.randrange(1, len(lines))
        indent = " " * rng.randrange(1, 4) if case % 2 else "\t" * rng.randrange(1, 3)
        raw = indent + lines[k]
        at = rng.randrange(len(indent) + len("poly"), len(raw) + 1)
        lines[k] = raw[:at] + "@" + raw[at:]
        with pytest.raises(ParseError) as err:
            parse_system("\n".join(lines))
        if at == len(indent) + len("poly"):
            assert str(err.value) == "line %d, column 1: expected a poly line" % (k + 1)
        else:
            assert str(err.value) == "line %d, column %d: unexpected character '@'" % (k + 1, at + 1)


def _render(tree, level="sum", lead=True):
    """Expression text for an ``oracles.expression_mpoly`` tree.

    ``level`` is where the text goes: "sum" takes any expression, "prod" a
    factor of a product, "base" the base of ``^``.  ``lead`` says the text
    starts an expression, the one place a unary minus may stand bare.
    """
    kind = tree[0]
    if kind == "num":
        # n/d is one atom: the parser reads the fraction before a '^'
        return "%d" % tree[1] if tree[2] == 1 else "%d/%d" % tree[1:]
    if kind == "x":
        return "x%d" % tree[1]
    if kind == "t":
        e = tree[1]
        if e == 1:
            return "t"
        text = "t^%d" % e if e.denominator == 1 else "t^(%d/%d)" % (e.numerator, e.denominator)
        return text if level != "base" else "(%s)" % text
    if kind == "neg":
        text = "-" + _render(tree[1], "prod", False)
        bare = level == "sum" and lead
    elif kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        left = _render(tree[1], "sum", lead or level != "sum")
        text = left + op + _render(tree[2], "prod", False)
        bare = level == "sum"
    elif kind == "mul":
        text = _render(tree[1], "prod", False) + "*" + _render(tree[2], "prod", False)
        bare = level != "base"
    else:
        text = _render(tree[1], "base", False) + "^%d" % tree[2]
        bare = level != "base"
    return text if bare else "(%s)" % _render(tree, "sum", True)


_ATOMS = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 14), st.integers(1, 6)),
    st.tuples(st.just("t"), st.fractions(-3, 3, max_denominator=3)),
    st.tuples(st.just("x"), st.integers(1, 2)),
)
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.tuples(st.just("neg"), inner),
        st.tuples(st.sampled_from(["add", "sub", "mul"]), inner, inner),
        st.tuples(st.just("pow"), inner, st.integers(0, 3)),
    ),
    max_leaves=8,
)
_T = ("t", Fraction(1))
_X1 = ("x", 1)
# a scalar-only base under '^' (7 is 0 in F_7), unary minus on scalars, 0*x1,
# and a sum that cancels down to a scalar
_CASES = [
    ("pow", ("sub", ("num", 7, 1), ("t", Fraction(1, 2))), 3),
    ("mul", ("pow", ("add", ("num", 1, 2), _T), 2), _X1),
    ("add", ("neg", ("mul", ("num", 3, 2), ("t", Fraction(-1, 2)))), ("neg", _T)),
    ("mul", ("num", 0, 1), _X1),
    ("add", ("sub", _X1, _X1), _T),
]


def _stored(f):
    """The terms of f in stored order, each with its scalar's stored form."""
    return [(deg, s.den, s.nums) for deg, s in to_scalars(f).items()]


@st.composite
def _factored(draw):
    """(tree, n): a product of factors x_n - h - g*x_j (j < n), some raised to
    a power.  The series h and g are sums of c*t^e over one denominator; c
    may be 0, 7 (0 in F_7) or a number to a power, and a term may come again
    with the other sign, so that it cancels."""
    n, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def series():
        tree = None
        for _ in range(draw(st.integers(1, 4))):
            c = ("num", draw(st.sampled_from([0, 1, 2, 3, 7])), draw(st.sampled_from([1, 2, 3])))
            if draw(st.booleans()):
                c = ("pow", c, draw(st.integers(0, 3)))
            term = ("mul", c, ("t", Fraction(draw(st.integers(-2 * q, 3 * q)), q)))
            for op in draw(st.sampled_from([["add"], ["sub"], ["add", "sub"]])):
                tree = term if tree is None else (op, tree, term)
        return tree

    tree = None
    for _ in range(draw(st.integers(1, 3))):
        factor = ("sub", ("x", n), series())
        if n > 1 and draw(st.booleans()):
            factor = ("sub", factor, ("mul", series(), ("x", draw(st.integers(1, n - 1)))))
        if draw(st.booleans()):
            factor = ("pow", factor, draw(st.integers(0, 3)))
        tree = factor if tree is None else ("mul", tree, factor)
    return tree, n


def _with_examples(test):
    for tree in _CASES:
        for p in (None, 7):
            test = example(case=(tree, 2), p=p)(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.one_of(st.tuples(_EXPRESSIONS, st.just(2)), _factored()),
       p=st.sampled_from([None, 7]))
@_with_examples
def test_parse_stores_what_polynomial_atoms_give(case, p):
    # the terms in stored order, against the MPoly that the arithmetic of
    # oracles.Poly builds from the atoms: random expressions in x1, x2 and
    # products of factors x_n - series in up to three variables
    tree, nvars = case
    field = QQ if p is None else PrimeField(p)
    text = _render(tree)
    want = expression_mpoly(tree, field, nvars)
    parser = _ExprParser(text, 1, 0, field, nvars)
    if want is None:
        with pytest.raises(ParseError, match="power too large"):
            parser.parse()
        return
    assert _stored(parser.parse()) == _stored(want), text


def test_parse_bad_header():
    with pytest.raises(ParseError):
        parse_system("poly x1\n")
    with pytest.raises(ParseError):
        parse_system("ring y1\npoly y1\n")
    with pytest.raises(ParseError):
        parse_system("ring x2 x1\npoly x1\npoly x2\n")
    # a keyword is the line's first whitespace-separated word
    with pytest.raises(ParseError, match="the file must start with a ring header"):
        parse_system("ringx1\npoly x1 - t\n")
    with pytest.raises(ParseError, match="expected a poly line"):
        parse_system("ring x1\npolyx1 - t\n")
    assert parse_system("ring\tx1\npoly\tx1 - t\n").polys == parse_system("ring x1\npoly x1 - t\n").polys


def test_parse_explicit_rational_header():
    system = parse_system("ring x1 q\npoly x1 - 1\n")
    assert system.field == QQ


def test_parse_prime_field_header():
    system = parse_system("ring x1 fp:5\npoly x1^2 - 1\n")
    assert system.field == PrimeField(5)
    assert system.polys[0] == mpoly(
        1, {(2,): const(1, field=PrimeField(5)), (0,): const(4, field=PrimeField(5))}, field=PrimeField(5)
    )
    with pytest.raises(ParseError):
        parse_system("ring x1 fp:6\npoly x1\n")


def test_fractional_exponent_rejected_off_t():
    with pytest.raises(ParseError):
        parse_system("ring x1\npoly x1^(1/2)\n")
    with pytest.raises(ParseError):
        parse_system("ring x1\npoly (1 + t)^(1/2)*x1\n")


@pytest.mark.parametrize("text, written", [
    ("ring x1\npoly x1 - 2\n", "ring x1\npoly x1 + (-2)\n"),
    ("ring x1\npoly -x1 - 1\n", "ring x1\npoly (-1)*x1 + (-1)\n"),
    ("ring x1\npoly x1 + t\n", "ring x1\npoly x1 + t\n"),
    ("ring x1\npoly t^3*x1 - t^(1/2)\n", "ring x1\npoly t^3*x1 + (-1)*t^(1/2)\n"),
    ("ring x1\npoly t^-1*x1^2 + 1\n", "ring x1\npoly t^(-1)*x1^2 + 1\n"),
    ("ring x1\npoly 2/3*t*x1 - 5/7 - t^(-3/2)\n", "ring x1\npoly 2/3*t*x1 + (-1)*t^(-3/2) + (-5/7)\n"),
    ("ring x1 x2\npoly x1 - 1\npoly (1 - t)*x1*x2^2 - x2 + x1\n",
     "ring x1 x2\npoly x1 + (-1)\npoly x1*x2^2 + (-1)*t*x1*x2^2 + x1 + (-1)*x2\n"),
    ("ring x1 x2 fp:7\npoly x1 - 1\npoly 3*t*x2 - x1*x2 + 1/2\n",
     "ring x1 x2 fp:7\npoly x1 + 6\npoly 6*x1*x2 + 3*t*x2 + 4\n"),
])
def test_format_system_bytes(text, written):
    # one summand per monomial and power of t, negative coefficients in
    # parentheses, a coefficient 1 written only where no other factor is
    assert format_system(parse_system(text)) == written
    assert format_system(parse_system(written)) == written


def test_roundtrip_three_variable_system():
    system = parse_system(THREE_VAR_TEXT)
    again = parse_system(format_system(system))
    assert [f for f in again.polys] == [f for f in system.polys]
    assert again.field == system.field


def test_roundtrip_random_systems():
    from oracle_systems import random_system_with_expected_points

    rng = random.Random(71)
    for _ in range(25):
        system, _ = random_system_with_expected_points(rng)
        text = format_system(system)
        again = parse_system(text)
        assert list(again.polys) == list(system.polys)


def test_roundtrip_prime_field_system():
    f1 = (xvar(1, 0, field=PrimeField(7)) - mconst(1, tp(2, 3, field=PrimeField(7)), field=PrimeField(7)))
    from troptri import TriangularSystem

    system = TriangularSystem([f1])
    text = format_system(system)
    assert "fp:7" in text
    assert list(parse_system(text).polys) == [f1]
