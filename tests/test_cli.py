"""The command line driver: outputs, exit codes, determinism."""

import hashlib
import json
import os
import re
import subprocess
import sys

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import cli_run, const, ps, read_bench_module, time_limit, upoly
from oracle_systems import prefix_cancelling_system_with_expected_points, random_system_with_expected_points
from troptri import expansion, format_system
from troptri.cli import main
from troptri.polygon import newton_polygon
from troptri.roottree import RootTree
from troptri.svg import polygon_svg
from troptri.sysparse import MAX_NESTING

THREE_VAR = """\
ring x1 x2 x3
poly t*x1^2 + x1 + 1
poly t*x1*x2^2 + x1*x2 + 1
poly x1*x2*x3 + 1
"""

CLOSE_ROOTS = """\
ring x1 x2
poly (x1 - 1 - t^2)*(x1 - 1 - t - t^2)
poly x2 - (x1 - 1 - t)
"""


def run_cli(tmp_path, text, *args):
    src = tmp_path / "system.txt"
    src.write_text(text)
    import io
    import contextlib

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--input", str(src), *args])
    return code, out.getvalue(), err.getvalue()


def test_text_output_three_variables(tmp_path):
    code, out, err = run_cli(tmp_path, THREE_VAR)
    assert code == 0
    assert out.strip() == "(0,0,0) (0,-1,1) (-1,1,0) (-1,-1,2)"


def test_json_output_close_roots(tmp_path):
    code, out, err = run_cli(tmp_path, CLOSE_ROOTS, "--pstep", "2", "--pmax", "2", "--format", "json")
    assert code == 0
    assert out.strip() == '{"points":[["0","1"],["0","2"]]}'


def test_json_tree_output(tmp_path):
    code, out, err = run_cli(
        tmp_path, CLOSE_ROOTS, "--pstep", "2", "--pmax", "2", "--format", "json", "--tree"
    )
    assert code == 0
    data = json.loads(out)
    assert data["points"] == [["0", "1"], ["0", "2"]]
    vertices = data["tree"]["vertices"]
    assert any(v["exact"] is True for v in vertices)
    assert all("valuation" in v and "precision" in v and "parent" in v for v in vertices)
    # exact rationals only: every valuation string is p or p/q
    for v in vertices:
        if v["valuation"] is not None:
            assert "." not in v["valuation"]


def test_exit_code_parse_error(tmp_path):
    code, out, err = run_cli(tmp_path, "ring x1\npoly x1 + @\n")
    assert code == 4
    assert "error" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("ringx1\npoly x1 - t\n", "line 1, column 1: the file must start with a ring header"),
        ("ring x1\npolyx1 - t\n", "line 2, column 1: expected a poly line"),
    ],
    ids=["ring", "poly"],
)
def test_a_keyword_glued_to_the_next_word_exits_4_with_one_line(tmp_path, text, message):
    assert run_cli(tmp_path, text) == (4, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# nothing but comments\n\n  # and blank lines\n", "empty input: no ring header found"),
        ("ring x1 fp:abc\npoly x1 - t\n", "bad prime in 'fp:abc'"),
        ("ring q\n", "the ring header declares no variables"),
    ],
    ids=["comments-only", "bad-prime", "no-variables"],
)
def test_a_file_without_a_usable_ring_header_exits_4_with_one_line(tmp_path, text, message):
    assert run_cli(tmp_path, text) == (4, "", "error: line 1, column 1: %s\n" % message)


def test_exit_code_non_triangular(tmp_path):
    code, out, err = run_cli(tmp_path, "ring x1 x2\npoly x2 - 1\npoly x1\n")
    assert code == 4


def test_exit_code_non_utf8_input(tmp_path, capsys):
    src = tmp_path / "system.txt"
    src.write_bytes(b"\xff\xfe ring")
    code = main(["--input", str(src)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: cannot read input: ")
    assert err.count("\n") == 1


def test_exit_code_non_splitting(tmp_path):
    text = "ring x1 x2\npoly x1^2 - 2\npoly x2 - x1 + 1\n"
    code, out, err = run_cli(tmp_path, text)
    assert code == 2
    assert "f1" in err


def test_exit_code_precision_limit(tmp_path):
    text = (
        "ring x1 x2\n"
        "poly (x1 - 1 - t)*(x1 - 1 - t - t^3)\n"
        "poly x2 - (x1 - 1 - t)\n"
    )
    code, out, err = run_cli(tmp_path, text, "--pstep", "1", "--pmax", "1")
    assert code == 3


@pytest.mark.parametrize("text, findex, vid", [
    # x1 = 1 cancels every term of f2
    ("ring x1 x2\npoly x1 - 1\npoly (x1 - 1)*x2\n", 2, 1),
    # f3 vanishes on the branch x1 = 1, x2 = 3, not on x1 = 2
    ("ring x1 x2 x3\npoly (x1 - 1)*(x1 - 2)\npoly x2 - 3\npoly (x1 - 1)*x3 + x2 - 3\n", 3, 2),
    # x1 = 1 cancels f3 before x2 goes in, so x2 is put into zero
    ("ring x1 x2 x3\npoly x1 - 1\npoly x2 - 3\npoly (x1 - 1)*x2*x3\n", 3, 2),
])
def test_zero_substitution_exits_5_naming_the_polynomial(tmp_path, text, findex, vid):
    code, out, err = run_cli(tmp_path, text)
    assert code == 5
    assert out == ""
    assert err == ("error: f%d vanishes on the branch to vertex %d: substitution produced the zero "
                   "polynomial\n" % (findex, vid))


NO_PROGRESS = {
    # the head x1 = 1 is exact, and the x2 root 1 + t + u2*t^40 cannot be
    # refined within --pmax 32, so every reinforcement returns it unchanged
    "exact-head": (
        "ring x1 x2 x3\n"
        "poly x1 - 1\n"
        "poly (x2 - x1 - t)*(x2 - x1 - t - t^40)\n"
        "poly x3 - x2 + 1 + t + 2*t^40\n"
    ),
}

# the x1 roots 1 + t and 1 + t^2 share the prefix 1, which f2 cancels; the
# subtree grown while x1 = 1 + u1*t must not be copied under 1 + t^2, whose
# next term sits past t
COPIED_SUBTREE = (
    "ring x1 x2 x3\n"
    "poly (x1 - 1 - t)*(x1 - 1 - t^2)\n"
    "poly x2 - x1 + 1 - t^2\n"
    "poly x3 - x2 + t - t^3\n"
)


def _step_budget(monkeypatch, budget=500):
    """Fail the test instead of hanging when the driver does not finish."""
    step = RootTree.step
    taken = []

    def bounded(tree):
        taken.append(None)
        assert len(taken) <= budget, "no result after %d steps" % budget
        return step(tree)

    monkeypatch.setattr(RootTree, "step", bounded)


@pytest.mark.parametrize("name", sorted(NO_PROGRESS))
def test_no_progress_reinforcement_exits_3(tmp_path, monkeypatch, name):
    _step_budget(monkeypatch)
    code, out, err = run_cli(tmp_path, NO_PROGRESS[name])
    assert code == 3
    assert out == ""
    assert re.fullmatch(
        r"error: reinforcing f\d at vertex \d+ gains no precision within the bound 32\n", err
    )


def test_copied_subtree_system_prints_its_points(tmp_path, monkeypatch):
    _step_budget(monkeypatch)
    code, out, err = run_cli(tmp_path, COPIED_SUBTREE)
    assert (code, out, err) == (0, "(0,1,2) (0,2,1)\n", "")


def test_exact_head_system_finishes_with_a_higher_bound(tmp_path, monkeypatch):
    _step_budget(monkeypatch)
    code, out, err = run_cli(tmp_path, NO_PROGRESS["exact-head"], "--pmax", "64")
    assert (code, out) == (0, "(0,0,40)\n")


def test_large_residue_constants_finish(tmp_path):
    # x1 = +-10^12, far too large to find by listing the divisors of 10^24
    text = (
        "ring x1 x2\n"
        "poly x1^2 - 1000000000000000000000000\n"
        "poly x2 - x1 + 1000000000000 + t\n"
    )
    with time_limit(60):
        code, out, err = run_cli(tmp_path, text)
    assert (code, out, err) == (0, "(0,0) (0,1)\n", "")


_PRIMES = [p for p in range(2, 10**4) if all(p % d for d in range(2, int(p**0.5) + 1))]


@st.composite
def _random_system_texts(draw):
    """A triangular system of 2 or 3 lines over Q or F_p, p < 10^4, as text.

    Line i is a product of one to three factors xi - c*t^e - a, some of
    them also minus x(i-1), plus up to two terms of lower degree in xi.
    The constants a come from a pool of three, so that roots of one line
    cancel in the next and force expansions; the extra terms make some
    residue polynomials not split.
    """
    n = draw(st.integers(2, 3))
    p = draw(st.none() | st.sampled_from(_PRIMES))
    coeff = st.integers(-5, 5).filter(bool) if p is None else st.integers(1, p - 1)
    t_power = st.fractions(-2, 3, max_denominator=2)
    pool = draw(st.lists(coeff, min_size=3, max_size=3))
    lines = ["ring " + " ".join("x%d" % (i + 1) for i in range(n)) + ("" if p is None else " fp:%d" % p)]
    for i in range(n):
        factors = []
        for _ in range(draw(st.integers(1, 3))):
            linked = i > 0 and draw(st.booleans())
            factors.append("(x%d%s - (%d)*t^(%s) - (%d))" % (
                i + 1, " - x%d" % i if linked else "",
                draw(coeff), draw(t_power), draw(st.sampled_from(pool))))
        terms = ["*".join(factors)]
        degrees = st.tuples(*[st.integers(0, 2)] * i, st.integers(0, len(factors) - 1))
        for deg, c, e in draw(st.lists(st.tuples(degrees, coeff, t_power), max_size=2)):
            monomial = ["(%d)" % c, "t^(%s)" % e]
            monomial += ["x%d^%d" % (k + 1, d) for k, d in enumerate(deg) if d]
            terms.append("*".join(monomial))
        lines.append("poly " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def _oracle_system_texts(build, *args):
    built = st.integers(0, 2**32).map(lambda seed: build(random.Random(seed), *args))
    return built.map(lambda b: (format_system(b[0]), b[1]))


def _points(out):
    return {tuple(Fraction(c) for c in point.strip("()").split(",")) for point in out.split()}


@settings(max_examples=225, derandomize=True, deadline=None)
@given(
    st.tuples(_random_system_texts(), st.none())
    | _oracle_system_texts(random_system_with_expected_points, 4, 3)
    | _oracle_system_texts(prefix_cancelling_system_with_expected_points)
)
@example((COPIED_SUBTREE, {(0, 1, 2), (0, 2, 1)}))
def test_every_run_ends_in_points_or_an_error(tmp_path_factory, case):
    text, expected = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _step_budget(monkeypatch, budget=2000)
        code, out, err = run_cli(tmp_path_factory.mktemp("system"), text)
    if expected is not None:
        # a system with oracle points must produce them
        assert (code, err) == (0, "")
        assert _points(out) == expected
    elif code == 0:
        assert err == ""
    else:
        # a TropError: exit 2 (no split), 3 (precision bound) or 5 (other)
        assert code in (2, 3, 5)
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "power, col, message",
    [
        ("(x1+1)^200000", 17, "power too large: exponent 200000 on a 2-term base exceeds the size limit 256"),
        ("x1^257", 13, "power too large: exponent 257 on a 1-term base exceeds the size limit 256"),
        ("(x1+x2+1)^22", 20, "power too large: exponent 22 on a 3-term base exceeds the size limit 256"),
        # a base without x counts its terms in t like any other
        ("(1+t+t^2)^22", 20, "power too large: exponent 22 on a 3-term base exceeds the size limit 256"),
    ],
    ids=["binomial", "monomial", "trinomial", "scalar-trinomial"],
)
def test_oversized_power_exits_4(tmp_path, power, col, message):
    code, out, err = run_cli(tmp_path, "ring x1 x2\npoly x1\npoly x2 - %s\n" % power)
    assert code == 4
    assert out == ""
    assert err == "error: line 3, column %d: %s\n" % (col, message)


@pytest.mark.parametrize(
    "expr, col",
    [("x1^" + "9" * 5000, 14), ("x1 - " + "7" * 5000, 16), ("x1 - t^(1/" + "7" * 5000 + ")", 21),
     ("x" + "1" * 5000, 11)],
    ids=["exponent", "constant", "t-exponent", "variable"],
)
def test_number_with_too_many_digits_exits_4(tmp_path, expr, col):
    code, out, err = run_cli(tmp_path, "ring x1 x2\npoly x1\npoly x2 - %s\n" % expr)
    assert code == 4
    assert out == ""
    assert err == "error: line 3, column %d: the number has too many digits\n" % col


@pytest.mark.parametrize(
    "constant, col, den", [("1/7", 11, 7), ("3/14", 11, 14), ("(2*t + 5/21)", 18, 21)],
    ids=["1/7", "3/14", "nested"],
)
def test_denominator_zero_in_the_prime_field_exits_4(tmp_path, constant, col, den):
    code, out, err = run_cli(tmp_path, "ring x1 fp:7\npoly x1 - %s\n" % constant)
    assert (code, out) == (4, "")
    # col is where the constant's numerator starts
    assert err == "error: line 2, column %d: the denominator %d is 0 in F7\n" % (col, den)


def test_denominator_that_reduces_away_over_the_prime_field(tmp_path):
    # 7/14 is 1/2 before it is read in F_7, and 2 is a unit there
    code, out, err = run_cli(tmp_path, "ring x1 fp:7\npoly x1 - 7/14\n")
    assert (code, out, err) == (0, "(0)\n", "")


@pytest.mark.parametrize("depth", [MAX_NESTING, MAX_NESTING + 1, 1000])
def test_parenthesis_nesting_limit(tmp_path, depth):
    expr = "(" * depth + "x2 - x1" + ")" * depth
    code, out, err = run_cli(tmp_path, "ring x1 x2\npoly x1 - t\npoly %s\n" % expr)
    if depth <= MAX_NESTING:
        assert (code, out, err) == (0, "(1,1)\n", "")
    else:
        # the opening parenthesis one past the limit, after "poly "
        col = len("poly ") + MAX_NESTING + 1
        assert (code, out) == (4, "")
        assert err == "error: line 3, column %d: parentheses nested deeper than %d\n" % (col, MAX_NESTING)


def test_power_at_the_size_limit_is_expanded(tmp_path):
    code, out, err = run_cli(tmp_path, "ring x1\npoly x1^256 - t\n")
    assert (code, out) == (0, "(1/256)\n")


def test_single_polynomial_runs_without_root_finding(tmp_path):
    # Trop(x^2 - 2) = {0} straight off the polygon; no residue roots needed
    code, out, err = run_cli(tmp_path, "ring x1\npoly x1^2 - 2\n")
    assert code == 0
    assert out.strip() == "(0)"


def test_fractional_point_output(tmp_path):
    code, out, err = run_cli(tmp_path, "ring x1\npoly x1^2 - t\n")
    assert code == 0
    assert out.strip() == "(1/2)"


def test_stdin_roundtrip(tmp_path, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(THREE_VAR))
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([])
    assert code == 0
    assert out.getvalue().strip() == "(0,0,0) (0,-1,1) (-1,1,0) (-1,-1,2)"


def test_byte_identical_reruns(tmp_path):
    first = run_cli(tmp_path, THREE_VAR, "--format", "json", "--tree")
    second = run_cli(tmp_path, THREE_VAR, "--format", "json", "--tree")
    assert first == second


def test_newton_svg_output(tmp_path):
    svg_dir = tmp_path / "polygons"
    code, out, err = run_cli(tmp_path, CLOSE_ROOTS, "--pstep", "2", "--pmax", "2",
                             "--newton-svg", str(svg_dir))
    assert code == 0
    files = sorted(os.listdir(svg_dir))
    assert files and files[0] == "polygon_000.svg"
    data = (svg_dir / files[0]).read_text()
    assert data.startswith("<svg")
    assert "<polygon" in data

    again_dir = tmp_path / "polygons2"
    run_cli(tmp_path, CLOSE_ROOTS, "--pstep", "2", "--pmax", "2", "--newton-svg", str(again_dir))
    for name in files:
        assert (svg_dir / name).read_text() == (again_dir / name).read_text()


def test_newton_svg_into_an_existing_file_exits_5(tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err = run_cli(tmp_path, CLOSE_ROOTS, "--newton-svg", str(taken))
    assert code == 5 and out == ""
    assert err.startswith("error: cannot write SVG:") and err.count("\n") == 1


DEEP_DIGITS = """\
ring x1 x2
poly x1^2 - x1 - t
poly x2 - x1 + 1 + t - t^2 + 2*t^3
"""


def test_the_recursion_cap_bounds_the_expansion(tmp_path, monkeypatch):
    # _expand reads expansion.MAX_DEPTH at call time
    monkeypatch.setattr(expansion, "MAX_DEPTH", 0)
    assert run_cli(tmp_path, DEEP_DIGITS) == (
        5, "", "error: reinforcing f1 at vertex 2: expansion exceeded 0 recursion levels\n")
    monkeypatch.setattr(expansion, "MAX_DEPTH", 1)
    assert run_cli(tmp_path, DEEP_DIGITS) == (0, "(1,0) (0,4)\n", "")


# x1 is a sum of 1,500 powers of t, so expanding it takes one recursion
# level per term
_MANY_TERMS = " + ".join(["1"] + ["t^(%d/1000)" % i for i in range(1, 1500)])
MANY_DIGITS = "ring x1 x2\npoly x1 - (%s)\npoly x2 - x1 + %s + t^2\n" % (_MANY_TERMS, _MANY_TERMS)


def test_a_root_past_the_recursion_cap_exits_5(tmp_path):
    assert expansion.MAX_DEPTH == 64
    with time_limit(1):
        assert run_cli(tmp_path, MANY_DIGITS) == (
            5, "", "error: reinforcing f1 at vertex 1: expansion exceeded 64 recursion levels\n")


@pytest.mark.parametrize("text", [CLOSE_ROOTS, DEEP_DIGITS], ids=["close-roots", "deep-digits"])
def test_rational_precision_flags_give_the_default_points(tmp_path, text):
    want = _points(run_cli(tmp_path, text)[1])
    for flags in [("--pstep", "1/3"), ("--pmax", "65/2"), ("--pstep", "1/3", "--pmax", "65/2")]:
        code, out, err = run_cli(tmp_path, text, *flags)
        assert (code, err) == (0, "") and _points(out) == want


def test_a_rational_step_prints_rational_precisions(tmp_path):
    code, out, err = run_cli(tmp_path, DEEP_DIGITS, "--pstep", "1/3", "--format", "json", "--tree")
    assert (code, err) == (0, "")
    vertices = json.loads(out)["tree"]["vertices"]
    assert [v["precision"] for v in vertices] == [None, "0", "10/3", "0", "0"]


def test_text_tree_output_prints_the_points_then_the_tree(tmp_path):
    code, out, err = run_cli(tmp_path, DEEP_DIGITS, "--format", "text", "--tree")
    assert code == 0 and err == ""
    points, tree, rest = out.split("\n")
    assert points == "(1,0) (0,4)" and rest == ""
    _, json_out, _ = run_cli(tmp_path, DEEP_DIGITS, "--format", "json", "--tree")
    assert json.loads(tree) == json.loads(json_out)["tree"]


def test_svg_slope_labels_and_vertices():
    f = upoly(1, 0, {2: ps((1, 1)), 1: const(1), 0: const(1)})
    polygon = newton_polygon(f)
    data = polygon_svg(polygon, vertex_labels=["1", "1", "1"])
    assert data.count("<circle") == 3
    assert ">0<" in data and ">1<" in data  # the two edge slopes


def test_svg_single_vertex():
    f = upoly(1, 0, {3: ps((0, 2))})
    data = polygon_svg(newton_polygon(f))
    assert data.count("<circle") == 1
    assert "<line" not in data


def test_svg_tail_variable_labels():
    # recentered two-factor product: the constant vertex keeps -u1
    from helpers import paper_f2_tilde
    from oracles import shift_and_rescale
    from troptri.upoly import format_residue_terms

    g = shift_and_rescale(paper_f2_tilde(), ps((0, 1), (1, 1)), 2)
    polygon = newton_polygon(g)
    labels = [format_residue_terms(g.coeffs[j].initial_terms()) for j, _ in polygon.vertices]
    assert labels == ["-u1", "1", "1"]
    data = polygon_svg(polygon, vertex_labels=labels)
    assert ">-u1<" in data


# exact bytes of earlier releases; a formatting or traversal change shows here
PINNED_TREE_JSON = {
    "close-roots": (
        CLOSE_ROOTS,
        ("--pstep", "2", "--pmax", "2"),
        '{"points":[["0","1"],["0","2"]],"tree":{"root":0,"vertices":['
        '{"id":0,"parent":null,"valuation":null,"precision":null,"exact":null,"dead":false},'
        '{"id":1,"parent":0,"valuation":"0","precision":"2","exact":true,"dead":false},'
        '{"id":2,"parent":0,"valuation":"0","precision":"2","exact":false,"dead":false},'
        '{"id":3,"parent":1,"valuation":"1","precision":"0","exact":false,"dead":false},'
        '{"id":4,"parent":2,"valuation":"2","precision":"0","exact":false,"dead":false}]}}\n',
    ),
    "three-var": (
        THREE_VAR,
        (),
        '{"points":[["0","0","0"],["0","-1","1"],["-1","1","0"],["-1","-1","2"]],'
        '"tree":{"root":0,"vertices":['
        '{"id":0,"parent":null,"valuation":null,"precision":null,"exact":null,"dead":false},'
        '{"id":1,"parent":0,"valuation":"0","precision":"0","exact":false,"dead":false},'
        '{"id":2,"parent":0,"valuation":"-1","precision":"0","exact":false,"dead":false},'
        '{"id":3,"parent":1,"valuation":"0","precision":"0","exact":false,"dead":false},'
        '{"id":4,"parent":1,"valuation":"-1","precision":"0","exact":false,"dead":false},'
        '{"id":5,"parent":3,"valuation":"0","precision":"0","exact":false,"dead":false},'
        '{"id":6,"parent":4,"valuation":"1","precision":"0","exact":false,"dead":false},'
        '{"id":7,"parent":2,"valuation":"1","precision":"0","exact":false,"dead":false},'
        '{"id":8,"parent":2,"valuation":"-1","precision":"0","exact":false,"dead":false},'
        '{"id":9,"parent":7,"valuation":"0","precision":"0","exact":false,"dead":false},'
        '{"id":10,"parent":8,"valuation":"2","precision":"0","exact":false,"dead":false}]}}\n',
    ),
}

# SHA-256 of each --newton-svg file for CLOSE_ROOTS at --pstep 2 --pmax 2; the
# vertex labels include the tail monomial formatting ("-u1 + 1")
PINNED_SVG_SHA256 = {
    "polygon_000.svg": "44e8d14be7027743ac072c161ef91904eb14746486cebdb6f267747fe2d76eb4",
    "polygon_001.svg": "52aa0b492f0885f282faebfc90213731a20cfb30d8c0348689e6230b7f3387b5",
    "polygon_002.svg": "08c1873ed86bfe6442aa3a60eb832060c0aff114424174581dff47609cfc324e",
    "polygon_003.svg": "46d7bf405beffc6c467eb31c1d6a1aebe8bdfe0a68b39912e099e7b96972d604",
    "polygon_004.svg": "f00deca15ca2f97e78cf8d0f76ece51bba84f27243115541848c2fe190c33df8",
}


@pytest.mark.parametrize("name", sorted(PINNED_TREE_JSON))
def test_pinned_tree_json_bytes(tmp_path, name):
    text, flags, want = PINNED_TREE_JSON[name]
    code, out, err = run_cli(tmp_path, text, *flags, "--format", "json", "--tree")
    assert code == 0
    assert out == want


def test_pinned_newton_svg_bytes(tmp_path):
    svg_dir = tmp_path / "polygons"
    code, out, err = run_cli(tmp_path, CLOSE_ROOTS, "--pstep", "2", "--pmax", "2",
                             "--newton-svg", str(svg_dir))
    assert code == 0
    got = {
        name: hashlib.sha256((svg_dir / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(svg_dir))
    }
    assert got == PINNED_SVG_SHA256


@pytest.mark.parametrize(
    "flags",
    [
        ("--pstep", "0"),
        ("--pstep", "-1"),
        ("--pmax", "-1"),
        ("--pstep", "1/0"),
        ("--pmax", "1/0"),
        ("--pmax", "x"),
    ],
    ids="=".join,
)
def test_bad_flag_values_exit_4(tmp_path, flags):
    code, out, err = run_cli(tmp_path, THREE_VAR, *flags)
    assert code == 4
    assert out == ""
    assert err.startswith("error: bad ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--bogus",), "unrecognized arguments: --bogus"),
        (("--format", "xml"), "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
        # the recursion cap is the constant expansion.MAX_DEPTH, not a flag
        (("--max-depth", "5"), "unrecognized arguments: --max-depth 5"),
        (("--pstep",), "argument --pstep: expected one argument"),
    ],
    ids=["unknown-flag", "bad-format", "removed-max-depth", "missing-value"],
)
def test_usage_errors_exit_4_with_one_line(capsys, flags, message):
    # argparse's own exit 2 would read as "the residue field is too small"
    with pytest.raises(SystemExit) as stop:
        main(list(flags))
    assert stop.value.code == 4
    assert capsys.readouterr() == ("", "error: bad flag: %s\n" % message)


def test_a_leading_coefficient_vanishing_only_at_the_true_roots_exits_3(tmp_path):
    # the x2-leading coefficient x1^2 - x1 - t is zero at both true x1 roots
    # but at no truncation of them: put in, its lowest term carries the tail
    # u1, so no extension polygon is trusted and the head is reinforced until
    # the precision bound trips (README "Limits")
    text = "ring x1 x2\npoly x1^2 - x1 - t\npoly x2^2*(x1^2 - x1 - t) + (x2 - x1 + 1 + t)\n"
    assert run_cli(tmp_path, text) == (
        3, "", "error: reinforcing f1 at vertex 1: precision 33 for the branch head would "
        "exceed the bound 32\n")
    assert run_cli(tmp_path, text, "--pmax", "65/2")[2] == (
        "error: reinforcing f1 at vertex 1: precision 33 for the branch head would "
        "exceed the bound 65/2\n")


def test_the_readme_flag_table_lists_every_long_option():
    from troptri.cli import build_arg_parser

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("\nFlags:\n", 1)[1].strip().split("\n\n", 1)[0]
    listed = [re.match(r"\| `(--[a-z-]+)", row).group(1) for row in table.splitlines()[2:]]
    options = [
        option for action in build_arg_parser()._actions for option in action.option_strings
        if option.startswith("--") and option != "--help"
    ]
    assert listed == options


def test_the_shared_parser_answers_each_call_alike(tmp_path, capsys):
    # the parser is built once per process, so a rejected flag, a run with
    # other flags and --help must leave it as it was
    from troptri.cli import build_arg_parser

    assert build_arg_parser() is build_arg_parser()
    seen = []
    for argv in (["--format", "bad"], ["--help"], ["--bogus"]):
        for _ in range(2):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            seen.append((stop.value.code, capsys.readouterr()))
            assert run_cli(tmp_path, THREE_VAR, "--format", "json", "--pmax", "8")[0] == 0
    assert [code for code, _ in seen] == [4, 4, 0, 0, 4, 4]
    assert seen[0] == seen[1] and seen[2] == seen[3] and seen[4] == seen[5]
    assert seen[0][1].err == "error: bad flag: argument --format: invalid choice: 'bad' (choose from 'text', 'json')\n"
    assert seen[2][1].out.startswith("usage: troptri ")
    assert run_cli(tmp_path, THREE_VAR) == (0, "(0,0,0) (0,-1,1) (-1,1,0) (-1,-1,2)\n", "")


# The child's own peak is VmHWM: ru_maxrss would be inherited from this
# process at the fork, and so measure the test run, not the chain's.
CHAIN_RSS = """\
import sys
from troptri.cli import main
code = main(["--input", sys.argv[1]])
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak_kb, file=sys.stderr)
"""


def test_chain_of_300_coordinates_prints_all_ones_in_little_memory(tmp_path):
    # only line i+1 uses x_i, so every vertex shares all but one cached
    # polynomial with its parent and memory stays flat in the chain length
    n = 300
    src = tmp_path / "chain.txt"
    src.write_text("ring %s\npoly x1 - t\n%s" % (
        " ".join("x%d" % (i + 1) for i in range(n)),
        "".join("poly x%d - x%d\n" % (i + 1, i) for i in range(1, n)),
    ))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", CHAIN_RSS, str(src)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout == "(%s)\n" % ",".join(["1"] * n)
    code, maxrss_kb = done.stderr.split()
    assert code == "0"
    assert int(maxrss_kb) < 60 * 1024


MERSENNE_61 = 2**61 - 1


def test_system_over_a_61_bit_prime_field_solves(tmp_path):
    text = "ring x1 x2 fp:%d\npoly (x1 - 3 - t)*(x1 - 5*t^2)\npoly x2^2 - x1*x2 + 7*t\n" % MERSENNE_61
    with time_limit(10):
        code, out, err = run_cli(tmp_path, text)
    assert (code, err) == (0, "")
    assert out.strip() == "(2,1/2) (0,1) (0,0)"


@pytest.mark.parametrize("p", [10**24 + 7, 318665857834031151167461, 10**6 + 2], ids=["above-cap", "psi12", "even"])
def test_modulus_above_the_cap_or_composite_exits_4(tmp_path, p):
    code, out, err = run_cli(tmp_path, "ring x1 fp:%d\npoly x1 - t\n" % p)
    assert (code, out) == (4, "")
    assert err == "error: line 1, column 1: modulus must be a prime <= %d, got %d\n" % (10**24, p)


def test_a_cli_run_builds_no_puiseux_scalar(monkeypatch):
    # a root goes in as its own terms and the kernels work on numerators,
    # so no run on the benchmark corpora builds a scalar
    import troptri.puiseux as puiseux

    def refuse(*args, **kwargs):
        raise AssertionError("a PuiseuxScalar was built")

    monkeypatch.setattr(puiseux.PuiseuxScalar, "__init__", refuse)
    monkeypatch.setattr(puiseux, "_scalar", refuse)
    workloads = read_bench_module("workloads")
    for name in workloads.WORKLOADS:
        for system in workloads.corpus(name, 3, 30):
            code, out, err = cli_run(system.text, ["--format", "json"])
            assert code == 0, (name, err)
            points = {tuple(Fraction(c) for c in p) for p in json.loads(out)["points"]}
            assert points == system.expected, (name, system.text)
