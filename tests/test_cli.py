"""The command line driver: outputs, exit codes, determinism."""

import hashlib
import json
import os

import pytest

from helpers import QQ, const, ps, upoly, uc
from troptri.cli import main
from troptri.polygon import newton_polygon
from troptri.svg import polygon_svg

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


def test_exit_code_non_triangular(tmp_path):
    code, out, err = run_cli(tmp_path, "ring x1 x2\npoly x2 - 1\npoly x1\n")
    assert code == 4


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
    from troptri.upoly import format_residue_terms

    g = paper_f2_tilde().shift_substitute(ps((0, 1), (1, 1)), 2)
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
        '{"id":2,"parent":0,"valuation":"0","precision":"2","exact":true,"dead":false},'
        '{"id":3,"parent":0,"valuation":"0","precision":"2","exact":false,"dead":false},'
        '{"id":4,"parent":2,"valuation":"1","precision":"0","exact":false,"dead":false},'
        '{"id":5,"parent":3,"valuation":"2","precision":"0","exact":false,"dead":false}]}}\n',
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
    "polygon_003.svg": "82d0266a8eae22babb25d348249ec7de8cacba3ec7b0aa3314ea81c4a8621a01",
    "polygon_004.svg": "5de6f29e65aced9a26c6cdfff393bbf2437a30d080f3dc9d78ec89888faa681a",
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
        ("--max-depth", "-1"),
    ],
    ids="=".join,
)
def test_bad_flag_values_exit_4(tmp_path, flags):
    code, out, err = run_cli(tmp_path, THREE_VAR, *flags)
    assert code == 4
    assert out == ""
    assert err.startswith("error: bad ") and err.count("\n") == 1
