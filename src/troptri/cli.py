"""Command line driver: parse a system, tropicalize, report.

Exit codes: 0 success; 4 a flag or its value is bad, or the input cannot
be read; 5 an SVG cannot be written; else the ``exit_code`` of the error
raised (``troptri.errors``): 2 the residue field is too small, 3 the
precision safeguard tripped, 4 the input could not be parsed or is not
triangular, 5 any other failure.
"""

import argparse
import functools
import json
import sys

from .errors import TropError
from .rationals import parse_rat
from .roottree import RootTree, precisions
from .svg import write_polygon_log
from .sysparse import parse_system


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a bad flag: one line, exit code 4."""
        self.exit(4, "error: bad flag: %s\n" % message)


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = _ArgumentParser(
        prog="troptri",
        description="Tropical points of a zero-dimensional triangular system "
        "over Puiseux series, computed exactly.",
    )
    parser.add_argument("--input", metavar="PATH", help="system file (default: stdin)")
    parser.add_argument("--pstep", default="1", metavar="RAT",
                        help="precision increment per reinforcement (default 1)")
    parser.add_argument("--pmax", default="32", metavar="RAT",
                        help="upper bound on branch precision (default 32)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    parser.add_argument("--tree", action="store_true",
                        help="include the finished root tree in the output")
    parser.add_argument("--newton-svg", metavar="DIR",
                        help="write one SVG per Newton polygon the driver inspects")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        p_step, p_max = precisions(parse_rat(args.pstep, "--pstep"), parse_rat(args.pmax, "--pmax"))
    except ValueError as exc:
        print("error: bad precision flag: %s" % exc, file=sys.stderr)
        return 4

    try:
        if args.input and args.input != "-":
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as exc:
        print("error: cannot read input: %s" % exc, file=sys.stderr)
        return 4

    try:
        tree = RootTree(parse_system(text), p_step, p_max)
        tree.run()
    except TropError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code

    if args.newton_svg:
        try:
            write_polygon_log(args.newton_svg, tree.polygon_log)
        except OSError as exc:
            print("error: cannot write SVG: %s" % exc, file=sys.stderr)
            return 5

    points = [texts for _, texts in tree.point_rows()]
    if args.format == "json":
        payload = {"points": points}
        if args.tree:
            payload["tree"] = tree.to_json_dict()
        print(json.dumps(payload, separators=(",", ":")))
    else:
        line = " ".join("(%s)" % ",".join(p) for p in points)
        print(line)
        if args.tree:
            print(json.dumps(tree.to_json_dict(), separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
