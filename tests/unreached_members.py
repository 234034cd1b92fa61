"""Functions of the package that no CLI run on the benchmark corpora enters.

Runs ``troptri.cli.main`` in this process under ``sys.setprofile`` on the
first SYSTEMS systems of every workload in ``bench/workloads.py`` at each of
SEEDS, once per flag set in FLAG_SETS, with ``--newton-svg`` into a
temporary directory on every tenth system.  Then it prints, one per line,
every function defined in ``src/troptri`` (methods and nested functions
included, lambdas and generator expressions not) that no run entered and
that ALLOWED does not name, and then every name in ALLOWED that is no
longer a function of the package, marked "stale in ALLOWED".  An empty
output means the engine carries no member that only the tests reach, and
ALLOWED names none that is gone.  Run it from the root of the tree:

    PYTHONPATH=src python tests/unreached_members.py

The name keeps pytest from collecting it.  The files under ``bench/`` are
read, not imported, so nothing is written next to them.
"""

import importlib
import inspect
import pkgutil
import sys
import tempfile
import types
from pathlib import Path

import troptri
from helpers import cli_run, read_bench_module

SEEDS = (3, 7)
SYSTEMS = 100
FLAG_SETS = (
    ("--format", "json", "--tree"),
    ("--format", "text"),
    ("--format", "text", "--pstep", "1/3"),
)

# Members kept although the corpora never reach them.
ALLOWED = {
    # parser paths the generated systems do not take: a power of a number,
    # of an x_i or of a parenthesized factor
    "sysparse._ExprParser.exponent",
    "sysparse._ExprParser.power",
    "residue.RationalField.div",
    "residue.PrimeField.div",
    "residue.PrimeField.inv",
    # the parser's error path: a token's column is found only for an error,
    # and the corpora hold no malformed line
    "sysparse._ExprParser.column",
    "sysparse._ExprParser.error",
    # the CLI's usage-error path: the corpora pass only valid flags
    "cli._ArgumentParser.error",
    # public, and round-trip tested
    "sysparse.format_system",
    # the library API; the CLI writes the texts of RootTree.point_rows
    "roottree.trop_triangular",
    "roottree.RootTree.points",
    # value equality of the values the library API hands out; a field's
    # equality is what a scalar's and a polynomial's compares
    "puiseux.PuiseuxScalar.__eq__",
    "puiseux.PuiseuxScalar.__hash__",
    "upoly.MPoly.__eq__",
    "upoly.MPoly.__hash__",
    "residue.ResiduePoly.__eq__",
    "residue.ResiduePoly.__hash__",
    "residue.RationalField.__eq__",
    "residue.RationalField.__hash__",
    "residue.PrimeField.__eq__",
    "residue.PrimeField.__hash__",
    "polygon.Polygon.__eq__",
    "polygon.Polygon.__hash__",
    # a root is a value: no run tries to change one
    "expansion.ApproxRoot.__setattr__",
    # the rational view of a scalar, which the tests read
    "puiseux.PuiseuxScalar.valuation",
    "puiseux.PuiseuxScalar.terms",
    # called only by the members named here: format_system and the __repr__s
    # render polynomials, and error messages name the field
    "upoly.MPoly.format",
    "puiseux.PuiseuxScalar.format",
    "puiseux.PuiseuxScalar.from_numerators",
    "residue.PrimeField.name",
    "upoly.MPoly._key",
    # the scalar sum and product: the engine works on an MPoly's numerators,
    # but bench/tracing.py counts these two by name, and the tests build
    # their reference values with them
    "puiseux.PuiseuxScalar.__add__",
    "puiseux.PuiseuxScalar.__mul__",
    # called only by from_numerators and the scalar sum and product
    "puiseux._common",
    "puiseux._reduced",
    # the library's scalar type, which no CLI run builds
    "puiseux.PuiseuxScalar.__init__",
    "puiseux.PuiseuxScalar.is_zero",
    "puiseux._over",
    "puiseux._scalar",
}


def _allowed(name):
    """ALLOWED, plus the error classes' constructors and every ``__repr__``,
    which pytest prints on a failure."""
    method = name.rsplit(".", 1)[-1]
    return (
        name in ALLOWED
        or (name.startswith("errors.") and method == "__init__")
        or method == "__repr__"
    )


def package_functions():
    """Map each code object of a named function in the package to its name;
    class bodies, which run on import, are searched but not listed."""
    root = str(Path(troptri.__file__).resolve().parent)
    found = {}

    def visit(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                if const.co_flags & inspect.CO_NEWLOCALS:
                    found[const] = prefix + const.co_qualname
                visit(const, prefix)

    for info in pkgutil.iter_modules(troptri.__path__):
        module = importlib.import_module("troptri." + info.name)
        path = Path(module.__file__).resolve()
        if str(path.parent) == root:
            source = path.read_text(encoding="utf-8")
            visit(compile(source, module.__file__, "exec"), info.name + ".")
    return found


def entered_functions(workloads):
    """(code file, first line, qualified name) of every function the runs enter."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_qualname))

    with tempfile.TemporaryDirectory() as svg_dir:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                for index, system in enumerate(workloads.corpus(workload, seed, SYSTEMS)):
                    for flags in FLAG_SETS:
                        argv = list(flags)
                        if index % 10 == 0:
                            argv += ["--newton-svg", svg_dir]
                        sys.setprofile(profile)
                        try:
                            cli_run(system.text, argv)
                        finally:
                            sys.setprofile(None)
    return entered


def main():
    functions = package_functions()
    entered = entered_functions(read_bench_module("workloads"))
    for code, name in sorted(functions.items(), key=lambda item: item[1]):
        if (code.co_filename, code.co_firstlineno, code.co_qualname) not in entered and not _allowed(name):
            print(name)
    for name in sorted(ALLOWED - set(functions.values())):
        print("stale in ALLOWED:", name)


if __name__ == "__main__":
    main()
