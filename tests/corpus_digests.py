"""SHA-256 digests of the parsed systems and the CLI's bytes on the benchmark corpora.

Prints one line per (workload, seed, flag set, system): the four names and
the SHA-256 of the exit code, stdout and stderr of ``troptri.cli.main`` run
in this process on the system's text, fed on standard input as the benchmark
feeds it.  Under the flag set name ``parsed`` it prints instead the SHA-256
of the system as ``parse_system`` stores it: the field, and for each
polynomial its terms in stored order, each the exponent tuple and the
``den`` and ``nums`` of the term's coefficient as a scalar
(``oracles.to_scalars``): its numerators sorted, over the least
denominator of that one term, whatever denominator the polynomial keeps.
So a parser change is compared on the corpora directly, not only through
the solver.  Under the flag set name
``set`` it prints the SHA-256 of the exit code, stderr and sorted point list
of the ``json`` run, so a change that only reorders the points leaves every
``set`` line as it was.  The corpora are the first
SYSTEMS systems of every workload in ``bench/workloads.py`` at each of
SEEDS.  To check that a change leaves both as they were, compare the trees:

    PYTHONPATH=src python tests/corpus_digests.py > digests.txt
    PYTHONPATH=src python tests/corpus_digests.py --compare ../parent .

``--compare A B`` runs this file in a fresh process per tree, with that
tree's ``src/`` first on the path and PYTHONHASHSEED=0, and prints only the
lines that differ, A's as ``- <line>`` and B's as ``+ <line>``, then
``<n> of <total> lines differ``.

The name keeps pytest from collecting it.  The files under ``bench/`` are
read, not imported, so nothing is written next to them.
"""

import argparse
import hashlib
import json
from itertools import zip_longest

import troptri
from helpers import cli_run, read_bench_module, run_in_tree
from oracles import to_scalars

SEEDS = (3, 7, 11)
SYSTEMS = 100
FLAG_SETS = {
    "json": ("--format", "json"),
    "text": ("--format", "text"),
    "text-pstep-1/3": ("--format", "text", "--pstep", "1/3"),
    "json-tree": ("--format", "json", "--tree"),
}


workloads = read_bench_module("workloads")


def sha256(value):
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def parsed_digest(text):
    """SHA-256 of the stored form of the system ``text`` parses to."""
    system = troptri.parse_system(text)
    form = [[(deg, s.den, s.nums) for deg, s in to_scalars(f).items()] for f in system.polys]
    return hashlib.sha256(repr((system.field.name, form)).encode()).hexdigest()


def compare(a, b):
    """Print the lines of the runs against trees A and B that differ, then their count."""
    a, b = (run_in_tree(__file__, tree, []).splitlines() for tree in (a, b))
    differ = 0
    for old, new in zip_longest(a, b):
        if old != new:
            differ += 1
            for sign, line in (("-", old), ("+", new)):
                if line is not None:
                    print(sign, line)
    print("%d of %d lines differ" % (differ, max(len(a), len(b))))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="run against the src/ of two trees and print the lines that differ")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            systems = workloads.corpus(workload, seed, SYSTEMS)
            for index, system in enumerate(systems):
                print(workload, seed, "parsed", index, parsed_digest(system.text))
            sets = []
            for name, flags in FLAG_SETS.items():
                for index, system in enumerate(systems):
                    code, out, err = cli_run(system.text, flags)
                    print(workload, seed, name, index, sha256([code, out, err]))
                    if name == "json":
                        points = sorted(json.loads(out)["points"]) if code == 0 else []
                        sets.append(sha256([code, err, points]))
            for index, digest in enumerate(sets):
                print(workload, seed, "set", index, digest)


if __name__ == "__main__":
    main()
