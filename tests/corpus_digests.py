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
SEEDS.  To check that a change leaves both as they were, run this from the
root of both trees and compare:

    PYTHONPATH=src python tests/corpus_digests.py > digests.txt
    diff parent-digests.txt digests.txt

The name keeps pytest from collecting it.  The files under ``bench/`` are
read, not imported, so nothing is written next to them.
"""

import hashlib
import json

import troptri
from helpers import cli_run, read_bench_module
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


def main():
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
