"""Time and size of the root tree on long systems, one process per case.

Runs each case below in a fresh Python process, so that peak RSS is the
case's own, and prints one JSON object per case, in the form of the rows of
the ``long_systems`` blocks of ``BENCH_*.json``: the system, n, the time of
``RootTree.run`` alone (``time.perf_counter``), the time of ``parse_system``
before it, peak RSS from ``getrusage``, the reinforcement count, the number
of vertices made and the number of points.  The cases:

- chain: ``x1 - t``, ``xi - x(i-1)``, at n = 1,000 and 3,000;
- cascade: ``(x1 - 1 - t)*(x1 - 1 - t^2)``, ``xi - x(i-1)``,
  ``xn - x(n-1) + 1``, at n = 600 and 1,200;
- pstep: ``x1^2 - x1 - t``, ``x2 - x1 + 1 + t - t^2 + ... - 42*t^6``
  at ``--pstep 1/1000``, whose head is reinforced once per step.

Every case runs at ``--pmax 32``, the CLI's default.  Run it from the root of
a tree; ``--tree NAME`` adds ``"tree": NAME`` to every row, to tell the rows
of two trees apart:

    PYTHONPATH=src python tests/long_systems.py --tree change
    PYTHONPATH=src python tests/long_systems.py --case cascade 600

The name keeps pytest from collecting it.
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction

from troptri import RootTree, parse_system

CASES = [("chain", 1000), ("chain", 3000), ("cascade", 600), ("cascade", 1200), ("pstep", 2)]
P_MAX = 32
PSTEP = {"chain": "1", "cascade": "1", "pstep": "1/1000"}


def system_text(name, n):
    if name == "pstep":
        lines = ["x1^2 - x1 - t", "x2 - x1 + 1 + t - t^2 + 2*t^3 - 5*t^4 + 14*t^5 - 42*t^6"]
    else:
        first, last = {
            "chain": ("x1 - t", "x%d - x%d" % (n, n - 1)),
            "cascade": ("(x1 - 1 - t)*(x1 - 1 - t^2)", "x%d - x%d + 1" % (n, n - 1)),
        }[name]
        lines = [first] + ["x%d - x%d" % (i, i - 1) for i in range(2, n)] + [last]
    ring = "ring " + " ".join("x%d" % (i + 1) for i in range(n))
    return "\n".join([ring] + ["poly " + line for line in lines]) + "\n"


def run_case(name, n):
    """One row, measured in this process."""
    text = system_text(name, n)
    start = time.perf_counter()
    system = parse_system(text)
    parsed = time.perf_counter()
    tree = RootTree(system, Fraction(PSTEP[name]), P_MAX)
    start_run = time.perf_counter()
    tree.run()
    run_s = time.perf_counter() - start_run
    return {
        "system": name,
        "n": n,
        "pstep": PSTEP[name],
        "parse_s": round(parsed - start, 3),
        "run_s": round(run_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "reinforce": tree.reinforce_count,
        "vertices_made": tree._next_id,
        "points": len(tree.points()),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--case", nargs=2, metavar=("SYSTEM", "N"), help="run one case in this process")
    parser.add_argument("--tree", help="a name added to every row")
    args = parser.parse_args(argv)
    if args.case:
        rows = [run_case(args.case[0], int(args.case[1]))]
    else:
        rows = []
        for name, n in CASES:
            out = subprocess.run(
                [sys.executable, __file__, "--case", name, str(n)],
                check=True, capture_output=True, text=True,
            ).stdout
            rows.append(json.loads(out.splitlines()[-1]))
    for row in rows:
        if args.tree:
            row = {"tree": args.tree, **row}
        print(json.dumps(row))


if __name__ == "__main__":
    main()
