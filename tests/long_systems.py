"""Time and size of the root tree on long systems, one process per case.

Runs each case below in a fresh Python process, so that peak RSS is the
case's own, and prints one JSON object per case, in the form of the rows of
the ``long_systems`` blocks of ``BENCH_*.json``: the system, n, the time of
``RootTree.run`` alone (``time.perf_counter``), the time of ``parse_system``
before it, peak RSS (``VmHWM``, Linux), the reinforcement count, the number
of vertices made and the number of points.

Both times are given at the reference speed of ``bench/run.py``, as the
benchmark gives a solve's: its ``reference`` loop (read through
``helpers.read_bench_module``, not imported) is timed before the parse and
after the run, and ``parse_s`` and ``run_s`` are scaled by REF_MS over the
mean of those two times, so a slow stretch of a shared host cancels out.
``ref_s`` is that mean, unscaled.  The scaling is always on: no flag turns
it off.  Reading the loop loads ``bench/run.py`` and its neighbours, which
adds about 0.5 MB to each case's peak RSS.  The cases:

- chain: ``x1 - t``, ``xi - x(i-1)``, at n = 1,000 and 3,000;
- cascade: ``(x1 - 1 - t)*(x1 - 1 - t^2)``, ``xi - x(i-1)``,
  ``xn - x(n-1) + 1``, at n = 600 and 1,200;
- pstep: ``x1^2 - x1 - t``, ``x2 - x1 + 1 + t - t^2 + ... - 42*t^6``
  at ``--pstep 1/1000``, whose head is reinforced once per step.

Every case runs at ``--pmax 32``, the CLI's default.  Run it from the root of
a tree; ``--tree NAME`` adds ``"tree": NAME`` to every row, to tell the rows
of two trees apart.  ``--repeat K`` runs every case K times, each in its own
process and the cases in turn, and prints per case the median of ``parse_s``,
``run_s``, ``peak_rss_mb`` and ``ref_s`` with their interquartile ranges
(``statistics.quantiles``, exclusive method) under the same names plus
``_iqr``; the counts must agree between runs:

    PYTHONPATH=src python tests/long_systems.py --tree change --repeat 5
    PYTHONPATH=src python tests/long_systems.py --case cascade 600

The name keeps pytest from collecting it.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from helpers import read_bench_module
from troptri import RootTree, parse_system

CASES = [("chain", 1000), ("chain", 3000), ("cascade", 600), ("cascade", 1200), ("pstep", 2)]
P_MAX = 32
PSTEP = {"chain": "1", "cascade": "1", "pstep": "1/1000"}
# the measured keys, each with the decimal places it is printed to
MEASURED = {"parse_s": 3, "run_s": 3, "peak_rss_mb": 1, "ref_s": 6}


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


def peak_rss_kb():
    """This process's own peak RSS, VmHWM: a child started by ``subprocess``
    inherits the parent's ru_maxrss at the fork and keeps it across exec."""
    with open("/proc/self/status", encoding="ascii") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))


def run_case(name, n):
    """One row, measured in this process, its times at the reference speed."""
    sys.dont_write_bytecode = True  # bench/run.py imports its neighbours
    bench = read_bench_module("run")
    text = system_text(name, n)
    before = bench.reference_seconds()
    start = time.perf_counter()
    system = parse_system(text)
    parsed = time.perf_counter()
    tree = RootTree(system, Fraction(PSTEP[name]), P_MAX)
    start_run = time.perf_counter()
    tree.run()
    run_s = time.perf_counter() - start_run
    ref_s = (before + bench.reference_seconds()) / 2
    scale = bench.REF_MS / 1000 / ref_s
    return {
        "system": name,
        "n": n,
        "pstep": PSTEP[name],
        "parse_s": round((parsed - start) * scale, MEASURED["parse_s"]),
        "run_s": round(run_s * scale, MEASURED["run_s"]),
        "ref_s": round(ref_s, MEASURED["ref_s"]),
        "peak_rss_mb": round(peak_rss_kb() / 1024, MEASURED["peak_rss_mb"]),
        "reinforce": tree.reinforce_count,
        "vertices_made": len(tree.vertices),
        "points": len(tree.points()),
    }


def run_in_process(name, n):
    """One row, measured in a fresh Python process."""
    out = subprocess.run(
        [sys.executable, __file__, "--case", name, str(n)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def summarize(runs):
    """One row for the runs of a case: the medians and interquartile ranges
    of MEASURED, and the counts, which every run must share."""
    row = {key: value for key, value in runs[0].items() if key not in MEASURED}
    for run in runs[1:]:
        if any(run[key] != value for key, value in row.items()):
            raise SystemExit("the runs of %s n=%d disagree: %r, %r" % (row["system"], row["n"], runs[0], run))
    for key, places in MEASURED.items():
        values = [run[key] for run in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        row[key] = round(statistics.median(values), places)
        row[key + "_iqr"] = round(q3 - q1, places)
    row["repeat"] = len(runs)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--case", nargs=2, metavar=("SYSTEM", "N"), help="run one case in this process")
    parser.add_argument("--tree", help="a name added to every row")
    parser.add_argument("--repeat", type=int, default=1, metavar="K", help="run every case K times")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.case:
        rows = [run_case(args.case[0], int(args.case[1]))]
    elif args.repeat == 1:
        rows = [run_in_process(name, n) for name, n in CASES]
    else:
        runs = [[] for _ in CASES]
        for _ in range(args.repeat):
            for case_runs, (name, n) in zip(runs, CASES):
                case_runs.append(run_in_process(name, n))
        rows = [summarize(case_runs) for case_runs in runs]
    for row in rows:
        if args.tree:
            row = {"tree": args.tree, **row}
        print(json.dumps(row))


if __name__ == "__main__":
    main()
