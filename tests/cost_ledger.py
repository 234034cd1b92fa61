"""A deterministic cost ledger of the engine: opcodes, calls and memory.

For each workload and seed it solves the first SYSTEMS systems of the
corpus of ``bench/workloads.py`` through ``troptri.cli.main`` in this
process, with the benchmark's flags, fed on standard input as the benchmark
feeds them; and it solves the cascade of ``tests/long_systems.py`` at each n
of CASCADE (``parse_system``, then ``RootTree.run`` at --pstep 1 and --pmax
32).  After a warm pass over every case, it makes for each case one pass
under ``sys.settrace`` with ``frame.f_trace_opcodes``, which counts the
executed opcodes per module (the frame's ``__name__``) and the calls per
function (a generator's resumption counts as a call), then passes under
``tracemalloc`` until two agree on the peak of traced memory above the
pass's start.  Each case prints one JSON row.

The counts do not depend on the host or its load, and a change to the
engine moves them only by the Python-level work it adds or removes.  Two
runs of one tree in one process print the same numbers.  Between
processes only the ``__eq__`` calls that dict probes make move: the root
tree's store keys hold ``id()``s, so the probe chains follow the objects'
addresses, and some distinct roots hash alike (``hash(-1) == hash(-2)``).
Over three processes, oracle-deep at seed 3 read 413-421 calls of
``ApproxRoot.__eq__`` and 11,190,459-11,190,659 opcodes, and a
``tracemalloc`` peak may move by 0.1 KiB.  The counts do
not see work done in C inside one opcode (big-integer products, dict and
tuple operations), so they can explain a timed reading but not replace
one.

    PYTHONPATH=src python tests/cost_ledger.py --tree change
    PYTHONPATH=src python tests/cost_ledger.py --compare ../parent .

``--compare A B`` runs this file in a fresh process per tree, with that
tree's ``src/`` first on the path and PYTHONHASHSEED=0, prints the rows of
A, then those of B, then one row per case with the differences B - A: the
totals, and every module and function whose count moved.  The corpora come
from the ``bench/`` next to this file, read rather than imported, so both
trees solve the same systems.

The name keeps pytest from collecting it.
"""

import argparse
import gc
import json
import sys
import tracemalloc
from collections import Counter

from helpers import cli_run, read_bench_module, run_in_tree
from long_systems import system_text
from troptri import RootTree, parse_system

ARGV = ("--format", "json")  # the flags bench/run.py solves with
WORKLOADS = read_bench_module("workloads")
SYSTEMS = 100
CASCADE = (600, 1200)
# the measured keys of a row; the others name the case and must agree
MEASURED = ("opcodes", "opcodes_by_module", "calls", "tracemalloc_peak_kib")


def counted(body):
    """Opcodes per module and calls per function of one call of ``body``."""
    opcodes, calls, modules = Counter(), Counter(), {}

    def local(frame, event, arg):
        if event == "opcode":
            opcodes[frame.f_code] += 1
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        calls[code] += 1
        if code not in modules:
            modules[code] = frame.f_globals.get("__name__", "?")
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    gc.collect()
    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        body()
    finally:
        sys.settrace(previous)
    by_module, by_function = Counter(), Counter()
    for code, count in opcodes.items():
        by_module[modules[code]] += count
    for code, count in calls.items():
        by_function["%s.%s" % (modules[code], code.co_qualname)] += count
    return by_module, by_function


def peak_kib(body, passes=10):
    """The peak of traced memory above its start during a pass of ``body``,
    once two passes in a row agree to the byte (at most ``passes``).  The
    first passes of a process read a little higher while the interpreter
    settles: 180.6 KiB falling to 179.9 over seven passes of three
    oracle-deep systems."""
    last = None
    for _ in range(passes):
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            body()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        if peak == last:
            break
        last = peak
    return round(peak / 1024, 1)


def corpus_case(workload, seed, systems):
    texts = [system.text for system in WORKLOADS.corpus(workload, seed, systems)]

    def solve_all():
        return {"exit_codes": dict(Counter(str(cli_run(text, ARGV)[0]) for text in texts))}

    return {"case": workload, "seed": seed, "systems": systems}, solve_all


def cascade_case(n):
    text = system_text("cascade", n)

    def solve():
        tree = RootTree(parse_system(text), 1, 32)
        tree.run()
        return {"reinforce": tree.reinforce_count, "points": len(tree.points())}

    return {"case": "cascade", "n": n}, solve


def rows(workloads, seeds, systems, cascade):
    """One row per case.  Every case is solved once before any is measured,
    so no measured pass is the first to fill a cache of the process."""
    cases = [corpus_case(w, seed, systems) for w in workloads for seed in seeds]
    cases += [cascade_case(n) for n in cascade]
    warm = [dict(case, **body()) for case, body in cases]
    for row, (_, body) in zip(warm, cases):
        by_module, by_function = counted(body)
        row["opcodes"] = sum(by_module.values())
        row["opcodes_by_module"] = dict(by_module.most_common())
        row["calls"] = dict(by_function.most_common())
        row["tracemalloc_peak_kib"] = peak_kib(body)
        yield row


def difference(a, b):
    """One row: the case, and B - A on every measured key that moved."""
    out = {key: value for key, value in b.items() if key not in MEASURED and key != "tree"}
    if any(a.get(key) != value for key, value in out.items()):
        out["cases_differ"] = {key: [a.get(key), value] for key, value in out.items() if a.get(key) != value}
    out["opcodes"] = [a["opcodes"], b["opcodes"], b["opcodes"] - a["opcodes"]]
    for key in ("opcodes_by_module", "calls"):
        moved = {}
        for name in sorted(set(a[key]) | set(b[key])):
            old, new = a[key].get(name, 0), b[key].get(name, 0)
            if old != new:
                moved[name] = new - old
        out[key] = moved
    old, new = a["tracemalloc_peak_kib"], b["tracemalloc_peak_kib"]
    out["tracemalloc_peak_kib"] = [old, new, round(new - old, 1)]
    return out


def rows_of_tree(tree, argv):
    """The rows this file prints when run against the tree's ``src/``."""
    return [json.loads(line) for line in run_in_tree(__file__, tree, [*argv, "--tree", tree]).splitlines()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="3", help="comma-separated corpus seeds (default 3)")
    parser.add_argument("--tree", help="a name added to every row")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="run against the src/ of two trees and print both and B - A")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (rows_of_tree(tree, ["--seeds", args.seeds]) for tree in args.compare)
        for row in a + b + [difference(x, y) for x, y in zip(a, b)]:
            print(json.dumps(row))
        return
    seeds = [int(seed) for seed in args.seeds.split(",")]
    for row in rows(WORKLOADS.WORKLOADS, seeds, SYSTEMS, CASCADE):
        if args.tree:
            row = {"tree": args.tree, **row}
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    main()
