"""The work the engine does on fixed systems is pinned.

The benchmark's tracer (``bench/tracing.py``) counts the engine's layer calls
and scalar operations.  The counts that measure work rather than time
(``tracing.EXACT``) are kept in ``exact_counts.json`` for the first SYSTEMS
systems of each workload at SEED, run through the CLI as the benchmark runs
them.  A change that only makes the engine faster leaves every count as it
is.  After a change meant to alter the work,
``python tests/test_exact_counts.py`` (with ``src`` on the path) rewrites
``tests/exact_counts.json`` and prints to stderr, one line each, every count
that changed: ``<workload> <metric>: <old> -> <new>``, ``None`` for a count
that was not there or is gone.

The files under ``bench/`` are read, not imported, so nothing is written
next to them.
"""

import json
import sys
from pathlib import Path

import pytest

import troptri
from helpers import cli_run, read_bench_module

PINNED = Path(__file__).resolve().parent / "exact_counts.json"
SEED = 3
SYSTEMS = 20
ARGV = ["--format", "json"]


tracing = read_bench_module("tracing")
workloads = read_bench_module("workloads")


def exact_counts(workload):
    """The EXACT metrics of one traced pass over the workload's pinned systems."""
    tracer = tracing.Tracer(troptri)
    with tracer:
        for system in workloads.corpus(workload, SEED, SYSTEMS):
            code, _, _ = cli_run(system.text, ARGV)
            assert code == 0, system.text
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    return {name: metrics[name] for name in tracing.EXACT}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_are_pinned(workload):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[workload]
    assert exact_counts(workload) == pinned


if __name__ == "__main__":
    old = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.exists() else {}
    counts = {w: exact_counts(w) for w in workloads.WORKLOADS}
    for workload in sorted(old.keys() | counts.keys()):
        was, now = old.get(workload, {}), counts.get(workload, {})
        for name in sorted(was.keys() | now.keys()):
            if was.get(name) != now.get(name):
                print("%s %s: %s -> %s" % (workload, name, was.get(name), now.get(name)), file=sys.stderr)
    PINNED.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n", encoding="utf-8")
