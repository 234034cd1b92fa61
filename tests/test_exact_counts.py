"""The work the engine does on fixed systems is pinned.

The benchmark's tracer (``bench/tracing.py``) counts the engine's layer calls
and scalar operations.  The counts that measure work rather than time
(``tracing.EXACT``) are kept in ``exact_counts.json`` for the first SYSTEMS
systems of each workload at SEED, run through the CLI as the benchmark runs
them.  A change that only makes the engine faster leaves every count as it
is; a change meant to alter the work regenerates the file with

    PYTHONPATH=src python tests/test_exact_counts.py > tests/exact_counts.json

The files under ``bench/`` are read, not imported, so nothing is written
next to them.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import troptri.cli
from helpers import read_bench_module

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
            sys.stdin = io.StringIO(system.text)
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    code = troptri.cli.main(ARGV)
            finally:
                sys.stdin = sys.__stdin__
            assert code == 0, system.text
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    return {name: metrics[name] for name in tracing.EXACT}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_are_pinned(workload):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[workload]
    assert exact_counts(workload) == pinned


if __name__ == "__main__":
    json.dump({w: exact_counts(w) for w in workloads.WORKLOADS}, sys.stdout, indent=1, sort_keys=True)
    print()
