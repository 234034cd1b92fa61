"""Benchmark of the troptri command line on generated triangular systems.

    python3 bench/run.py --workload oracle-deep --seed 1 --seconds 30 --trace 0

Each workload is a corpus of systems generated from the seed (workloads.py).
Every system goes as text through ``troptri.cli.main``, called in this process
and thread with the default flags and JSON output, and its printed point set
is compared with the answer known from how the system was built.  A solve
that runs past TIME_LIMIT_S is stopped and counts as a failure.

--trace 0 leaves the engine untouched and measures the end-to-end metrics:
one warm pass, then timed passes for --seconds.  A system's latency is the
median of its timed solves, and systems_per_s is the number of systems over
the sum of their latencies.

Times are given at a fixed reference speed.  On a shared host the processor
slows by up to 1.6x for stretches of 10 to 80 seconds, longer than a run, so
raw wall times of one seed read 10 to 15 ms from one run to the next.  A
fixed pure-Python loop (``reference``) is timed between every two solves, and
each solve's wall time is scaled by REF_MS over the mean of the loop's two
times beside it: a time in "ms" is the solve's wall time at the speed at
which the loop takes REF_MS.  A slow stretch slows the loop and the engine
alike and cancels out; a change to the engine does not touch the loop.  The
set-up time is scaled the same way, by the loop timed around each cold
start, and so is the solve time of each pass that trace.overhead compares;
the per-layer times in spans are raw wall times.

--trace 1 alternates untraced and traced passes (tracing.py) and reports the
per-layer metrics.  Their counts must repeat exactly on every traced pass.
The spans of the last traced pass are written to bench/out/.

The metric names, units and directions come from BENCHMARK.json.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to standard error.
"""

import argparse
import gc
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

ARGV = ["--format", "json"]
SYSTEMS = 100
TIME_LIMIT_S = 5.0
# the warm pass, which also checks every answer, stops starting new solves
# after this long, so a run that hangs on many systems still ends in time
WARM_BUDGET_S = 60.0
MIN_PASSES = 3
SETUP_RUNS = 15
SETUP_INPUT = "ring x1\npoly x1 - t\n"
SETUP_OUTPUT = '{"points":[["1"]]}'
# the reference loop's time at the speed timings are scaled to: about its
# fastest on the 2-core, 2.1 GHz Intel Xeon host this benchmark was tuned on
REF_MS = 2.0
REF_STEPS = 400


class SolveTimeout(BaseException):
    """Raised by the alarm inside the engine; not an Exception, so the CLI
    does not catch it."""


def _alarm(signum, frame):
    raise SolveTimeout()


def load_engine():
    """The troptri package from this checkout's src/, or exit without a result."""
    sys.path.insert(0, SRC)
    try:
        import troptri.cli
    except ImportError as exc:
        sys.exit("bench: cannot import troptri from %s: %s" % (SRC, exc))
    if not os.path.abspath(troptri.__file__).startswith(SRC + os.sep):
        sys.exit("bench: troptri was imported from %s, not from %s" % (troptri.__file__, SRC))
    return troptri


def solve(cli, text, limit):
    """Run the CLI on one system: (exit code or failure, stdout, seconds)."""
    out = io.StringIO()
    sys.stdin = io.StringIO(text)
    signal.setitimer(signal.ITIMER_REAL, limit)
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(ARGV)
    except SolveTimeout:
        code = "timeout after %gs" % limit
    except Exception as exc:  # a traceback fails this system, not the run
        code = "traceback %s: %s" % (type(exc).__name__, exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        sys.stdin = sys.__stdin__
    return code, out.getvalue(), elapsed


def reference():
    """A fixed loop of the kind of work the engine does: rational arithmetic
    on small numbers and dictionary updates."""
    x, table = Fraction(1, 3), {}
    for k in range(REF_STEPS):
        x = x * Fraction(k + 2, k + 1) + Fraction(1, k + 7)
        x = Fraction(x.numerator % 1000003, x.denominator % 1000003 or 1)
        table[k % 37] = x
    return table


def reference_seconds():
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def verdict(system, code, out):
    """None when the CLI printed the expected point set, else the reason."""
    if code != 0:
        return "exit %s" % code
    try:
        points = json.loads(out)["points"]
        got = frozenset(tuple(Fraction(c) for c in p) for p in points)
    except (ValueError, KeyError, TypeError):
        return "unreadable output %r" % out[:80]
    if got != system.expected:
        return "points differ: missing %d, extra %d" % (
            len(system.expected - got), len(got - system.expected))
    return None


class Run:
    """One corpus, its answers and failures, and the passes made over it."""

    def __init__(self, cli, corpus):
        self.cli = cli
        self.corpus = corpus
        self.outputs = {}
        self.failures = {}  # system index -> reason
        self.problems = []  # checks of the whole run that failed
        self.times = {}

    def warm(self):
        """Solve every system once and check its answer."""
        deadline = time.perf_counter() + WARM_BUDGET_S
        for i, system in enumerate(self.corpus):
            left = deadline - time.perf_counter()
            if left <= 0:
                self.failures[i] = "not run: warm pass over %gs" % WARM_BUDGET_S
                continue
            code, out, _ = solve(self.cli, system.text, min(TIME_LIMIT_S, left))
            reason = verdict(system, code, out)
            if reason:
                self.failures[i] = reason
            else:
                self.outputs[i] = out
                self.times[i] = []

    def timed_pass(self):
        """Solve every system that passed once more and keep its time at the
        reference speed; returns the sum of those times."""
        gc.collect()
        total = 0.0
        before = reference_seconds()
        for i in sorted(self.times):
            code, out, elapsed = solve(self.cli, self.corpus[i].text, TIME_LIMIT_S)
            if out != self.outputs[i]:
                self.failures.setdefault(i, "output changed between passes (%s)" % code)
            after = reference_seconds()
            elapsed *= REF_MS / 1000 / ((before + after) / 2)
            before = after
            self.times[i].append(elapsed)
            total += elapsed
        return total

    def passes(self, seconds, body):
        """Call ``body`` (one or more passes) while it fits in ``seconds``, at
        least MIN_PASSES times; returns the count."""
        start = time.perf_counter()
        count = last = 0
        while self.times and (
                count < MIN_PASSES or time.perf_counter() - start + last <= seconds):
            began = time.perf_counter()
            body()
            last = time.perf_counter() - began
            count += 1
        return count

    def latencies(self):
        """Per-system median solve in seconds; a failed system counts as the time limit."""
        return [
            TIME_LIMIT_S if i in self.failures or not self.times.get(i)
            else statistics.median(self.times[i])
            for i in range(len(self.corpus))
        ]


def setup_seconds():
    """Median wall time, at the reference speed, of a fresh interpreter
    running the CLI on a one-line system."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    before = reference_seconds()
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "troptri.cli", *ARGV], input=SETUP_INPUT,
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=60,
        )
        elapsed = time.perf_counter() - start
        after = reference_seconds()
        times.append(elapsed * REF_MS / 1000 / ((before + after) / 2))
        before = after
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_OUTPUT:
            sys.exit("bench: cold CLI run failed (exit %d): %s" % (proc.returncode, proc.stderr))
    return statistics.median(times)


def end_to_end(run, seconds):
    setup = setup_seconds()
    run.warm()
    passes = run.passes(seconds, run.timed_pass)
    lat = run.latencies()
    solved = [lat[i] for i in run.times if i not in run.failures]
    return {
        "systems_per_s": len(solved) / sum(solved) if solved else 0.0,
        "latency_p50_ms": 1000 * statistics.median(lat),
        "latency_p90_ms": 1000 * (statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]),
        "solved_frac": 1 - len(run.failures) / len(run.corpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }, "%d timed passes" % passes


def per_layer(package, run, seconds, spans_path):
    run.warm()
    untraced, traced, layers = [], [], []
    tracer = None

    def pair():
        nonlocal tracer
        untraced.append(run.timed_pass())
        tracer = tracing.Tracer(package)
        with tracer:
            traced.append(run.timed_pass())
        layers.append(tracing.layer_metrics(tracer.spans, tracer.counts))

    if not run.passes(seconds, pair):
        return {}, "nothing solved, nothing traced"
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracing.write_spans(spans_path, tracer.spans)
    for name in tracing.EXACT:
        if len({m[name] for m in layers}) != 1:
            run.problems.append("count %s differs between traced passes" % name)
    # counts are equal on every pass; each time is its least over the passes
    values = {name: min(m[name] for m in layers) for name in layers[0]}
    values["trace.overhead"] = min(traced) / min(untraced)
    return values, "%d untraced + %d traced passes, spans in %s" % (
        len(untraced), len(traced), os.path.relpath(spans_path, ROOT))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--systems", type=int, default=SYSTEMS,
                        help="corpus size (default %d; smaller for a smoke test)" % SYSTEMS)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit("bench: cannot read BENCHMARK.json: %s" % exc)
    package = load_engine()
    signal.signal(signal.SIGALRM, _alarm)

    run = Run(package.cli, workloads.corpus(args.workload, args.seed, args.systems))
    if args.trace:
        spans_path = os.path.join(OUT, "%s-%d.spans.jsonl" % (args.workload, args.seed))
        values, how = per_layer(package, run, args.seconds, spans_path)
        declared = spec["per_layer"]
    else:
        values, how = end_to_end(run, args.seconds)
        declared = spec["end_to_end"]

    failed = len(run.failures)
    print("%s seed %d: %d systems, %d failed, %s" % (
        args.workload, args.seed, len(run.corpus), failed, how), file=sys.stderr)
    print("  fail_frac %.4g" % (failed / len(run.corpus)), file=sys.stderr)
    for i, reason in sorted(run.failures.items()):
        print("  failure of system %d: %s" % (i, reason), file=sys.stderr)
    for problem in run.problems:
        print("  failure: %s" % problem, file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if values and missing:
        sys.exit("bench: BENCHMARK.json declares metrics this run does not compute: %s"
                 % ", ".join(missing))
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print("  %-38s %14.6g %s" % (m["name"], metrics[m["name"]]["value"], m["unit"]),
              file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures and not run.problems and bool(values),
        "attempted": len(run.corpus),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
