"""Alternating benchmark pairs of two checkouts, for speed claims.

Runs ``bench/run.py --workload W --seed S --seconds T --trace 0`` in the
parent checkout and in the change, one after the other, once per seed: the
parent goes first on odd pairs and the change first on even ones, so a slow
stretch of the host does not always fall on the same side.  Every run has
PYTHONDONTWRITEBYTECODE=1, so no checkout gains bytecode the other lacks.
Then it prints one JSON object: per end-to-end metric of the change's
BENCHMARK.json, the two medians, the quartiles, the pairs the change won and
the raw values (the ``summary_trace0`` form of ``BENCH_*.json``), and the
runs themselves.  It only reads ``bench/``.

    python tests/bench_pairs.py --parent ../parent --change . \\
        --workload oracle-deep --seeds 3001-3010 --seconds 30

The name keeps pytest from collecting it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(text):
    """'3001-3010' or '3001,3005' as a list of ints."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds += range(int(first), int(last or first) + 1)
    return seeds


def run(tree, workload, seed, seconds):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("bench_pairs: %s failed in %s:\n%s" % (" ".join(command), tree, done.stderr[-2000:]))
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="exclusive")]


def summary(pairs, metrics):
    """Per metric: medians, quartiles, the change's wins and the raw values."""
    out = {}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [round(p["metrics"][name]["value"], 4) for p, _ in pairs]
        change = [round(c["metrics"][name]["value"], 4) for _, c in pairs]
        out[name] = {
            "parent_median": round(statistics.median(parent), 4),
            "change_median": round(statistics.median(change), 4),
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "change_wins": sum((c > p) if higher else (c < p) for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "parent": parent,
            "change": change,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent checkout")
    parser.add_argument("--change", required=True, help="the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=seed_list, help="e.g. 3001-3010: one pair each")
    parser.add_argument("--seconds", default=30, type=float)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    pairs, runs = [], []
    for k, seed in enumerate(args.seeds, 1):
        order = [("parent", args.parent), ("change", args.change)]
        if k % 2 == 0:
            order.reverse()
        results = {}
        for name, tree in order:
            results[name] = run(tree, args.workload, seed, args.seconds)
            runs.append({"tree": name, "workload": args.workload, "seed": seed,
                         "seconds": args.seconds, "trace": 0, "result": results[name]})
            print("pair %d seed %d %s: %s" % (k, seed, name, json.dumps(results[name]["metrics"])),
                  file=sys.stderr)
        pairs.append((results["parent"], results["change"]))
    print(json.dumps({"summary_trace0": {args.workload: summary(pairs, metrics)}, "runs": runs}))


if __name__ == "__main__":
    main()
