"""Smoke test of the benchmark on a few systems per workload.

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(workload, trace, seed=3):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                 "--trace", str(trace), "--systems", "6")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_printed_and_nothing_fails(workload):
    out = result(workload, 0)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 6
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in out["metrics"].items()}
    assert out["metrics"]["solved_frac"]["value"] == 1
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(workload, 1), result(workload, 1)
    assert first["correct"] and first["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in first["metrics"].items()}
    for name in tracing.EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["roottree.step.calls"]["value"] > 0


def test_same_seed_same_corpus():
    for workload in workloads.WORKLOADS:
        a = workloads.corpus(workload, 5, 12)
        b = workloads.corpus(workload, 5, 12)
        assert [s.text for s in a] == [s.text for s in b]
        assert [s.expected for s in a] == [s.expected for s in b]
        assert [s.text for s in a] != [s.text for s in workloads.corpus(workload, 6, 12)]


def test_expected_points_follow_the_construction():
    # (x1 - 2*t)*(x1 - t^(1/2)), x2 = x1 - 2*t + t^2: solutions (2t, t^2) and
    # (t^(1/2), t^(1/2) - 2t + t^2)
    field = workloads.Field()
    f = workloads.Fraction
    specs = [
        [({f(1): f(2)}, []), ({f(1, 2): f(1)}, [])],
        [({f(1): f(-2), f(2): f(1)}, [(0, {f(0): f(1)})])],
    ]
    system = workloads.build(field, specs)
    assert system.expected == {(f(1), f(2)), (f(1, 2), f(1, 2))}
    assert system.text == (
        "ring x1 x2\n"
        "poly (x1 - (2*t^(1)))*(x1 - (t^(1/2)))\n"
        "poly (x2 - (-2*t^(1) + t^(2)) - x1)\n"
    )


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "residue-wide", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
