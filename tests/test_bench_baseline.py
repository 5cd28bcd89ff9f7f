"""BENCH_baseline.json: one untraced and one traced run of every workload."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_baseline_covers_every_workload_and_metric():
    """Each workload of BENCHMARK.json has one --trace 0 run carrying every
    end-to-end metric and one --trace 1 run carrying every per-layer metric;
    every run is correct and its context names Python, numpy and nproc."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = json.loads((ROOT / "BENCH_baseline.json").read_text())["runs"]
    want = {
        0: {m["name"] for m in bench["end_to_end"]},
        1: {m["name"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, trace) for w in workloads for trace in (0, 1))
    for run in runs:
        label = f"{run['workload']} --trace {run['trace']}"
        context, result = run["lines"]
        assert context["context"]["workload"] == run["workload"], label
        assert {"python", "numpy", "nproc"} <= set(context["context"]), label
        assert result["correct"] is True and result["failed"] == 0, label
        assert want[run["trace"]] <= set(result["metrics"]), label
