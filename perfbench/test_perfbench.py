"""Self-tests of the benchmark: exact counts repeat, metric names match."""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

# Leading operations of round 0 that are cheap and still reach each layer:
# verify's third suite is the first to build Baxter vectors (pochhammer).
PREFIX = {"verify-dense": 3, "bethe-solve": 3, "curves-small": 1,
          "butterfly-sweep": 1}


def traced_counts(ops) -> dict:
    tracer = bench_trace.Tracer()
    with tracer.installed():
        results = run.run_round(ops, tracer)
    assert all(r.ok for r in results), [r.failure for r in results]
    return tracer.counts()


@pytest.mark.parametrize("workload", sorted(bench_workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    ops = bench_workloads.WORKLOADS[workload](7, 0, str(tmp_path))
    ops = ops[:PREFIX[workload]]
    first = traced_counts(ops)
    assert first == traced_counts(ops)
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0
    if workload == "verify-dense":
        assert first["weylcore.pochhammer.calls"] > 0
        assert first["transfer.dense_bytes"] > 0


def test_wrappers_are_removed(tmp_path):
    import hofchain.baxter
    import hofchain.weylcore
    before = (hofchain.baxter.pochhammer, hofchain.weylcore.Operator.__add__)
    with bench_trace.Tracer().installed():
        assert hofchain.baxter.pochhammer is not before[0]
    assert (hofchain.baxter.pochhammer,
            hofchain.weylcore.Operator.__add__) == before


def test_same_seed_same_inputs(tmp_path):
    for make_round in bench_workloads.WORKLOADS.values():
        a = make_round(11, 2, str(tmp_path))
        b = make_round(11, 2, str(tmp_path))
        assert [op.key for op in a] == [op.key for op in b]
        assert [op.run.args for op in a] == [op.run.args for op in b]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = run.Result(key={}, seconds=0.5, ok=True, margin=3.0)
    e2e = run.end_to_end([[result]], setup_s=0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: u for k, (_, u) in e2e.items()}
    layers = bench_trace.Tracer().layer_metrics(1)
    layers.update(run.bench_layers([], 1, []))
    layers["trace.overhead_pct"] = (0.0, "%")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: u for k, (_, u) in layers.items()}
    assert [w["name"] for w in spec["workloads"]] == list(bench_workloads.WORKLOADS)
