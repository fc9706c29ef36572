"""Smoke test of the benchmark harness at toy size.

    python3 -m pytest perfbench/tests

Every workload runs traced and untraced on two sweep points and a few
hundred realizations; each named metric must be present and finite.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_toy_run_reports_every_metric(workload, trace, tmp_path):
    record = run.measure(workload, seed=7, seconds=0, trace=trace, toy=True,
                         work=tmp_path)
    assert record["correct"], record["failures"]
    assert record["attempted"] >= 1
    expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert set(record["metrics"]) == set(expected)
    for name, metric in record["metrics"].items():
        assert math.isfinite(metric["value"]), name
        assert metric["unit"] == expected[name]
    line = run.result_line([record])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert run.describe(record)


def test_missing_targets_read_zero_calls(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", {
        "gone.module": ("pinchnet_no_such_module", "f", None, None),
        "gone.function": ("json", "no_such_function", None, None),
    })
    t = tracer.Tracer(run_id=0)
    t.install()
    assert t.missing == ["gone.module", "gone.function"]
    values = tracer.layer_metrics({"spans": [], "counts": {}, "missing": []})
    assert set(values) == set(tracer.LAYER_UNITS)
    assert all(v == 0 for v in values.values())
