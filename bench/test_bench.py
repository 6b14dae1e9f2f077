"""Tests of the benchmark itself: run with `python3 -m pytest -q bench/test_bench.py`.

They use tiny inputs and finish in a few seconds; the real workloads
run only through `run.py`.
"""

import gzip
import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import pytest  # noqa: E402
import rootcensus as rc  # noqa: E402
from rootcensus import roots  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = rc.CensusSpec(n=3, height=2, counters=workloads.COUNTERS)


def small_census(pinned: str) -> workloads.CensusWorkload:
    return workloads.CensusWorkload("small", SMALL, lambda: None, pinned)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])


def test_census_check_passes_on_the_right_pin():
    pinned = workloads.table_digest(rc.run_census(SMALL))
    assert small_census(pinned).run(0) == (SMALL.total_points, 0)


def test_tampered_census_pin_fails():
    """Negative control: a wrong pinned hash turns the census request red."""
    assert small_census("0" * 64).run(0) == (SMALL.total_points, 1)


def test_tampered_stream_pin_fails(monkeypatch):
    monkeypatch.setattr(workloads, "DIGEST_COUNT", 3)
    wl = workloads.StreamWorkload(1, {"seed": 1, "sha256": "0" * 64})
    assert [run.serve_one(wl, i) for i in range(3)] == [(1, 0)] * 3
    assert wl.finish(3) == 1
    wl.pinned = {"seed": 1, "sha256": wl.digest()}
    assert wl.finish(3) == 0


def test_injected_exception_in_a_wrapped_call_fails_the_request(monkeypatch):
    """Negative control: an exception raised inside a traced layer call is
    recorded on its span and counts the request as failed."""

    def broken(f):
        raise RuntimeError("injected")

    monkeypatch.setattr(roots, "sturm_real_root_count", broken)
    wl = workloads.StreamWorkload(1, {"seed": 1, "sha256": ""})
    tracer = Tracer()
    with tracer:
        assert [run.serve_one(wl, i) for i in range(2)] == [(0, 1)] * 2
    raised = [s for s in tracer.spans if (s[5] or {}).get("raised") == "RuntimeError"]
    assert [s[0] for s in raised] == ["roots.isolate_roots"] * 2
    assert roots.sturm_real_root_count is broken  # uninstall restored the binding


def test_tracer_spans_and_layer_metrics():
    f = rc.IntPolynomial((1, -2, -2, -2, -1))  # X^4-2X^3-2X^2-2X-1: takes the tie path
    tracer = Tracer()
    with tracer:
        prof = rc.modulus_profile(f)
    assert not hasattr(rc.modulus_profile, "__wrapped__")
    names = [s[0] for s in tracer.spans]
    assert names[0] == "classify.modulus_profile"
    assert "roots.isolate_roots" in names
    m = layers.layer_metrics(tracer.spans, (0, 0), 1.0)
    assert list(m) == [name for name, _, _ in layers.PER_LAYER]
    assert m["classify.modulus_profile.calls"] >= 1
    assert m["classify.decision." + prof.decision] == 1
    assert m["classify.tie_path_ratio"] == m["roots.modulus_separation_bound.calls"]
    assert m["classify.modulus_profile.s"] >= m["classify.modulus_profile.self_s"] > 0
    spans = len(tracer.spans)
    assert tracer.span_cost() > 0
    assert len(tracer.spans) == spans  # calibration spans are dropped


def test_traced_run_pairs_each_request(monkeypatch, tmp_path):
    """Each traced request is served once untraced and once traced; only
    the traced pass leaves spans."""
    monkeypatch.setattr(run, "WORKDIR", str(tmp_path))
    pinned = workloads.table_digest(rc.run_census(SMALL))
    wl = workloads.CensusWorkload("small", SMALL, lambda: None, pinned, trace_requests=2)
    metrics, attempted, failed = run.traced_run(wl, "small", 1)
    assert (attempted, failed) == (4, 0)
    assert metrics["tracing_overhead_ratio"] > 1
    with gzip.open(tmp_path / "spans-small-1.jsonl.gz", "rt") as fh:
        rows = [json.loads(line) for line in fh]
    assert [r[0] for r in rows if r[3] == -1] == ["census.run_census"] * 2


def test_nearest_rank_keeps_ten_beyond_p90_at_100_samples():
    value, beyond = run.nearest_rank([float(i) for i in range(100)], 0.9)
    assert (value, beyond) == (89.0, 10)


@pytest.mark.parametrize("seed", [1, 2])
def test_stream_inputs_follow_the_seed(seed):
    a = workloads.StreamWorkload(seed, {})
    b = workloads.StreamWorkload(seed, {})
    cycle = len(workloads.CYCLE)
    assert [a.poly(i) for i in range(cycle)] == [b.poly(i) for i in range(cycle)]
    degrees = sorted(a.poly(i).degree for i in range(cycle))
    assert degrees == sorted(n for _, n in workloads.CYCLE)
