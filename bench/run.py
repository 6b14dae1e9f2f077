#!/usr/bin/env python3
"""Run one rootcensus benchmark workload and print its metrics.

    python3 bench/run.py --workload census_cubic --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/` next to this directory, never from an installed copy, and scratch
files (checkpoints, span dumps) go to `.bench_work/` in the checkout.

With `--trace 0` the workload is served in a closed loop by one caller
for `--seconds` and the end-to-end metrics are printed. With
`--trace 1` each of a fixed number of requests is served twice, once
untraced and once with every layer boundary wrapped by `spans.Tracer`;
the per-layer metrics come from the traced spans. The last line of output
is one JSON object: correct, attempted, failed and metrics. The exit
code is 0 when every output check passed, 1 when one failed and 2 when
the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Dict, List, Optional, Tuple

import layers
from spans import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 6  # half before the timed loop, half after it
WORKLOADS = ("census_cubic", "census_quartic", "classify_stream")

# Runs in a fresh interpreter: import the package, then one warm-up call.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import rootcensus
import workloads
wl = workloads.make_workload(sys.argv[3], workloads.DEFAULT_SEED, sys.argv[4])
wl.warm_up()
print(time.perf_counter() - t0)
"""

END_TO_END = {
    "polys_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="rootcensus benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="stream seed (census workloads have no seeded input)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def probe_setup(workload: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, SRC, BENCH_DIR, workload, WORKDIR],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def serve_one(wl, i: int) -> Tuple[int, int]:
    """Serve request `i`; returns (polynomials, failures). A request that
    raises counts as one failure."""
    try:
        return wl.run(i)
    except Exception:
        log("request %d raised:\n%s" % (i, traceback.format_exc()))
        return 0, 1


def serve(wl, seconds: float):
    """Closed loop, one caller: serve requests until `seconds` would be
    exceeded (at least `wl.min_requests`).
    Returns (latencies, polynomials, failures, wall seconds)."""
    clock = time.perf_counter
    lat: List[float] = []
    polys = failed = 0
    start = clock()
    while len(lat) < wl.min_requests or clock() - start + statistics.fmean(lat) <= seconds:
        t = clock()
        n, bad = serve_one(wl, len(lat))
        lat.append(clock() - t)
        polys += n
        failed += bad
    return lat, polys, failed, clock() - start


def nearest_rank(values: List[float], q: float) -> Tuple[float, int]:
    """q-quantile by nearest rank, and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(wl, seconds: float) -> Tuple[Dict[str, float], int, int]:
    setup = [probe_setup(wl.name) for _ in range(SETUP_RUNS // 2)]
    lat, polys, failed, wall = serve(wl, seconds)
    setup += [probe_setup(wl.name) for _ in range(SETUP_RUNS - len(setup))]
    failed += wl.finish(len(lat))
    p90, beyond = nearest_rank(lat, 0.9)
    print("requests %d  polynomials %d  wall %.3f s" % (len(lat), polys, wall))
    print("latency samples %d, %d beyond p90; setup samples %d" % (len(lat), beyond, len(setup)))
    metrics = {
        "polys_per_s": polys / wall,
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, len(lat), failed


def traced_run(wl, name: str, seed: int):
    """Serve each of the first `wl.trace_requests` requests twice, once
    untraced and once traced, alternating which goes first.

    The overhead ratio is the untraced request time plus the tracer's
    cost (spans recorded times the measured cost of one span) over the
    untraced request time. The traced over untraced wall time of the
    paired passes is printed too, but on a shared 2-core host the speed
    swings by 10-40% within seconds, more than the tracer's 0.5-5% cost,
    so that quotient mostly measures the host."""
    clock = time.perf_counter
    tracer = Tracer()
    wall = {False: 0.0, True: 0.0}
    failed = 0
    for i in range(wl.trace_requests):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                t = clock()
                failed += serve_one(wl, i)[1]
                wall[traced] += clock() - t
            finally:
                if traced:
                    tracer.uninstall()
    failed += wl.finish(wl.trace_requests)
    path = os.path.join(WORKDIR, "spans-%s-%d.jsonl.gz" % (name, seed))
    tracer.write(path)
    cost = tracer.span_cost()
    overhead = 1.0 + len(tracer.spans) * cost / wall[False]
    print("traced %d requests: %d spans written to %s" % (wl.trace_requests, len(tracer.spans), path))
    print("tracer cost %.3f us per span; paired request time untraced %.3f s, traced %.3f s" % (
        cost * 1e6, wall[False], wall[True]))
    metrics = layers.layer_metrics(tracer.spans, wl.checkpoint_size(), overhead)
    return metrics, 2 * wl.trace_requests, failed


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rootcensus", "__init__.py")):
        log("bench: no package source at %s; run from the root of a checkout" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import rootcensus

    if not os.path.abspath(rootcensus.__file__).startswith(SRC + os.sep):
        log("bench: imported rootcensus from %s, not %s" % (rootcensus.__file__, SRC))
        return 2
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.make_workload(args.workload, seed, WORKDIR, report=log)
    wl.warm_up()
    if args.trace:
        metrics, attempted, failed = traced_run(wl, args.workload, seed)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        metrics, attempted, failed = timed_run(wl, args.seconds)
        units = END_TO_END
    print("workload %s  seed %d  trace %d" % (args.workload, seed, args.trace))
    for key, value in metrics.items():
        print("  %-44s %14.6g %s" % (key, value, units[key]))
    print("failed_ratio %.6g (%d failed of %d attempted)" % (failed / attempted, failed, attempted))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
