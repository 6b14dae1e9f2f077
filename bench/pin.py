#!/usr/bin/env python3
"""Recompute the pinned output digests in `pinned.json`.

    python3 bench/pin.py

The census tables are pure functions of their specs, and the stream's
digest covers only exact, precision-independent outputs, so the pins
change only when the program's answers change (a bug) or a workload is
redefined (a benchmark change of its own). Review the diff before
committing new pins.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import rootcensus as rc  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    pins = {}
    for name in ("census_cubic", "census_quartic"):
        table = rc.run_census(workloads.census_spec(name))
        pins[name] = {"spec": table.spec_key, "sha256": workloads.table_digest(table),
                      "counters": table.to_json()["counters"]}
        print(name, pins[name]["sha256"], flush=True)
    stream = workloads.StreamWorkload(workloads.DEFAULT_SEED, {})
    for i in range(workloads.DIGEST_COUNT):
        stream.run(i)
    pins["classify_stream"] = {"seed": workloads.DEFAULT_SEED,
                               "count": workloads.DIGEST_COUNT,
                               "sha256": stream.digest()}
    print("classify_stream", pins["classify_stream"]["sha256"])
    with open(workloads.PINNED_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
