#!/usr/bin/env python
"""Benchmark the sharded artifact store behind a skewed parallel sweep.

Drives a synthetic attack-grid sweep at >=10x the smoke profile's cell
count (smoke precomputes 6 attack cells; this sweep runs 120 full / 60
quick) serially and at ``--jobs`` workers, and records:

* **Bitwise equivalence** — the parallel sweep must produce exactly the
  same artifact bytes as the serial baseline (the determinism contract
  that makes ``jobs`` a pure performance knob).  The cell costs are
  deliberately skewed (every 7th cell is a ~20x straggler); each cell is
  its own pool task, so idle workers keep taking cells behind one.
* **Store dedup** — the artifacts are written to a
  :class:`repro.runtime.store.ShardedStore`; beta-rows of the synthetic
  grid share payloads, so content addressing must report >0% savings.

Exit status is non-zero if the parallel sweep diverges from the serial
baseline, dedup saves nothing, or the integrity scrub finds damage.

Results are written to ``BENCH_store.json`` at the repo root.

Usage:  PYTHONPATH=src python benchmarks/bench_store.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Cells per sweep: the smoke profile precomputes 6 attack cells, and
#: the ISSUE 8 acceptance bar is a sweep at >=10x that.
FULL_CELLS = 120
QUICK_CELLS = 60

#: Every Nth cell burns ~STRAGGLER_SCALE x the base cost — the skewed
#: profile where a straggler must not strand the other workers.
STRAGGLER_EVERY = 7
STRAGGLER_SCALE = 20

#: Distinct payload contents across the grid.  Cells map onto payload
#: groups the way beta rows reuse a crafted cell, so the store should
#: dedup ~(1 - UNIQUE_PAYLOADS/cells) of the logical bytes.
UNIQUE_PAYLOADS = 24

_BASE_ITERS = 400


def _craft_cell(cell, seed=None):
    """Synthetic sweep cell: deterministic, CPU-bound, skewed cost.

    The artifact depends only on the cell's payload group (not on the
    worker or the per-item seed), so any two runs at any job count must
    agree byte-for-byte.
    """
    group = cell % UNIQUE_PAYLOADS
    rng = np.random.default_rng(group)
    x = rng.standard_normal(2048)
    iters = _BASE_ITERS
    if cell % STRAGGLER_EVERY == 0:
        iters *= STRAGGLER_SCALE
    acc = np.zeros_like(x)
    for i in range(iters):
        acc += np.tanh(x * ((i % 13) + 1) * 1e-2)
    return {"adv": (acc / iters).astype(np.float64),
            "group": np.array([group], dtype=np.int64)}


def _run_sweep(cells, *, jobs):
    from repro.runtime.executor import ParallelExecutor
    from repro.runtime.store import content_hash

    t0 = time.perf_counter()
    results = ParallelExecutor(jobs, seed=0).map(_craft_cell, cells)
    wall_s = time.perf_counter() - t0
    return results, [content_hash(arrays) for arrays in results], wall_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_CELLS} cells instead of {FULL_CELLS} "
                             "(fast, for CI)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel sweep "
                             "(default 4)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_store.json"))
    args = parser.parse_args(argv)

    from repro.runtime.store import ShardedStore

    n_cells = QUICK_CELLS if args.quick else FULL_CELLS
    cells = list(range(n_cells))
    print(f"[bench_store] sweep of {n_cells} cells "
          f"({n_cells // STRAGGLER_EVERY + 1} stragglers, "
          f"{UNIQUE_PAYLOADS} unique payloads), jobs={args.jobs}", flush=True)

    results, serial_digest, serial_wall = _run_sweep(cells, jobs=1)
    print(f"[bench_store]   serial   {serial_wall:7.2f}s", flush=True)
    _, parallel_digest, parallel_wall = _run_sweep(cells, jobs=args.jobs)
    print(f"[bench_store]   jobs={args.jobs:<3} {parallel_wall:7.2f}s",
          flush=True)

    with tempfile.TemporaryDirectory(prefix="bench_store_") as tmp:
        store = ShardedStore(tmp, shards=64)
        t0 = time.perf_counter()
        for cell, arrays in zip(cells, results):
            store.put("attacks", f"cell{cell:04d}", arrays)
        put_wall = time.perf_counter() - t0
        dedup = store.dedup_report()
        scrub = store.verify()
    print(f"[bench_store]   store: {dedup['entries']} entries -> "
          f"{dedup['unique_blobs']} blobs, "
          f"saved {dedup['saved_pct']:.1f}%", flush=True)

    result = {
        "benchmark": "sharded store behind a skewed parallel sweep",
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "cells": n_cells,
        "jobs": args.jobs,
        "straggler_every": STRAGGLER_EVERY,
        "straggler_scale": STRAGGLER_SCALE,
        "unique_payloads": UNIQUE_PAYLOADS,
        "sweeps": {
            "serial": {"jobs": 1, "wall_s": round(serial_wall, 3)},
            "parallel": {"jobs": args.jobs,
                         "wall_s": round(parallel_wall, 3)},
        },
        "bitwise_identical": parallel_digest == serial_digest,
        "store": {
            "put_wall_s": round(put_wall, 3),
            "puts_per_s": round(n_cells / max(put_wall, 1e-9), 1),
            "scrub": scrub,
            **dedup,
        },
    }

    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))

    failures = []
    if not result["bitwise_identical"]:
        failures.append(f"jobs={args.jobs} sweep diverged from the serial "
                        "baseline")
    if dedup["saved_pct"] <= 0:
        failures.append("store dedup saved nothing on a grid with "
                        f"{UNIQUE_PAYLOADS}/{n_cells} unique payloads")
    if scrub["quarantined"] or scrub["dangling"]:
        failures.append(f"integrity scrub found damage: {scrub}")
    for failure in failures:
        print(f"[bench_store] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
