#!/usr/bin/env python
"""Benchmark the parallel runtime: serial vs --jobs attack crafting.

Runs the smoke-profile attack grid twice against fresh caches — once
with ``jobs=1`` and once with ``jobs=N`` — and records wall-clock,
per-stage telemetry totals, and the cross-check that both paths produce
identical ``stable_hash`` values for every cached artifact.  Results are
written to ``BENCH_runtime.json`` at the repo root.

This is a standalone script (not collected by pytest): a "round" is a
full model-train + attack-sweep pipeline, and the serial/parallel runs
must not share a cache.

Usage:  PYTHONPATH=src python benchmarks/bench_runtime.py [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sweep_once(jobs: int, cache_dir: Path, telemetry_path: Path) -> dict:
    """Train + craft the smoke grid into a fresh cache; return metrics."""
    from repro.experiments import SMOKE, ExperimentContext
    from repro.experiments import sweeps
    from repro.obs import configure_observability, load_events
    from repro.utils.cache import DiskCache, stable_hash

    configure_observability(telemetry_path)
    ctx = ExperimentContext("digits", profile=SMOKE,
                            cache=DiskCache(cache_dir), seed=0)
    t0 = time.perf_counter()
    summary = sweeps.precompute_attacks(ctx, jobs=jobs)
    wall_s = time.perf_counter() - t0

    hashes = {}
    for cell in sweeps.attack_grid(ctx):
        for slot, key in sweeps._cell_keys(ctx, cell).items():
            label = f"{sorted(cell.items())}/{slot}"
            hashes[label] = stable_hash(ctx.cache.load("attacks", key))
    stage_totals = {}
    for event in load_events(telemetry_path):
        duration = event.get("duration_s")
        if duration is not None:
            stage = event["stage"]
            stage_totals[stage] = stage_totals.get(stage, 0.0) + duration
    configure_observability(None)
    return {
        "jobs": jobs,
        "wall_s": round(wall_s, 3),
        "cells_computed": summary["computed"],
        "stage_totals_s": {k: round(v, 3)
                           for k, v in sorted(stage_totals.items())},
        "hashes": hashes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2,
                        help="worker count for the parallel round")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_runtime.json"))
    args = parser.parse_args(argv)
    jobs = max(2, args.jobs)

    rounds = []
    with tempfile.TemporaryDirectory(prefix="bench_runtime_") as tmp:
        tmp = Path(tmp)
        for n in (1, jobs):
            print(f"[bench_runtime] sweep with jobs={n} ...", flush=True)
            rounds.append(_sweep_once(n, tmp / f"cache_j{n}",
                                      tmp / f"telemetry_j{n}.jsonl"))
            print(f"[bench_runtime]   {rounds[-1]['wall_s']:.2f}s, "
                  f"{rounds[-1]['cells_computed']} cells", flush=True)

    serial, parallel = rounds
    identical = serial["hashes"] == parallel["hashes"]
    result = {
        "benchmark": "runtime parallel sweep (smoke profile, digits)",
        "cpu_count": os.cpu_count(),
        "serial": {k: v for k, v in serial.items() if k != "hashes"},
        "parallel": {k: v for k, v in parallel.items() if k != "hashes"},
        "speedup": round(serial["wall_s"] / max(parallel["wall_s"], 1e-9), 3),
        "hashes_identical": identical,
        "n_artifacts": len(serial["hashes"]),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    if not identical:
        print("[bench_runtime] FAIL: parallel artifacts differ from serial",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
