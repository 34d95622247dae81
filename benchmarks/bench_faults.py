#!/usr/bin/env python
"""Benchmark the fault-tolerance layer's overhead at zero fault rate.

Every map runs through the executor's one supervised dispatch loop; a
:class:`~repro.runtime.faults.RetryPolicy` adds a per-item SIGALRM
watchdog and retry budget on top.  That is only worth having always-on
in sweeps if it is close to free when nothing fails.  This benchmark
maps a synthetic CPU-bound workload through the loop without a policy
and with a policy but 0% injected faults, and reports the relative
overhead.  Target: < 5%.

Also measured: the policy's per-item cost on near-zero work items (an
upper bound — real attack cells run for seconds, drowning the
bookkeeping), and one chaos round (transient faults + retries) to
record what recovery costs when faults *do* fire.

Results are written to ``BENCH_faults.json`` at the repo root.

Usage:  PYTHONPATH=src python benchmarks/bench_faults.py [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _burn(n_iter, seed=None):
    """CPU-bound work item roughly comparable to a small attack step."""
    import numpy as np

    rng = np.random.default_rng(seed if seed is not None else n_iter)
    x = rng.standard_normal((64, 64))
    for _ in range(n_iter):
        x = np.tanh(x @ x.T / 64.0)
    return float(x.sum())


def _tiny(value, seed=None):
    return value * 2


def _time_map(fn, items, repeats, **kwargs):
    """Best-of-``repeats`` wall-clock for one parallel_map configuration."""
    from repro.runtime.executor import parallel_map

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        parallel_map(fn, items, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=max(2, os.cpu_count() or 2),
                        help="worker count for the pooled rounds")
    parser.add_argument("--items", type=int, default=24,
                        help="work items per round")
    parser.add_argument("--iters", type=int, default=200,
                        help="matmul iterations per realistic work item "
                             "(~10 ms each; real attack cells run for "
                             "seconds, so this still overstates overhead)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="rounds per configuration (best is kept)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_faults.json"))
    args = parser.parse_args(argv)

    from repro.runtime.faults import FaultPlan, RetryPolicy

    policy = RetryPolicy(timeout_s=300.0, retries=2, backoff_s=0.05)
    work = [args.iters] * args.items
    rounds = {}

    for label, jobs in (("serial", 1), ("pool", args.jobs)):
        print(f"[bench_faults] {label}: realistic workload "
              f"({args.items} items x {args.iters} iters) ...", flush=True)
        bare = _time_map(_burn, work, args.repeats, jobs=jobs, seed=0)
        guarded = _time_map(_burn, work, args.repeats, jobs=jobs, seed=0,
                            policy=policy)
        rounds[label] = {
            "jobs": jobs,
            "no_policy_s": round(bare, 4),
            "policy_0pct_s": round(guarded, 4),
            "overhead_pct": round(100.0 * (guarded - bare) / bare, 2),
        }
        print(f"[bench_faults]   no policy {bare:.3f}s, policy "
              f"{guarded:.3f}s ({rounds[label]['overhead_pct']:+.1f}%)",
              flush=True)

    # Upper bound: the policy's per-item cost dominates when items do
    # ~no work.
    tiny_items = list(range(512))
    tiny_bare = _time_map(_tiny, tiny_items, args.repeats, jobs=1)
    tiny_guarded = _time_map(_tiny, tiny_items, args.repeats, jobs=1,
                             policy=policy)
    per_item_us = 1e6 * (tiny_guarded - tiny_bare) / len(tiny_items)

    # What recovery costs when faults actually fire (not part of the
    # <5% target; recorded for context).
    plan = FaultPlan(transients={i: 1 for i in range(0, args.items, 6)})
    chaos = _time_map(_burn, work, 1, jobs=args.jobs, seed=0,
                      policy=RetryPolicy(retries=2, backoff_s=0.05),
                      fault_plan=plan)

    target_pct = 5.0
    worst_pct = max(r["overhead_pct"] for r in rounds.values())
    result = {
        "benchmark": "fault-tolerance overhead at 0% faults",
        "cpu_count": os.cpu_count(),
        "items": args.items,
        "iters_per_item": args.iters,
        "repeats": args.repeats,
        **rounds,
        "policy_cost_us_per_trivial_item": round(per_item_us, 2),
        "chaos_round_s": round(chaos, 4),
        "chaos_faults_injected": len(plan.transients),
        "target_overhead_pct": target_pct,
        "worst_overhead_pct": worst_pct,
        "within_target": bool(worst_pct < target_pct),
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))
    if not result["within_target"]:
        print(f"[bench_faults] WARN: overhead {worst_pct:.1f}% exceeds "
              f"{target_pct:.0f}% target", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
