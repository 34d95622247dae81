#!/usr/bin/env python
"""Benchmark the serving layer: micro-batching, and the process cluster.

Both sections drive the one serving class,
:class:`~repro.serving.service.ClusterService`: the closed-loop rounds
and the in-process equality check at ``workers=0`` (through its
one-model :class:`~repro.serving.service.InferenceService`
constructor), the cluster rounds at ``workers>=1``.

**Closed-loop rounds** (N client threads, each issuing its next request
only after the previous verdict returns) drive the in-process
(``workers=0``) service over a full MagNet
pipeline (detectors -> reformer -> classifier x2), twice:

* **baseline** — ``max_batch=1``: every request is served alone, the
  per-call overhead of the numpy pipeline is paid per request;
* **batched** — ``max_batch=32, max_wait_ms=5``: concurrent requests
  coalesce into micro-batches through one ``decide_batch`` pass.

Two workloads:

* ``dense`` (default) — the small dense MagNet from
  :mod:`repro.serving.smoke`.  Per-call dispatch overhead dominates the
  arithmetic, which is the operating regime dynamic micro-batching is
  built for; forward-pass throughput does not depend on the weight
  values, so the untrained models time exactly like trained ones.
* ``conv`` — the *trained* smoke-profile digits MagNet (convolutional).
  im2col convolutions scale linearly with batch size, so coalescing can
  only amortise the fixed per-call overhead (~3x ceiling on one core);
  reported for context, the acceptance gate runs on ``dense``.

**Cluster rounds** drive the service with worker processes
(shared-memory rings, model router, tiered admission) with an
*open-loop* generator: arrivals
follow a heavy-tailed Pareto inter-arrival process whose mean rate is
pinned at 2x the measured closed-loop capacity, with a priority mix
across the interactive/standard/background tiers.  Mid-load, one worker
is SIGKILLed to prove crash recovery.  Gates:

* every routed model's cluster verdicts are **bitwise identical** to
  the offline ``decide_batch`` on the same (pinned) batch composition;
* zero accepted requests are lost across the worker kill, and the
  supervisor logs at least one restart;
* under 2x overload the background tier sheds (full mode only —
  ``--quick`` keeps CI deterministic).

Results merge into ``BENCH_serving.json`` at the repo root (cluster
keys never clobber closed-loop keys and vice versa); exits non-zero on
any gate failure.  ``--quick`` skips the closed-loop rounds and runs a
small 2-worker / 2-model cluster pass for CI.

This is a standalone script (not collected by pytest): one round spins
up a real worker pool and thousands of requests.

Usage:  PYTHONPATH=src python benchmarks/bench_serving.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent


def _build_conv_magnet(cache_dir: Path):
    """Train (or load) the smoke-profile digits MagNet + test images."""
    from repro.experiments import SMOKE, ExperimentContext
    from repro.utils.cache import DiskCache

    ctx = ExperimentContext("digits", profile=SMOKE,
                            cache=DiskCache(cache_dir), seed=0)
    magnet = ctx.magnet("default")
    return magnet, ctx.splits.test.x


def _build_dense_magnet():
    """Small dense MagNet (no disk, no training) + random flat inputs."""
    from repro.serving.smoke import DIM, build_toy_magnet

    magnet = build_toy_magnet(seed=0)
    rng = np.random.default_rng(7)
    return magnet, rng.random((512, DIM)).astype(np.float32)


def _closed_loop_round(magnet, inputs, config, concurrency: int,
                       requests_per_client: int) -> dict:
    """Drive one service config with a closed-loop thread fleet."""
    from repro.serving import InferenceService

    total = concurrency * requests_per_client
    latencies = [0.0] * total
    errors = [0]
    lock = threading.Lock()

    with InferenceService(magnet, config) as service:
        def run_client(worker: int) -> None:
            for k in range(requests_per_client):
                idx = (worker * requests_per_client + k) % len(inputs)
                t0 = time.perf_counter()
                try:
                    service.predict(inputs[idx], timeout=120)
                except Exception:  # noqa: BLE001 - count, keep loading
                    with lock:
                        errors[0] += 1
                    continue
                latencies[worker * requests_per_client + k] = (
                    time.perf_counter() - t0) * 1000.0

        threads = [threading.Thread(target=run_client, args=(i,))
                   for i in range(concurrency)]
        t_start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall_s = time.perf_counter() - t_start
        snap = service.stats_snapshot()

    served = [ms for ms in latencies if ms > 0]
    p50, p95, p99 = (np.percentile(served, (50, 95, 99))
                     if served else (0.0, 0.0, 0.0))
    return {
        "max_batch": config.max_batch,
        "max_wait_ms": config.max_wait_ms,
        "requests": total,
        "errors": errors[0],
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(len(served) / wall_s, 2),
        "latency_ms": {"p50": round(float(p50), 2),
                       "p95": round(float(p95), 2),
                       "p99": round(float(p99), 2)},
        "mean_batch_size": snap["batches"]["mean_size"],
        "max_batch_seen": snap["batches"]["max_size"],
    }


def _verdict_equality_check(magnet, inputs, n: int = 32) -> bool:
    """Serving verdicts vs offline decide() on the same batch composition.

    Per-row BLAS results are not bitwise stable across batch *shapes*,
    so the check pins the composition: all n requests are queued before
    the worker starts with max_batch=n, producing one flush whose
    stacked input equals the offline batch exactly.  Scores, flags and
    labels must match exactly — equality, not tolerance.
    """
    from repro.serving import InferenceService, ServingConfig

    xs = [np.asarray(x, dtype=np.float32) for x in inputs[:n]]
    service = InferenceService(
        magnet, ServingConfig(max_batch=n, max_wait_ms=60_000,
                              max_queue=2 * n))
    futures = [service.submit(x) for x in xs]
    service.start()
    try:
        verdicts = [f.result(timeout=300) for f in futures]
    finally:
        service.stop()

    offline = magnet.decide(np.stack(xs))
    for i, v in enumerate(verdicts):
        if (v.label != int(offline.labels_reformed[i])
                or v.label_raw != int(offline.labels_raw[i])
                or v.detected != bool(offline.detected[i])):
            return False
        for d, det in enumerate(magnet.detectors):
            if (v.detector_flags[det.name]
                    != bool(offline.detector_flags[d, i])
                    or v.detector_scores[det.name]
                    != float(offline.detector_scores[d, i])):
                return False
    return True


def _cluster_specs(n_models: int, *, max_batch: int = 16,
                   max_queue: int = 64):
    """Toy-zoo model specs sized for the overload rounds."""
    from repro.serving.smoke import build_toy_zoo

    return build_toy_zoo(n_models=n_models, max_batch=max_batch,
                         max_wait_ms=2.0, max_queue=max_queue,
                         adaptive_wait=True)


def _cluster_equivalence_check(specs, workers: int, n: int = 16) -> dict:
    """Cluster verdicts vs offline decide_batch, per routed model.

    Same pinning trick as :func:`_verdict_equality_check`: all ``n``
    requests per model are queued before the workers start with
    ``max_batch=n``, so each tenant flushes exactly one batch whose
    stacked input equals the offline batch bitwise.  Scores, flags and
    labels must match exactly — equality, not tolerance.
    """
    import dataclasses

    from repro.serving import ClusterConfig, ClusterService, ServingConfig
    from repro.serving.smoke import DIM

    pinned = [dataclasses.replace(
        spec, config=ServingConfig(max_batch=n, max_wait_ms=60_000,
                                   max_queue=4 * n))
        for spec in specs]
    rng = np.random.default_rng(11)
    xs = [rng.random(DIM).astype(np.float32) for _ in range(n)]
    cluster = ClusterService(pinned, ClusterConfig(workers=workers))
    futures = {spec.model_id: [cluster.submit(x, model=spec.model_id)
                               for x in xs]
               for spec in pinned}
    cluster.start()
    try:
        verdicts = {mid: [f.result(timeout=300) for f in fs]
                    for mid, fs in futures.items()}
    finally:
        cluster.stop()

    results = {}
    for spec in pinned:
        magnet = spec.build()
        offline = magnet.decide_batch(np.stack(xs))
        identical = True
        for i, v in enumerate(verdicts[spec.model_id]):
            if (v.label != int(offline.labels_reformed[i])
                    or v.label_raw != int(offline.labels_raw[i])
                    or v.detected != bool(offline.detected[i])):
                identical = False
            for d, det in enumerate(magnet.detectors):
                if (v.detector_flags[det.name]
                        != bool(offline.detector_flags[d, i])
                        or v.detector_scores[det.name]
                        != float(offline.detector_scores[d, i])):
                    identical = False
        results[spec.model_id] = identical
    return results


def _cluster_capacity(cluster, inputs, model_ids, probe: int = 128) -> float:
    """Closed-loop capacity estimate (rps) over the running cluster."""
    chunk = 16
    done = 0
    t0 = time.perf_counter()
    for base in range(0, probe, chunk):
        futures = [cluster.submit(inputs[(base + j) % len(inputs)],
                                  model=model_ids[(base + j) % len(model_ids)])
                   for j in range(min(chunk, probe - base))]
        for f in futures:
            f.result(timeout=120)
            done += 1
    wall = time.perf_counter() - t0
    return done / max(wall, 1e-9)


def _open_loop_round(cluster, inputs, model_ids, *, target_rps: float,
                     requests: int, kill_at=None, seed: int = 3) -> dict:
    """Open-loop Pareto arrivals at ``target_rps`` with a priority mix.

    Unlike the closed-loop rounds, the generator never waits for
    verdicts: requests arrive on a heavy-tailed schedule whether or not
    the cluster keeps up, which is what forces the tiered admission to
    shed.  When ``kill_at`` is set, worker 0 is SIGKILLed right after
    that arrival — accepted requests must still all resolve.
    """
    from repro.serving import QueueFullError, ShedError
    from repro.serving.policy import PRIORITY_TIERS

    rng = np.random.default_rng(seed)
    # (pareto(a) + 1) * m has mean m * a / (a - 1); alpha=2.5 gives a
    # heavy tail with finite variance.
    alpha = 2.5
    scale = (1.0 / target_rps) * (alpha - 1.0) / alpha
    inter = (rng.pareto(alpha, size=requests) + 1.0) * scale
    tiers = rng.choice(PRIORITY_TIERS, size=requests, p=(0.5, 0.35, 0.15))

    accepted = []          # (tier, t_submit, future)
    done_at = {}
    shed = {tier: 0 for tier in PRIORITY_TIERS}
    hard_rejects = 0
    killed = False
    lock = threading.Lock()

    def _mark_done(fut):
        with lock:
            done_at[id(fut)] = time.perf_counter()

    t_start = time.perf_counter()
    t_next = t_start
    for k in range(requests):
        t_next += inter[k]
        delay = t_next - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if kill_at is not None and k == kill_at:
            killed = cluster.kill_worker(0)
        tier = str(tiers[k])
        try:
            fut = cluster.submit(inputs[k % len(inputs)],
                                 model=model_ids[k % len(model_ids)],
                                 priority=tier)
        except ShedError:
            shed[tier] += 1
            continue
        except QueueFullError:
            hard_rejects += 1
            continue
        fut.add_done_callback(_mark_done)
        accepted.append((tier, time.perf_counter(), fut))

    errors = 0
    latencies = []
    for tier, t_sub, fut in accepted:
        try:
            fut.result(timeout=300)
        except Exception:  # noqa: BLE001 - count, keep collecting
            errors += 1
            continue
        with lock:
            latencies.append((done_at[id(fut)] - t_sub) * 1000.0)
    wall = (max(done_at.values(), default=time.perf_counter()) - t_start)

    completed = len(latencies)
    p50, p95, p99 = (np.percentile(latencies, (50, 95, 99))
                     if latencies else (0.0, 0.0, 0.0))
    return {
        "requests": requests,
        "target_rps": round(target_rps, 2),
        "accepted": len(accepted),
        "completed": completed,
        "errors": errors,
        "shed_by_tier": shed,
        "hard_rejects": hard_rejects,
        "worker_killed": killed,
        "wall_s": round(wall, 3),
        "goodput_rps": round(completed / max(wall, 1e-9), 2),
        "latency_ms": {"p50": round(float(p50), 2),
                       "p95": round(float(p95), 2),
                       "p99": round(float(p99), 2)},
    }


def _run_cluster_bench(*, workers: int, n_models: int, probe: int,
                       requests: int, quick: bool) -> dict:
    """The full cluster section: equivalence, capacity, 2x overload."""
    from repro.serving import ClusterConfig, ClusterService
    from repro.serving.smoke import DIM

    specs = _cluster_specs(n_models)
    model_ids = [spec.model_id for spec in specs]
    print(f"[bench_serving] cluster equivalence check "
          f"({n_models} models x {workers} workers) ...", flush=True)
    equivalence = _cluster_equivalence_check(specs, workers)

    rng = np.random.default_rng(5)
    inputs = rng.random((512, DIM)).astype(np.float32)
    with ClusterService(specs, ClusterConfig(workers=workers)) as cluster:
        if not cluster.wait_ready(timeout=120):
            raise RuntimeError("cluster workers never became ready")
        print("[bench_serving] measuring cluster capacity ...", flush=True)
        capacity = _cluster_capacity(cluster, inputs, model_ids, probe=probe)
        print(f"[bench_serving]   capacity ~{capacity:.1f} rps; "
              f"open-loop at 2x with worker kill ...", flush=True)
        overload = _open_loop_round(
            cluster, inputs, model_ids, target_rps=2.0 * capacity,
            requests=requests, kill_at=requests // 3)
        snap = cluster.stats_snapshot()

    shed_total = sum(overload["shed_by_tier"].values())
    print(f"[bench_serving]   goodput {overload['goodput_rps']} rps, "
          f"p99 {overload['latency_ms']['p99']} ms, "
          f"shed {shed_total} ({overload['shed_by_tier']}), "
          f"restarts {snap['cluster']['restarts']}", flush=True)
    return {
        "workers": workers,
        "models": model_ids,
        "quick": quick,
        "verdicts_identical_to_offline": equivalence,
        "capacity_rps": round(capacity, 2),
        "overload_2x": overload,
        "restarts": snap["cluster"]["restarts"],
        "shed_by_model": {mid: msnap["shed"]
                          for mid, msnap in snap["models"].items()},
        "adaptive_wait_ms": {mid: msnap["wait_ms"]
                             for mid, msnap in snap["models"].items()},
    }


def _cluster_gates(section: dict, *, require_shed: bool) -> bool:
    """Acceptance gates for the cluster section (printed on failure)."""
    ok = True
    divergent = [mid for mid, same
                 in section["verdicts_identical_to_offline"].items()
                 if not same]
    if divergent:
        print(f"[bench_serving] FAIL: cluster verdicts diverge from offline "
              f"decide_batch for {divergent}", file=sys.stderr)
        ok = False
    overload = section["overload_2x"]
    if overload["errors"]:
        print(f"[bench_serving] FAIL: {overload['errors']} accepted "
              "request(s) lost during the overload round", file=sys.stderr)
        ok = False
    if not overload["worker_killed"] or section["restarts"] < 1:
        print("[bench_serving] FAIL: worker kill/restart did not happen "
              f"(killed={overload['worker_killed']}, "
              f"restarts={section['restarts']})", file=sys.stderr)
        ok = False
    if require_shed and not sum(overload["shed_by_tier"].values()):
        print("[bench_serving] FAIL: 2x overload shed nothing",
              file=sys.stderr)
        ok = False
    return ok


def _merge_results(out_path: Path, update: dict) -> dict:
    """Update BENCH_serving.json in place, preserving unrelated keys."""
    existing = {}
    if out_path.exists():
        try:
            existing = json.loads(out_path.read_text())
        except (OSError, json.JSONDecodeError):
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing.update(update)
    with open(out_path, "w") as fh:
        json.dump(existing, fh, indent=2)
        fh.write("\n")
    return existing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("dense", "conv"),
                        default="dense",
                        help="dense: overhead-bound toy MagNet (default); "
                             "conv: trained smoke digits MagNet")
    parser.add_argument("--concurrency", type=int, default=32,
                        help="closed-loop client threads (default 32)")
    parser.add_argument("--requests-per-client", type=int, default=None,
                        help="requests each client issues "
                             "(default: 100 dense / 24 conv)")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="micro-batch bound for the batched round")
    parser.add_argument("--cache-dir", default=None,
                        help="model cache for conv (default: fresh temp dir)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serving.json"))
    parser.add_argument("--quick", action="store_true",
                        help="CI mode: skip the closed-loop rounds, run "
                             "the in-process verdict equality check and a "
                             "small cluster pass (2 workers, 2 models, "
                             "bitwise equivalence + crash recovery)")
    parser.add_argument("--cluster-workers", type=int, default=2,
                        help="worker processes for the cluster rounds")
    parser.add_argument("--cluster-models", type=int, default=2,
                        help="routed toy models for the cluster rounds")
    parser.add_argument("--skip-cluster", action="store_true",
                        help="closed-loop rounds only (pre-cluster behavior)")
    args = parser.parse_args(argv)
    if args.requests_per_client is None:
        args.requests_per_client = 100 if args.workload == "dense" else 24
    out_path = Path(args.out)

    if args.quick:
        print("[bench_serving] verdict equality check (dense) ...", flush=True)
        identical = _verdict_equality_check(*_build_dense_magnet())
        if not identical:
            print("[bench_serving] FAIL: serving verdicts differ from offline "
                  "MagNet", file=sys.stderr)
        cluster = _run_cluster_bench(
            workers=args.cluster_workers, n_models=args.cluster_models,
            probe=96, requests=200, quick=True)
        _merge_results(out_path, {"cluster": cluster,
                                  "cpu_count": os.cpu_count()})
        print(json.dumps({"cluster": cluster}, indent=2))
        gates_ok = _cluster_gates(cluster, require_shed=False)
        return 0 if identical and gates_ok else 1

    from repro.serving import ServingConfig

    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        if args.workload == "dense":
            magnet, inputs = _build_dense_magnet()
        else:
            cache_dir = Path(args.cache_dir) if args.cache_dir else Path(tmp)
            print("[bench_serving] training smoke-profile models ...",
                  flush=True)
            magnet, inputs = _build_conv_magnet(cache_dir)

        queue_bound = max(512, 4 * args.concurrency)
        rounds = {}
        for name, config in (
            ("baseline", ServingConfig(max_batch=1, max_wait_ms=0.0,
                                       max_queue=queue_bound)),
            ("batched", ServingConfig(max_batch=args.max_batch,
                                      max_wait_ms=5.0,
                                      max_queue=queue_bound)),
        ):
            print(f"[bench_serving] round '{name}' "
                  f"(max_batch={config.max_batch}, "
                  f"concurrency={args.concurrency}) ...", flush=True)
            rounds[name] = _closed_loop_round(
                magnet, inputs, config, args.concurrency,
                args.requests_per_client)
            print(f"[bench_serving]   {rounds[name]['throughput_rps']} rps, "
                  f"p95 {rounds[name]['latency_ms']['p95']} ms, "
                  f"mean batch {rounds[name]['mean_batch_size']}", flush=True)

        print("[bench_serving] verdict equality check ...", flush=True)
        identical = _verdict_equality_check(magnet, inputs)

    cluster = None
    if not args.skip_cluster:
        cluster = _run_cluster_bench(
            workers=args.cluster_workers, n_models=args.cluster_models,
            probe=256, requests=600, quick=False)

    speedup = (rounds["batched"]["throughput_rps"]
               / max(rounds["baseline"]["throughput_rps"], 1e-9))
    result = {
        "benchmark": "serving micro-batch vs batch-1 (closed loop) "
                     "+ cluster open-loop overload",
        "workload": args.workload,
        "cpu_count": os.cpu_count(),
        "concurrency": args.concurrency,
        "baseline": rounds["baseline"],
        "batched": rounds["batched"],
        "speedup": round(speedup, 3),
        "verdicts_identical_to_offline": identical,
    }
    if cluster is not None:
        result["cluster"] = cluster
    merged = _merge_results(out_path, result)
    print(json.dumps(merged, indent=2))

    ok = True
    if speedup < 3.0 and args.workload == "dense":
        print(f"[bench_serving] FAIL: speedup {speedup:.2f} < 3.0",
              file=sys.stderr)
        ok = False
    if not identical:
        print("[bench_serving] FAIL: serving verdicts differ from offline "
              "MagNet", file=sys.stderr)
        ok = False
    if rounds["baseline"]["errors"] or rounds["batched"]["errors"]:
        print("[bench_serving] FAIL: request errors during load",
              file=sys.stderr)
        ok = False
    if cluster is not None and not _cluster_gates(cluster, require_shed=True):
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
