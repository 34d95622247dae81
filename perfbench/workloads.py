"""One repetition of each workload, run inside a fresh process.

Every workload drives the library API (``run_experiment``,
``ExperimentContext``, ``InferenceService``, ``ClusterService``), never
the ``run`` CLI, so tracing is on only when the repetition asks for it.
The research workloads use :data:`BENCH_PROFILE`, a profile small
enough that a cold ``table1`` takes seconds; the serving workloads
offer fixed loads (:data:`OPEN_RATE_RPS`, :data:`CLOSED_OUTSTANDING`)
chosen once from the capacity of the commit the benchmark was written
against and never re-derived per run.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Optional

import numpy as np

from repro.experiments import registry
from repro.experiments.config import ExperimentProfile
from repro.experiments.context import ExperimentContext, build_served_magnet
from repro.serving import ClusterService, InferenceService
from repro.serving.batcher import QueueFullError, ServingClosedError
from repro.serving.config import ClusterConfig, ServingConfig
from repro.serving.policy import ShedError
from repro.serving.router import ModelSpec
from repro.utils.cache import DiskCache

from checks import check_table1, check_verdicts, table1_rows
from stats import Tally, percentile

HERE = Path(__file__).resolve().parent

#: The research workloads' scale: both datasets, two confidences, one
#: EAD beta (both decision rules), six attacked images per dataset.
BENCH_PROFILE = ExperimentProfile(
    name="perfbench",
    digits_sizes=(240, 80, 80),
    objects_sizes=(160, 80, 80),
    digits_attack=6,
    objects_attack=6,
    max_iterations=20,
    binary_search_steps=2,
    initial_const=1.0,
    cw_lr=5e-2,
    ead_lr=1e-2,
    digits_kappas=(0.0, 20.0),
    objects_kappas=(0.0, 50.0),
    betas=(1e-2,),
    wide_width=8,
    ae_epochs=4,
    wide_ae_epochs=4,
    fpr_total_digits=0.002,
    fpr_total_objects=0.01,
    classifier_epochs=2,
    logit_scale_digits=6.0,
    logit_scale_objects=8.0,
)

DATASETS = ("digits", "objects")

#: The workload seed picks one of this many dataset/model seeds, each
#: with a table1 reference in reference.json (which names its commit).
CONTEXT_SEEDS = 4

#: Serving offered load, fixed constants (see README.md for how they
#: were chosen).  Open loop: Poisson arrivals at a light rate.  Closed
#: loop: a fixed number of requests kept outstanding, enough to fill
#: every batch.
SERVING_CONFIG = ServingConfig(max_batch=32, max_wait_ms=5.0, max_queue=256)
OPEN_RATE_RPS = 125.0
OPEN_REQUESTS = 150
CLOSED_OUTSTANDING = 96
CLOSED_REQUESTS = 512
WARMUP_REQUESTS = 64
#: Open + closed phase pairs per repetition; each round is one sample
#: of p50_ms and throughput_rps.
ROUNDS = 3
#: Noisy images added to the request set, so some requests are detected.
NOISY_IMAGES = 240


def context_seed(seed: int) -> int:
    return seed % CONTEXT_SEEDS


def load_reference() -> Dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# Store preparation (once per benchmark invocation, untimed)
# ----------------------------------------------------------------------
def prepare_store(store: str, seed: int, datasets) -> None:
    """Train the classifier and default-MagNet autoencoders into ``store``."""
    cache = DiskCache(store)
    for ds in datasets:
        ctx = ExperimentContext(ds, BENCH_PROFILE, cache=cache,
                                seed=context_seed(seed))
        ctx.magnet("default")


# ----------------------------------------------------------------------
# table1-cold / table1-sweep
# ----------------------------------------------------------------------
def table1_rep(spec: Dict, mark_setup: Callable[[], None]) -> Dict:
    """Setup, then one checked ``table1`` at ``spec["jobs"]`` workers."""
    seed = context_seed(spec["seed"])
    store = spec["store"]
    if spec.get("source_store"):
        shutil.copytree(spec["source_store"], store)
    cache = DiskCache(store)
    jobs = spec["jobs"]
    contexts = [registry.get_context(ds, BENCH_PROFILE, cache=cache,
                                     seed=seed, jobs=jobs)
                for ds in DATASETS]
    for ctx in contexts:
        ctx.splits                       # dataset generation
        if spec.get("source_store"):
            ctx.magnet("default")        # model load + calibration
            ctx.attack_seeds()
    store_bytes = _tree_bytes(store)
    mark_setup()

    t0 = time.perf_counter()
    report = registry.run_experiment("table1", BENCH_PROFILE, cache=cache,
                                     seed=seed, jobs=jobs)
    tally = Tally()
    rows = table1_rows(DATASETS, BENCH_PROFILE.betas)
    check_table1(report.data, load_reference()[str(seed)], rows,
                 {ds: BENCH_PROFILE.n_attack(ds) for ds in DATASETS}, tally)
    wall = time.perf_counter() - t0
    return {
        "e2e": {"wall_s": wall},
        "rounds": [{"p50_ms": 1000.0 * wall, "throughput_rps": 1.0 / wall}],
        "tallies": {"table1": tally.as_dict()},
        "layers": {"store.bytes_written": _tree_bytes(store) - store_bytes},
    }


def _tree_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total


# ----------------------------------------------------------------------
# serve-inproc / serve-cluster
# ----------------------------------------------------------------------
def request_images(ctx: ExperimentContext, seed: int):
    """The request image set and, per request, which image it sends.

    The set is every clean test/val image plus ``NOISY_IMAGES`` noisy
    copies (so some requests are detected); ``seed`` draws the noise
    and the request order.
    """
    rng = np.random.default_rng(seed)
    clean = np.concatenate([ctx.splits.test.x, ctx.splits.val.x])
    noisy = clean[rng.integers(0, len(clean), size=NOISY_IMAGES)]
    noisy = noisy + rng.normal(0.0, 0.3, size=noisy.shape)
    images = np.clip(np.concatenate([clean, noisy]), 0.0, 1.0)
    n = WARMUP_REQUESTS + ROUNDS * (OPEN_REQUESTS + CLOSED_REQUESTS)
    return images.astype(np.float32), rng.integers(0, len(images), size=n)


class _Recorder:
    """Completion times and verdicts of one phase's requests, by position."""

    def __init__(self, n: int, on_done: Optional[Callable[[], None]] = None):
        self.done_at = np.full(n, np.nan)
        self.queue_ms = np.full(n, np.nan)
        self.infer_ms = np.full(n, np.nan)
        self.batch_size = np.full(n, np.nan)
        self.verdicts: Dict[int, Dict] = {}
        self._lock = threading.Lock()
        self._on_done = on_done
        self._pending = 0
        self._idle = threading.Condition(self._lock)

    def track(self, i: int, index: int, future) -> None:
        with self._lock:
            self._pending += 1
            # Replaced when the future resolves; a request still without
            # a verdict when the phase ends counts as failed.
            self.verdicts[index] = {"error": "no verdict"}
        future.add_done_callback(lambda f: self._done(i, index, f))

    def refuse(self, index: int, exc: Exception) -> None:
        with self._lock:
            self.verdicts[index] = {"refused": type(exc).__name__}

    def _done(self, i: int, index: int, future) -> None:
        now = time.monotonic()
        exc = future.exception()
        with self._lock:
            if exc is not None:
                self.verdicts[index] = {"error": type(exc).__name__}
            else:
                v = future.result()
                self.verdicts[index] = {"label": v.label,
                                        "detected": v.detected}
                self.done_at[i] = now
                self.queue_ms[i] = v.queue_ms
                self.infer_ms[i] = v.infer_ms
                self.batch_size[i] = v.batch_size
            self._pending -= 1
            self._idle.notify_all()
        if self._on_done is not None:
            self._on_done()

    def wait(self, timeout: float) -> bool:
        with self._lock:
            return self._idle.wait_for(lambda: self._pending == 0, timeout)

    @property
    def served(self) -> np.ndarray:
        return ~np.isnan(self.done_at)


_REFUSALS = (QueueFullError, ShedError, ServingClosedError)


def _open_loop(service, x: np.ndarray, offset: int, seed: int) -> Dict:
    """Poisson arrivals at OPEN_RATE_RPS; latency from each due time."""
    n = OPEN_REQUESTS
    gaps = np.random.default_rng(seed + 7919).exponential(
        1.0 / OPEN_RATE_RPS, size=n)
    rec = _Recorder(n)
    due = time.monotonic() + 0.01 + np.cumsum(gaps)
    late = np.zeros(n)
    for i in range(n):
        wait = due[i] - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        late[i] = time.monotonic() - due[i]
        try:
            rec.track(i, offset + i, service.submit(x[offset + i]))
        except _REFUSALS as exc:
            rec.refuse(offset + i, exc)
    rec.wait(60.0)
    return {"latency_ms": (rec.done_at - due) * 1000.0, "late_ms": late * 1000.0,
            "rec": rec}


def _closed_loop(service, x: np.ndarray, offset: int) -> Dict:
    """CLOSED_REQUESTS requests with CLOSED_OUTSTANDING kept in flight."""
    n = CLOSED_REQUESTS
    slots = threading.Semaphore(CLOSED_OUTSTANDING)
    rec = _Recorder(n, on_done=slots.release)
    t0 = time.monotonic()
    for i in range(n):
        slots.acquire()
        try:
            rec.track(i, offset + i, service.submit(x[offset + i]))
        except _REFUSALS as exc:
            rec.refuse(offset + i, exc)
            slots.release()
    rec.wait(60.0)
    t1 = float(np.nanmax(rec.done_at)) if rec.served.any() else time.monotonic()
    return {"seconds": t1 - t0, "rec": rec}


def serve_rep(spec: Dict, mark_setup: Callable[[], None]) -> Dict:
    """Setup a warm service, then ROUNDS of an open and a closed phase."""
    seed = spec["seed"]
    store = spec["store"]
    shutil.copytree(spec["source_store"], store)
    ctx = ExperimentContext("digits", BENCH_PROFILE, cache=DiskCache(store),
                            seed=context_seed(seed))
    magnet = ctx.magnet("default")
    images, idx = request_images(ctx, seed)
    x = images[idx]
    if spec["workload"] == "serve-inproc":
        service = InferenceService(magnet, SERVING_CONFIG).start()
    else:
        service = ClusterService(
            [ModelSpec("default", build_served_magnet,
                       {"dataset": "digits", "profile": BENCH_PROFILE,
                        "cache_dir": store, "seed": context_seed(seed)},
                       input_shape=images.shape[1:], config=SERVING_CONFIG)],
            ClusterConfig(workers=1)).start()
        if not service.wait_ready(60.0):
            service.stop(drain=False)
            raise RuntimeError("cluster worker did not become ready")
    phases = []
    try:
        warm = service.predict_many(list(x[:WARMUP_REQUESTS]), timeout=60.0)
        mark_setup()
        t0 = time.perf_counter()
        offset = WARMUP_REQUESTS
        for r in range(ROUNDS):
            light = _open_loop(service, x, offset, seed + r)
            offset += OPEN_REQUESTS
            sat = _closed_loop(service, x, offset)
            offset += CLOSED_REQUESTS
            phases.append((light, sat))
    finally:
        service.stop()

    decision = magnet.decide_batch(images)
    labels, detected = decision.labels_reformed[idx], decision.detected[idx]
    tallies = {"warmup": Tally(), "open": Tally(), "closed": Tally()}
    check_verdicts({i: {"label": v.label, "detected": v.detected}
                    for i, v in enumerate(warm)},
                   labels, detected, tallies["warmup"])
    rounds, lat, late, transit = [], [], [], []
    queue, infer, size_light, size_sat = [], [], [], []
    for light, sat in phases:
        lrec, srec = light["rec"], sat["rec"]
        check_verdicts(lrec.verdicts, labels, detected, tallies["open"])
        check_verdicts(srec.verdicts, labels, detected, tallies["closed"])
        ok = lrec.served
        round_lat = light["latency_ms"][ok]
        rounds.append({"p50_ms": percentile(round_lat, 50),
                       "throughput_rps": CLOSED_REQUESTS / sat["seconds"]})
        lat.extend(round_lat.tolist())
        late.extend(light["late_ms"].tolist())
        transit.extend((round_lat - lrec.queue_ms[ok]
                        - lrec.infer_ms[ok]).tolist())
        queue.extend(lrec.queue_ms[ok].tolist())
        infer.extend(lrec.infer_ms[ok].tolist())
        size_light.extend(lrec.batch_size[ok].tolist())
        size_sat.extend(srec.batch_size[srec.served].tolist())
    return {
        "e2e": {"wall_s": time.perf_counter() - t0},
        "rounds": rounds,
        "tallies": {k: t.as_dict() for k, t in tallies.items()},
        "samples": {"latency_ms": lat, "late_ms": late},
        "layers": {
            "serving.rejected": sum(t.refused for t in tallies.values()),
            "serving.queue_ms": percentile(queue, 50),
            "serving.infer_ms": percentile(infer, 50),
            "serving.batch_size_light": float(np.mean(size_light)),
            "serving.batch_size_sat": float(np.mean(size_sat)),
            "cluster.transit_ms": (percentile(transit, 50)
                                   if spec["workload"] == "serve-cluster"
                                   else 0.0),
        },
    }
