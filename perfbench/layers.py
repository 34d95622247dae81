"""Per-layer accounting for the traced repetition.

Two sources, both read from the benchmark's side of the API:

* :class:`Probe` wraps public functions and methods of each layer's
  module with timers.  Timers nest on a per-thread stack, so each
  layer's *self* time excludes the wrapped layers it calls; the self
  times of one thread's timeline sum to its wall time minus whatever
  no wrapper covers (reported as unattributed).
* :func:`read_sink` and :func:`registry_metrics` read what
  :mod:`repro.obs` already emits: spans and kernel events from every
  process (sweep and serving workers included) through the JSONL sink,
  and this process's counters and histograms.

Layers a workload does not exercise report 0.
"""

from __future__ import annotations

import collections
import functools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: (layer, module path, attribute path) for every wrapped entry point.
#: Module-level functions are patched where their callers look them up.
WRAPPED: Tuple[Tuple[str, str, str], ...] = (
    ("datasets", "repro.experiments.context", "load_digit_splits"),
    ("datasets", "repro.experiments.context", "load_object_splits"),
    ("models.train", "repro.models.zoo", "train_classifier"),
    ("models.train", "repro.models.zoo", "train_autoencoder"),
    ("models.fit", "repro.nn.training", "Trainer.fit"),
    ("models.load", "repro.models.zoo", "ModelZoo.classifier"),
    ("models.load", "repro.models.zoo", "ModelZoo.autoencoder"),
    ("defenses.calibrate", "repro.defenses.magnet", "MagNet.calibrate"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.decide"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.decide_batch"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.detect"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.detector_flags"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.detector_scores"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.reform"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.attack_success_rate"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.defense_accuracy"),
    ("defenses.decide", "repro.defenses.magnet", "MagNet.clean_accuracy"),
    ("attacks", "repro.attacks.base", "Attack.attack"),
    ("attacks", "repro.attacks.ead", "EAD.attack_both"),
    ("experiments", "repro.experiments.registry", "run_experiment"),
    ("experiments", "repro.experiments.sweeps", "precompute_attacks"),
    ("experiments", "repro.experiments.context", "ExperimentContext.cw"),
    ("experiments", "repro.experiments.context", "ExperimentContext.ead"),
    ("experiments", "repro.experiments.context", "ExperimentContext.magnet"),
    ("experiments", "repro.experiments.context",
     "ExperimentContext.attack_seeds"),
    ("runtime", "repro.runtime.executor", "ParallelExecutor.map"),
    ("store.save", "repro.utils.cache", "DiskCache.save"),
    ("store.load", "repro.utils.cache", "DiskCache.load"),
)


class Probe:
    """Self-time timers around the :data:`WRAPPED` entry points."""

    def __init__(self):
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.calls: Dict[str, int] = collections.defaultdict(int)
        self.decide_images = 0
        self.attack_results: Dict[str, Any] = {}
        self.cells: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def install(self) -> "Probe":
        import importlib

        for layer, module_name, attr in WRAPPED:
            owner: Any = importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, name, self._wrap(layer, attr, getattr(owner, name)))
        return self

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, attr: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            outermost = layer not in getattr(self._local, "open", ())
            if outermost:
                self._local.open = getattr(self._local, "open", set()) | {layer}
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                if outermost:
                    self._local.open = self._local.open - {layer}
                with self._lock:
                    self.self_s[layer] += dt - children
                    self.calls[layer] += 1
            self._observe(layer, attr, args, result, outermost)
            return result
        return timed

    def _observe(self, layer: str, attr: str, args: tuple, result: Any,
                 outermost: bool) -> None:
        if layer == "defenses.decide" and outermost:
            with self._lock:
                self.decide_images += len(args[1])
        elif attr in ("ExperimentContext.cw", "ExperimentContext.ead"):
            # One cell per (dataset, attack, its arguments); an EAD cell
            # returns a result per decision rule.
            self.cells.add((args[0].dataset, attr) + args[1:])
            results = result.values() if isinstance(result, dict) else [result]
            for res in results:
                self.attack_results[f"{args[0].dataset}/{res.name}"] = res

    def metrics(self) -> Dict[str, float]:
        """Layer metrics measured by the wrappers themselves."""
        import numpy as np

        s = self.self_s
        results = list(self.attack_results.values())
        success = [float(np.mean(r.success)) for r in results if len(r)]
        converged = [float(np.mean(r.converged)) for r in results
                     if len(r) and r.converged is not None]
        return {
            "datasets.gen_s": s["datasets"],
            "models.train_s": s["models.train"] + s["models.fit"],
            "models.fits": self.calls["models.fit"],
            "models.load_s": s["models.load"],
            "defenses.calibrate_s": s["defenses.calibrate"],
            "defenses.decide_s": s["defenses.decide"],
            "defenses.decide_images": self.decide_images,
            "attacks.success_frac": _mean(success),
            "attacks.converged_frac": _mean(converged),
            "experiments.cells": len(self.cells),
            "experiments.self_s": s["experiments"],
            "runtime.map_s": s["runtime"],
            "store.saves": self.calls["store.save"],
            "store.save_s": s["store.save"],
            "store.loads": self.calls["store.load"],
            "store.load_s": s["store.load"],
        }

    def attributed_s(self) -> float:
        """Self time summed over every layer, all threads."""
        return sum(self.self_s.values())


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def read_sink(path: str) -> Dict[str, float]:
    """Metrics from the JSONL spans and events of every process."""
    attack_s = dispatches = lane_iters = kernel_s = map_slots_s = 0.0
    conv = 0
    cells: Dict[str, int] = collections.Counter()
    stage_ms: Dict[str, List[float]] = collections.defaultdict(list)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        lines = []                         # nothing was traced
    for line in lines:
        try:
            rec = json.loads(line)
        except ValueError:
            continue                       # torn trailing line
        name = rec.get("stage", "")
        dur = float(rec.get("duration_s") or 0.0)
        if name.startswith("attack/") and name != "attack/binary_search_step":
            attack_s += dur
            dispatches += rec.get("dispatches", 0)
            lane_iters += rec.get("lane_iterations", 0)
        elif name.startswith("nn/kernels/"):
            kernel_s += dur
            conv += int(rec.get("dispatches", 0))
        elif name == "runtime/map":
            map_slots_s += dur * max(1, int(rec.get("jobs", 1)))
        elif name.startswith("cell/"):
            cells[rec.get("cache", "miss")] += 1
        elif name in ("serve/detect", "serve/reform", "serve/classify"):
            stage_ms[name.split("/")[1]].append(dur * 1000.0)
    n_cells = sum(cells.values())
    return {
        "attacks.busy_s": attack_s,
        "attacks.dispatches": dispatches,
        "attacks.step_ms": 1000.0 * attack_s / dispatches if dispatches else 0.0,
        "attacks.lane_iterations": lane_iters,
        "nn.conv_dispatches": conv,
        "nn.kernel_s": kernel_s,
        "experiments.cell_hit_frac": cells["hit"] / n_cells if n_cells else 0.0,
        # Attacks only run under the executor's map when one exists.
        "runtime.worker_busy_frac": (attack_s / map_slots_s
                                     if map_slots_s else 0.0),
        "serving.detect_ms": _mean(stage_ms["detect"]),
        "serving.reform_ms": _mean(stage_ms["reform"]),
        "serving.classify_ms": _mean(stage_ms["classify"]),
    }


def registry_metrics(snapshot: Dict[str, Dict]) -> Dict[str, float]:
    """Metrics from this process's :func:`repro.obs.metrics_snapshot`."""
    c = snapshot.get("counters", {})
    h = snapshot.get("histograms", {})
    hits, misses = c.get("cache/hits", 0), c.get("cache/misses", 0)
    epochs = h.get("train/epoch_seconds", {})
    return {
        "models.epoch_ms": 1000.0 * epochs.get("mean", 0.0),
        "store.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "store.dedup_hits": c.get("store/dedup_hits", 0),
        "runtime.leases": c.get("scheduler/leases", 0),
        "runtime.steals": c.get("scheduler/steals", 0),
        "runtime.retries": c.get("runtime/retries", 0),
        "runtime.timeouts": c.get("runtime/timeouts", 0),
        "cluster.dispatched": c.get("cluster/dispatched", 0),
        "cluster.redispatched": c.get("cluster/redispatched", 0),
        "cluster.worker_restarts": c.get("cluster/worker_restarts", 0),
        "cluster.pickle_fallbacks": c.get("cluster/pickle_fallbacks", 0),
    }


def kernel_share(m: Dict[str, float]) -> float:
    """Kernel time over the attack, train, calibrate and decide time that
    contains it: near 1, only faster kernels (or fusion) can pay."""
    denom = (m["attacks.busy_s"] + m["models.train_s"]
             + m["defenses.calibrate_s"] + m["defenses.decide_s"])
    return m["nn.kernel_s"] / denom if denom else 0.0
