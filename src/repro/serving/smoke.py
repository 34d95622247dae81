"""End-to-end smoke test for the serving stack (CI entry point).

Boots the real HTTP frontend on an ephemeral port around two
deliberately tiny routed MagNets (untrained dense models on flat 64-d
inputs — the point is the serving machinery, not defense quality),
fires concurrent ``/predict`` requests from client threads, and
asserts:

* every request gets a well-formed verdict (label, detected flag,
  per-detector scores),
* ``/healthz`` answers ``ok`` and ``/models`` lists both models,
* ``/stats`` accounts for every completed request and shows batching.

``--workers 0`` (default) runs the batches in-process; ``--workers N``
runs them in N worker processes.  Runs in a couple of seconds with no
cache or training, so it is safe to wire into CI.  Invoke as ``python
scripts/smoke_serving.py [--workers N]`` or via the
``repro-smoke-serving`` console script.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request
from typing import Any, Dict, List

import numpy as np

from repro.defenses.detectors import JSDDetector, ReconstructionDetector
from repro.defenses.magnet import MagNet
from repro.defenses.reformer import Reformer
from repro.models.zoo import register_model_builder
from repro.nn.layers import Dense, Sequential, Sigmoid
from repro.serving.config import ClusterConfig, ServingConfig
from repro.serving.http import serve_in_thread
from repro.serving.router import ModelSpec
from repro.serving.service import ClusterService

#: Flat input dimensionality of the toy models.
DIM = 64


def build_toy_magnet(seed: int = 0, n_val: int = 128) -> MagNet:
    """A tiny calibrated MagNet over flat 64-d inputs; no training.

    Deterministic in ``seed``, so every worker process reconstructs a
    bitwise-identical model — the property the served-vs-offline
    equivalence checks rely on.
    """
    rng = np.random.default_rng(seed)
    classifier = Sequential(Dense(DIM, 32, rng=rng), Sigmoid(),
                            Dense(32, 10, rng=rng))
    autoencoder = Sequential(Dense(DIM, DIM, rng=rng), Sigmoid())
    detectors = [ReconstructionDetector(autoencoder, norm=1),
                 JSDDetector(autoencoder, classifier, temperature=10.0)]
    magnet = MagNet(classifier, detectors, Reformer(autoencoder),
                    name="toy-serving")
    x_val = rng.random((n_val, DIM)).astype(np.float32)
    magnet.calibrate(x_val, fpr_total=0.02)
    return magnet


register_model_builder("toy", build_toy_magnet)


def build_toy_zoo(n_models: int = 2, seed: int = 0, *,
                  max_batch: int = 8, max_wait_ms: float = 2.0,
                  max_queue: int = 128, adaptive_wait: bool = False):
    """Model specs for a tiny multi-model service (ids toy-0, toy-1, ...)."""
    return [
        ModelSpec(model_id=f"toy-{i}", builder="toy",
                  builder_kwargs={"seed": seed + i},
                  input_shape=(DIM,),
                  config=ServingConfig(max_batch=max_batch,
                                       max_wait_ms=max_wait_ms,
                                       max_queue=max_queue,
                                       adaptive_wait=adaptive_wait))
        for i in range(n_models)]


def _http_json(url: str, payload: Dict[str, Any] = None,
               timeout: float = 30.0) -> Dict[str, Any]:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url, data=data,
        headers={"Content-Type": "application/json"} if data else {})
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return json.loads(resp.read())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=16,
                        help="total /predict requests to fire (default 16)")
    parser.add_argument("--concurrency", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=0,
                        help="model worker processes; 0 runs batches "
                             "in-process (default 0)")
    args = parser.parse_args(argv)

    specs = build_toy_zoo(n_models=2, seed=args.seed)
    model_ids = [spec.model_id for spec in specs]
    rng = np.random.default_rng(args.seed + 1)
    inputs = rng.random((args.requests, DIM)).astype(np.float32)

    failures: List[str] = []
    with ClusterService(specs, ClusterConfig(workers=args.workers)) as service:
        if not service.wait_ready(timeout=60.0):
            print("[smoke_serving] FAIL: workers never became ready",
                  file=sys.stderr)
            return 1
        server, _ = serve_in_thread(service, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        print(f"[smoke_serving] serving on {base} (workers={args.workers}, "
              f"models {model_ids})", flush=True)
        try:
            health = _http_json(f"{base}/healthz")
            if health.get("status") != "ok":
                failures.append(f"/healthz answered {health}")
            listed = _http_json(f"{base}/models")
            if sorted(listed.get("models", [])) != sorted(model_ids):
                failures.append(f"/models answered {listed}")

            lock = threading.Lock()
            verdicts: List[Dict[str, Any]] = []

            def client(worker: int) -> None:
                for k in range(worker, args.requests, args.concurrency):
                    try:
                        verdict = _http_json(
                            f"{base}/predict",
                            {"x": inputs[k].tolist(), "id": f"smoke-{k}",
                             "model": model_ids[k % len(model_ids)],
                             "priority": "interactive"})
                        with lock:
                            verdicts.append(verdict)
                    except Exception as exc:  # noqa: BLE001 - report, don't die
                        with lock:
                            failures.append(f"request {k}: {exc!r}")

            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(args.concurrency)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            for verdict in verdicts:
                for field in ("request_id", "label", "detected",
                              "detector_scores", "queue_ms", "batch_size"):
                    if field not in verdict:
                        failures.append(f"verdict missing {field!r}: {verdict}")
                        break
            if len(verdicts) != args.requests:
                failures.append(f"expected {args.requests} verdicts, "
                                f"got {len(verdicts)}")

            stats = _http_json(f"{base}/stats")
            completed = stats.get("requests", {}).get("completed", 0)
            if completed < args.requests:
                failures.append(f"/stats shows {completed} completed "
                                f"< {args.requests}")
            if stats.get("batches", {}).get("count", 0) < 1:
                failures.append("/stats shows no batches")
            print(f"[smoke_serving] {completed} served in "
                  f"{stats['batches']['count']} batches across "
                  f"{len(stats['models'])} models "
                  f"(mean size {stats['batches']['mean_size']}, "
                  f"p95 total {stats['latency_ms']['total']['p95']} ms, "
                  f"{stats['cluster']['alive']} executor(s) alive)",
                  flush=True)
        finally:
            server.shutdown()
            server.server_close()

    if failures:
        for failure in failures:
            print(f"[smoke_serving] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[smoke_serving] OK", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
