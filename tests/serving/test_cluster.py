"""Multi-model service integration tests.

Each test boots a real service around the deterministic two-model toy
zoo, so the suite covers the contracts the serving tier is sold on:
routed multi-tenant round trips, bitwise equivalence with the offline
pipeline, graceful drain, tiered shedding at the submit path, and the
routed HTTP surface.  Every contract class runs with one worker process
(its ``workers`` attribute) and again in-process in the ``...InProcess``
subclasses at the bottom of the file.  Crash recovery without dropping
accepted requests needs worker processes, so it runs only with two.
"""

import dataclasses
import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    ClusterConfig,
    ClusterService,
    ServingConfig,
    ShedError,
    UnknownModelError,
    serve_in_thread,
)
from repro.serving.smoke import DIM, build_toy_zoo

pytestmark = pytest.mark.tier1


def _inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((n, DIM)).astype(np.float32)


def _specs(**kwargs):
    kwargs.setdefault("n_models", 2)
    return build_toy_zoo(**kwargs)


class TestRoundTrip:
    workers = 1

    def test_routed_predicts_and_stats(self):
        specs = _specs()
        with ClusterService(specs,
                            ClusterConfig(workers=self.workers)) as cluster:
            assert cluster.wait_ready(timeout=60)
            assert cluster.model_ids() == ["toy-0", "toy-1"]
            xs = _inputs(8)
            verdicts = [cluster.predict(xs[i], timeout=60,
                                        model=f"toy-{i % 2}",
                                        priority="interactive")
                        for i in range(8)]
            assert all(isinstance(v.label, int) for v in verdicts)
            assert all(v.batch_size >= 1 for v in verdicts)
            snap = cluster.stats_snapshot()
            assert snap["requests"]["completed"] == 8
            assert set(snap["models"]) == {"toy-0", "toy-1"}
            assert snap["cluster"]["workers"] == self.workers
            # Live worker processes, or one thread per model in-process.
            assert snap["cluster"]["alive"] == (self.workers or len(specs))
            assert snap["healthy"]

    def test_unknown_model_and_bad_shape_rejected(self):
        with ClusterService(_specs(),
                            ClusterConfig(workers=self.workers)) as cluster:
            assert cluster.wait_ready(timeout=60)
            with pytest.raises(UnknownModelError) as err:
                cluster.submit(_inputs(1)[0], model="toy-9")
            assert "toy-9" in str(err.value)
            assert "toy-0" in str(err.value)
            with pytest.raises(ValueError, match="shape"):
                cluster.submit(np.zeros(DIM + 1, dtype=np.float32),
                               model="toy-0")

    def test_default_model_used_when_unrouted(self):
        with ClusterService(_specs(), ClusterConfig(workers=self.workers),
                            default_model="toy-1") as cluster:
            assert cluster.wait_ready(timeout=60)
            v = cluster.predict(_inputs(1)[0], timeout=60)
            assert v.label >= 0
            snap = cluster.stats_snapshot()
            assert snap["models"]["toy-1"]["requests"]["completed"] == 1


class TestOfflineEquivalence:
    workers = 1

    def test_bitwise_identical_per_model(self):
        """Served verdicts == offline decide_batch, bit for bit.

        Batch composition is pinned: all n requests per model are queued
        before the workers start with max_batch=n, so each tenant
        flushes exactly one batch whose stacked input equals the offline
        batch (per-row BLAS results are not stable across batch shapes,
        so pinning is required for an exact-equality assertion).
        """
        n = 12
        specs = [dataclasses.replace(
            spec, config=ServingConfig(max_batch=n, max_wait_ms=60_000,
                                       max_queue=4 * n))
            for spec in _specs()]
        xs = _inputs(n, seed=42)
        cluster = ClusterService(specs, ClusterConfig(workers=self.workers))
        futures = {spec.model_id: [cluster.submit(x, model=spec.model_id)
                                   for x in xs]
                   for spec in specs}
        cluster.start()
        try:
            verdicts = {mid: [f.result(timeout=120) for f in fs]
                        for mid, fs in futures.items()}
        finally:
            cluster.stop()

        for spec in specs:
            magnet = spec.build()
            offline = magnet.decide_batch(np.stack(xs))
            for i, v in enumerate(verdicts[spec.model_id]):
                assert v.label == int(offline.labels_reformed[i])
                assert v.label_raw == int(offline.labels_raw[i])
                assert v.detected == bool(offline.detected[i])
                for d, det in enumerate(magnet.detectors):
                    assert (v.detector_flags[det.name]
                            == bool(offline.detector_flags[d, i]))
                    assert (v.detector_scores[det.name]
                            == float(offline.detector_scores[d, i]))


class TestCrashRecovery:
    def test_worker_kill_loses_no_accepted_requests(self):
        xs = _inputs(120, seed=9)
        with ClusterService(
                _specs(max_queue=512),
                ClusterConfig(workers=2,
                              supervise_interval_s=0.02)) as cluster:
            assert cluster.wait_ready(timeout=60)
            futures = []
            for i, x in enumerate(xs):
                if i == 40:
                    assert cluster.kill_worker(0)
                futures.append(cluster.submit(x, model=f"toy-{i % 2}"))
            verdicts = [f.result(timeout=120) for f in futures]
            assert len(verdicts) == 120
            snap = cluster.stats_snapshot()
            assert snap["cluster"]["restarts"] >= 1
            assert snap["requests"]["errors"] == 0
            assert snap["requests"]["completed"] == 120
            # The replacement worker is back in rotation.
            assert cluster.wait_ready(timeout=60)
            assert snap["cluster"]["workers"] == 2


class TestGracefulDrain:
    workers = 1

    def test_stop_drains_queued_work(self):
        xs = _inputs(24, seed=3)
        cluster = ClusterService(_specs(max_queue=128),
                                 ClusterConfig(workers=self.workers))
        cluster.start()
        try:
            assert cluster.wait_ready(timeout=60)
            futures = [cluster.submit(x, model=f"toy-{i % 2}")
                       for i, x in enumerate(xs)]
        finally:
            cluster.stop(drain=True)
        # Every accepted future resolved during drain, none errored.
        assert all(f.done() for f in futures)
        assert all(f.exception() is None for f in futures)

    def test_submit_after_stop_rejected(self):
        from repro.serving import ServingClosedError

        cluster = ClusterService(_specs(),
                                 ClusterConfig(workers=self.workers))
        cluster.start()
        cluster.wait_ready(timeout=60)
        cluster.stop()
        with pytest.raises(ServingClosedError):
            cluster.submit(_inputs(1)[0], model="toy-0")


class TestTieredShedding:
    workers = 1

    def test_background_sheds_under_queue_pressure(self):
        # Service never started: nothing drains, so queue depth is
        # exactly the number of accepted submits and the tier
        # thresholds trip deterministically (background at ceil(.45*20)
        # = 9, standard at 14; interactive only meets the hard bound).
        specs = _specs(max_queue=20, max_wait_ms=10_000)
        cluster = ClusterService(specs, ClusterConfig(workers=self.workers))
        xs = _inputs(20, seed=5)
        try:
            for i in range(9):
                cluster.submit(xs[i], model="toy-0", priority="standard")
            with pytest.raises(ShedError) as err:
                cluster.submit(xs[9], model="toy-0", priority="background")
            assert err.value.tier == "background"
            assert err.value.tenant == "toy-0"
            cluster.submit(xs[10], model="toy-0", priority="standard")
            cluster.submit(xs[11], model="toy-0", priority="interactive")
            # Isolation: the other tenant's queue is empty, it admits.
            cluster.submit(xs[12], model="toy-1", priority="background")
            snap = cluster.stats_snapshot()
            assert snap["models"]["toy-0"]["shed"]["background"] == 1
            assert snap["models"]["toy-1"]["shed"]["background"] == 0
            assert snap["requests"]["shed"] == 1
        finally:
            cluster.stop(drain=False)


class TestClusterHTTP:
    workers = 1

    @pytest.fixture()
    def served_cluster(self):
        cluster = ClusterService(_specs(),
                                 ClusterConfig(workers=self.workers))
        cluster.start()
        assert cluster.wait_ready(timeout=60)
        server, _ = serve_in_thread(cluster, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        try:
            yield f"http://{host}:{port}", cluster
        finally:
            server.shutdown()
            server.server_close()
            cluster.stop()

    @staticmethod
    def _post(base, payload):
        req = urllib.request.Request(
            f"{base}/predict", data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_models_endpoint_lists_routes(self, served_cluster):
        base, _ = served_cluster
        with urllib.request.urlopen(f"{base}/models", timeout=10) as resp:
            body = json.loads(resp.read())
        assert sorted(body["models"]) == ["toy-0", "toy-1"]

    def test_routed_predict_and_unknown_model_404(self, served_cluster):
        base, _ = served_cluster
        x = _inputs(1)[0].tolist()
        status, body = self._post(base, {"x": x, "model": "toy-1",
                                         "priority": "interactive"})
        assert status == 200
        assert isinstance(body["label"], int)
        status, body = self._post(base, {"x": x, "model": "toy-9"})
        assert status == 404
        assert "toy-9" in body["error"]
        assert body["models"] == ["toy-0", "toy-1"]

    def test_bad_priority_400(self, served_cluster):
        base, _ = served_cluster
        x = _inputs(1)[0].tolist()
        assert self._post(base, {"x": x, "model": "toy-0",
                                 "priority": "vip"})[0] == 400

    def test_metrics_scrape_under_concurrent_load(self, served_cluster):
        base, _ = served_cluster
        xs = _inputs(16, seed=8)
        statuses, scrapes = [], []
        lock = threading.Lock()

        def fire(i):
            status, _ = self._post(base, {"x": xs[i].tolist(),
                                          "model": f"toy-{i % 2}"})
            with lock:
                statuses.append(status)

        def scrape():
            for _ in range(4):
                with urllib.request.urlopen(f"{base}/metrics",
                                            timeout=30) as resp:
                    text = resp.read().decode("utf-8")
                with lock:
                    scrapes.append((resp.status, text))

        threads = ([threading.Thread(target=fire, args=(i,))
                    for i in range(16)]
                   + [threading.Thread(target=scrape) for _ in range(2)])
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert statuses == [200] * 16
        assert len(scrapes) == 8
        for status, text in scrapes:
            assert status == 200
            assert "cluster_workers_alive" in text
            assert "serve_requests_total" in text


# The same contract, served in-process.
class TestRoundTripInProcess(TestRoundTrip):
    workers = 0


class TestOfflineEquivalenceInProcess(TestOfflineEquivalence):
    workers = 0


class TestGracefulDrainInProcess(TestGracefulDrain):
    workers = 0


class TestTieredSheddingInProcess(TestTieredShedding):
    workers = 0


class TestClusterHTTPInProcess(TestClusterHTTP):
    workers = 0
