"""Serving contract tests: verdicts, equality with offline MagNet, errors.

Every contract class runs at the worker count in its ``workers``
attribute: in-process (0) here, and again with one worker process in
the ``...Processes`` subclasses at the bottom of the file.

Most tests use the fast toy MagNet from :mod:`repro.serving.smoke`
(untrained dense models, no disk, ~ms); the offline-equality test also
runs against the session-scoped *trained* tiny models to cover the real
pipeline.
"""

import threading
import time

import numpy as np
import pytest

from repro.defenses.detectors import JSDDetector, ReconstructionDetector
from repro.defenses.magnet import MagNet
from repro.defenses.reformer import Reformer
from repro.serving import (
    ClusterConfig,
    ClusterService,
    InferenceService,
    ModelSpec,
    QueueFullError,
    ServingClosedError,
    ServingConfig,
)
from repro.nn.layers import (
    Conv2D,
    Dense,
    Flatten,
    ReLU,
    Sequential,
    Sigmoid,
    set_conv_kernel,
)
from repro.serving.smoke import DIM, build_toy_magnet


@pytest.fixture(scope="module")
def toy_magnet():
    return build_toy_magnet(seed=3)


def _fft_toy_magnet():
    """A calibrated conv MagNet whose every conv runs the fft kernel."""
    rng = np.random.default_rng(11)
    classifier = set_conv_kernel(Sequential(
        Conv2D(1, 4, 3, rng=rng), ReLU(), Flatten(),
        Dense(4 * 8 * 8, 10, rng=rng)), "fft")
    autoencoder = set_conv_kernel(Sequential(
        Conv2D(1, 4, 3, rng=rng), Sigmoid(),
        Conv2D(4, 1, 3, rng=rng), Sigmoid()), "fft")
    detectors = [ReconstructionDetector(autoencoder, norm=1),
                 JSDDetector(autoencoder, classifier, temperature=10.0)]
    magnet = MagNet(classifier, detectors, Reformer(autoencoder),
                    name="toy-fft")
    magnet.calibrate(rng.random((64, 1, 8, 8)).astype(np.float32),
                     fpr_total=0.02)
    return magnet


def _inputs(n, seed=0):
    return np.random.default_rng(seed).random((n, DIM)).astype(np.float32)


def _service(workers, config=None, builder=None):
    """One-model service at ``workers``; the default model is toy_magnet."""
    spec = ModelSpec("default", builder or "toy",
                     {} if builder else {"seed": 3},
                     config=config or ServingConfig())
    return ClusterService([spec], ClusterConfig(workers=workers))


class TestPredict:
    workers = 0

    def test_single_predict_round_trip(self, toy_magnet):
        with _service(self.workers, ServingConfig(max_batch=4,
                                                  max_wait_ms=1)) as s:
            verdict = s.predict(_inputs(1)[0], timeout=10)
        assert isinstance(verdict.label, int)
        assert isinstance(verdict.detected, bool)
        assert set(verdict.detector_scores) == {d.name
                                                for d in toy_magnet.detectors}
        assert verdict.batch_size >= 1
        assert verdict.queue_ms >= 0

    def test_burst_is_batched(self, toy_magnet):
        config = ServingConfig(max_batch=8, max_wait_ms=20, max_queue=64)
        with _service(self.workers, config) as s:
            verdicts = s.predict_many(list(_inputs(16)), timeout=10)
        assert len(verdicts) == 16
        # A 16-burst against max_batch=8 must produce multi-request batches.
        assert max(v.batch_size for v in verdicts) > 1
        assert s.stats_snapshot()["batches"]["count"] < 16

    def test_shape_mismatch_rejected(self, toy_magnet):
        with _service(self.workers, ServingConfig(max_wait_ms=1)) as s:
            s.predict(_inputs(1)[0], timeout=10)
            with pytest.raises(ValueError, match="shape"):
                s.submit(np.zeros(DIM + 1, dtype=np.float32))

    def test_bad_first_request_does_not_pin_shape(self, toy_magnet):
        # Only a successfully served batch pins the model's input shape:
        # a malformed first request fails alone and the service recovers.
        with _service(self.workers, ServingConfig(max_wait_ms=1)) as s:
            with pytest.raises(Exception):
                s.predict(np.zeros(3, dtype=np.float32), timeout=10)
            verdict = s.predict(_inputs(1)[0], timeout=10)
            assert verdict.label >= 0
            with pytest.raises(ValueError, match="shape"):
                s.submit(np.zeros(3, dtype=np.float32))

    def test_stats_snapshot_shape(self, toy_magnet):
        with _service(self.workers, ServingConfig(max_wait_ms=1)) as s:
            s.predict_many(list(_inputs(4)), timeout=10)
            snap = s.stats_snapshot()
        assert snap["requests"]["completed"] == 4
        assert snap["requests"]["rejected"] == 0
        assert snap["batches"]["count"] >= 1
        assert snap["models"]["default"]["requests"]["completed"] == 4
        assert snap["models"]["default"]["config"]["max_wait_ms"] == 1
        assert snap["cluster"]["workers"] == self.workers
        for series in ("queue", "total"):
            p = snap["latency_ms"][series]
            assert p["p50"] <= p["p95"] <= p["p99"]


class TestEquality:
    """Serving verdicts == offline MagNet on the same batch composition."""

    workers = 0

    def _assert_equal(self, magnet, xs):
        # Controlled coalescing: submit everything BEFORE starting the
        # worker with max_batch >= N, so the service runs one batch whose
        # stacked array is exactly the offline input.  (Per-row results
        # are not bitwise stable across different BLAS batch shapes, so
        # equality is defined over identical batch composition.)
        n = len(xs)
        service = _service(self.workers,
                           ServingConfig(max_batch=n, max_wait_ms=10_000,
                                         max_queue=2 * n),
                           builder=lambda: magnet)
        futures = [service.submit(x) for x in xs]
        service.start()
        try:
            verdicts = [f.result(timeout=60) for f in futures]
        finally:
            service.stop()
        offline = magnet.decide(np.stack(xs))
        for i, v in enumerate(verdicts):
            assert v.batch_size == n
            assert v.label == int(offline.labels_reformed[i])
            assert v.label_raw == int(offline.labels_raw[i])
            assert v.detected == bool(offline.detected[i])
            for d, det in enumerate(magnet.detectors):
                assert v.detector_flags[det.name] == bool(
                    offline.detector_flags[d, i])
                assert v.detector_scores[det.name] == float(
                    offline.detector_scores[d, i])

    def test_toy_magnet_bitwise(self, toy_magnet):
        self._assert_equal(toy_magnet, list(_inputs(12, seed=5)))

    def test_fft_magnet_bitwise(self):
        # The worker runs the kernel the pickled or forked model carries.
        xs = np.random.default_rng(5).random((12, 1, 8, 8))
        self._assert_equal(_fft_toy_magnet(), list(xs.astype(np.float32)))

    def test_trained_magnet_bitwise(self, tiny_classifier, tiny_autoencoder,
                                    tiny_splits):
        det = ReconstructionDetector(tiny_autoencoder, norm=1)
        magnet = MagNet(tiny_classifier, [det], Reformer(tiny_autoencoder),
                        name="tiny-serving")
        magnet.calibrate(tiny_splits.val.x[:100], fpr_total=0.02)
        self._assert_equal(magnet, list(tiny_splits.test.x[:8]))


class TestBackpressure:
    workers = 0

    def test_queue_full_rejects_and_counts(self, toy_magnet):
        # Service never started → the queue cannot drain.
        service = _service(self.workers,
                           ServingConfig(max_batch=4, max_wait_ms=10_000,
                                         max_queue=2))
        service.submit(_inputs(1)[0])
        service.submit(_inputs(1)[0])
        with pytest.raises(QueueFullError):
            service.submit(_inputs(1)[0])
        assert service.stats_snapshot()["requests"]["rejected"] == 1
        service.stop()

    def test_submit_after_stop_raises(self, toy_magnet):
        service = _service(self.workers, ServingConfig(max_wait_ms=1))
        service.start()
        service.stop()
        with pytest.raises(ServingClosedError):
            service.submit(_inputs(1)[0])

    def test_stop_drains_queued_requests(self, toy_magnet):
        service = _service(self.workers,
                           ServingConfig(max_batch=4, max_wait_ms=10_000,
                                         max_queue=64))
        futures = [service.submit(x) for x in _inputs(3)]
        service.start()
        service.stop()                 # close + drain + join
        for f in futures:
            assert f.result(timeout=1).label >= 0

    def test_stop_before_start_fails_queued(self, toy_magnet):
        # Nothing will ever serve these: stop() must fail them, not leave
        # their futures pending forever.
        service = _service(self.workers)
        futures = [service.submit(x) for x in _inputs(2)]
        service.stop()
        for f in futures:
            with pytest.raises(ServingClosedError):
                f.result(timeout=2)


class _ExplodingMagnet:
    """decide_batch always raises; detectors list for verdict naming."""

    detectors = ()

    def decide_batch(self, x):
        raise RuntimeError("model exploded")


class TestErrors:
    workers = 0

    def test_model_failure_fails_futures_not_worker(self, toy_magnet):
        service = _service(self.workers,
                           ServingConfig(max_batch=2, max_wait_ms=1),
                           builder=_ExplodingMagnet)
        service.start()
        future = service.submit(_inputs(1)[0])
        with pytest.raises(RuntimeError, match="exploded"):
            future.result(timeout=10)
        # The worker survived the failed batch and the service stays up.
        assert service.healthy()
        assert service.stats_snapshot()["requests"]["errors"] == 1
        service.stop()

    def test_healthy_lifecycle(self, toy_magnet):
        service = _service(self.workers, ServingConfig(max_wait_ms=1))
        assert not service.healthy()      # not started
        service.start()
        assert service.healthy()
        assert service.uptime_s >= 0
        service.stop()
        assert not service.healthy()

    def test_double_start_raises(self, toy_magnet):
        service = _service(self.workers)
        service.start()
        with pytest.raises(RuntimeError, match="started"):
            service.start()
        service.stop()


class TestConcurrentClients:
    workers = 0

    def test_many_threads_all_served(self, toy_magnet):
        config = ServingConfig(max_batch=8, max_wait_ms=2, max_queue=256)
        xs = _inputs(48, seed=9)
        results = [None] * len(xs)
        with _service(self.workers, config) as service:
            def run(i):
                results[i] = service.predict(xs[i], timeout=30)

            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(xs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            snap = service.stats_snapshot()
        assert all(r is not None for r in results)
        assert snap["requests"]["completed"] == len(xs)
        assert snap["batches"]["mean_size"] > 1.0   # batching engaged


class TestEmptyWindowPercentiles:
    """An idle service reports null percentiles, not fabricated zeros."""

    workers = 0

    def test_snapshot_before_any_traffic(self, toy_magnet):
        service = _service(self.workers, ServingConfig(max_wait_ms=1))
        try:
            snap = service.stats_snapshot()
        finally:
            service.stop()
        for series in ("queue", "total"):
            assert snap["latency_ms"][series] == {
                "p50": None, "p95": None, "p99": None}
        assert snap["requests"]["completed"] == 0

    def test_metrics_gauges_skip_null_percentiles(self, toy_magnet):
        service = _service(self.workers, ServingConfig(max_wait_ms=1))
        try:
            gauges = service.metrics_gauges()
        finally:
            service.stop()
        assert not any("latency" in name for name in gauges)
        assert all(v is not None for v in gauges.values())

    def test_percentiles_populate_after_traffic(self, toy_magnet):
        with _service(self.workers, ServingConfig(max_wait_ms=1)) as s:
            s.predict(_inputs(1)[0], timeout=10)
            snap = s.stats_snapshot()
        assert snap["latency_ms"]["total"]["p50"] is not None


class TestAdaptiveWaitService:
    workers = 0

    def test_policy_loop_shrinks_wait_when_idle(self, toy_magnet):
        config = ServingConfig(max_batch=8, max_wait_ms=8.0, max_queue=64,
                               adaptive_wait=True, min_wait_ms=0.25)
        with _service(self.workers, config) as service:
            # A few requests, then idleness: AIMD decrease should walk
            # the live wait down from the configured 8 ms ceiling.
            service.predict_many(list(_inputs(4)), timeout=10)
            tenant = service.router.resolve()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if tenant.batcher.max_wait_s * 1000.0 <= 1.0:
                    break
                time.sleep(0.05)
            assert tenant.batcher.max_wait_s * 1000.0 <= 1.0
            assert tenant.adaptive is not None
            assert tenant.adaptive.adjustments >= 1


class TestInferenceService:
    def test_one_model_in_process_over_a_built_magnet(self, toy_magnet):
        with InferenceService(toy_magnet, ServingConfig(max_wait_ms=1)) as s:
            verdict = s.predict(_inputs(1)[0], timeout=10)
            assert s.magnet is toy_magnet
            assert s.model_ids() == ["default"]
            assert s.config.workers == 0
        assert s.stats_snapshot()["models"]["default"]["requests"][
            "completed"] == 1
        assert verdict.label == int(
            toy_magnet.decide_batch(_inputs(1)).labels_reformed[0])


#: Closed-loop micro-batching floor: mean requests per batch with
#: CLOSED_LOOP_CLIENTS clients against max_batch=CLOSED_LOOP_CLIENTS.
COALESCING_FLOOR = 3.0
CLOSED_LOOP_CLIENTS = 32


class TestMicroBatchCoalescing:
    def test_closed_loop_clients_coalesce(self, toy_magnet):
        """32 clients, each sending its next request only after its last
        verdict, must share batches: a batch count, not a wall-clock
        speedup, so the floor does not move with the host's cores."""
        requests_per_client = 20
        xs = _inputs(CLOSED_LOOP_CLIENTS * requests_per_client, seed=13)
        config = ServingConfig(max_batch=CLOSED_LOOP_CLIENTS, max_wait_ms=5,
                               max_queue=512)

        def client(k):
            for x in xs[k::CLOSED_LOOP_CLIENTS]:
                service.predict(x, timeout=60)

        with InferenceService(toy_magnet, config) as service:
            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(CLOSED_LOOP_CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            snap = service.stats_snapshot()
        # A failed request ends its client early, so this also catches
        # errors raised inside the client threads.
        assert snap["requests"]["completed"] == len(xs)
        assert snap["batches"]["mean_size"] >= COALESCING_FLOOR, snap[
            "batches"]


# The same contract, served by one worker process.
class TestPredictProcesses(TestPredict):
    workers = 1


class TestEqualityProcesses(TestEquality):
    workers = 1


class TestBackpressureProcesses(TestBackpressure):
    workers = 1


class TestErrorsProcesses(TestErrors):
    workers = 1


class TestConcurrentClientsProcesses(TestConcurrentClients):
    workers = 1


class TestEmptyWindowPercentilesProcesses(TestEmptyWindowPercentiles):
    workers = 1


class TestAdaptiveWaitServiceProcesses(TestAdaptiveWaitService):
    workers = 1
