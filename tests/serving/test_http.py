"""HTTP frontend tests: endpoints, error codes, backpressure mapping.

Every class runs in-process (its ``workers`` attribute is 0, served by
:class:`InferenceService`) and again with one worker process in the
``...Processes`` subclasses at the bottom of the file.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    ClusterConfig,
    ClusterService,
    InferenceService,
    ModelSpec,
    ServingConfig,
    serve_in_thread,
)
from repro.serving.smoke import DIM, build_toy_magnet


def _service(workers, seed, **config):
    """One toy model named ``default`` at ``workers``."""
    config = ServingConfig(**config)
    if workers == 0:
        return InferenceService(build_toy_magnet(seed=seed), config)
    return ClusterService(
        [ModelSpec("default", "toy", {"seed": seed}, config=config)],
        ClusterConfig(workers=workers))


def _get(base, path, timeout=10):
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(base, path, payload, timeout=10):
    data = (payload if isinstance(payload, bytes)
            else json.dumps(payload).encode("utf-8"))
    req = urllib.request.Request(f"{base}{path}", data=data,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def served(request):
    """A running toy service + HTTP server on an ephemeral port."""
    service = _service(request.cls.workers, 11, max_batch=8, max_wait_ms=2,
                       max_queue=32)
    service.start()
    server, thread = serve_in_thread(service, "127.0.0.1", 0)
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def _x(seed=0):
    return np.random.default_rng(seed).random(DIM).astype(np.float32)


class TestEndpoints:
    workers = 0

    def test_healthz_ok(self, served):
        base, _ = served
        status, body = _get(base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_predict_round_trip(self, served):
        base, _ = served
        status, body = _post(base, "/predict",
                             {"x": _x().tolist(), "id": "req-1"})
        assert status == 200
        assert body["request_id"] == "req-1"
        assert isinstance(body["label"], int)
        assert isinstance(body["detected"], bool)
        assert set(body["detector_scores"]) == {"recon_l1", "jsd_T10"}
        assert body["batch_size"] >= 1

    def test_stats_accounts_requests(self, served):
        base, _ = served
        for i in range(3):
            _post(base, "/predict", {"x": _x(i).tolist()})
        status, stats = _get(base, "/stats")
        assert status == 200
        assert stats["requests"]["completed"] >= 3
        assert stats["batches"]["count"] >= 1
        assert "p95" in stats["latency_ms"]["total"]
        assert stats["models"]["default"]["config"]["max_batch"] == 8
        assert stats["cluster"]["workers"] == self.workers

    def test_metrics_prometheus_exposition(self, served):
        base, _ = served
        for i in range(2):
            _post(base, "/predict", {"x": _x(i).tolist()})
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode("utf-8")
        assert "# TYPE serve_requests_total counter" in text
        assert "# TYPE serve_batch_size histogram" in text
        assert "serve_uptime_seconds" in text
        assert "serve_latency_total_ms_p95" in text
        assert "serve_healthy 1" in text

    def test_concurrent_predicts_all_answered(self, served):
        base, _ = served
        codes = []
        lock = threading.Lock()

        def fire(i):
            status, _ = _post(base, "/predict", {"x": _x(i).tolist()})
            with lock:
                codes.append(status)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert codes == [200] * 12


class TestErrorMapping:
    workers = 0

    def test_unknown_path_404(self, served):
        base, _ = served
        assert _get(base, "/nope")[0] == 404
        assert _post(base, "/also/nope", {"x": []})[0] == 404

    def test_malformed_json_400(self, served):
        base, _ = served
        assert _post(base, "/predict", b"{not json")[0] == 400

    def test_missing_x_400(self, served):
        base, _ = served
        assert _post(base, "/predict", {"y": [1, 2]})[0] == 400

    def test_ragged_x_400(self, served):
        base, _ = served
        assert _post(base, "/predict", {"x": [[1, 2], [3]]})[0] == 400

    def test_non_string_id_400(self, served):
        base, _ = served
        assert _post(base, "/predict", {"x": _x().tolist(), "id": 7})[0] == 400

    def test_shape_mismatch_400(self, served):
        base, _ = served
        assert _post(base, "/predict", {"x": _x().tolist()})[0] == 200
        assert _post(base, "/predict", {"x": [0.0] * (DIM + 1)})[0] == 400

    def test_routing_fields(self, served):
        base, _ = served
        x = _x().tolist()
        assert _post(base, "/predict", {"x": x, "model": "default",
                                        "priority": "background"})[0] == 200
        status, body = _post(base, "/predict", {"x": x, "model": "nope"})
        assert status == 404
        assert body["models"] == ["default"]
        assert _post(base, "/predict", {"x": x, "priority": "vip"})[0] == 400
        assert _get(base, "/models") == (200, {"models": ["default"],
                                               "default_model": "default"})

    def test_empty_body_400(self, served):
        base, _ = served
        req = urllib.request.Request(f"{base}/predict", data=b"",
                                     headers={"Content-Type":
                                              "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400


class TestBackpressureHTTP:
    workers = 0

    def test_queue_full_maps_to_429(self):
        # Service never started → the queue cannot drain; depth 1 fills
        # after a single in-process submit.
        service = _service(self.workers, 12, max_batch=4, max_wait_ms=10_000,
                           max_queue=1)
        server, thread = serve_in_thread(service, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            service.submit(_x())          # occupies the only queue slot
            status, body = _post(base, "/predict", {"x": _x().tolist()})
            assert status == 429
            assert "queue full" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_stopped_service_healthz_503(self):
        service = _service(self.workers, 13, max_wait_ms=1)
        service.start()
        server, thread = serve_in_thread(service, "127.0.0.1", 0)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            service.stop()
            status, body = _get(base, "/healthz")
            assert status == 503
            status, _ = _post(base, "/predict", {"x": _x().tolist()})
            assert status == 503
        finally:
            server.shutdown()
            server.server_close()


# The same contract, served by one worker process.
class TestEndpointsProcesses(TestEndpoints):
    workers = 1


class TestErrorMappingProcesses(TestErrorMapping):
    workers = 1


class TestBackpressureHTTPProcesses(TestBackpressureHTTP):
    workers = 1
