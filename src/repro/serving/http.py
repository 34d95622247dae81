"""Stdlib-only HTTP frontend for the inference service.

A :class:`ThreadingHTTPServer` whose handler threads are the producers
feeding the micro-batcher: each ``POST /predict`` blocks its connection
thread until the service resolves the request's verdict, so concurrent
connections coalesce into batches server-side with no client changes.

Endpoints:

* ``POST /predict`` — body ``{"x": <nested list>, "id": "..."?,
  "model": "..."?, "priority": "..."?}``; answers the verdict as JSON.
  ``model`` routes to a tenant (``404`` unknown id; omitted: the
  default model), ``priority`` picks the shedding tier.  ``400``
  malformed body/shape/priority, ``429`` queue full or tier shed (load
  shed; retry later), ``503`` service stopped, ``504`` no verdict
  within the model's ``request_timeout_s``.
* ``GET /healthz`` — ``{"status": "ok"}`` (``503`` once stopped).
* ``GET /models`` — routed model ids + default.
* ``GET /stats`` — counters, batch stats, p50/p95/p99 latencies, config.
* ``GET /metrics`` — Prometheus text exposition of the process-wide
  :mod:`repro.obs` metrics registry (``serve/*``, ``cache/*``, ...)
  plus the service's latency percentiles and queue depth as gauges.

The backend is a :class:`~repro.serving.service.ClusterService` (or
its one-model :class:`~repro.serving.service.InferenceService`) at any
worker count.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Tuple

import numpy as np

from repro.obs import metrics_registry
from repro.serving.batcher import QueueFullError, ServingClosedError
from repro.serving.policy import ShedError
from repro.serving.router import UnknownModelError
from repro.utils.logging import get_logger

log = get_logger(__name__)

#: Refuse request bodies beyond this size (a generous bound for one
#: image as a JSON nested list).
MAX_BODY_BYTES = 8 * 1024 * 1024


class ServingHTTPServer(ThreadingHTTPServer):
    """HTTP server bound to one serving service."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: Any):
        super().__init__(address, _ServingHandler)
        self.service = service


def build_http_server(service: Any, host: str = "127.0.0.1",
                      port: int = 0) -> ServingHTTPServer:
    """Bind the JSON frontend; ``port=0`` picks an ephemeral port."""
    return ServingHTTPServer((host, port), service)


def serve_in_thread(service: Any, host: str = "127.0.0.1",
                    port: int = 0) -> Tuple[ServingHTTPServer, threading.Thread]:
    """Start a server on a daemon thread; returns (server, thread).

    The caller owns shutdown: ``server.shutdown(); server.server_close()``.
    """
    server = build_http_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return server, thread


class _ServingHandler(BaseHTTPRequestHandler):
    server: ServingHTTPServer

    # Keep-alive matters under closed-loop load: without it every request
    # pays a TCP handshake.  Content-Length is always set below.
    protocol_version = "HTTP/1.1"

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        log.debug("%s %s", self.address_string(), fmt % args)

    # ------------------------------------------------------------------
    def _send_json(self, code: int, payload: Dict[str, Any],
                   retry_after: bool = False) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        service = self.server.service
        if self.path == "/healthz":
            if service.healthy():
                self._send_json(200, {"status": "ok",
                                      "uptime_s": round(service.uptime_s, 3)})
            else:
                self._send_json(503, {"status": "stopped"})
        elif self.path == "/stats":
            self._send_json(200, service.stats_snapshot())
        elif self.path == "/models":
            self._send_json(200, {
                "models": sorted(service.model_ids()),
                "default_model": service.router.default_model})
        elif self.path == "/metrics":
            self._send_metrics(service)
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def _send_metrics(self, service: Any) -> None:
        """Prometheus text exposition: registry + serving percentiles."""
        body = metrics_registry().render_prometheus(
            extra_gauges=service.metrics_gauges()).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type",
                         "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        if self.path != "/predict":
            self._send_json(404, {"error": f"unknown path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_json(400, {"error": "bad Content-Length"})
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._send_json(400, {"error": "missing or oversized body"})
            return
        try:
            payload = json.loads(self.rfile.read(length))
            x = np.asarray(payload["x"], dtype=np.float32)
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError, ValueError) as exc:
            self._send_json(400, {"error": f"malformed request: "
                                           f"{type(exc).__name__}"})
            return

        service = self.server.service
        request_id = payload.get("id")
        if request_id is not None and not isinstance(request_id, str):
            self._send_json(400, {"error": "id must be a string"})
            return
        model = payload.get("model")
        priority = payload.get("priority")
        for field, value in (("model", model), ("priority", priority)):
            if value is not None and not isinstance(value, str):
                self._send_json(400, {"error": f"{field} must be a string"})
                return
        try:
            timeout = service.router.resolve(model).config.request_timeout_s
            future = service.submit(x, request_id=request_id, model=model,
                                    priority=priority)
            verdict = future.result(timeout)
        except UnknownModelError as exc:
            self._send_json(404, {"error": str(exc),
                                  "models": sorted(exc.known)})
            return
        except ShedError as exc:
            self._send_json(429, {"error": str(exc), "shed_tier": exc.tier},
                            retry_after=True)
            return
        except QueueFullError:
            self._send_json(429, {"error": "queue full, retry later"},
                            retry_after=True)
            return
        except ServingClosedError:
            self._send_json(503, {"error": "service stopped"})
            return
        except FutureTimeoutError:
            self._send_json(504, {"error": "verdict timed out"})
            return
        except ValueError as exc:           # bad shape or priority
            self._send_json(400, {"error": str(exc)})
            return
        except Exception as exc:            # model failure inside the batch
            log.exception("/predict failed")
            self._send_json(500, {"error": type(exc).__name__})
            return
        self._send_json(200, verdict.as_dict())
