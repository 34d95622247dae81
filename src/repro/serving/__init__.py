"""Online inference serving for the defended MagNet pipeline.

The offline experiments evaluate MagNet on pre-assembled batches; a
deployment sees one request at a time.  This package bridges the gap
with *dynamic micro-batching*: concurrent single-example requests are
coalesced into batches (flush on ``max_batch`` or ``max_wait_ms``,
whichever first) and served through one batched
:meth:`~repro.defenses.magnet.MagNet.decide_batch` pass, with bounded
queueing and explicit load shedding instead of unbounded latency.

* :class:`MicroBatcher` — the request queue + flush scheduler.
* :class:`ClusterService` — the one serving service: :class:`ModelRouter`
  routing (``model=`` field), tiered load-shedding and AIMD adaptive
  batching (:mod:`repro.serving.policy`), verdicts, stats and
  drain-then-stop.  ``ClusterConfig(workers=0)`` runs batches on one
  in-process thread per model; ``workers=N`` runs them in N OS-process
  workers over shared-memory rings (:mod:`repro.serving.cluster`).
* :class:`InferenceService` — the one-model, ``workers=0`` service over
  an already built MagNet.
* :func:`build_http_server` / :func:`serve_in_thread` — stdlib JSON
  HTTP frontend (``/predict``, ``/healthz``, ``/models``, ``/stats``,
  ``/metrics``).
* ``python -m repro.experiments serve`` — CLI entry point
  (``--models`` routes several variants; ``--workers N`` runs batches
  in N processes, 0 in-process; ``--adaptive-wait`` turns on the AIMD
  policy).
"""

# Imported ahead of the HTTP frontend on purpose: when bytecode is not
# cached, compiling the service modules before ``http.server`` and its
# dependencies load keeps the peak, and so the resident, memory of
# ``import repro.serving`` lower (about 0.5 MB per process).
from repro.serving.service import ClusterService, InferenceService, Verdict
from repro.serving.batcher import (
    MicroBatcher,
    QueueFullError,
    Request,
    ServingClosedError,
)
from repro.serving.config import ClusterConfig, ServingConfig
from repro.serving.http import (
    ServingHTTPServer,
    build_http_server,
    serve_in_thread,
)
from repro.serving.policy import (
    PRIORITY_TIERS,
    AdaptiveWaitController,
    ShedError,
    TieredAdmission,
)
from repro.serving.ring import HeartbeatBoard, SlotRing
from repro.serving.router import (
    ModelRouter,
    ModelSpec,
    ServiceStats,
    UnknownModelError,
)

__all__ = [
    "AdaptiveWaitController",
    "ClusterConfig",
    "ClusterService",
    "HeartbeatBoard",
    "InferenceService",
    "MicroBatcher",
    "ModelRouter",
    "ModelSpec",
    "PRIORITY_TIERS",
    "QueueFullError",
    "Request",
    "ServiceStats",
    "ServingClosedError",
    "ServingConfig",
    "ServingHTTPServer",
    "ShedError",
    "SlotRing",
    "TieredAdmission",
    "UnknownModelError",
    "Verdict",
    "build_http_server",
    "serve_in_thread",
]
