"""The serving service: one request lifecycle, two ways to run a batch.

:class:`ClusterService` serves every routed MagNet variant (tenant)
through one lifecycle:

1. ``submit`` routes the request's ``model`` field to its tenant
   (:class:`~repro.serving.router.ModelRouter`), checks the input
   shape, applies the ``priority`` tier's admission threshold
   (:class:`~repro.serving.policy.TieredAdmission`) and queues the
   request on the tenant's :class:`~repro.serving.batcher.MicroBatcher`;
2. an executor runs each flushed micro-batch through one
   :meth:`~repro.defenses.magnet.MagNet.decide_batch` pass (detect →
   reform → classify):

   * ``ClusterConfig(workers=0)`` — one thread per tenant blocks in
     ``next_batch`` and runs the pass in this process: no copies, no
     rings, no child processes;
   * ``workers >= 1`` — :class:`~repro.serving.cluster.ProcessExecutor`
     ships batches to OS-process workers over shared-memory rings and
     restarts a worker that dies or hangs;

3. the service turns the batch decision into one :class:`Verdict` per
   request, records stats and spans, and resolves the futures;
4. ``stop()`` is drain-then-stop: admissions close, queued and
   in-flight work completes (within ``drain_timeout_s``), and whatever
   is left fails with :class:`~repro.serving.batcher.ServingClosedError`.

:class:`InferenceService` builds the one-tenant, ``workers=0`` service
around a MagNet that is already built.

Observability: when :mod:`repro.obs` is configured each request opens a
``serve/request`` span at submit time; each micro-batch emits a
``serve/batch`` span nested under its oldest request, with
``serve/detect`` / ``serve/reform`` / ``serve/classify`` children, at
every worker count, so ``repro-experiments trace`` renders the request →
micro-batch → pipeline-stage tree.  :meth:`ClusterService.stats_snapshot`
(``/stats``) and :meth:`ClusterService.metrics_gauges` (``/metrics``)
report the counters and latency percentiles.

Determinism: every executor runs the *same* ``decide_batch`` on the
*same* stacked float32 batch as the offline path, so served verdicts
are bitwise-identical to offline evaluation for identical batch
composition — asserted by the test suite.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.defenses.magnet import MagNet
from repro.obs import attach_trace_context, counter, record_span, start_span
from repro.serving.batcher import QueueFullError, Request, ServingClosedError
from repro.serving.cluster import ProcessExecutor
from repro.serving.config import ClusterConfig, ServingConfig
from repro.serving.policy import ShedError, normalize_tier
from repro.serving.router import ModelRouter, ModelSpec, ServiceStats
from repro.utils.logging import get_logger

log = get_logger(__name__)

#: Pipeline stages of one batched MagNet pass, in order.
STAGES = ("detect", "reform", "classify")


@dataclasses.dataclass
class Verdict:
    """Per-request outcome of one defended inference."""

    request_id: str
    label: int                    # classifier label after reforming
    detected: bool                # rejected by any detector
    label_raw: int                # classifier label on the raw input
    detector_scores: Dict[str, float]   # per-detector anomaly scores
    detector_flags: Dict[str, bool]     # per-detector decisions
    queue_ms: float               # time spent waiting to be batched
    infer_ms: float               # batched pipeline time for the flush
    batch_size: int               # size of the micro-batch served with

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class Batch:
    """One micro-batch of a tenant, from flush to its verdicts."""

    tenant: Any                        # router.TenantState
    requests: List[Request]
    x: Optional[np.ndarray]            # stacked float32 input
    started_at: float                  # monotonic time the flush began
    span: Any = None                   # open serve/batch span (obs.Span)


class _InProcessExecutor:
    """``workers=0``: one thread per tenant runs its batches in-process."""

    #: How often an idle tenant thread re-checks the halt flag.
    _IDLE_POLL_S = 0.05

    def __init__(self, service: "ClusterService"):
        self.service = service
        self._threads: List[threading.Thread] = []
        self._halt = threading.Event()

    def start(self) -> None:
        for tenant in self.service.router.tenants():
            model = tenant.spec.build()
            t = threading.Thread(target=self._serve, args=(tenant, model),
                                 name=f"repro-serve-{tenant.model_id}",
                                 daemon=True)
            t.start()
            self._threads.append(t)

    def _serve(self, tenant, model) -> None:
        names = tuple(d.name for d in model.detectors)
        while not self._halt.is_set():
            requests = tenant.batcher.next_batch(timeout=self._IDLE_POLL_S)
            if requests is None:
                return                      # closed and drained
            if not requests:
                continue
            batch = self.service._open_batch(tenant, requests)
            if batch is None:
                continue
            t0 = time.perf_counter()
            try:
                with attach_trace_context(batch.span.context):
                    decision = model.decide_batch(batch.x)
            except Exception as exc:        # model failure: fail the batch,
                log.exception("batch of %d failed", len(requests))
                self.service._fail_batch(batch, exc)     # not the thread
                continue
            stage = decision.stage_s or {}
            self.service._resolve_batch(
                batch, (decision.labels_reformed, decision.labels_raw,
                        decision.detected, decision.detector_flags,
                        decision.detector_scores),
                names, [stage.get(s, 0.0) for s in STAGES],
                time.perf_counter() - t0)

    def wait_ready(self, timeout: float) -> bool:
        return True                         # models are built in start()

    def alive(self) -> bool:
        return any(t.is_alive() for t in self._threads)

    def stop(self, deadline: float) -> None:
        for t in self._threads:             # drain: threads exit when empty
            t.join(max(0.0, deadline - time.monotonic()))
        self._halt.set()
        for t in self._threads:
            t.join(5.0)

    def kill_worker(self, index: int) -> bool:
        return False                        # no processes to kill

    def snapshot(self) -> Dict[str, int]:
        alive = sum(t.is_alive() for t in self._threads)
        return {"alive": alive, "ready": alive, "restarts": 0,
                "inflight": 0}


class ClusterService:
    """Multi-tenant MagNet serving; batches run in- or out-of-process.

    Usage::

        specs = [ModelSpec("default", build_toy_magnet, {"seed": 0}),
                 ModelSpec("jsd", build_toy_magnet, {"seed": 1})]
        with ClusterService(specs, ClusterConfig(workers=2)) as service:
            verdict = service.predict(x, model="jsd",
                                      priority="interactive")

    ``submit`` is the async form (returns a ``Future``); ``predict``
    blocks.  Requests without ``model`` go to the default tenant, and
    without ``priority`` to the ``standard`` tier.
    """

    def __init__(self, specs: Sequence[ModelSpec],
                 config: Optional[ClusterConfig] = None,
                 default_model: Optional[str] = None):
        self.config = config or ClusterConfig()
        self.router = ModelRouter(specs, default_model=default_model)
        self._executor = (_InProcessExecutor(self) if self.config.workers == 0
                          else ProcessExecutor(self))
        self._policy_thread: Optional[threading.Thread] = None
        self._policy_stop = threading.Event()
        self._started = False
        self._closing = False
        self._stopped = False
        self._started_at: Optional[float] = None
        self._id_lock = threading.Lock()
        self._next_id = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ClusterService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._started_at = time.monotonic()
        self._executor.start()
        if any(t.adaptive is not None for t in self.router.tenants()):
            self._policy_thread = threading.Thread(
                target=self._policy_loop, name="repro-serve-policy",
                daemon=True)
            self._policy_thread.start()
        log.info("serving started: %d model(s), workers=%d",
                 len(self.router), self.config.workers)
        return self

    def wait_ready(self, timeout: float = 60.0) -> bool:
        """Block until the models are built (at once when in-process)."""
        return self._executor.wait_ready(timeout)

    def __enter__(self) -> "ClusterService":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def healthy(self) -> bool:
        """True while started, accepting requests, and able to run them."""
        return (self._started and not self._closing and not self._stopped
                and self._executor.alive())

    @property
    def uptime_s(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    def model_ids(self) -> List[str]:
        return self.router.model_ids()

    def _policy_loop(self) -> None:
        tenants = [t for t in self.router.tenants() if t.adaptive is not None]
        while not self._policy_stop.wait(self.config.policy_interval_s):
            for tenant in tenants:
                tenant.adaptive.tick()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> None:
        """Drain-then-stop: close admissions, finish work, fail the rest."""
        if self._stopped:
            return
        self._closing = True
        self._policy_stop.set()
        for tenant in self.router.tenants():
            tenant.batcher.close()
        if self._started:
            budget = timeout if timeout is not None else \
                self.config.drain_timeout_s
            self._executor.stop(time.monotonic() + (budget if drain else 0))
        # Whatever is still queued (never started, or the drain ran out
        # of time) fails now rather than leaving its future pending.
        exc = ServingClosedError("service stopped before serving request")
        for tenant in self.router.tenants():
            while True:
                requests = tenant.batcher.next_batch(timeout=0)
                if not requests:
                    break
                self._fail_batch(Batch(tenant, requests, None, 0.0), exc)
        self._stopped = True
        if self._policy_thread is not None:
            self._policy_thread.join(5.0)
        log.info("serving stopped: %s", self.stats_snapshot()["requests"])

    # -- request path --------------------------------------------------
    def submit(self, x: np.ndarray, request_id: Optional[str] = None,
               model: Optional[str] = None,
               priority: Optional[str] = None) -> "Future[Verdict]":
        """Queue one example for ``model`` at ``priority``; async verdict.

        Raises :class:`~repro.serving.router.UnknownModelError` for an
        unrouted model id, ``ValueError`` for an unknown priority or a
        shape that does not match the model's, :class:`ShedError` when
        the request's tier must shed, :class:`QueueFullError` at the hard
        queue bound, and :class:`ServingClosedError` once stopping.
        """
        if self._closing or self._stopped:
            raise ServingClosedError("service is stopping")
        tenant = self.router.resolve(model)
        tier = normalize_tier(priority)
        x = np.asarray(x, dtype=np.float32)
        if tenant.input_shape is not None and x.shape != tenant.input_shape:
            raise ValueError(
                f"input shape {x.shape} does not match model "
                f"{tenant.model_id!r}'s shape {tenant.input_shape} "
                f"(one example per request)")
        with self._id_lock:
            self._next_id += 1
            rid = request_id or f"r{self._next_id}"
        future: "Future[Verdict]" = Future()
        request = Request(x=x, id=rid, future=future,
                          enqueued_at=time.monotonic(),
                          span=start_span("serve/request", request=rid,
                                          model=tenant.model_id, tier=tier))
        try:
            # A full queue is the batcher's hard bound (QueueFullError)
            # for every tier; below it, each tier sheds at its threshold.
            depth = len(tenant.batcher)
            if depth < tenant.config.max_queue:
                tenant.admission.admit(tier, depth)
            tenant.batcher.submit(request)
        except (ShedError, QueueFullError, ServingClosedError) as exc:
            tenant.stats.note_rejected()
            request.span.finish(rejected=type(exc).__name__)
            raise
        return future

    def predict(self, x: np.ndarray, timeout: Optional[float] = None,
                model: Optional[str] = None,
                priority: Optional[str] = None) -> Verdict:
        """Blocking single-example inference through the batching queue."""
        return self.submit(x, model=model, priority=priority).result(timeout)

    def predict_many(self, xs: Sequence[np.ndarray],
                     timeout: Optional[float] = None,
                     model: Optional[str] = None) -> List[Verdict]:
        """Submit a burst of examples and gather their verdicts in order."""
        futures = [self.submit(x, model=model) for x in xs]
        return [f.result(timeout) for f in futures]

    # -- batch path (called by the executors) --------------------------
    def _open_batch(self, tenant, requests: List[Request]) -> Optional[Batch]:
        """Stack a flushed batch and open its ``serve/batch`` span.

        The span nests under the oldest request's span, so the trace
        reads request -> micro-batch -> pipeline stages; the batch's
        other requests close as their own trace roots.  Returns None
        after failing the batch when its inputs do not stack (mixed
        shapes before the tenant's shape is pinned).
        """
        started_at = time.monotonic()
        parent = next((r.span.context for r in requests
                       if r.span is not None and r.span.recording), None)
        batch = Batch(tenant, requests, None, started_at,
                      start_span("serve/batch", parent=parent,
                                 batch=len(requests), model=tenant.model_id))
        try:
            batch.x = np.stack([r.x for r in requests])
        except ValueError as exc:
            self._fail_batch(batch, exc)
            return None
        return batch

    def _resolve_batch(self, batch: Batch, arrays: Sequence[np.ndarray],
                       names: Sequence[str], stage_s: Sequence[float],
                       infer_s: float) -> None:
        """Resolve every request of a served batch with its Verdict."""
        labels_reformed, labels_raw, detected, flags, scores = arrays
        tenant, requests = batch.tenant, batch.requests
        n = len(requests)
        if tenant.input_shape is None:      # first successful batch pins it
            tenant.input_shape = requests[0].x.shape
        tenant.stats.note_batch(n)
        counter("serve/batches").inc()
        counter("serve/requests").inc(n)
        if batch.span.recording:
            with attach_trace_context(batch.span.context):
                for stage, seconds in zip(STAGES, stage_s):
                    record_span(f"serve/{stage}", seconds, batch=n,
                                model=tenant.model_id)
        batch.span.finish(**{f"{s}_s": round(v, 6)
                             for s, v in zip(STAGES, stage_s)},
                          oldest_queue_ms=round(
                              (batch.started_at - requests[0].enqueued_at)
                              * 1000.0, 3))
        infer_ms = round(infer_s * 1000.0, 3)
        now = time.monotonic()
        for i, r in enumerate(requests):
            queue_ms = (batch.started_at - r.enqueued_at) * 1000.0
            verdict = Verdict(
                request_id=r.id,
                label=int(labels_reformed[i]),
                detected=bool(detected[i]),
                label_raw=int(labels_raw[i]),
                detector_scores={name: float(scores[d, i])
                                 for d, name in enumerate(names)},
                detector_flags={name: bool(flags[d, i])
                                for d, name in enumerate(names)},
                queue_ms=round(queue_ms, 3),
                infer_ms=infer_ms,
                batch_size=n,
            )
            tenant.stats.note_request(queue_ms,
                                      (now - r.enqueued_at) * 1000.0)
            if r.span is not None:
                r.span.finish(queue_ms=round(queue_ms, 3), batch=n,
                              detected=verdict.detected,
                              model=tenant.model_id)
            if not r.future.done():
                r.future.set_result(verdict)

    def _fail_batch(self, batch: Batch, exc: BaseException) -> None:
        """Fail every request of a batch with ``exc``."""
        n = len(batch.requests)
        error = type(exc).__name__
        batch.tenant.stats.note_errors(n)
        counter("serve/errors").inc(n)
        if batch.span is not None:
            batch.span.finish(error=error)
        for r in batch.requests:
            if r.span is not None:
                r.span.finish(error=error)
            if not r.future.done():
                r.future.set_exception(exc)

    # -- introspection -------------------------------------------------
    def kill_worker(self, index: int = 0) -> bool:
        """SIGKILL one worker process (fault-injection hook).

        Used by the crash-recovery tests and the serving benchmark to
        prove accepted requests survive a worker loss.  Returns True
        when a live worker was killed; always False at ``workers=0``.
        """
        return self._executor.kill_worker(index)

    def stats_snapshot(self) -> Dict[str, Any]:
        """Service-wide, per-model and executor stats (the /stats body)."""
        tenants = self.router.tenants()
        models: Dict[str, Any] = {}
        shed_total = 0
        for tenant in tenants:
            snap = tenant.stats.snapshot()
            snap["requests"]["submitted"] = tenant.batcher.submitted
            snap["queue_depth"] = len(tenant.batcher)
            snap["shed"] = tenant.admission.snapshot()
            snap["wait_ms"] = round(tenant.batcher.max_wait_s * 1000.0, 3)
            snap["config"] = tenant.config.as_dict()
            models[tenant.model_id] = snap
            shed_total += sum(snap["shed"].values())
        snap = ServiceStats.merged([t.stats for t in tenants]).snapshot()
        snap["requests"]["submitted"] = sum(
            m["requests"]["submitted"] for m in models.values())
        snap["requests"]["shed"] = shed_total
        snap.update(
            queue_depth=sum(m["queue_depth"] for m in models.values()),
            models=models,
            default_model=self.router.default_model,
            cluster=dict(workers=self.config.workers,
                         **self._executor.snapshot()),
            uptime_s=round(self.uptime_s, 3),
            healthy=self.healthy(),
            config=self.config.as_dict())
        return snap

    def metrics_gauges(self) -> Dict[str, float]:
        """Extra gauges for /metrics; empty-window percentiles omitted."""
        snap = self.stats_snapshot()
        extra: Dict[str, float] = {
            "serve/uptime_seconds": snap["uptime_s"],
            "serve/healthy": 1.0 if snap["healthy"] else 0.0,
            "cluster/workers_alive": snap["cluster"]["alive"],
            "cluster/restarts_total": snap["cluster"]["restarts"],
            "cluster/inflight_now": snap["cluster"]["inflight"],
        }
        # Service-wide gauges unsuffixed, then each model's with _<model>.
        scopes = [("", snap)] + [(f"_{mid}", m)
                                 for mid, m in snap["models"].items()]
        for suffix, scope in scopes:
            extra[f"serve/queue_depth_now{suffix}"] = scope["queue_depth"]
            for window, pcts in scope["latency_ms"].items():
                for pct, value in pcts.items():
                    if value is not None:
                        extra[f"serve/latency_{window}_ms_{pct}{suffix}"] = \
                            value
        return extra


class InferenceService(ClusterService):
    """One-tenant, in-process (``workers=0``) service over a built MagNet.

    Usage::

        service = InferenceService(magnet, ServingConfig(max_batch=32))
        with service:                      # starts/stops the tenant thread
            verdict = service.predict(x)   # one example in, one Verdict out

    The tenant is named ``default``.  Submissions beyond
    ``config.max_queue`` raise :class:`QueueFullError` — explicit load
    shedding, never unbounded queueing.
    """

    def __init__(self, magnet: MagNet, config: Optional[ServingConfig] = None):
        super().__init__(
            [ModelSpec("default", lambda: magnet,
                       config=config or ServingConfig())],
            ClusterConfig(workers=0))
        self.magnet = magnet
