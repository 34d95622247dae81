"""Multi-tenant model routing for the serving cluster.

One HTTP frontend serves the whole zoo of MagNet variants: each routed
model is a *tenant* with its own :class:`~repro.serving.config.ServingConfig`
(batch knobs, queue bound, shed thresholds), its own
:class:`~repro.serving.batcher.MicroBatcher` (so one tenant's burst
cannot starve another's queue), its own
:class:`~repro.serving.policy.TieredAdmission`, and its own latency
stats.  ``POST /predict`` picks the tenant with the ``model=`` field;
requests without one go to the default model.  :class:`ServiceStats`
keeps each tenant's counters and latency windows.

A :class:`ModelSpec` describes how to *build* a tenant's MagNet inside
each worker process: either a picklable callable, or the name of a
builder registered in the :mod:`repro.models.zoo` catalog (the
spawn-safe spelling — only the name and kwargs cross the process
boundary).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.serving.batcher import MicroBatcher
from repro.serving.config import ServingConfig
from repro.serving.policy import AdaptiveWaitController, TieredAdmission


def _percentiles(values: Sequence[float]) -> Dict[str, Optional[float]]:
    # An empty window has no percentiles: report null (None), not a
    # fabricated 0.0 that dashboards would read as "zero latency".
    if not values:
        return {"p50": None, "p95": None, "p99": None}
    arr = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, (50, 95, 99))
    return {"p50": round(float(p50), 3), "p95": round(float(p95), 3),
            "p99": round(float(p99), 3)}


class ServiceStats:
    """Thread-safe serving counters + bounded latency windows."""

    def __init__(self, window: int = 2048):
        self._lock = threading.Lock()
        self._queue_ms: List[float] = []
        self._total_ms: List[float] = []
        self._window = int(window)
        self.completed = 0
        self.rejected = 0
        self.errors = 0
        self.batches = 0
        self.batched_requests = 0
        self.max_batch_seen = 0

    def note_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def note_batch(self, size: int) -> None:
        with self._lock:
            self.batches += 1
            self.batched_requests += size
            self.max_batch_seen = max(self.max_batch_seen, size)

    def note_request(self, queue_ms: float, total_ms: float) -> None:
        with self._lock:
            self.completed += 1
            self._queue_ms.append(queue_ms)
            self._total_ms.append(total_ms)
            if len(self._queue_ms) > self._window:
                del self._queue_ms[:-self._window]
                del self._total_ms[:-self._window]

    def note_errors(self, n: int) -> None:
        with self._lock:
            self.errors += n

    @classmethod
    def merged(cls, parts: Sequence["ServiceStats"]) -> "ServiceStats":
        """A point-in-time sum of ``parts`` (the service-wide view)."""
        total = cls(window=sum(p._window for p in parts))
        for p in parts:
            with p._lock:
                total.completed += p.completed
                total.rejected += p.rejected
                total.errors += p.errors
                total.batches += p.batches
                total.batched_requests += p.batched_requests
                total.max_batch_seen = max(total.max_batch_seen,
                                           p.max_batch_seen)
                total._queue_ms += p._queue_ms
                total._total_ms += p._total_ms
        return total

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            mean_batch = (self.batched_requests / self.batches
                          if self.batches else 0.0)
            return {
                "requests": {
                    "completed": self.completed,
                    "rejected": self.rejected,
                    "errors": self.errors,
                },
                "batches": {
                    "count": self.batches,
                    "mean_size": round(mean_batch, 3),
                    "max_size": self.max_batch_seen,
                },
                "latency_ms": {
                    "queue": _percentiles(self._queue_ms),
                    "total": _percentiles(self._total_ms),
                },
            }


class UnknownModelError(KeyError):
    """``model=`` named a tenant the router does not serve (HTTP 404)."""

    def __init__(self, model: str, known: Sequence[str]):
        self.model = model
        self.known = list(known)
        super().__init__(
            f"unknown model {model!r}; serving {sorted(self.known)}")

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0]


@dataclasses.dataclass
class ModelSpec:
    """One routed model: identity + how to build it where batches run."""

    #: Routing key for the ``model=`` request field.
    model_id: str
    #: A picklable callable returning a calibrated MagNet, or the name
    #: of a builder registered via
    #: :func:`repro.models.zoo.register_model_builder`.
    builder: Union[str, Callable[..., Any]]
    #: Keyword arguments for the builder (must be picklable).
    builder_kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Expected per-example input shape; when ``None`` it is pinned from
    #: the first batch the model serves successfully.
    input_shape: Optional[Tuple[int, ...]] = None
    #: Per-tenant serving knobs.
    config: ServingConfig = dataclasses.field(default_factory=ServingConfig)

    def build(self):
        """Construct the MagNet (in this process at ``workers=0``, else
        inside each worker process)."""
        fn = self.builder
        if isinstance(fn, str):
            from repro.models.zoo import resolve_model_builder
            fn = resolve_model_builder(self.builder)
        return fn(**self.builder_kwargs)


class TenantState:
    """Frontend-side state for one routed model."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        self.model_id = spec.model_id
        self.config = spec.config
        self.batcher = MicroBatcher(max_batch=spec.config.max_batch,
                                    max_wait_ms=spec.config.max_wait_ms,
                                    max_queue=spec.config.max_queue,
                                    name=spec.model_id)
        self.stats = ServiceStats(window=spec.config.latency_window)
        self.admission = TieredAdmission(spec.config.max_queue,
                                         spec.config.shed_thresholds,
                                         tenant=spec.model_id)
        self.adaptive: Optional[AdaptiveWaitController] = None
        if spec.config.adaptive_wait:
            self.adaptive = AdaptiveWaitController(
                self.batcher, min_wait_ms=spec.config.min_wait_ms,
                max_wait_ms=spec.config.max_wait_ms, tenant=spec.model_id)
        #: Pinned per-example shape (from the spec, else the first batch
        #: served successfully).
        self.input_shape: Optional[Tuple[int, ...]] = spec.input_shape


class ModelRouter:
    """model-id -> :class:`TenantState` lookup with a default tenant."""

    def __init__(self, specs: Sequence[ModelSpec],
                 default_model: Optional[str] = None):
        if not specs:
            raise ValueError("ModelRouter needs at least one ModelSpec")
        ids = [spec.model_id for spec in specs]
        dupes = {m for m in ids if ids.count(m) > 1}
        if dupes:
            raise ValueError(f"duplicate model ids: {sorted(dupes)}")
        self._tenants: Dict[str, TenantState] = {
            spec.model_id: TenantState(spec) for spec in specs}
        self.default_model = default_model or ids[0]
        if self.default_model not in self._tenants:
            raise UnknownModelError(self.default_model, ids)

    def resolve(self, model: Optional[str] = None) -> TenantState:
        """Route a request's ``model`` field (None -> default tenant)."""
        model_id = model or self.default_model
        tenant = self._tenants.get(model_id)
        if tenant is None:
            raise UnknownModelError(model_id, list(self._tenants))
        return tenant

    def tenants(self) -> List[TenantState]:
        return list(self._tenants.values())

    def model_ids(self) -> List[str]:
        return list(self._tenants)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._tenants

    def __len__(self) -> int:
        return len(self._tenants)
