"""Configuration for the online inference service.

Two frozen dataclasses hold every serving knob so the CLI, the HTTP
frontend, the benchmark and the tests construct services identically:
:class:`ServingConfig` per routed model (tenant) and
:class:`ClusterConfig` for the service as a whole.  The two knobs that
define *dynamic micro-batching* are ``max_batch`` and ``max_wait_ms``:
a batch is flushed to its executor as soon as either
``max_batch`` requests are waiting or the oldest waiting request has
aged ``max_wait_ms`` — whichever happens first.  ``max_queue`` bounds
admission: once that many requests are queued, new submissions are
rejected immediately (load shedding) instead of growing latency without
bound.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional, Tuple


@dataclasses.dataclass(frozen=True)
class ServingConfig:
    """Per-tenant knobs of :class:`~repro.serving.service.ClusterService`.

    One ``ServingConfig`` describes a single *tenant* (one routed
    model): its batching knobs, queue bound, request timeout, shed
    thresholds, and adaptive-wait bounds.
    """

    #: Flush a batch once this many requests are waiting.
    max_batch: int = 32
    #: ... or once the oldest waiting request is this old (milliseconds).
    max_wait_ms: float = 5.0
    #: Admission bound: submissions beyond this queue depth are rejected
    #: with :class:`~repro.serving.batcher.QueueFullError`.
    max_queue: int = 256
    #: Ring-buffer size for the latency percentiles reported by /stats.
    latency_window: int = 2048
    #: Server-side cap on how long one HTTP /predict call may wait for
    #: its verdict before answering 504.
    request_timeout_s: float = 30.0
    #: Tiered load-shedding thresholds as fractions of ``max_queue``,
    #: one per priority tier (interactive, standard, background).  A
    #: tier's requests shed once queue depth reaches its fraction.
    shed_thresholds: Tuple[float, float, float] = (1.0, 0.7, 0.45)
    #: Enable AIMD tuning of ``max_wait_ms`` from the live queue-depth
    #: gauge; the configured ``max_wait_ms`` becomes the upper bound.
    adaptive_wait: bool = False
    #: Lower bound the adaptive policy may shrink the wait to.
    min_wait_ms: float = 0.25

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}")
        if self.max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.latency_window < 1:
            raise ValueError(
                f"latency_window must be >= 1, got {self.latency_window}")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive, got "
                             f"{self.request_timeout_s}")
        if len(self.shed_thresholds) != 3:
            raise ValueError("shed_thresholds needs one fraction per tier "
                             f"(3), got {self.shed_thresholds!r}")
        for frac in self.shed_thresholds:
            if not 0.0 < frac <= 1.0:
                raise ValueError(
                    f"shed thresholds must be in (0, 1], got {frac}")
        if self.min_wait_ms < 0:
            raise ValueError(
                f"min_wait_ms must be >= 0, got {self.min_wait_ms}")
        if self.adaptive_wait and self.min_wait_ms > self.max_wait_ms:
            raise ValueError(
                f"min_wait_ms={self.min_wait_ms} exceeds "
                f"max_wait_ms={self.max_wait_ms}")

    @property
    def max_wait_s(self) -> float:
        return self.max_wait_ms / 1000.0

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Service-wide knobs for :class:`~repro.serving.service.ClusterService`.

    Per-tenant knobs (batching, queues, shedding) live on each tenant's
    :class:`ServingConfig`; this dataclass holds what every tenant
    shares: how batches are executed, transport geometry and
    supervision timing (process workers only), and shutdown behaviour.
    """

    #: ``0`` runs every batch in this process, on one thread per
    #: tenant.  ``N >= 1`` runs batches in N OS-process workers (each
    #: hosting every routed model) fed over shared-memory rings.
    workers: int = 0
    #: Slots per shared-memory ring (request and response each).
    ring_slots: int = 8
    #: Payload bytes per ring slot; ``None`` sizes automatically from
    #: the routed models' declared input shapes and batch bounds.
    slot_bytes: Optional[int] = None
    #: A worker whose heartbeat is older than this is declared hung and
    #: restarted (its in-flight batches are re-dispatched).
    heartbeat_timeout_s: float = 10.0
    #: Supervisor poll interval.
    supervise_interval_s: float = 0.1
    #: Dispatcher/collector idle poll interval (process workers only;
    #: in-process tenant threads block on their queue instead).
    poll_interval_s: float = 0.001
    #: Adaptive-wait controller tick interval (when any tenant opts in).
    policy_interval_s: float = 0.05
    #: In-flight batch bound per worker; ``None`` defaults to
    #: ``ring_slots``.  The dispatcher stops pulling new batches once
    #: every live worker is at the bound, so overload backs up in the
    #: tenant queues where tiered admission can see (and shed) it
    #: instead of draining invisibly into the pickle-fallback pipe.
    max_inflight_per_worker: Optional[int] = None
    #: Graceful-stop budget: drain queued + in-flight work this long
    #: before failing what remains.
    drain_timeout_s: float = 30.0
    #: Times one batch may be re-dispatched after worker crashes before
    #: its requests fail (guards against a poison batch crash-looping
    #: the fleet).
    max_redispatch: int = 2

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.ring_slots < 1:
            raise ValueError(
                f"ring_slots must be >= 1, got {self.ring_slots}")
        if self.slot_bytes is not None and self.slot_bytes < 1:
            raise ValueError(
                f"slot_bytes must be >= 1, got {self.slot_bytes}")
        if self.heartbeat_timeout_s <= 0:
            raise ValueError("heartbeat_timeout_s must be positive, got "
                             f"{self.heartbeat_timeout_s}")
        if (self.max_inflight_per_worker is not None
                and self.max_inflight_per_worker < 1):
            raise ValueError("max_inflight_per_worker must be >= 1, got "
                             f"{self.max_inflight_per_worker}")
        if self.max_redispatch < 0:
            raise ValueError(
                f"max_redispatch must be >= 0, got {self.max_redispatch}")

    def as_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)
