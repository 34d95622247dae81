"""Process workers for the serving service (``ClusterConfig(workers>=1)``).

:class:`ProcessExecutor` runs the micro-batches of a
:class:`~repro.serving.service.ClusterService` in OS-process workers
(:func:`_worker_main`), each hosting every routed MagNet variant, fed
over per-worker :class:`~repro.serving.ring.SlotRing` pairs (zero-copy
numpy in/out; a pickle pipe as fallback transport for messages that do
not fit a ring slot).  The service owns admission, queues, verdicts and stats; this
executor keeps three small frontend threads:

* **dispatcher** — the *only* producer on every request ring.  Polls
  each tenant's :class:`~repro.serving.batcher.MicroBatcher`, stacks
  due batches, and pushes them to the least-loaded live worker.
* **collector** — the *only* consumer on every response ring (and the
  pipe receive side).  Unpacks decision arrays and hands them to the
  service, which resolves the futures with verdicts.
* **supervisor** — watches process liveness + the shared-memory
  heartbeat board; a dead or hung worker is killed, respawned with
  fresh rings, and its in-flight batches are re-dispatched (bounded by
  ``max_redispatch``) so accepted requests survive worker crashes.

Workers start with ``fork`` where the platform has it (model weights
inherited copy-on-write), else ``spawn`` (models re-built in the child
from picklable builders).
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import os
import pickle
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.obs import counter
from repro.serving.batcher import ServingClosedError
from repro.serving.ring import (
    KIND_ERROR,
    KIND_RAW,
    HeartbeatBoard,
    RingSlotTooSmall,
    SlotRing,
)
from repro.serving.router import ModelSpec
from repro.utils.logging import get_logger

__all__ = ["ProcessExecutor"]

log = get_logger(__name__)

#: Consecutive boot failures (death before "ready") after which a worker
#: slot stops being respawned — a broken model builder must not
#: crash-loop the fleet.
_MAX_BOOT_FAILURES = 3


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, specs: Sequence[ModelSpec],
                 req_ring: SlotRing, resp_ring: SlotRing, conn,
                 board: HeartbeatBoard, hb_index: int,
                 poll_s: float) -> None:
    """Worker entry point: build every routed model, then serve batches.

    Runs in a child process.  Single-threaded: pops the request ring,
    runs ``decide_batch``, pushes the packed decision onto the response
    ring (pipe fallback when it does not fit), stamping the heartbeat
    board every iteration.
    """
    # Under fork the rings arrive as inherited parent objects still
    # flagged as segment owners; only the frontend may unlink.
    req_ring._owner = False
    resp_ring._owner = False
    board._owner = False
    try:
        models = {spec.model_id: spec.build() for spec in specs}
    except Exception as exc:  # noqa: BLE001 - report, then exit
        try:
            conn.send(("fatal", worker_id,
                       f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        return
    try:
        conn.send(("ready", worker_id, os.getpid()))
    except Exception:
        return
    while True:
        board.beat(hb_index)
        msg = req_ring.try_pop()
        if msg is not None:
            model_id, shape = pickle.loads(msg.meta)
            x = msg.array(shape, np.float32)
            _serve_batch(models, resp_ring, conn, msg.batch_id, model_id, x)
            del x
            msg.release()
            continue
        try:
            if conn.poll(0):
                obj = conn.recv()
                kind = obj[0]
                if kind == "stop":
                    break
                if kind == "batch":
                    _, batch_id, model_id, x = obj
                    _serve_batch(models, resp_ring, conn, batch_id,
                                 model_id, x)
                continue
        except (EOFError, OSError):
            break                    # frontend went away
        time.sleep(poll_s)
    try:
        conn.send(("stopped", worker_id))
    except Exception:
        pass


def _serve_batch(models: Dict[str, Any], resp_ring: SlotRing, conn,
                 batch_id: int, model_id: str, x: np.ndarray) -> None:
    t0 = time.perf_counter()
    try:
        model = models[model_id]
        decision = model.decide_batch(x)
    except Exception as exc:  # noqa: BLE001 - fail the batch, not the worker
        err = {"model": model_id, "error": f"{type(exc).__name__}: {exc}"}
        if not resp_ring.try_push(KIND_ERROR, batch_id, pickle.dumps(err)):
            _pipe_send(conn, ("resp", batch_id, err, None))
        return
    stage = decision.stage_s or {}
    info = {
        "model": model_id,
        "n": int(x.shape[0]),
        "names": tuple(d.name for d in model.detectors),
        "stage": (float(stage.get("detect", 0.0)),
                  float(stage.get("reform", 0.0)),
                  float(stage.get("classify", 0.0))),
        "infer_s": time.perf_counter() - t0,
    }
    arrays = _pack_decision(decision)
    try:
        pushed = resp_ring.try_push(KIND_RAW, batch_id,
                                    pickle.dumps(info), arrays)
    except RingSlotTooSmall:
        pushed = False
    if not pushed:
        _pipe_send(conn, ("resp", batch_id, info,
                          tuple(np.asarray(a) for a in arrays)))


def _pipe_send(conn, obj) -> None:
    try:
        conn.send(obj)
    except Exception:  # pragma: no cover - frontend gone; nothing to do
        pass


#: Fixed wire order of the packed decision arrays (see _unpack offsets).
def _pack_decision(decision) -> Tuple[np.ndarray, ...]:
    return (np.ascontiguousarray(decision.labels_reformed, dtype=np.int64),
            np.ascontiguousarray(decision.labels_raw, dtype=np.int64),
            np.ascontiguousarray(decision.detected, dtype=np.uint8),
            np.ascontiguousarray(decision.detector_flags, dtype=np.uint8),
            np.ascontiguousarray(decision.detector_scores, dtype=np.float32))


def _unpack_decision(msg, n: int, d: int) -> Tuple[np.ndarray, ...]:
    """Zero-copy views over a ring response (release msg after use)."""
    labels_reformed = msg.array((n,), np.int64, offset=0)
    labels_raw = msg.array((n,), np.int64, offset=8 * n)
    detected = msg.array((n,), np.uint8, offset=16 * n)
    flags = msg.array((d, n), np.uint8, offset=17 * n)
    scores = msg.array((d, n), np.float32, offset=17 * n + d * n)
    return labels_reformed, labels_raw, detected, flags, scores


# ----------------------------------------------------------------------
# Frontend side
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _InFlight:
    """One dispatched batch awaiting its response."""

    batch_id: int
    batch: Any                         # service.Batch; x kept to re-dispatch
    worker: int = -1
    attempts: int = 0                  # sends completed so far
    redispatch_queued: bool = False


class _WorkerHandle:
    """Frontend-side view of one worker process + its transport."""

    def __init__(self, index: int, process, req_ring: SlotRing,
                 resp_ring: SlotRing, conn):
        self.index = index
        self.process = process
        self.req_ring = req_ring
        self.resp_ring = resp_ring
        self.conn = conn
        self.send_lock = threading.Lock()
        self.pending: Set[int] = set()     # batch ids awaiting response
        self.retired = False
        self.ready = False

    def close_transport(self) -> None:
        for ring in (self.req_ring, self.resp_ring):
            try:
                ring.close()
            except Exception:  # pragma: no cover - best effort
                pass
        try:
            self.conn.close()
        except Exception:  # pragma: no cover - best effort
            pass


class ProcessExecutor:
    """Runs a service's micro-batches in supervised worker processes."""

    def __init__(self, service):
        self.service = service
        self.config = service.config
        self._tenants = service.router.tenants()
        self._mp_ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self._slot_bytes = (self.config.slot_bytes
                            or self._auto_slot_bytes())
        self._board: Optional[HeartbeatBoard] = None
        self._workers: List[Optional[_WorkerHandle]] = []
        self._graveyard: List[_WorkerHandle] = []
        self._workers_lock = threading.Lock()
        self._boot_failures = [0] * self.config.workers
        self._inflight: Dict[int, _InFlight] = {}
        self._inflight_lock = threading.Lock()
        self._redispatch: collections.deque = collections.deque()
        self._threads: List[threading.Thread] = []
        self._dispatch_stop = threading.Event()
        self._collect_stop = threading.Event()
        self._supervise_stop = threading.Event()
        self._closing = False
        self._next_batch_id = 0
        self.restarts = 0

    # -- sizing --------------------------------------------------------
    def _auto_slot_bytes(self) -> int:
        """Size ring slots for the largest plausible request/response."""
        worst = 64 * 1024                       # floor: headroom for meta
        for tenant in self._tenants:
            shape = tenant.spec.input_shape
            if shape is None:
                continue
            per_example = int(np.prod(shape, dtype=np.int64)) * 4
            batch = tenant.config.max_batch
            # request: float32 batch; response: ~2 detectors of
            # flags+scores plus labels — the request dominates.
            worst = max(worst, per_example * batch + 4096)
        return worst

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._board = HeartbeatBoard(self.config.workers)
        with self._workers_lock:
            for i in range(self.config.workers):
                self._workers.append(self._spawn_worker(i))
        # The dispatcher comes first: stop() joins it before the others.
        self._threads = [
            threading.Thread(target=loop, name=f"repro-cluster-{name}",
                             daemon=True)
            for name, loop in (("dispatch", self._dispatch_loop),
                               ("collect", self._collect_loop),
                               ("supervise", self._supervise_loop))]
        for t in self._threads:
            t.start()
        log.info("cluster started: %d worker(s), ring_slots=%d, "
                 "slot_bytes=%d, start_method=%s", self.config.workers,
                 self.config.ring_slots, self._slot_bytes,
                 self._mp_ctx.get_start_method())

    def _spawn_worker(self, index: int) -> _WorkerHandle:
        self._board.clear(index)
        req_ring = SlotRing(self.config.ring_slots, self._slot_bytes)
        resp_ring = SlotRing(self.config.ring_slots, self._slot_bytes)
        parent_conn, child_conn = self._mp_ctx.Pipe()
        process = self._mp_ctx.Process(
            target=_worker_main, name=f"repro-cluster-w{index}",
            args=(index, [t.spec for t in self._tenants], req_ring,
                  resp_ring, child_conn, self._board, index,
                  self.config.poll_interval_s),
            daemon=True)
        process.start()
        child_conn.close()
        return _WorkerHandle(index, process, req_ring, resp_ring,
                             parent_conn)

    def wait_ready(self, timeout: float) -> bool:
        """Block until every live worker has built its models."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._workers_lock:
                handles = [h for h in self._workers if h is not None]
                if handles and all(h.ready for h in handles):
                    return True
            time.sleep(0.01)
        return False

    def alive(self) -> bool:
        return self.snapshot()["alive"] > 0

    def snapshot(self) -> Dict[str, int]:
        with self._workers_lock:
            live = [h for h in self._workers
                    if h is not None and not h.retired]
            alive = sum(h.process.is_alive() for h in live)
            ready = sum(h.ready for h in live)
        with self._inflight_lock:
            inflight = len(self._inflight)
        return {"alive": alive, "ready": ready, "restarts": self.restarts,
                "inflight": inflight}

    # -- dispatcher ----------------------------------------------------
    def _dispatch_loop(self) -> None:
        poll = self.config.poll_interval_s
        while not self._dispatch_stop.is_set():
            did_work = self._drain_redispatch_queue()
            for tenant in self._tenants:
                # Backpressure: once every live worker is at its
                # in-flight bound, leave work in the tenant queues where
                # the depth gauge and tiered admission can see it —
                # dispatching it anyway would drain overload invisibly
                # into the pickle-fallback pipe and nothing would shed.
                if not self._has_dispatch_capacity():
                    break
                requests = tenant.batcher.next_batch(timeout=0)
                if requests:
                    batch = self.service._open_batch(tenant, requests)
                    if batch is not None:
                        self._dispatch_new_batch(batch)
                    did_work = True
            if not did_work:
                time.sleep(poll)
        # One final sweep so a redispatch scheduled during the last
        # instants of drain is not stranded.
        self._drain_redispatch_queue()

    def _drain_redispatch_queue(self) -> bool:
        did = False
        # One bounded pass: a batch that gets re-parked (still no live
        # worker) must not spin this loop forever.
        for _ in range(len(self._redispatch)):
            try:
                record = self._redispatch.popleft()
            except IndexError:
                break
            with self._inflight_lock:
                if record.batch_id not in self._inflight:
                    continue                   # response beat the retry
                record.redispatch_queued = False
            if self._send_batch(record):
                did = True
        return did

    def _has_dispatch_capacity(self) -> bool:
        bound = (self.config.max_inflight_per_worker
                 if self.config.max_inflight_per_worker is not None
                 else self.config.ring_slots)
        with self._workers_lock:
            return any(h is not None and not h.retired
                       and len(h.pending) < bound for h in self._workers)

    def _dispatch_new_batch(self, batch) -> None:
        with self._inflight_lock:
            self._next_batch_id += 1
            record = _InFlight(batch_id=self._next_batch_id, batch=batch)
            self._inflight[record.batch_id] = record
        counter("cluster/dispatched").inc()
        self._send_batch(record)

    def _park(self, record: _InFlight) -> None:
        """Re-queue a batch for a later dispatcher pass (no attempt charged)."""
        with self._inflight_lock:
            if record.batch_id not in self._inflight:
                return
            if record.redispatch_queued:
                return
            record.redispatch_queued = True
        self._redispatch.append(record)

    def _send_batch(self, record: _InFlight) -> bool:
        with self._workers_lock:
            live = [h for h in self._workers
                    if h is not None and not h.retired]
            if not live:
                # Every worker is mid-restart; park the batch for the
                # next dispatcher pass rather than dropping it.
                parked = True
            else:
                parked = False
                handle = min(live, key=lambda h: len(h.pending))
                handle.pending.add(record.batch_id)
                record.worker = handle.index
                record.attempts += 1
        if parked:
            self._park(record)
            return False
        model_id, x = record.batch.tenant.model_id, record.batch.x
        meta = pickle.dumps((model_id, x.shape))
        try:
            pushed = handle.req_ring.try_push(KIND_RAW, record.batch_id,
                                              meta, x)
        except RingSlotTooSmall:
            pushed = False
        if not pushed:
            counter("cluster/pickle_fallbacks").inc()
            with handle.send_lock:
                _pipe_send(handle.conn, ("batch", record.batch_id,
                                         model_id, x))
        with self._workers_lock:
            if handle.retired and record.batch_id in handle.pending:
                # The supervisor retired this worker between selection
                # and send; its loss snapshot may have missed us.
                handle.pending.discard(record.batch_id)
                self._schedule_redispatch(record.batch_id,
                                          "worker retired mid-send")
        return True

    # -- collector -----------------------------------------------------
    def _collect_loop(self) -> None:
        poll = self.config.poll_interval_s
        while True:
            with self._workers_lock:
                handles = [h for h in self._workers
                           if h is not None and not h.retired]
            did_work = False
            for handle in handles:
                msg = handle.resp_ring.try_pop()
                if msg is not None:
                    self._on_ring_response(handle, msg)
                    did_work = True
                try:
                    while handle.conn.poll(0):
                        self._on_pipe_message(handle, handle.conn.recv())
                        did_work = True
                except (EOFError, OSError):
                    pass               # worker died; supervisor's problem
            if not did_work:
                if self._collect_stop.is_set():
                    with self._inflight_lock:
                        if not self._inflight:
                            return
                time.sleep(poll)

    def _on_ring_response(self, handle: _WorkerHandle, msg) -> None:
        try:
            info = pickle.loads(msg.meta)
            if msg.kind == KIND_ERROR:
                self._fail(handle, msg.batch_id,
                           info.get("error", "worker error"))
                return
            n, d = info["n"], len(info["names"])
            arrays = _unpack_decision(msg, n, d)
            self._resolve(handle, msg.batch_id, info, arrays)
            del arrays
        finally:
            msg.release()

    def _on_pipe_message(self, handle: _WorkerHandle, obj) -> None:
        kind = obj[0]
        if kind == "ready":
            handle.ready = True
        elif kind == "fatal":
            log.error("worker %d failed to boot: %s", obj[1], obj[2])
        elif kind == "resp":
            _, batch_id, info, arrays = obj
            counter("cluster/pickle_fallbacks").inc()
            if arrays is None or "error" in info:
                self._fail(handle, batch_id,
                           info.get("error", "worker error"))
            else:
                self._resolve(handle, batch_id, info, arrays)
        elif kind == "stopped":
            pass
        else:  # pragma: no cover - future protocol drift
            log.warning("unknown worker message %r", kind)

    def _take_record(self, handle: _WorkerHandle,
                     batch_id: int) -> Optional[_InFlight]:
        with self._inflight_lock:
            record = self._inflight.pop(batch_id, None)
        with self._workers_lock:
            handle.pending.discard(batch_id)
        return record

    def _resolve(self, handle: _WorkerHandle, batch_id: int,
                 info: Dict[str, Any],
                 arrays: Tuple[np.ndarray, ...]) -> None:
        record = self._take_record(handle, batch_id)
        if record is None:
            return                     # duplicate after a re-dispatch race
        counter("cluster/responses").inc()
        self.service._resolve_batch(record.batch, arrays, info["names"],
                                    info["stage"], info["infer_s"])

    def _fail(self, handle: _WorkerHandle, batch_id: int, error: str) -> None:
        record = self._take_record(handle, batch_id)
        if record is None:
            return
        log.error("batch %d of %d request(s) failed in worker: %s",
                  batch_id, len(record.batch.requests), error)
        self.service._fail_batch(
            record.batch, RuntimeError(f"model worker failed: {error}"))

    def kill_worker(self, index: int) -> bool:
        """SIGKILL one live worker process; True when one was killed."""
        with self._workers_lock:
            handle = (self._workers[index]
                      if 0 <= index < len(self._workers) else None)
        if handle is None or handle.retired or not handle.process.is_alive():
            return False
        handle.process.kill()
        return True

    # -- supervisor ----------------------------------------------------
    def _supervise_loop(self) -> None:
        interval = self.config.supervise_interval_s
        while not self._supervise_stop.wait(interval):
            with self._workers_lock:
                snapshot = list(enumerate(self._workers))
            for index, handle in snapshot:
                if handle is None or handle.retired:
                    continue
                alive = handle.process.is_alive()
                hung = (handle.ready and self._board.age_s(handle.index)
                        > self.config.heartbeat_timeout_s)
                if alive and not hung:
                    continue
                self._restart_worker(index, handle,
                                     "died" if not alive else "hung")

    def _restart_worker(self, index: int, handle: _WorkerHandle,
                        reason: str) -> None:
        with self._workers_lock:
            handle.retired = True
            lost = set(handle.pending)
        self.restarts += 1
        counter("cluster/worker_restarts").inc()
        log.warning("worker %d %s (%d batch(es) in flight); restarting",
                    index, reason, len(lost))
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(5.0)
        if not handle.ready:
            self._boot_failures[index] += 1
        else:
            self._boot_failures[index] = 0
        # Rings/pipe go to the graveyard, not closed here: the collector
        # may still be mid-poll on them; stop() reclaims everything.
        self._graveyard.append(handle)
        replacement: Optional[_WorkerHandle] = None
        if self._boot_failures[index] >= _MAX_BOOT_FAILURES:
            log.error("worker slot %d failed %d boots; not respawning",
                      index, self._boot_failures[index])
        elif not self._closing:
            replacement = self._spawn_worker(index)
        with self._workers_lock:
            self._workers[index] = replacement
        for batch_id in lost:
            self._schedule_redispatch(batch_id, f"worker {index} {reason}")

    def _schedule_redispatch(self, batch_id: int, reason: str) -> None:
        """Queue a lost batch for the dispatcher to resend (dedup-safe).

        ``attempts`` counts completed sends, so a batch whose every send
        ended in a worker crash fails once it has burned its initial
        send plus ``max_redispatch`` retries.
        """
        with self._inflight_lock:
            record = self._inflight.get(batch_id)
            if record is None or record.redispatch_queued:
                return
            if record.attempts > self.config.max_redispatch:
                record = self._inflight.pop(batch_id)
            else:
                record.redispatch_queued = True
                self._redispatch.append(record)
                counter("cluster/redispatched").inc()
                log.info("re-dispatching batch %d (attempt %d): %s",
                         batch_id, record.attempts + 1, reason)
                return
        # Redispatch budget exhausted: fail the batch's requests.
        exc = RuntimeError(
            f"batch {batch_id} lost after {record.attempts} attempt(s): "
            f"{reason}")
        log.error("%s", exc)
        self.service._fail_batch(record.batch, exc)

    # -- shutdown ------------------------------------------------------
    def stop(self, deadline: float) -> None:
        """Drain until ``deadline``, fail what is in flight, end workers.

        The service closed every tenant queue before calling this; it
        fails whatever is still queued once this returns.
        """
        self._closing = True
        self._supervise_stop.set()
        while time.monotonic() < deadline:
            queued = sum(len(t.batcher) for t in self._tenants)
            with self._inflight_lock:
                inflight = len(self._inflight)
            if queued == 0 and inflight == 0 and not self._redispatch:
                break
            time.sleep(0.005)
        self._dispatch_stop.set()
        self._threads[0].join(5.0)     # dispatcher first: no new sends
        with self._inflight_lock:
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        exc = ServingClosedError("service stopped before serving request")
        for record in leftovers:
            self.service._fail_batch(record.batch, exc)
        with self._workers_lock:
            handles = [h for h in self._workers if h is not None]
        for handle in handles:
            with handle.send_lock:
                _pipe_send(handle.conn, ("stop",))
        for handle in handles:
            handle.process.join(2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(2.0)
        self._collect_stop.set()
        for t in self._threads:
            t.join(5.0)
        for handle in handles + self._graveyard:
            handle.close_transport()
        self._board.close()
        log.info("cluster stopped: %d restarts", self.restarts)
