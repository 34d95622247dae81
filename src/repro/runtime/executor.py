"""Process-pool mapping with deterministic seeding and fault tolerance.

The executor never changes *what* is computed, only *where*: work items
are mapped in order, per-item seeds are derived from a root
:class:`numpy.random.SeedSequence` by item index (not by worker), and
the serial loop applies the exact same function to the exact same
payloads — so a parallel run is bitwise-identical to ``jobs=1``.
Retries reuse the item's original seed, so a retried item is also
bitwise-identical to one that succeeded first try.

Every map runs through one supervised dispatch loop per ``jobs``
regime: in-process at ``jobs<=1``, and one process-pool future per item
at ``jobs>1``.  One item per future is also the load balancer: the
pool hands the next queued item to whichever worker frees up first, so
a straggler (a high-κ EAD cell taking 10× its neighbours) only ever
holds up its own worker.

Supervision is driven by a :class:`~repro.runtime.faults.RetryPolicy`.
A per-item timeout is enforced *inside* the worker by a SIGALRM
watchdog, failed items are retried with exponential backoff
(``runtime/retry`` telemetry), and a ``BrokenProcessPool`` re-dispatches
only the items whose futures died, counting a crash attempt against
each.  An item that exhausts its retry budget becomes a terminal
per-item failure: an :class:`~repro.runtime.faults.ItemFailure` record
at its position (``on_error="record"``) or, once the map has finished,
the lowest-index failure raised (``on_error="raise"``).  Without a
policy the map supervises with zero retries and no timeout.  Anything
that prevents the pool from running at all (unpicklable callables, a
platform without usable multiprocessing) degrades to the serial loop
with a warning.
"""

from __future__ import annotations

import collections
import contextlib
import os
import pickle
import signal
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.obs import (
    TraceContext,
    attach_trace_context,
    counter,
    current_trace_context,
    event,
    span,
)
from repro.runtime.faults import (
    FaultPlan,
    InjectedCrash,
    ItemFailure,
    ItemTimeout,
    RetryPolicy,
)
from repro.utils.logging import get_logger
from repro.utils.rng import spawn_seeds

log = get_logger(__name__)

#: Hard ceiling on worker processes; requests beyond it are clamped so a
#: typo'd ``--jobs 1000000`` cannot fork-bomb the host (the map itself
#: additionally never starts more workers than it has items).
MAX_JOBS = max(16, 4 * (os.cpu_count() or 1))


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` request.

    ``None`` and ``0`` mean one worker per core; positive values pass
    through, capped at :data:`MAX_JOBS`.  Negative values are rejected
    *before* any normalization — there is no ``-1 == all cores``
    convention here.
    """
    if jobs is not None:
        jobs = int(jobs)
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs > MAX_JOBS:
        log.warning("jobs=%d clamped to %d (4x cpu count)", jobs, MAX_JOBS)
        return MAX_JOBS
    return jobs


@contextlib.contextmanager
def _watchdog(timeout_s: Optional[float]):
    """Raise :class:`ItemTimeout` in this process after ``timeout_s``.

    Uses a SIGALRM interval timer, so it interrupts even a blocking
    C-level call (``time.sleep``, a numpy matmul does release the GIL
    but signals are handled on return to the interpreter).  A no-op when
    ``timeout_s`` is None or the platform lacks SIGALRM (non-POSIX).
    Must run on the main thread: ``signal.signal`` raises elsewhere.
    """
    if timeout_s is None or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_alarm(signum, frame):
        raise ItemTimeout(f"work item exceeded {timeout_s:g}s")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _picklable_error(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _run_one(fn, item, seed, index: int, attempt: int,
             timeout_s: Optional[float], plan: Optional[FaultPlan],
             trace_ctx: Optional[TraceContext], in_worker: bool):
    """Run one supervised item; never raises (crash faults excepted)."""
    try:
        with _watchdog(timeout_s):
            if plan is not None:
                plan.fire(index, attempt, in_worker=in_worker)
            with attach_trace_context(trace_ctx):
                value = fn(item) if seed is None else fn(item, seed=seed)
                return (index, "ok", value)
    except Exception as exc:
        kind = ("timeout" if isinstance(exc, ItemTimeout)
                # InjectedCrash is the serial loop's stand-in for os._exit.
                else "crash" if isinstance(exc, InjectedCrash) else "error")
        return (index, kind, _picklable_error(exc) if in_worker else exc)


def _start_method() -> str:
    """``fork`` where the platform has it, else ``spawn``."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class _MapRun:
    """Supervision state of one :meth:`ParallelExecutor.map` call."""

    def __init__(self, fn, items, seeds, policy: RetryPolicy,
                 fault_plan: Optional[FaultPlan],
                 trace_ctx: Optional[TraceContext], on_result):
        self.fn, self.items, self.seeds = fn, items, seeds
        self.policy = policy
        self.fault_plan = fault_plan
        self.trace_ctx = trace_ctx
        self.on_result = on_result
        n = len(items)
        self.results: List[Any] = [None] * n
        self.done = [False] * n
        self.attempts = [0] * n
        self.errors: Dict[int, tuple] = {}      # index -> (kind, exception)

    def args(self, index: int, timeout_s: Optional[float],
             in_worker: bool) -> tuple:
        """Positional arguments of :func:`_run_one` for item ``index``."""
        return (self.fn, self.items[index], self.seeds[index], index,
                self.attempts[index], timeout_s, self.fault_plan,
                self.trace_ctx, in_worker)

    def unfinished(self) -> List[int]:
        return [i for i in range(len(self.items))
                if not self.done[i] and i not in self.errors]

    def handle(self, outcome, retry_queue) -> None:
        index, status, value = outcome
        if status == "ok":
            self.results[index] = value
            self.done[index] = True
            if self.on_result is not None:
                self.on_result(index, value)
            return
        policy = self.policy
        self.attempts[index] += 1
        attempt = self.attempts[index]
        if status == "timeout":
            counter("runtime/timeouts").inc()
            event("runtime/timeout", item=index, attempt=attempt,
                  timeout_s=policy.timeout_s)
        if attempt <= policy.retries:
            counter("runtime/retries").inc()
            event("runtime/retry", item=index, attempt=attempt,
                  reason=status, error=str(value))
            log.warning("item %d failed (%s: %s) — retry %d/%d", index,
                        status, value, attempt, policy.retries)
            retry_queue.append(index)
        else:
            counter("runtime/giveups").inc()
            event("runtime/giveup", item=index, attempts=attempt,
                  reason=status, error=str(value))
            self.errors[index] = (status, value)

    def drain_serial(self, pending: Iterable[int]) -> None:
        """In-process loop (``jobs<=1`` and the pool-less fallback)."""
        timeout_s = self.policy.timeout_s
        if (timeout_s is not None
                and threading.current_thread() is not threading.main_thread()):
            # signal.signal() raises ValueError off the main thread.
            log.warning("per-item timeout of %gs not enforced: the SIGALRM "
                        "watchdog needs the main thread", timeout_s)
            timeout_s = None
        queue = collections.deque(pending)
        while queue:
            index = queue.popleft()
            time.sleep(self.policy.delay(self.attempts[index]))
            self.handle(_run_one(*self.args(index, timeout_s, False)), queue)

    def drain_pool(self, jobs: int, pending: List[int]) -> None:
        """One future per item; crashed items re-dispatch to a new pool."""
        import concurrent.futures
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool

        ctx = multiprocessing.get_context(_start_method())
        pool = None
        futures: Dict[Any, int] = {}
        broken_rounds = 0
        try:
            while pending:
                if pool is None:
                    pool = concurrent.futures.ProcessPoolExecutor(
                        min(jobs, len(pending)), ctx)
                time.sleep(max(self.policy.delay(self.attempts[i])
                               for i in pending))
                futures = {
                    pool.submit(_run_one,
                                *self.args(i, self.policy.timeout_s, True)): i
                    for i in pending
                }
                retry_queue: List[int] = []
                crashed = 0
                for fut in concurrent.futures.as_completed(futures):
                    try:
                        outcome = fut.result()
                    except BrokenProcessPool as exc:
                        # A pool break takes down every future still in
                        # flight; the culprit is unknowable (its output
                        # died with the worker), so each counts one crash.
                        crashed += 1
                        outcome = (futures[fut], "crash", exc)
                    self.handle(outcome, retry_queue)
                if crashed:
                    log.warning("worker crashed; re-dispatching %d items",
                                crashed)
                    pool.shutdown(wait=False)
                    pool = None
                    broken_rounds += 1
                    if broken_rounds >= 3 and retry_queue:
                        # The pool itself looks unusable (e.g. every fork
                        # dies); stop burning retries on it.
                        log.warning("%d consecutive broken rounds — "
                                    "finishing %d items serially",
                                    broken_rounds, len(retry_queue))
                        self.drain_serial(sorted(retry_queue))
                        retry_queue = []
                else:
                    broken_rounds = 0
                pending = sorted(retry_queue)
        finally:
            if pool is not None:
                # Future.cancel(), not shutdown(cancel_futures=True): after
                # an unpicklable submission the latter can hang the pool's
                # manager thread and with it interpreter exit.
                for fut in futures:
                    fut.cancel()
                pool.shutdown(wait=False)


class ParallelExecutor:
    """Order-preserving map over a process pool, with a serial fallback.

    Args:
        jobs: worker processes; ``None``/``0`` means one per core and
            ``1`` forces the serial loop (no pool, no pickling).
        seed: when given, each item's callable receives an independent
            ``seed=`` keyword derived from this root by *item index*, so
            results do not depend on worker scheduling (or on retries).
        policy: a :class:`~repro.runtime.faults.RetryPolicy` — per-item
            timeout, bounded retry with exponential backoff, crashed-item
            re-dispatch.  Default: zero retries and no timeout, or the
            default ``RetryPolicy()`` when ``fault_plan`` is set or
            ``on_error="record"``.
        fault_plan: a :class:`~repro.runtime.faults.FaultPlan` injecting
            deterministic faults (chaos testing).
        on_error: ``"raise"`` (default) raises the lowest-index terminal
            item failure once the map has finished; ``"record"`` returns
            an :class:`~repro.runtime.faults.ItemFailure` at the item's
            position.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 seed: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 on_error: str = "raise"):
        if on_error not in ("raise", "record"):
            raise ValueError(
                f"on_error must be 'raise' or 'record', got {on_error!r}")
        self.jobs = resolve_jobs(jobs)
        self.seed = seed
        self.policy = policy
        self.fault_plan = fault_plan
        self.on_error = on_error

    def _effective_policy(self) -> RetryPolicy:
        if self.policy is not None:
            return self.policy
        if self.fault_plan is not None or self.on_error == "record":
            return RetryPolicy()
        return RetryPolicy(retries=0)

    def map(self, fn: Callable, items: Iterable[Any],
            on_result: Optional[Callable[[int, Any], None]] = None
            ) -> List[Any]:
        """Apply ``fn`` to every item, in order; see class docstring.

        ``on_result(index, value)`` is invoked in the parent as each
        item completes (completion order, not item order), letting a
        sweep publish artifacts incrementally so an interrupted run can
        resume from the last completed item.
        """
        items = list(items)
        n = len(items)
        if self.seed is not None:
            seeds: Sequence[Optional[int]] = spawn_seeds(self.seed, n)
        else:
            seeds = [None] * n
        jobs = min(self.jobs, n)
        with span("runtime/map", items=n, jobs=jobs) as sp:
            # The map span is the parent of every item's spans, whether
            # the item runs in this process or in a pool worker (the
            # context rides along in each payload).
            run = _MapRun(fn, items, seeds, self._effective_policy(),
                          self.fault_plan, current_trace_context(),
                          on_result)
            if jobs <= 1:
                run.drain_serial(range(n))
            else:
                try:
                    run.drain_pool(jobs, list(range(n)))
                except Exception as exc:
                    if not _is_fallback_error(exc):
                        raise
                    log.warning("process pool unavailable (%s: %s) — "
                                "running %d items serially",
                                type(exc).__name__, exc, n)
                    sp["fallback"] = "serial"
                    run.drain_serial(run.unfinished())

            for index, (kind, exc) in sorted(run.errors.items()):
                if self.on_error == "raise":
                    log.error("item %d terminally failed after %d attempts: "
                              "%s", index, run.attempts[index], exc)
                    raise exc
                run.results[index] = ItemFailure(
                    index=index, kind=kind, error=str(exc),
                    attempts=run.attempts[index])
            return run.results


def _is_fallback_error(exc: BaseException) -> bool:
    """Errors that mean "the pool can't do this", not "the work failed"."""
    from concurrent.futures.process import BrokenProcessPool

    if isinstance(exc, (pickle.PicklingError, BrokenProcessPool,
                        ImportError, PermissionError)):
        return True
    # pickling closures/lambdas raises AttributeError or TypeError from
    # inside the serializer; genuine work errors of those types would
    # reproduce serially anyway (the fallback re-raises them).
    return isinstance(exc, (AttributeError, TypeError)) and (
        "pickle" in str(exc).lower() or "<locals>" in str(exc)
        or "<lambda>" in str(exc))


def parallel_map(fn: Callable, items: Iterable[Any], *,
                 jobs: Optional[int] = None,
                 seed: Optional[int] = None,
                 policy: Optional[RetryPolicy] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 on_error: str = "raise",
                 on_result: Optional[Callable[[int, Any], None]] = None
                 ) -> List[Any]:
    """One-shot :meth:`ParallelExecutor.map` (see class for semantics)."""
    executor = ParallelExecutor(jobs, seed=seed, policy=policy,
                                fault_plan=fault_plan, on_error=on_error)
    return executor.map(fn, items, on_result=on_result)
