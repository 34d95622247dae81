"""Fault-injection harness and fault-tolerant runtime behavior.

The fault-tolerance contracts, as tests:

* a crashed worker re-dispatches only the items whose futures died with
  the pool — an item whose result already reached the parent never
  runs again;
* a timed-out item is retried and, once its budget is spent, recorded
  as a terminal :class:`ItemFailure` at its position without aborting
  the rest of the map;
* a parallel run with injected transient faults produces results
  bitwise-identical to a clean serial run (retries reuse item seeds);
* an interrupted sweep resumed with ``resume=True`` recomputes only
  the missing cells, and a chaos sweep (transients + cache corruption)
  publishes artifacts bitwise-identical to the fault-free serial run;
* a retry policy with no faults firing costs under 500 us per item.

Worker functions live at module level so they pickle across the pool.
"""

from __future__ import annotations

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.obs import (
    configure_observability,
    load_events,
    render_fault_summary,
)
from repro.runtime.executor import ParallelExecutor, parallel_map
from repro.runtime.faults import (
    FaultPlan,
    InjectedCrash,
    InjectedFault,
    ItemFailure,
    RetryPolicy,
    corrupt_cache_entry,
)
from repro.utils.cache import DiskCache

# ----------------------------------------------------------------------
# Picklable worker functions
# ----------------------------------------------------------------------
CRASH_SENTINEL = 99


def _double(value, seed=None):
    return value * 2


def _seeded_draw(value, seed=None):
    """Deterministic per-(item, seed) array — the bitwise-identity probe."""
    return np.random.default_rng(seed).standard_normal(4) + value


def _logged_worker(item, seed=None):
    """Append this item's value to a log file, then return it doubled.

    The CRASH_SENTINEL item hard-exits its worker process — but only on
    its first attempt (a marker file remembers), and only after items 0
    and 1 appear in the log, so the pool break cannot race ahead of
    every healthy future.
    """
    log_path, marker_dir, value = item
    if value == CRASH_SENTINEL:
        marker = os.path.join(marker_dir, "crashed-once")
        if not os.path.exists(marker):
            deadline = time.time() + 20.0
            while time.time() < deadline:
                try:
                    with open(log_path) as fh:
                        seen = set(fh.read().split())
                except FileNotFoundError:
                    seen = set()
                if {"0", "1"} <= seen:
                    break
                time.sleep(0.02)
            with open(marker, "w"):
                pass
            os._exit(13)
    with open(log_path, "a") as fh:
        fh.write(f"{value}\n")
    return value * 2


# ----------------------------------------------------------------------
# FaultPlan / RetryPolicy units
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.timeout_s is None
        assert policy.retries == 2

    @pytest.mark.parametrize("kwargs", [
        {"timeout_s": 0.0}, {"timeout_s": -1.0},
        {"retries": -1}, {"backoff_s": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_exponential_backoff_with_cap(self):
        policy = RetryPolicy(backoff_s=0.25, backoff_cap_s=1.0)
        assert policy.delay(0) == 0.0
        assert policy.delay(1) == 0.25
        assert policy.delay(2) == 0.5
        assert policy.delay(3) == 1.0
        assert policy.delay(10) == 1.0  # capped

    def test_zero_backoff_never_sleeps(self):
        assert RetryPolicy(backoff_s=0.0).delay(5) == 0.0


class TestFaultPlan:
    def test_explicit_indices_fire_once(self):
        plan = FaultPlan(transients=[3, 5])
        assert plan.kind_for(3) == "transient"
        assert plan.kind_for(4) is None
        with pytest.raises(InjectedFault):
            plan.fire(3, 0, in_worker=False)
        plan.fire(3, 1, in_worker=False)  # budget spent: no-op

    def test_fire_budget_mapping(self):
        plan = FaultPlan(timeouts={2: 3})
        assert plan.fires_for(2) == 3
        assert plan.kind_for(2) == "timeout"

    def test_serial_crash_raises_instead_of_exiting(self):
        plan = FaultPlan(crashes=[0])
        with pytest.raises(InjectedCrash):
            plan.fire(0, 0, in_worker=False)

    def test_rate_decisions_are_deterministic(self):
        a = FaultPlan.from_rates(7, transient=0.5)
        b = FaultPlan.from_rates(7, transient=0.5)
        kinds_a = [a.kind_for(i) for i in range(100)]
        assert kinds_a == [b.kind_for(i) for i in range(100)]
        hits = sum(k == "transient" for k in kinds_a)
        assert 25 <= hits <= 75  # loose: it is a hash, not a promise

    def test_different_seeds_differ(self):
        a = FaultPlan.from_rates(1, transient=0.5)
        b = FaultPlan.from_rates(2, transient=0.5)
        assert ([a.kind_for(i) for i in range(64)]
                != [b.kind_for(i) for i in range(64)])

    def test_corrupts_item_explicit_and_rate(self):
        assert FaultPlan(corrupts=[4]).corrupts_item(4)
        assert not FaultPlan(corrupts=[4]).corrupts_item(5)
        always = FaultPlan.from_rates(0, corrupt=1.0)
        assert all(always.corrupts_item(i) for i in range(10))

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("seed=7, crash=0.05,timeout=0.02,"
                               "transient=0.1,fires=2,hang=120")
        assert plan.seed == 7
        assert plan.rates == (0.05, 0.02, 0.1, 0.0)
        assert plan.fires == 2
        assert plan.hang_s == 120.0

    @pytest.mark.parametrize("spec", ["bogus=1", "crash", "crash=0.1,=2"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_plan_pickles(self):
        plan = FaultPlan.from_rates(3, crash=0.1, corrupt=0.2)
        clone = pickle.loads(pickle.dumps(plan))
        assert [clone.kind_for(i) for i in range(32)] == \
               [plan.kind_for(i) for i in range(32)]

    def test_describe_mentions_faults(self):
        text = FaultPlan(crashes=[1], corrupts=[2]).describe()
        assert "crash@[1]" in text and "corrupt@[2]" in text

    def test_item_failure_is_falsy(self):
        failure = ItemFailure(index=0, kind="timeout", error="x", attempts=3)
        assert not failure
        assert [v for v in [1, failure, 2] if v] == [1, 2]


class TestCorruptCacheEntry:
    def test_diskcache_self_heals_corrupt_entry(self, tmp_path):
        cache = DiskCache(tmp_path)
        path = cache.save("attacks", "k1", {"x": np.arange(4.0)})
        corrupt_cache_entry(path)
        before = cache.stats.stale_discards
        with pytest.raises(KeyError):
            cache.load("attacks", "k1")
        assert cache.stats.stale_discards == before + 1
        assert not cache.contains("attacks", "k1")  # discarded, recomputable


# ----------------------------------------------------------------------
# Executor scenarios (a)–(c)
# ----------------------------------------------------------------------
class TestCrashRedispatch:
    def test_only_unfinished_items_are_redispatched(self, tmp_path):
        """Scenario (a): a worker crash re-dispatches only unfinished items.

        A pool break can take down any future still in flight, so the
        run count of those items is not fixed; an item whose
        ``on_result`` already fired, though, must never run again.
        """
        log_path = str(tmp_path / "runs.log")
        items = [(log_path, str(tmp_path), v) for v in (0, 1, CRASH_SENTINEL, 3)]

        def runs():
            with open(log_path) as fh:
                return fh.read().split()

        runs_at_result = {}

        def on_result(index, value):
            runs_at_result[index] = runs().count(str(items[index][2]))

        executor = ParallelExecutor(2, policy=RetryPolicy(retries=2,
                                                          backoff_s=0.01))
        results = executor.map(_logged_worker, items, on_result=on_result)
        assert results == [0, 2, CRASH_SENTINEL * 2, 6]

        final = runs()
        assert sorted(runs_at_result) == [0, 1, 2, 3]
        for index, count in runs_at_result.items():
            assert count >= 1
            assert final.count(str(items[index][2])) == count
        # The crash item logs only on the attempt after its crash.
        assert final.count(str(CRASH_SENTINEL)) == 1

    def test_serial_path_survives_injected_crash(self):
        """On the serial path a crash fault must not kill the process."""
        plan = FaultPlan(crashes={1: 1})
        results = parallel_map(_double, [10, 20, 30], jobs=1, fault_plan=plan,
                               policy=RetryPolicy(retries=1, backoff_s=0.0))
        assert results == [20, 40, 60]

    def test_unretried_crash_is_terminal_record(self):
        plan = FaultPlan(crashes={1: 5})  # outlives any retry budget
        results = parallel_map(_double, [10, 20, 30], jobs=1, fault_plan=plan,
                               policy=RetryPolicy(retries=1, backoff_s=0.0),
                               on_error="record")
        assert results[0] == 20 and results[2] == 60
        failure = results[1]
        assert isinstance(failure, ItemFailure)
        assert failure.kind == "crash"
        assert failure.attempts == 2  # first try + one retry


@pytest.mark.parametrize("jobs", [1, 2], ids=["serial", "pool"])
class TestTimeoutHandling:
    def test_timeout_retries_then_records_terminal_failure(self, jobs):
        """Scenario (b): hung item times out, retries, fails terminally —
        and the rest of the map completes."""
        plan = FaultPlan(timeouts={1: 5}, hang_s=30.0)
        policy = RetryPolicy(timeout_s=0.2, retries=1, backoff_s=0.01)
        start = time.time()
        results = parallel_map(_double, [1, 2, 3], jobs=jobs,
                               fault_plan=plan, policy=policy,
                               on_error="record")
        assert time.time() - start < 20.0  # watchdog, not the 30 s hang
        assert results[0] == 2 and results[2] == 6
        failure = results[1]
        assert isinstance(failure, ItemFailure)
        assert failure.kind == "timeout"
        assert failure.attempts == 2

    def test_transient_timeout_recovers(self, jobs):
        plan = FaultPlan(timeouts={0: 1}, hang_s=30.0)
        policy = RetryPolicy(timeout_s=0.2, retries=2, backoff_s=0.01)
        results = parallel_map(_double, [5, 6], jobs=jobs, fault_plan=plan,
                               policy=policy)
        assert results == [10, 12]


class TestWatchdogOffMainThread:
    def test_timeout_policy_off_main_thread_runs_items_unwatched(self):
        """SIGALRM handlers can only be installed on the main thread; a
        serial map with a timeout on another thread must still run its
        items instead of failing each one."""
        out = {}

        def target():
            out["results"] = parallel_map(
                abs, [-1, -2], jobs=1,
                policy=RetryPolicy(timeout_s=5, retries=0, backoff_s=0),
                on_error="record")

        worker = threading.Thread(target=target)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert out["results"] == [1, 2]


class TestDeterminismUnderFaults:
    def test_parallel_faulted_equals_serial_clean(self):
        """Scenario (c): transient chaos must not change a single bit."""
        items = list(range(8))
        clean = parallel_map(_seeded_draw, items, jobs=1, seed=1234)

        plan = FaultPlan(transients={0: 1, 3: 2, 6: 1})
        chaotic = parallel_map(_seeded_draw, items, jobs=3, seed=1234,
                               fault_plan=plan,
                               policy=RetryPolicy(retries=3, backoff_s=0.01))
        for a, b in zip(clean, chaotic):
            assert a.tobytes() == b.tobytes()

    def test_serial_faulted_equals_serial_clean(self):
        items = list(range(5))
        clean = parallel_map(_seeded_draw, items, jobs=1, seed=9)
        chaotic = parallel_map(_seeded_draw, items, jobs=1, seed=9,
                               fault_plan=FaultPlan(transients=[1, 4]),
                               policy=RetryPolicy(retries=1, backoff_s=0.0))
        for a, b in zip(clean, chaotic):
            assert a.tobytes() == b.tobytes()


class TestFaultTelemetry:
    def test_retry_and_giveup_events_logged(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        configure_observability(path)
        try:
            plan = FaultPlan(transients={0: 5, 2: 1})
            parallel_map(_double, [1, 2, 3], jobs=1, fault_plan=plan,
                         policy=RetryPolicy(retries=1, backoff_s=0.0),
                         on_error="record")
        finally:
            configure_observability(None)
        events = load_events(path)
        stages = [e["stage"] for e in events]
        assert "runtime/retry" in stages
        assert "runtime/giveup" in stages
        summary = render_fault_summary(events)
        assert summary is not None and "giveups" in summary

    def test_fault_summary_none_when_clean(self):
        assert render_fault_summary([{"stage": "runtime/map"}]) is None


class TestOnErrorRaise:
    def test_terminal_failure_raises_original_error(self):
        plan = FaultPlan(transients={1: 5})
        with pytest.raises(InjectedFault):
            parallel_map(_double, [1, 2], jobs=1, fault_plan=plan,
                         policy=RetryPolicy(retries=1, backoff_s=0.0))

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError):
            ParallelExecutor(1, on_error="explode")


#: Per-item cost a fault-free RetryPolicy may add at jobs=1: 5 % of a
#: ~10 ms work item, far below a real attack cell (seconds).
POLICY_OVERHEAD_BUDGET_S = 500e-6


def _best_map_s(repeats, items, **kwargs):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        parallel_map(_double, items, jobs=1, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


class TestSupervisionOverhead:
    def test_policy_at_zero_faults_adds_under_budget_per_item(self):
        """A policy that never fires (watchdog armed, no faults) must be
        close to free, so sweeps can keep it on always.  Trivial items
        make its bookkeeping the whole per-item cost: an upper bound."""
        items = list(range(512))
        policy = RetryPolicy(timeout_s=300.0, retries=2, backoff_s=0.05)
        bare = _best_map_s(3, items)
        guarded = _best_map_s(3, items, policy=policy)
        per_item_s = (guarded - bare) / len(items)
        assert per_item_s < POLICY_OVERHEAD_BUDGET_S, (
            f"RetryPolicy adds {per_item_s * 1e6:.0f} us per item at 0 "
            f"faults (budget {POLICY_OVERHEAD_BUDGET_S * 1e6:.0f} us)")


# ----------------------------------------------------------------------
# Scenario (d): checkpoint/resume on a real (smoke) attack sweep
# ----------------------------------------------------------------------
SWEEP_KAPPAS = [0.0]
SWEEP_BETAS = [1e-1]
SWEEP_POLICY = RetryPolicy(retries=2, backoff_s=0.01)


@pytest.fixture(scope="module")
def sweep_ctx(smoke_context, tmp_path_factory):
    return smoke_context(tmp_path_factory.mktemp("fault_sweep_cache"))


def _grid_hashes(ctx):
    from repro.experiments import sweeps
    from repro.utils.cache import stable_hash

    cells = sweeps.attack_grid(ctx, kappas=SWEEP_KAPPAS, betas=SWEEP_BETAS)
    return {
        (sweeps._cell_id(cell), slot): stable_hash(
            ctx.cache.load("attacks", key))
        for cell in cells
        for slot, key in sweeps._cell_keys(ctx, cell).items()
    }


@pytest.fixture(scope="module")
def baseline_hashes(sweep_ctx):
    """Clean serial sweep: the bitwise ground truth for every chaos run."""
    from repro.experiments import sweeps

    summary = sweeps.precompute_attacks(sweep_ctx, kappas=SWEEP_KAPPAS,
                                        betas=SWEEP_BETAS, jobs=1)
    assert summary["computed"] == 2 and summary["failed"] == 0
    return _grid_hashes(sweep_ctx)


class TestSweepResume:
    def test_resume_recomputes_only_missing_cells(self, sweep_ctx,
                                                  baseline_hashes):
        """A killed run leaves a torn artifact; --resume heals just it."""
        from repro.experiments import sweeps

        ctx = sweep_ctx
        cells = sweeps.attack_grid(ctx, kappas=SWEEP_KAPPAS, betas=SWEEP_BETAS)
        cw_cell = next(c for c in cells if c["attack"] == "cw")
        for key in sweeps._cell_keys(ctx, cw_cell).values():
            corrupt_cache_entry(ctx.cache._path("attacks", key))

        # Without load-verification the torn cell looks complete...
        assert sweeps.missing_cells(ctx, cells) == []
        # ...but resume verifies, recomputes exactly it, and nothing else.
        summary = sweeps.precompute_attacks(ctx, kappas=SWEEP_KAPPAS,
                                            betas=SWEEP_BETAS, jobs=2,
                                            resume=True, policy=SWEEP_POLICY)
        assert summary["computed"] == 1
        assert summary["cached"] == 1
        assert summary["failed"] == 0
        assert _grid_hashes(ctx) == baseline_hashes

        manifest = sweeps.load_checkpoint(
            ctx, sweeps.sweep_checkpoint_key(ctx, cells))
        assert manifest["status"] == "complete"
        assert len(manifest["done"]) == 2

    def test_chaos_sweep_bitwise_identical_to_clean(self, sweep_ctx,
                                                    baseline_hashes):
        """ISSUE acceptance: transients + corruption, identical artifacts."""
        from repro.experiments import sweeps

        ctx = sweep_ctx
        assert ctx.cache.clear("attacks") > 0
        plan = FaultPlan(transients={0: 1}, corrupts={1: 1})
        summary = sweeps.precompute_attacks(ctx, kappas=SWEEP_KAPPAS,
                                            betas=SWEEP_BETAS, jobs=2,
                                            policy=SWEEP_POLICY,
                                            fault_plan=plan)
        assert summary["computed"] == 2
        assert summary["failed"] == 0
        assert summary["healed"] >= 1  # the corrupted cell was recrafted
        assert _grid_hashes(ctx) == baseline_hashes

    def test_failed_cell_recorded_then_recovered_by_resume(self, sweep_ctx,
                                                           baseline_hashes):
        """A terminally-failing cell must not abort the sweep, and a later
        resume (fault gone) must recompute only it."""
        from repro.experiments import sweeps

        ctx = sweep_ctx
        assert ctx.cache.clear("attacks") > 0
        plan = FaultPlan(transients={0: 10})  # outlives any retry budget
        summary = sweeps.precompute_attacks(ctx, kappas=SWEEP_KAPPAS,
                                            betas=SWEEP_BETAS, jobs=1,
                                            policy=SWEEP_POLICY,
                                            fault_plan=plan)
        assert summary["failed"] == 1
        cells = sweeps.attack_grid(ctx, kappas=SWEEP_KAPPAS, betas=SWEEP_BETAS)
        manifest = sweeps.load_checkpoint(
            ctx, sweeps.sweep_checkpoint_key(ctx, cells))
        assert manifest["status"] == "partial"
        assert len(manifest["failed"]) == 1
        (failure,) = manifest["failed"].values()
        assert failure["attempts"] == SWEEP_POLICY.retries + 1

        summary = sweeps.precompute_attacks(ctx, kappas=SWEEP_KAPPAS,
                                            betas=SWEEP_BETAS, jobs=1,
                                            resume=True, policy=SWEEP_POLICY)
        assert summary["computed"] == 1  # only the failed cell
        assert summary["failed"] == 0
        assert _grid_hashes(ctx) == baseline_hashes
        manifest = sweeps.load_checkpoint(
            ctx, sweeps.sweep_checkpoint_key(ctx, cells))
        assert manifest["status"] == "complete"


class TestPerItemRedispatchChaos:
    """At jobs>1 the executor dispatches each item on its own, and any
    worker may run it; chaos injected there must not change a bit
    relative to the clean serial baseline."""

    def test_pool_faulted_equals_serial_clean(self):
        items = list(range(10))
        clean = parallel_map(_seeded_draw, items, jobs=1, seed=77)
        plan = FaultPlan(transients={1: 1, 5: 2})
        chaotic = parallel_map(_seeded_draw, items, jobs=3, seed=77,
                               fault_plan=plan,
                               policy=RetryPolicy(retries=3, backoff_s=0.0))
        for a, b in zip(clean, chaotic):
            assert a.tobytes() == b.tobytes()

    def test_crashed_item_is_redispatched(self):
        """A worker crash at jobs>1 is re-dispatched and retried."""
        plan = FaultPlan(crashes={2: 1})
        out = parallel_map(_double, [1, 2, 3, 4, 5], jobs=2,
                           fault_plan=plan,
                           policy=RetryPolicy(retries=2, backoff_s=0.01))
        assert out == [2, 4, 6, 8, 10]


class TestRunExperimentSupervision:
    def test_fault_plan_fires_at_jobs_1(self, tmp_path):
        """``run --jobs 1 --inject-faults``: the plan must reach the sweep
        (a transient fires and is retried), and the published artifacts
        and report must match a clean jobs=1 run bit for bit."""
        import dataclasses

        from repro.experiments import SMOKE, registry, sweeps
        from repro.obs import counter
        from repro.utils.cache import stable_hash

        profile = dataclasses.replace(
            SMOKE, name="fault-probe", digits_sizes=(400, 100, 200),
            digits_attack=4, max_iterations=10, binary_search_steps=1,
            digits_kappas=(0.0,), betas=(1e-1,), ae_epochs=3,
            classifier_epochs=2)
        cache = DiskCache(tmp_path)

        def attack_hashes(ctx):
            return {key: stable_hash(ctx.cache.load("attacks", key))
                    for cell in sweeps.attack_grid(ctx)
                    for key in sweeps._cell_keys(ctx, cell).values()}

        registry.clear_contexts()
        try:
            retries = counter("runtime/retries")
            before = retries.value
            faulted = registry.run_experiment(
                "fig1", profile=profile, cache=cache, jobs=1,
                fault_plan=FaultPlan(transients={0: 1}),
                retry_policy=RetryPolicy(retries=2, backoff_s=0.0))
            assert retries.value - before >= 1
            ctx = registry.get_context("digits", profile, cache)
            chaotic = attack_hashes(ctx)

            assert ctx.cache.clear("attacks") > 0
            clean = registry.run_experiment("fig1", profile=profile,
                                            cache=cache, jobs=1)
            assert attack_hashes(ctx) == chaotic
            assert clean.data == faulted.data
        finally:
            registry.clear_contexts()
