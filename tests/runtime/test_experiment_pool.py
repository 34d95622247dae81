"""One worker pool per experiment: several contexts' cells in one map.

``run_experiment`` hands every context it needs to one
``precompute_attacks`` call.  The cells of all contexts then run through
one supervised map, and so through one process pool, while each result,
failure record, checkpoint manifest and self-heal still belongs to the
context that owns the cell.  The two contexts here are smoke-profile
digits contexts over one store copy that differ only in their (disjoint)
κ grids, so the session's trained models serve both without training.
"""

import concurrent.futures
import dataclasses

import pytest

from repro.experiments import SMOKE, ExperimentContext
from repro.experiments import sweeps
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.utils.cache import stable_hash

POLICY = RetryPolicy(retries=2, backoff_s=0.01)


@pytest.fixture(scope="module")
def pair(smoke_context, tmp_path_factory):
    """Two digits contexts (κ 0 and κ 20, β 0.1) sharing one store."""
    cache = smoke_context(tmp_path_factory.mktemp("pool_cache")).cache
    return tuple(
        ExperimentContext(
            "digits", seed=0, cache=cache,
            profile=dataclasses.replace(SMOKE, digits_kappas=(kappa,),
                                        betas=(1e-1,)))
        for kappa in (0.0, 20.0))


def _hashes(ctx):
    return {
        (sweeps._cell_id(cell), slot): stable_hash(
            ctx.cache.load("attacks", key))
        for cell in sweeps.attack_grid(ctx)
        for slot, key in sweeps._cell_keys(ctx, cell).items()
    }


def _manifest(ctx):
    """The context's manifest under the key a one-context sweep uses."""
    return sweeps.load_checkpoint(
        ctx, sweeps.sweep_checkpoint_key(ctx, sweeps.attack_grid(ctx)))


@pytest.fixture(scope="module")
def baseline(pair):
    """One serial sweep per context: the bitwise ground truth."""
    for ctx in pair:
        summary = sweeps.precompute_attacks(ctx, jobs=1)
        assert summary["computed"] == 2 and summary["failed"] == 0
    return [_hashes(ctx) for ctx in pair]


def _clear(pair):
    assert pair[0].cache.clear("attacks") > 0


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of every ProcessPoolExecutor built meanwhile."""
    built = []

    class Counting(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
    return built


class TestOnePool:
    def test_two_contexts_share_one_pool_bitwise(self, pair, baseline,
                                                 pools, tmp_path):
        from repro.obs import configure_observability, load_events

        _clear(pair)
        trace_path = tmp_path / "trace.jsonl"
        configure_observability(trace_path)
        try:
            summary = sweeps.precompute_attacks(*pair, jobs=2)
        finally:
            configure_observability(None)
        assert summary == {"computed": 4, "cached": 0, "jobs": 2,
                           "failed": 0, "healed": 0}
        assert pools == [2]
        spans = [e for e in load_events(trace_path)
                 if e["stage"] in ("runtime/map", "sweep/precompute")]
        assert [(e["stage"], e.get("cells"), e.get("datasets"))
                for e in spans] == [("runtime/map", None, None),
                                    ("sweep/precompute", 4, "digits,digits")]
        assert [_hashes(ctx) for ctx in pair] == baseline
        for ctx in pair:
            manifest = _manifest(ctx)
            assert manifest["status"] == "complete"
            assert manifest["failed"] == {}
            assert set(manifest["done"]) == {
                sweeps._cell_id(c) for c in sweeps.attack_grid(ctx)}

    def test_serial_call_builds_no_pool(self, pair, baseline, pools):
        _clear(pair)
        summary = sweeps.precompute_attacks(*pair, jobs=1)
        assert summary["computed"] == 4
        assert pools == []
        assert [_hashes(ctx) for ctx in pair] == baseline

    def test_cached_contexts_are_skipped(self, pair, baseline, pools):
        sweeps.precompute_attacks(*pair, jobs=1)
        summary = sweeps.precompute_attacks(*pair, jobs=2)
        assert (summary["computed"], summary["cached"]) == (0, 4)
        assert pools == []

    def test_needs_a_context(self):
        with pytest.raises(TypeError):
            sweeps.precompute_attacks(jobs=2)


class TestFaultsAcrossContexts:
    def test_crash_and_corruption_heal_to_clean_artifacts(self, pair,
                                                          baseline):
        """Item 2 (the second context's first cell) crashes its worker;
        item 3's artifact is corrupted after publishing and must be healed
        in the second context's store and manifest."""
        _clear(pair)
        plan = FaultPlan(crashes={2: 1}, corrupts={3: 1})
        summary = sweeps.precompute_attacks(*pair, jobs=2, policy=POLICY,
                                            fault_plan=plan)
        assert summary["computed"] == 4
        assert summary["failed"] == 0
        assert summary["healed"] == 1
        assert [_hashes(ctx) for ctx in pair] == baseline
        healed = [cid for ctx in pair
                  for cid, entry in _manifest(ctx)["done"].items()
                  if entry.get("healed")]
        assert healed == [sweeps._cell_id(sweeps.attack_grid(pair[1])[1])]
        assert [_manifest(ctx)["status"] for ctx in pair] == ["complete"] * 2

    def test_resume_recomputes_only_each_contexts_missing_cells(
            self, pair, baseline):
        _clear(pair)
        # Items 0 and 3: the first context's C&W cell and the second
        # context's EAD cell; both outlive the retry budget.
        plan = FaultPlan(transients={0: 10, 3: 10})
        summary = sweeps.precompute_attacks(*pair, jobs=2, policy=POLICY,
                                            fault_plan=plan)
        assert (summary["computed"], summary["failed"]) == (4, 2)
        grids = [sweeps.attack_grid(ctx) for ctx in pair]
        lost = [grids[0][0], grids[1][1]]
        for ctx, grid, cell in zip(pair, grids, lost):
            assert sweeps.missing_cells(ctx, grid, verify=True) == [cell]
            manifest = _manifest(ctx)
            assert manifest["status"] == "partial"
            assert list(manifest["failed"]) == [sweeps._cell_id(cell)]

        summary = sweeps.precompute_attacks(*pair, jobs=2, resume=True,
                                            policy=POLICY)
        assert summary == {"computed": 2, "cached": 2, "jobs": 2,
                           "failed": 0, "healed": 0}
        assert [_hashes(ctx) for ctx in pair] == baseline
        for ctx in pair:
            manifest = _manifest(ctx)
            assert manifest["status"] == "complete"
            assert manifest["failed"] == {}
            assert len(manifest["done"]) == 2


class TestRunExperiment:
    def test_one_call_with_every_context(self, monkeypatch, tmp_path):
        from repro.experiments import registry
        from repro.utils.cache import DiskCache

        calls = []
        monkeypatch.setattr(
            sweeps, "precompute_attacks",
            lambda *contexts, **kw: calls.append((contexts, kw)))
        monkeypatch.setitem(registry._SPEC, "table1",
                            (lambda *contexts: contexts,
                             ("digits", "objects"), "stub"))
        registry.clear_contexts()
        try:
            contexts = registry.run_experiment(
                "table1", SMOKE, cache=DiskCache(tmp_path), jobs=2)
        finally:
            registry.clear_contexts()
        assert [ctx.dataset for ctx in contexts] == ["digits", "objects"]
        assert calls == [(contexts, {"jobs": 2, "resume": False})]
