"""Parallel-vs-serial equivalence for a real attack sweep (smoke profile).

The acceptance bar for the runtime: a sweep fanned out across worker
processes must produce *bitwise-identical* artifacts to the serial path,
because workers get the same classifier, the same seeds, and attacks are
deterministic.  Hashes are compared via :func:`stable_hash` over the
cached result arrays.  Tracing is held to the same bar: a sweep run with
the observability sink on publishes the same artifacts as one with it
off.
"""

import pytest

from repro.experiments import SMOKE, ExperimentContext
from repro.experiments import sweeps
from repro.utils.cache import stable_hash

KAPPAS = [0.0]
BETAS = [1e-1]


@pytest.fixture(scope="module")
def smoke_ctx(tmp_path_factory):
    # Hermetic cache for this module; model training happens once here.
    from repro.utils.cache import DiskCache

    cache = DiskCache(tmp_path_factory.mktemp("sweep_cache"))
    return ExperimentContext("digits", profile=SMOKE, cache=cache, seed=0)


def _grid_hashes(ctx):
    """stable_hash of every cached result array dict in the tiny grid."""
    cells = sweeps.attack_grid(ctx, kappas=KAPPAS, betas=BETAS)
    hashes = {}
    for cell in cells:
        for slot, key in sweeps._cell_keys(ctx, cell).items():
            hashes[(tuple(sorted(cell.items())), slot)] = stable_hash(
                ctx.cache.load("attacks", key))
    return hashes


def _clear_attacks(ctx):
    removed = ctx.cache.clear("attacks")
    assert removed > 0


class TestParallelSerialEquivalence:
    def test_same_stable_hash_at_jobs_1_and_jobs_4(self, smoke_ctx):
        ctx = smoke_ctx
        summary = sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS,
                                            jobs=1)
        assert summary["computed"] == 2  # one C&W cell + one EAD cell
        serial_hashes = _grid_hashes(ctx)
        assert serial_hashes

        _clear_attacks(ctx)
        summary = sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS,
                                            jobs=4)
        assert summary["computed"] == 2
        assert summary["jobs"] == 4
        parallel_hashes = _grid_hashes(ctx)

        assert parallel_hashes == serial_hashes

    def test_precompute_makes_accessors_cache_hits(self, smoke_ctx):
        ctx = smoke_ctx
        sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS, jobs=2)
        before = ctx.cache.stats.misses
        result = ctx.cw(KAPPAS[0])
        both = ctx.ead(BETAS[0], KAPPAS[0])
        assert ctx.cache.stats.misses == before  # pure hits
        assert len(result) == SMOKE.digits_attack
        assert set(both) == {"en", "l1"}

    def test_missing_cells_shrinks_to_empty(self, smoke_ctx):
        ctx = smoke_ctx
        cells = sweeps.attack_grid(ctx, kappas=KAPPAS, betas=BETAS)
        assert sweeps.missing_cells(ctx, cells) == []
        summary = sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS,
                                            jobs=2)
        assert summary["computed"] == 0
        assert summary["cached"] == 2


class TestTracingInvariance:
    def test_traced_sweep_is_bitwise_identical_to_untraced(self, smoke_ctx,
                                                           tmp_path):
        from repro.obs import configure_observability, load_events

        ctx = smoke_ctx
        sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS, jobs=1)
        untraced = _grid_hashes(ctx)

        _clear_attacks(ctx)
        trace_path = tmp_path / "trace.jsonl"
        configure_observability(trace_path)
        try:
            summary = sweeps.precompute_attacks(ctx, kappas=KAPPAS,
                                                betas=BETAS, jobs=1)
        finally:
            configure_observability(None)
        assert summary["computed"] == 2
        # The sink really was on: the crafted cells left attack spans.
        stages = {event["stage"] for event in load_events(trace_path)}
        assert {"attack/cw_l2", "attack/ead"} <= stages
        assert _grid_hashes(ctx) == untraced


class TestAttackGrid:
    def test_grid_shape_defaults_to_profile(self, smoke_ctx):
        cells = sweeps.attack_grid(smoke_ctx)
        n_kappas = len(SMOKE.digits_kappas)
        n_betas = len(SMOKE.betas)
        assert len(cells) == n_kappas + n_betas * n_kappas

    def test_grid_without_cw(self, smoke_ctx):
        cells = sweeps.attack_grid(smoke_ctx, kappas=[0.0, 1.0], betas=[0.1],
                                   include_cw=False)
        assert all(c["attack"] == "ead" for c in cells)
        assert len(cells) == 2


class TestKernelCrossesProcesses:
    def test_fft_sweep_jobs_1_equals_jobs_2(
            self, tiny_fft_profile, tmp_path):
        """Workers craft on the fft kernel the pickled classifier carries."""
        from repro.utils.cache import DiskCache

        ctx = ExperimentContext("digits", profile=tiny_fft_profile,
                                cache=DiskCache(tmp_path), seed=0)
        sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS, jobs=1)
        serial_hashes = _grid_hashes(ctx)

        _clear_attacks(ctx)
        summary = sweeps.precompute_attacks(ctx, kappas=KAPPAS, betas=BETAS,
                                            jobs=2)
        assert summary["computed"] == 2
        assert summary["jobs"] == 2
        assert _grid_hashes(ctx) == serial_hashes
