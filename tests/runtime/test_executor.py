"""Unit tests for the process-pool executor."""

import time

import numpy as np
import pytest

from repro.runtime.executor import ParallelExecutor, parallel_map, resolve_jobs
from repro.runtime.faults import ItemFailure


def _square(x):
    return x * x


def _noisy(x, seed=None):
    rng = np.random.default_rng(seed)
    return x + float(rng.random())


def _fail_on_three(x):
    if x == 3:
        raise RuntimeError("boom")
    return x


def _fail_from_two(x):
    if x >= 2:
        raise ValueError(f"boom {x}")
    return x


class TestResolveJobs:
    def test_none_and_zero_mean_all_cores(self):
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) == resolve_jobs(None)

    def test_explicit_passthrough(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestSerialPath:
    def test_jobs_one_maps_in_order(self):
        assert parallel_map(_square, range(10), jobs=1) == [
            x * x for x in range(10)]

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [5], jobs=8) == [25]

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            parallel_map(_fail_on_three, [1, 2, 3], jobs=1)


class TestParallelPath:
    def test_matches_serial(self):
        serial = parallel_map(_square, range(25), jobs=1)
        parallel = parallel_map(_square, range(25), jobs=3)
        assert parallel == serial

    def test_order_preserved_with_per_item_dispatch(self):
        items = list(range(17))
        out = parallel_map(_square, items, jobs=2)
        assert out == [x * x for x in items]

    def test_ndarray_payloads_round_trip(self):
        items = [np.full((2, 2), i, dtype=np.float64) for i in range(6)]
        out = parallel_map(np.sum, items, jobs=2)
        assert out == [float(a.sum()) for a in items]

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2)

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_lowest_index_failure_raised(self, jobs):
        with pytest.raises(ValueError, match="boom 2"):
            parallel_map(_fail_from_two, [0, 1, 2, 3, 4, 5], jobs=jobs)


class TestSeeding:
    def test_seeds_depend_on_item_index_not_worker(self):
        """The whole determinism contract: jobs must not change results."""
        serial = parallel_map(_noisy, [0.0] * 12, jobs=1, seed=123)
        parallel = parallel_map(_noisy, [0.0] * 12, jobs=3, seed=123)
        assert serial == parallel

    def test_different_items_get_independent_seeds(self):
        out = parallel_map(_noisy, [0.0] * 8, jobs=1, seed=123)
        assert len(set(out)) == 8

    def test_different_root_seeds_differ(self):
        a = parallel_map(_noisy, [0.0] * 4, jobs=1, seed=1)
        b = parallel_map(_noisy, [0.0] * 4, jobs=1, seed=2)
        assert a != b


class TestSerialFallback:
    def test_lambda_falls_back_to_serial(self):
        # Lambdas don't pickle; the pool must degrade, not fail.
        out = parallel_map(lambda x: x + 1, range(6), jobs=2)
        assert out == list(range(1, 7))

    def test_local_closure_falls_back(self):
        offset = 10

        def bump(x):
            return x + offset

        assert parallel_map(bump, range(4), jobs=2) == [10, 11, 12, 13]

    def test_executor_object_reusable(self):
        ex = ParallelExecutor(2, seed=5)
        first = ex.map(_noisy, [0.0] * 3)
        second = ex.map(_noisy, [0.0] * 3)
        assert first == second


def _slow_square(x):
    # Heterogeneous cost: item 0 is a straggler that the other workers
    # must not wait behind.
    if x == 0:
        time.sleep(0.05)
    return x * x


class TestPerItemDispatch:
    """jobs>1 dispatch, one item per pool future: whichever worker frees
    up first takes the next item, so a straggler holds up only its own
    worker — without changing a result."""

    def test_results_identical_to_serial_and_static(self):
        """Per-item-index seeding makes worker assignment invisible."""
        items = [0.0] * 17
        serial = parallel_map(_noisy, items, jobs=1, seed=42)
        two = parallel_map(_noisy, items, jobs=2, seed=42)
        four = parallel_map(_noisy, items, jobs=4, seed=42)
        assert four == two == serial

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2)

    def test_on_error_record_collects_failures(self):
        out = parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2,
                           on_error="record")
        assert out[0] == 1 and out[1] == 2 and out[3] == 4
        assert isinstance(out[2], ItemFailure)
        assert out[2].kind == "error"

    def test_straggler_profile_matches_serial(self):
        items = list(range(12))
        expected = [x * x for x in items]
        assert parallel_map(_slow_square, items, jobs=3) == expected
