"""Unit tests for hierarchical spans and cross-boundary trace context."""

import json
import os
import time

import pytest

from repro.obs import (
    TELEMETRY_ENV,
    TraceContext,
    active_sink,
    attach_trace_context,
    configure_observability,
    current_span,
    current_trace_context,
    event,
    record_span,
    span,
    start_span,
)


def _read(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSpanEmission:
    def test_span_emits_record_with_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("outer", dataset="digits"):
            pass
        (rec,) = _read(path)
        assert rec["stage"] == "outer"
        assert rec["kind"] == "span"
        assert rec["dataset"] == "digits"
        assert len(rec["trace"]) == 16
        assert len(rec["span"]) == 16
        assert "parent" not in rec          # a root span has no parent
        assert rec["duration_s"] >= 0.0

    def test_nested_spans_share_trace_and_link_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = _read(path)          # inner closes (and emits) first
        assert inner["stage"] == "inner"
        assert outer["stage"] == "outer"
        assert inner["trace"] == outer["trace"]
        assert inner["parent"] == outer["span"]

    def test_span_attrs_settable_mid_block(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("s", batch=4) as sp:
            sp["cache"] = "hit"
            sp.update(items=3)
        (rec,) = _read(path)
        assert rec["batch"] == 4
        assert rec["cache"] == "hit"
        assert rec["items"] == 3

    def test_span_emits_on_exception(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        try:
            with span("failing"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        (rec,) = _read(path)
        assert rec["stage"] == "failing"

    def test_none_valued_attrs_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("s", cache=None, batch=2):
            pass
        (rec,) = _read(path)
        assert "cache" not in rec
        assert rec["batch"] == 2

    def test_duration_measures_block(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("sleepy"):
            time.sleep(0.01)
        (rec,) = _read(path)
        assert rec["duration_s"] >= 0.01

    def test_top_level_span_durations_cover_wall_clock(self, tmp_path):
        """Top-level span durations must account for ~all elapsed time."""
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        t0 = time.perf_counter()
        for _ in range(3):
            with span("work"):
                time.sleep(0.02)
        wall = time.perf_counter() - t0
        total = sum(rec["duration_s"] for rec in _read(path))
        assert total == pytest.approx(wall, rel=0.5)


class TestDisabledPath:
    def test_disabled_span_has_no_ids_and_writes_nothing(self, tmp_path):
        with span("s") as sp:
            sp["cache"] = "hit"             # still writable
        assert not sp.recording
        assert sp.context is None
        assert current_span() is None

    def test_disabled_span_does_not_become_current(self):
        with span("outer"):
            assert current_span() is None
            assert current_trace_context() is None

    def test_disabled_event_and_record_span_are_noops(self):
        event("e", duration_s=1.0)
        record_span("s", 0.5)


class TestGlobalSink:
    def test_disabled_by_default(self):
        assert not active_sink().enabled

    def test_configure_enables_and_exports_env(self, tmp_path):
        path = tmp_path / "run.jsonl"
        sink = configure_observability(path)
        assert sink.enabled
        assert active_sink() is sink
        assert os.environ[TELEMETRY_ENV] == str(path)

    def test_env_change_is_picked_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path / "a.jsonl"))
        assert active_sink().path.name == "a.jsonl"
        monkeypatch.setenv(TELEMETRY_ENV, str(tmp_path / "b.jsonl"))
        assert active_sink().path.name == "b.jsonl"

    def test_configure_none_disables(self, tmp_path):
        configure_observability(tmp_path / "t.jsonl")
        configure_observability(None)
        assert not active_sink().enabled
        assert TELEMETRY_ENV not in os.environ


class TestManualLifecycle:
    def test_start_span_not_current_until_finished_manually(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        sp = start_span("serve/request", request="r1")
        assert current_span() is None       # manual spans are not current
        assert not path.exists()            # nothing emitted until finish
        sp.finish(detected=False)
        (rec,) = _read(path)
        assert rec["stage"] == "serve/request"
        assert rec["request"] == "r1"
        assert rec["detected"] is False

    def test_finish_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        sp = start_span("s")
        sp.finish()
        sp.finish()
        assert len(_read(path)) == 1


class TestEvents:
    def test_event_under_span_carries_trace_and_parent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("outer"):
            event("runtime/retry", item=3)
        evt, outer = _read(path)
        assert evt["stage"] == "runtime/retry"
        assert evt["trace"] == outer["trace"]
        assert evt["parent"] == outer["span"]
        assert "span" not in evt            # point event, not a span

    def test_bare_events_append_fields_and_worker(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        event("train/classifier", duration_s=1.5, cache="miss", batch=64)
        event("attack/ead", duration_s=0.25, kappa=10.0)
        first, second = _read(path)
        assert first["stage"] == "train/classifier"
        assert first["duration_s"] == 1.5
        assert first["cache"] == "miss"
        assert first["batch"] == 64
        assert isinstance(first["worker"], int)
        assert second["stage"] == "attack/ead"

    def test_bare_event_is_flat(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        event("standalone", duration_s=0.5, batch=2)
        (rec,) = _read(path)
        assert rec["stage"] == "standalone"
        assert "trace" not in rec

    def test_record_span_backdates_duration(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("serve/batch"):
            record_span("serve/detect", 0.125, batch=4)
        detect, batch = _read(path)
        assert detect["stage"] == "serve/detect"
        assert abs(detect["duration_s"] - 0.125) < 0.01
        assert detect["parent"] == batch["span"]
        assert detect["kind"] == "span"


class TestAttachTraceContext:
    def test_spans_nest_under_attached_context(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        ctx = TraceContext(trace_id="a" * 16, span_id="b" * 16)
        with attach_trace_context(ctx):
            with span("worker/item"):
                pass
        (rec,) = _read(path)
        assert rec["trace"] == "a" * 16
        assert rec["parent"] == "b" * 16

    def test_none_context_is_noop(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with attach_trace_context(None):
            with span("item"):
                pass
        (rec,) = _read(path)
        assert "parent" not in rec

    def test_context_restored_after_block(self, tmp_path):
        configure_observability(tmp_path / "t.jsonl")
        ctx = TraceContext(trace_id="a" * 16, span_id="b" * 16)
        with attach_trace_context(ctx):
            assert current_trace_context() == ctx
        assert current_trace_context() is None

    def test_current_trace_context_roundtrips_through_span(self, tmp_path):
        configure_observability(tmp_path / "t.jsonl")
        with span("outer") as sp:
            ctx = current_trace_context()
            assert ctx == TraceContext(sp.trace_id, sp.span_id)
