"""Unit tests for log reading, skip counting, and trace reassembly."""

import json

import pytest

from repro.obs import (
    EventLog,
    aggregate_events,
    build_span_tree,
    configure_observability,
    load_events,
    render_timings,
    render_trace,
    span,
    tree_signature,
)
from repro.obs.report import SKIPPED_STAGE


class TestLoadEventsResilience:
    def test_truncated_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"stage": "a", "duration_s": 1}\n'
                        '{"stage": "b", "durati')      # torn mid-write
        events = load_events(path)
        assert [e["stage"] for e in events] == ["a"]
        assert events.skipped == 1

    def test_line_torn_inside_utf8_sequence(self, tmp_path):
        path = tmp_path / "t.jsonl"
        good = json.dumps({"stage": "a"}).encode()
        torn = b'{"stage": "na\xc3'        # cut after the first byte of 'ï'
        path.write_bytes(good + b"\n" + torn)
        events = load_events(path)
        assert [e["stage"] for e in events] == ["a"]
        assert events.skipped == 1

    def test_clean_log_has_zero_skips(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"stage": "a"}\n{"stage": "b"}\n')
        assert load_events(path).skipped == 0

    def test_missing_file_is_empty_log(self, tmp_path):
        events = load_events(tmp_path / "absent.jsonl")
        assert events == []
        assert events.skipped == 0

    def test_load_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"stage": "a", "duration_s": 1}\n'
                        "not json at all\n"
                        '{"no_stage_field": true}\n'
                        '{"stage": "b", "duration_s": 2}\n')
        events = load_events(path)
        assert [e["stage"] for e in events] == ["a", "b"]


class TestAggregateAndRender:
    def test_aggregate(self):
        events = [
            {"stage": "attack/ead", "duration_s": 2.0, "cache": "miss",
             "worker": 1},
            {"stage": "attack/ead", "duration_s": 4.0, "cache": "hit",
             "worker": 2},
            {"stage": "train/classifier", "duration_s": 10.0, "worker": 1},
        ]
        stats = aggregate_events(events)
        ead = stats["attack/ead"]
        assert ead.count == 2
        assert ead.total_s == pytest.approx(6.0)
        assert ead.mean_s == pytest.approx(3.0)
        assert ead.max_s == pytest.approx(4.0)
        assert ead.cache_hits == 1
        assert ead.cache_misses == 1
        assert ead.workers == 2
        assert stats["train/classifier"].count == 1

    def test_render_sorted_by_total(self):
        events = [
            {"stage": "small", "duration_s": 1.0},
            {"stage": "big", "duration_s": 9.0},
        ]
        table = render_timings(events)
        assert table.index("big") < table.index("small")
        assert "total stage time" in table

    def test_render_empty(self):
        assert "no telemetry" in render_timings([])


class TestSkipCountReporting:
    def _log_with_skips(self, n):
        events = EventLog([{"stage": "a", "duration_s": 1.0}])
        events.skipped = n
        return events

    def test_aggregate_adds_synthetic_stage(self):
        stats = aggregate_events(self._log_with_skips(3))
        assert stats[SKIPPED_STAGE].count == 3
        assert stats[SKIPPED_STAGE].total_s == 0.0

    def test_aggregate_without_skips_has_no_synthetic_stage(self):
        stats = aggregate_events(EventLog([{"stage": "a"}]))
        assert SKIPPED_STAGE not in stats

    def test_render_timings_calls_out_skips(self):
        text = render_timings(self._log_with_skips(2))
        assert "2 corrupt line(s) skipped" in text


class TestBuildSpanTree:
    def _span(self, name, span_id, parent=None, trace="t1", **extra):
        rec = {"stage": name, "kind": "span", "span": span_id,
               "trace": trace, "ts": extra.pop("ts", 0.0),
               "duration_s": extra.pop("duration_s", 1.0)}
        if parent:
            rec["parent"] = parent
        rec.update(extra)
        return rec

    def test_children_attach_to_parents(self):
        events = [self._span("child", "c1", parent="p1", ts=1.0),
                  self._span("root", "p1", ts=0.0, duration_s=5.0)]
        (root,) = build_span_tree(events)
        assert root.name == "root"
        assert [c.name for c in root.children] == ["child"]
        assert root.self_s == 4.0

    def test_orphan_promoted_to_root(self):
        events = [self._span("orphan", "o1", parent="never-closed")]
        (root,) = build_span_tree(events)
        assert root.name == "orphan"

    def test_point_event_becomes_leaf(self):
        events = [self._span("root", "p1"),
                  {"stage": "runtime/retry", "trace": "t1", "parent": "p1",
                   "ts": 0.5}]
        (root,) = build_span_tree(events)
        assert [c.name for c in root.children] == ["runtime/retry"]

    def test_flat_legacy_events_excluded(self):
        events = [{"stage": "legacy", "duration_s": 1.0}]
        assert build_span_tree(events) == []

    def test_signature_ignores_sibling_order_and_ids(self):
        a = [self._span("root", "r1"),
             self._span("x", "x1", parent="r1", ts=1.0),
             self._span("y", "y1", parent="r1", ts=2.0)]
        b = [self._span("root", "r9", trace="t9"),
             self._span("y", "y9", parent="r9", trace="t9", ts=1.0),
             self._span("x", "x9", parent="r9", trace="t9", ts=2.0)]
        assert (tree_signature(build_span_tree(a))
                == tree_signature(build_span_tree(b)))

    def test_signature_distinguishes_structure(self):
        flat = [self._span("root", "r1"), self._span("x", "x1", parent="r1")]
        nested = [self._span("root", "r1"),
                  self._span("x", "x1", parent="r1"),
                  self._span("x", "x2", parent="x1")]
        assert (tree_signature(build_span_tree(flat))
                != tree_signature(build_span_tree(nested)))


class TestRenderTrace:
    def test_renders_real_span_log(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("sweep/precompute", cells=2):
            for step in range(2):
                with span("sweep/cell", step=step):
                    pass
        configure_observability(None)
        text = render_trace(load_events(path))
        assert "sweep/precompute" in text
        assert "sweep/cell ×2" in text
        assert "total=" in text
        assert "self=" in text

    def test_no_collapse_renders_each_span(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("root"):
            with span("leaf"):
                pass
            with span("leaf"):
                pass
        configure_observability(None)
        text = render_trace(load_events(path), collapse=False)
        assert text.count("leaf") == 2

    def test_max_depth_truncates(self, tmp_path):
        path = tmp_path / "t.jsonl"
        configure_observability(path)
        with span("root"):
            with span("leaf"):
                pass
        configure_observability(None)
        text = render_trace(load_events(path), max_depth=1)
        assert "root" in text
        assert "leaf" not in text

    def test_empty_log_message(self):
        assert "no trace spans" in render_trace([])
