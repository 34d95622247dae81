"""Tests for the CLI entry point, logging setup, and context serialization."""

import warnings

import numpy as np
import pytest

from repro.experiments.__main__ import main as cli_main
from repro.experiments.context import _result_from_arrays, _result_to_arrays
from repro.utils.logging import get_logger


class TestCli:
    def test_list_prints_all_experiments(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("table1", "table7", "fig1", "fig13"):
            assert exp_id in out

    def test_help(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_no_args_shows_help(self, capsys):
        assert cli_main([]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            cli_main(["run", "table99"])


class TestLogging:
    def test_logger_namespaced(self):
        log = get_logger("my.component")
        assert log.name == "repro.my.component"

    def test_repro_prefix_not_duplicated(self):
        log = get_logger("repro.attacks")
        assert log.name == "repro.attacks"

    def test_same_logger_returned(self):
        assert get_logger("x") is get_logger("x")


class TestAttackResultSerialization:
    def test_round_trip_preserves_everything(self, rng):
        from repro.attacks.base import AttackResult

        n = 5
        result = AttackResult(
            x_adv=rng.random((n, 1, 4, 4)).astype(np.float32),
            success=np.array([True, False, True, True, False]),
            y_true=np.arange(n, dtype=np.int64),
            y_adv=np.arange(n, dtype=np.int64)[::-1].copy(),
            l0=rng.random(n), l1=rng.random(n), l2=rng.random(n),
            linf=rng.random(n),
            const=rng.random(n),
            name="orig",
        )
        arrays = _result_to_arrays(result)
        restored = _result_from_arrays(arrays, "restored")
        np.testing.assert_allclose(restored.x_adv, result.x_adv)
        np.testing.assert_array_equal(restored.success, result.success)
        np.testing.assert_array_equal(restored.y_true, result.y_true)
        np.testing.assert_array_equal(restored.y_adv, result.y_adv)
        np.testing.assert_allclose(restored.l1, result.l1)
        np.testing.assert_allclose(restored.const, result.const)
        assert restored.name == "restored"

    def test_none_const_becomes_nan(self, rng):
        from repro.attacks.base import AttackResult

        result = AttackResult(
            x_adv=rng.random((2, 1, 2, 2)).astype(np.float32),
            success=np.ones(2, bool),
            y_true=np.zeros(2, np.int64), y_adv=np.ones(2, np.int64),
            l0=np.zeros(2), l1=np.zeros(2), l2=np.zeros(2), linf=np.zeros(2),
            const=None,
        )
        arrays = _result_to_arrays(result)
        assert np.isnan(arrays["const"]).all()


class TestArgparseCli:
    """The redesigned argparse surface: run / list / timings."""

    def _parser(self):
        from repro.experiments.__main__ import build_parser

        return build_parser()

    def test_run_flags_parse(self):
        args = self._parser().parse_args(
            ["run", "table1", "fig2", "--profile", "smoke", "--jobs", "4",
             "--cache-dir", "/tmp/c", "--seed", "3", "--telemetry", "t.jsonl"])
        assert args.command == "run"
        assert args.experiments == ["table1", "fig2"]
        assert args.profile == "smoke"
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.seed == 3
        assert args.telemetry == "t.jsonl"

    def test_run_defaults(self):
        args = self._parser().parse_args(["run", "all"])
        assert args.jobs == 1
        assert args.seed == 0
        assert args.profile is None
        assert args.cache_dir is None

    def test_bad_profile_rejected(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["run", "table1", "--profile", "warp"])

    def test_negative_jobs_rejected_at_parse_time(self, capsys):
        """--jobs -1 is an argparse error (exit 2), not a crash later."""
        with pytest.raises(SystemExit) as err:
            self._parser().parse_args(["run", "table1", "--jobs", "-1"])
        assert err.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_jobs_zero_means_all_cores(self):
        import os

        from repro.runtime.executor import resolve_jobs

        args = self._parser().parse_args(["run", "table1", "--jobs", "0"])
        assert args.jobs == 0
        assert resolve_jobs(args.jobs) == (os.cpu_count() or 1)

    def test_huge_jobs_clamped_not_fatal(self):
        from repro.runtime.executor import MAX_JOBS, resolve_jobs

        args = self._parser().parse_args(["run", "table1", "--jobs", "1000000"])
        assert args.jobs == 1000000  # parsing accepts it...
        assert resolve_jobs(args.jobs) == MAX_JOBS  # ...execution clamps it

    def test_negative_jobs_rejected_by_executor_too(self):
        """Library callers bypassing argparse hit the same validation."""
        from repro.runtime.executor import resolve_jobs

        with pytest.raises(ValueError, match="must be >= 0"):
            resolve_jobs(-1)
        with pytest.raises(ValueError, match="must be >= 0"):
            resolve_jobs(-4)

    def test_fault_flags_parse(self):
        args = self._parser().parse_args(
            ["run", "table1", "--resume", "--timeout", "30",
             "--retries", "5", "--inject-faults", "seed=7,crash=0.1"])
        assert args.resume is True
        assert args.timeout == 30.0
        assert args.retries == 5
        assert args.inject_faults.seed == 7
        assert args.inject_faults.rates[0] == 0.1

    def test_bad_fault_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            self._parser().parse_args(
                ["run", "table1", "--inject-faults", "explode=1"])
        assert err.value.code == 2
        assert "explode" in capsys.readouterr().err

    def test_run_requires_experiment(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["run"])

    def test_bare_id_is_rejected(self, capsys):
        """An experiment id is an argument of ``run``, not a command."""
        with pytest.raises(SystemExit) as err:
            cli_main(["table1", "--profile", "smoke"])
        assert err.value.code == 2
        assert "invalid choice: 'table1'" in capsys.readouterr().err

    def test_list_subcommand(self, capsys):
        assert cli_main(["list"]) == 0
        assert "table1" in capsys.readouterr().out


class TestCliResolution:
    def test_profile_flag_wins(self, monkeypatch):
        from repro.experiments.__main__ import _resolve_profile

        monkeypatch.setenv("REPRO_PROFILE", "paper")
        assert _resolve_profile("smoke").name == "smoke"

    def test_profile_env_resolves_without_warning(self, monkeypatch):
        """An omitted --profile is the library default: current_profile()."""
        from repro.experiments.__main__ import _resolve_profile

        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _resolve_profile(None).name == "smoke"

    def test_profile_default_quick(self, monkeypatch):
        from repro.experiments.__main__ import _resolve_profile

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert _resolve_profile(None).name == "quick"

    def test_profile_unknown_raises(self, monkeypatch):
        from repro.experiments.__main__ import _resolve_profile

        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        with pytest.raises(KeyError):
            _resolve_profile("warp")

    def test_cache_dir_env_resolves_without_warning(self, tmp_path,
                                                     monkeypatch, capsys):
        """An omitted --cache-dir is DiskCache's default root; the flag
        wins over it."""
        env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"
        for root in (env_dir, flag_dir):
            root.mkdir()
            (root / "telemetry.jsonl").write_text(
                '{"stage": "s", "duration_s": 1.0}\n')
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(env_dir))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["timings"]) == 0
            assert str(env_dir / "telemetry.jsonl") in capsys.readouterr().out
            assert cli_main(["timings", "--cache-dir", str(flag_dir)]) == 0
            assert str(flag_dir / "telemetry.jsonl") in capsys.readouterr().out

    def test_telemetry_path_resolution(self, monkeypatch):
        from repro.experiments.__main__ import _telemetry_path

        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        assert _telemetry_path(None, "/c").endswith("telemetry.jsonl")
        assert _telemetry_path("x.jsonl", "/c") == "x.jsonl"
        assert _telemetry_path("off", "/c") is None
        monkeypatch.setenv("REPRO_TELEMETRY", "/env/t.jsonl")
        assert _telemetry_path(None, "/c") == "/env/t.jsonl"


class TestTimingsCommand:
    def test_timings_reads_log(self, tmp_path, capsys):
        import json

        log_path = tmp_path / "t.jsonl"
        events = [
            {"stage": "attack/ead", "duration_s": 2.5, "cache": "miss",
             "worker": 11},
            {"stage": "train/classifier", "duration_s": 7.0, "worker": 11},
        ]
        log_path.write_text("\n".join(json.dumps(e) for e in events) + "\n")
        assert cli_main(["timings", "--telemetry", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "attack/ead" in out
        assert "train/classifier" in out
        assert "2 events" in out

    def test_timings_missing_log_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        assert cli_main(["timings", "--telemetry", str(missing)]) == 1
        assert "no telemetry events" in capsys.readouterr().out


class TestTraceCommand:
    def _write_span_log(self, path):
        from repro.obs import configure_observability, span

        configure_observability(path)
        try:
            with span("sweep/precompute", cells=2):
                for step in range(2):
                    with span("sweep/cell", step=step):
                        pass
        finally:
            configure_observability(None)

    def test_trace_renders_span_tree(self, tmp_path, capsys):
        log_path = tmp_path / "t.jsonl"
        self._write_span_log(log_path)
        assert cli_main(["trace", "--telemetry", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "sweep/precompute" in out
        assert "sweep/cell ×2" in out           # collapsed by default

    def test_trace_no_collapse(self, tmp_path, capsys):
        log_path = tmp_path / "t.jsonl"
        self._write_span_log(log_path)
        assert cli_main(["trace", "--telemetry", str(log_path),
                         "--no-collapse"]) == 0
        out = capsys.readouterr().out
        assert out.count("sweep/cell") == 2

    def test_trace_missing_log_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "none.jsonl"
        assert cli_main(["trace", "--telemetry", str(missing)]) == 1
        assert "no telemetry events" in capsys.readouterr().out


class TestServeCLI:
    """The serve subcommand: parsing and config validation."""

    def _parser(self):
        from repro.experiments.__main__ import build_parser

        return build_parser()

    def test_serve_flags_parse(self):
        args = self._parser().parse_args(
            ["serve", "--dataset", "objects", "--variant", "wide",
             "--host", "0.0.0.0", "--port", "9000", "--max-batch", "16",
             "--max-wait-ms", "2.5", "--max-queue", "64", "--workers", "2",
             "--max-requests", "10", "--profile", "smoke"])
        assert args.command == "serve"
        assert args.dataset == "objects"
        assert args.variant == "wide"
        assert args.host == "0.0.0.0"
        assert args.port == 9000
        assert args.max_batch == 16
        assert args.max_wait_ms == 2.5
        assert args.max_queue == 64
        assert args.workers == 2
        assert args.max_requests == 10

    def test_serve_defaults(self):
        args = self._parser().parse_args(["serve"])
        assert args.dataset == "digits"
        assert args.variant == "default"
        assert args.port == 8080
        assert args.max_batch == 32
        assert args.max_wait_ms == 5.0
        assert args.max_queue == 256
        assert args.workers == 0
        assert args.max_requests is None

    def test_serve_bad_dataset_rejected(self):
        with pytest.raises(SystemExit):
            self._parser().parse_args(["serve", "--dataset", "sounds"])

    def test_serving_config_validation(self):
        from repro.serving import ClusterConfig, ServingConfig

        with pytest.raises(ValueError):
            ServingConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServingConfig(max_wait_ms=-1)
        with pytest.raises(ValueError):
            ServingConfig(request_timeout_s=0)
        with pytest.raises(ValueError):
            ClusterConfig(workers=-1)
        assert ServingConfig(max_wait_ms=0).max_wait_s == 0.0


class TestScenariosCLI:
    """The scenarios subcommand: enumeration and run-flag parsing."""

    def _parser(self):
        from repro.experiments.__main__ import build_parser

        return build_parser()

    def test_scenarios_list_enumerates_registry(self, capsys):
        assert cli_main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "digits/default/oblivious/ead_l1" in out
        assert "digits/jsd/detector_aware/cw" in out
        assert "gaussian_noise" in out  # corruption rows present
        assert "108 of 108 scenarios selected" in out
        assert "digits/wide_jsd/bpda/ead_en" in out  # PR 9 grid expansion

    def test_scenarios_list_axis_filters(self, capsys):
        assert cli_main(["scenarios", "list",
                         "--threat-model", "bpda",
                         "--dataset", "digits"]) == 0
        out = capsys.readouterr().out
        ids = [line for line in out.splitlines() if "/" in line]
        assert ids
        assert all(line.startswith("digits/") and "/bpda/" in line
                   for line in ids)

    def test_scenarios_list_repeatable_filters(self, capsys):
        assert cli_main(["scenarios", "list",
                         "--threat-model", "oblivious",
                         "--threat-model", "detector_aware"]) == 0
        out = capsys.readouterr().out
        assert "/oblivious/" in out and "/detector_aware/" in out
        assert "/bpda/" not in out

    def test_scenarios_run_flags_parse(self):
        args = self._parser().parse_args(
            ["scenarios", "run", "--threat-model", "bpda",
             "--profile", "smoke", "--jobs", "2", "--resume",
             "--timeout", "60", "--retries", "1",
             "--cache-dir", "/tmp/cache", "--seed", "3"])
        assert args.command == "scenarios"
        assert args.scenario_command == "run"
        assert args.threat_model == ["bpda"]
        assert args.profile == "smoke"
        assert args.jobs == 2
        assert args.resume is True
        assert args.timeout == 60.0
        assert args.retries == 1
        assert args.seed == 3

    def test_scenarios_run_no_match_fails_cleanly(self, capsys):
        assert cli_main(["scenarios", "run",
                         "--dataset", "objects",
                         "--workload", "corruption"]) == 1
        assert "no scenarios match" in capsys.readouterr().out

    def test_scenarios_without_subcommand_shows_usage(self, capsys):
        assert cli_main(["scenarios"]) == 2
        assert "scenarios {list,run}" in capsys.readouterr().out
