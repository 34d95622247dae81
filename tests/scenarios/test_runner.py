"""Tests for scenario execution: threat models, sweep driver, resume."""

import json

import numpy as np
import pytest

from repro.attacks import logits_of
from repro.defenses import JSDDetector, MagNet, ReconstructionDetector, Reformer
from repro.scenarios import (
    Scenario,
    ScenarioRegistry,
    execute_scenario,
    load_outcomes,
    run_scenarios,
    scenario_cell_key,
)
from repro.scenarios.runner import (
    CHECKPOINT_NAMESPACE,
    OUTCOME_NAMESPACE,
    ScenarioOutcome,
    build_craft_model,
    missing_cells,
)

#: Micro attack budget shared by the tiny-fixture cells.
TINY_PARAMS = dict(binary_search_steps=3, max_iterations=60,
                   initial_const=1.0, lr=5e-2)


@pytest.fixture(scope="module")
def magnet(tiny_classifier, tiny_autoencoder, tiny_splits):
    m = MagNet(
        tiny_classifier,
        [ReconstructionDetector(tiny_autoencoder, norm=1),
         JSDDetector(tiny_autoencoder, tiny_classifier, temperature=10.0)],
        Reformer(tiny_autoencoder))
    m.calibrate(tiny_splits.val.x, fpr_total=0.1)
    return m


@pytest.fixture(scope="module")
def seeds(magnet, tiny_splits):
    """Test examples the defended pipeline classifies correctly."""
    reformed = magnet.reformer.reform(tiny_splits.test.x)
    preds = logits_of(magnet.classifier, reformed).argmax(1)
    idx = np.flatnonzero(preds == tiny_splits.test.y)[:8]
    return tiny_splits.test.x[idx], tiny_splits.test.y[idx]


def _run(scenario, magnet, tiny_classifier, seeds, **kwargs):
    x0, y0 = seeds
    kwargs.setdefault("attack_params", TINY_PARAMS)
    return execute_scenario(scenario, classifier=tiny_classifier,
                            magnet=magnet, x0=x0, y0=y0, seed=3, **kwargs)


class TestExecuteScenario:
    def test_outcome_fields_consistent(self, magnet, tiny_classifier, seeds):
        sc = Scenario.create("digits", "default", "oblivious", "ead_l1")
        out = _run(sc, magnet, tiny_classifier, seeds)
        assert out.scenario_id == sc.scenario_id
        assert out.n == len(seeds[1])
        assert 0.0 <= out.attack_success_rate <= 1.0
        assert out.detection_bypass_rate == pytest.approx(
            1.0 - out.detection_rate)
        assert out.mean_l1 >= out.mean_l2 >= 0.0
        assert set(out.breakdown) == {"no_defense", "detector_only",
                                      "reformer_only", "full"}
        # Round-trips through its JSON document form.
        doc = json.loads(json.dumps(out.to_dict()))
        assert ScenarioOutcome.from_dict(doc) == out

    def test_adaptive_attacks_beat_oblivious_baseline(self, magnet,
                                                      tiny_classifier, seeds):
        """The acceptance bar: BPDA and detector-aware strictly beat the
        paper's oblivious threat model against the same MagNet config."""
        rates = {}
        for tm in ("oblivious", "bpda", "detector_aware"):
            sc = Scenario.create("digits", "default", tm, "ead_l1")
            rates[tm] = _run(sc, magnet, tiny_classifier, seeds)
        assert rates["bpda"].attack_success_rate > \
            rates["oblivious"].attack_success_rate
        assert rates["detector_aware"].attack_success_rate > \
            rates["oblivious"].attack_success_rate
        # The detector-aware objective also buys strictly fewer
        # detections than BPDA's reformer-only objective.
        assert rates["detector_aware"].detection_rate <= \
            rates["bpda"].detection_rate

    def test_detector_aware_reports_both_rates(self, magnet, tiny_classifier,
                                               seeds):
        sc = Scenario.create("digits", "default", "detector_aware", "ead_l1")
        out = _run(sc, magnet, tiny_classifier, seeds)
        assert np.isfinite(out.misclassification_rate)
        assert np.isfinite(out.detection_bypass_rate)

    def test_transfer_needs_surrogate(self, magnet, tiny_classifier, seeds):
        sc = Scenario.create("digits", "default", "transfer", "cw")
        with pytest.raises(ValueError):
            _run(sc, magnet, tiny_classifier, seeds)

    def test_transfer_attacks_surrogate(self, magnet, tiny_classifier, seeds):
        sc = Scenario.create("digits", "default", "transfer", "cw")
        # The defended classifier doubles as its own "surrogate" here —
        # the wiring under test, not the transferability result.
        out = _run(sc, magnet, tiny_classifier, seeds,
                   surrogate_classifier=tiny_classifier)
        assert out.threat_model == "transfer"

    def test_corruption_row_deterministic(self, magnet, tiny_classifier,
                                          seeds):
        sc = Scenario.create("digits", "default", "corruption",
                             "gaussian_noise", workload="corruption",
                             severity=3)
        a = _run(sc, magnet, tiny_classifier, seeds, attack_params=None)
        b = _run(sc, magnet, tiny_classifier, seeds, attack_params=None)
        # Document-level comparison (NaN craft rate breaks == on the
        # dataclass itself).
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        assert np.isnan(a.craft_success_rate)
        assert a.workload == "corruption"

    def test_craft_model_per_threat_model(self, magnet, tiny_classifier):
        from repro.attacks import BPDAReformedModel, ReformedModel

        def build(tm):
            return build_craft_model(
                Scenario.create("digits", "default", tm, "cw"),
                tiny_classifier, magnet,
                surrogate_classifier=tiny_classifier)

        assert build("oblivious") is tiny_classifier
        assert build("transfer") is tiny_classifier
        assert isinstance(build("graybox"), ReformedModel)
        assert isinstance(build("bpda"), BPDAReformedModel)
        assert isinstance(build("detector_aware"), BPDAReformedModel)
        corruption = Scenario.create("digits", "default", "corruption",
                                     "contrast", workload="corruption",
                                     severity=1)
        assert build_craft_model(corruption, tiny_classifier, magnet) is None


# ----------------------------------------------------------------------
# Sweep driver on a real (smoke) context
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_ctx(smoke_context, tmp_path_factory):
    return smoke_context(tmp_path_factory.mktemp("scenario_cache"))


@pytest.fixture(scope="module")
def mini_cells():
    """A small all-digits registry: three threat models + one corruption."""
    reg = ScenarioRegistry()
    for tm in ("oblivious", "bpda", "detector_aware"):
        reg.add(Scenario.create("digits", "default", tm, "ead_l1"))
    reg.add(Scenario.create("digits", "default", "corruption",
                            "gaussian_noise", workload="corruption",
                            severity=3))
    return reg.expand(root_seed=0)


def _outcome_bytes(ctx, cells):
    """Raw JSON bytes of every cached outcome document."""
    blobs = {}
    for cell in cells:
        key = scenario_cell_key(ctx, cell)
        path = ctx.cache._json_path(OUTCOME_NAMESPACE, key)
        blobs[cell.scenario.scenario_id] = path.read_bytes()
    return blobs


class TestRunScenarios:
    def test_sweep_completes_and_checkpoints(self, smoke_ctx, mini_cells):
        contexts = {"digits": smoke_ctx}
        outcomes = run_scenarios(mini_cells, contexts, jobs=1)
        assert len(outcomes) == len(mini_cells)
        assert missing_cells(mini_cells, contexts) == []
        # The manifest recorded every cell as done.
        manifests = list(
            (smoke_ctx.cache.root / CHECKPOINT_NAMESPACE).glob("*.json"))
        assert manifests
        doc = json.loads(manifests[-1].read_text())
        assert doc["status"] == "complete"
        assert len(doc["done"]) == len(mini_cells)

    def test_adaptive_gain_on_smoke_profile(self, smoke_ctx, mini_cells):
        """The adaptive cells beat oblivious on the smoke context too."""
        outcomes = run_scenarios(mini_cells, {"digits": smoke_ctx}, jobs=1)
        obl = outcomes["digits/default/oblivious/ead_l1"]
        bpda = outcomes["digits/default/bpda/ead_l1"]
        aware = outcomes["digits/default/detector_aware/ead_l1"]
        assert bpda.attack_success_rate > obl.attack_success_rate
        assert aware.attack_success_rate > obl.attack_success_rate

    def test_resume_is_bitwise_reproducible(self, smoke_ctx, mini_cells):
        """Deleting one outcome and resuming recomputes exactly that cell,
        byte-identical to the original document."""
        contexts = {"digits": smoke_ctx}
        run_scenarios(mini_cells, contexts, jobs=1)
        before = _outcome_bytes(smoke_ctx, mini_cells)

        victim = mini_cells[1]
        key = scenario_cell_key(smoke_ctx, victim)
        smoke_ctx.cache._json_path(OUTCOME_NAMESPACE, key).unlink()
        assert [c.scenario.scenario_id
                for c in missing_cells(mini_cells, contexts)] == \
            [victim.scenario.scenario_id]

        outcomes = run_scenarios(mini_cells, contexts, jobs=1, resume=True)
        assert len(outcomes) == len(mini_cells)
        after = _outcome_bytes(smoke_ctx, mini_cells)
        assert after == before

    def test_parallel_outcomes_byte_identical(self, smoke_ctx, mini_cells):
        """A jobs=2 sweep, where any worker may take any cell, republishes
        every outcome document byte-identical to the serial run."""
        contexts = {"digits": smoke_ctx}
        run_scenarios(mini_cells, contexts, jobs=1)
        baseline = _outcome_bytes(smoke_ctx, mini_cells)

        for cell in mini_cells:
            key = scenario_cell_key(smoke_ctx, cell)
            smoke_ctx.cache._json_path(OUTCOME_NAMESPACE, key).unlink()
        outcomes = run_scenarios(mini_cells, contexts, jobs=2)
        assert len(outcomes) == len(mini_cells)
        assert _outcome_bytes(smoke_ctx, mini_cells) == baseline

    def test_chaotic_parallel_sweep_byte_identical(self, smoke_ctx, mini_cells):
        """FaultPlan chaos in a jobs=2 sweep must not change a byte of any
        outcome document."""
        from repro.runtime.faults import FaultPlan, RetryPolicy

        contexts = {"digits": smoke_ctx}
        run_scenarios(mini_cells, contexts, jobs=1)
        baseline = _outcome_bytes(smoke_ctx, mini_cells)

        for cell in mini_cells:
            key = scenario_cell_key(smoke_ctx, cell)
            smoke_ctx.cache._json_path(OUTCOME_NAMESPACE, key).unlink()
        outcomes = run_scenarios(
            mini_cells, contexts, jobs=2,
            fault_plan=FaultPlan(transients={0: 1, 2: 1}),
            policy=RetryPolicy(retries=3, backoff_s=0.01))
        assert len(outcomes) == len(mini_cells)
        assert _outcome_bytes(smoke_ctx, mini_cells) == baseline

    def test_load_outcomes_skips_missing(self, smoke_ctx, mini_cells):
        contexts = {"digits": smoke_ctx}
        run_scenarios(mini_cells, contexts, jobs=1)
        extra = ScenarioRegistry()
        extra.add(Scenario.create("digits", "default", "graybox", "cw"))
        cells = mini_cells + extra.expand(0)
        loaded = load_outcomes(cells, contexts)
        assert len(loaded) == len(mini_cells)

    def test_missing_context_rejected(self, smoke_ctx):
        reg = ScenarioRegistry()
        reg.add(Scenario.create("objects", "default", "oblivious", "cw"))
        with pytest.raises(KeyError):
            run_scenarios(reg.expand(0), {"digits": smoke_ctx})


class TestReportHelpers:
    def test_tables_and_gain(self, smoke_ctx, mini_cells):
        from repro.scenarios import (
            adaptive_gain,
            outcomes_table,
            render_table,
            success_by_threat_model,
        )

        outcomes = run_scenarios(mini_cells, {"digits": smoke_ctx}, jobs=1)
        rows = outcomes_table(outcomes)
        assert len(rows) == len(outcomes)
        assert rows == sorted(rows, key=lambda r: r["scenario"])

        by_tm = success_by_threat_model(outcomes)
        assert "corruption" not in by_tm  # adversarial cells only
        assert set(by_tm) == {"oblivious", "bpda", "detector_aware"}

        gains = adaptive_gain(outcomes)
        assert {g["threat_model"] for g in gains} == {"bpda",
                                                      "detector_aware"}
        for g in gains:
            assert g["gain"] == pytest.approx(
                g["adaptive_asr"] - g["baseline_asr"])

        text = render_table(rows)
        assert "scenario" in text.splitlines()[0]
        assert len(text.splitlines()) == len(rows) + 2
