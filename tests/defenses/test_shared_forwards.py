"""MagNet's shared forward pass against a per-consumer reference.

``MagNet`` runs each distinct forward once per batch and hands the
arrays to every detector, the reformer and the classifier.  The oracle
below is the arithmetic of scoring each consumer with its own forwards;
every threshold, score, flag and label must match it bitwise, and the
forward-count gate pins how many module forwards a pass may run.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.defenses import (
    CIFAR_VARIANTS,
    MNIST_VARIANTS,
    JSDDetector,
    MagNet,
    ReconstructionDetector,
    Reformer,
    build_magnet,
    jensen_shannon_divergence,
)
from repro.experiments import SMOKE, ExperimentContext
from repro.nn import Module, Tensor
from repro.nn.autograd import no_grad
from repro.nn.layers import Dense, Sequential, Sigmoid
from repro.serving.smoke import DIM, build_toy_magnet


# ----------------------------------------------------------------------
# Oracle: every consumer runs its own forwards, 256 rows per chunk
# ----------------------------------------------------------------------
def _forward(module, x):
    outs = []
    with no_grad():
        for start in range(0, x.shape[0], 256):
            outs.append(module(Tensor(x[start:start + 256])).data)
    return np.concatenate(outs, axis=0)


def _softmax(logits, temperature):
    z = logits / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _oracle_score(det, x):
    if x.shape[0] == 0:
        return np.zeros(0, dtype=np.float32)
    recon = _forward(det.autoencoder, x)
    if isinstance(det, ReconstructionDetector):
        diff = (x - recon).reshape(x.shape[0], -1)
        if det.norm == 1:
            return np.abs(diff).mean(axis=1)
        return np.sqrt((diff ** 2).mean(axis=1))
    assert isinstance(det, JSDDetector)
    p = _softmax(_forward(det.classifier, x), det.temperature)
    q = _softmax(_forward(det.classifier, recon), det.temperature)
    return jensen_shannon_divergence(p, q)


def _oracle_labels(classifier, x):
    if x.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return _forward(classifier, x).argmax(axis=1)


def _oracle_thresholds(magnet, x_val, fpr_total):
    fpr_each = fpr_total / len(magnet.detectors)
    return [float(np.quantile(_oracle_score(det, x_val), 1.0 - fpr_each))
            for det in magnet.detectors]


def _oracle_decide(magnet, x):
    x = np.asarray(x, dtype=np.float32)
    n = x.shape[0]
    scores = [_oracle_score(det, x) for det in magnet.detectors]
    flags = np.zeros((len(scores), n), dtype=bool)
    for i, det in enumerate(magnet.detectors):
        flags[i] = scores[i] > det.threshold
    if magnet.reformer is None or n == 0:
        reformed = x
    else:
        reformed = np.clip(_forward(magnet.reformer.autoencoder, x),
                           0.0, 1.0).astype(np.float32)
    return dict(
        detected=flags.any(axis=0),
        labels_raw=_oracle_labels(magnet.classifier, x),
        labels_reformed=_oracle_labels(magnet.classifier, reformed),
        detector_flags=flags,
        detector_scores=(np.stack(scores) if scores
                         else np.zeros((0, n), dtype=np.float32)))


def _assert_bitwise(actual, expected, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype, what
    assert actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def _assert_matches_oracle(magnet, x):
    expected = _oracle_decide(magnet, x)
    offline = magnet.decide(x)
    batched = magnet.decide_batch(x)
    assert offline.stage_s is None
    assert set(batched.stage_s) == {"detect", "reform", "classify"}
    for field, want in expected.items():
        _assert_bitwise(getattr(offline, field), want, f"decide.{field}")
        _assert_bitwise(getattr(batched, field), want,
                        f"decide_batch.{field}")
    _assert_bitwise(magnet.detector_scores(x), expected["detector_scores"],
                    "detector_scores")
    _assert_bitwise(magnet.detector_flags(x), expected["detector_flags"],
                    "detector_flags")
    _assert_bitwise(magnet.detect(x), expected["detected"], "detect")


def _batch(x_pool, n, seed=0):
    """``n`` rows mixing clean images with noisy (off-manifold) copies."""
    rng = np.random.default_rng(seed)
    x = np.asarray(x_pool[:n], dtype=np.float32).copy()
    noisy = rng.random(n) < 0.5
    x[noisy] = np.clip(x[noisy] + rng.normal(0.0, 0.3, x[noisy].shape),
                       0.0, 1.0)
    return x.astype(np.float32)


class _ForwardSpy:
    """Counts calls of the given top-level modules (one per forward chunk)."""

    def __init__(self, monkeypatch, modules):
        self.ids = {id(m) for m in modules}
        self.calls = 0
        original = Module.__call__

        def counting(module, x):
            if id(module) in self.ids:
                self.calls += 1
            return original(module, x)

        monkeypatch.setattr(Module, "__call__", counting)

    def count(self, fn, *args):
        before = self.calls
        fn(*args)
        return self.calls - before


def _modules(magnet):
    mods = [magnet.classifier]
    mods += [det.autoencoder for det in magnet.detectors]
    if magnet.reformer is not None:
        mods.append(magnet.reformer.autoencoder)
    return mods


# ----------------------------------------------------------------------
# The six zoo variants
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _ZooCase:
    key: tuple
    magnet: MagNet
    x_val: np.ndarray
    x_test: np.ndarray
    fpr_total: float


ZOO_VARIANTS = ([("digits", v) for v in MNIST_VARIANTS]
                + [("objects", v) for v in CIFAR_VARIANTS])

#: Module forwards per pass: (decide_batch, calibrate).  Digits: AE-I,
#: AE-II, clf(x), clf(AE-I(x)).  Objects: AE, clf(x), clf(AE(x)).
FORWARDS = {
    ("digits", "default"): (4, 2),
    ("digits", "wide"): (4, 2),
    ("digits", "jsd"): (4, 4),
    ("digits", "wide_jsd"): (4, 4),
    ("objects", "default"): (3, 3),
    ("objects", "wide"): (3, 3),
}


@pytest.fixture(scope="module")
def objects_ctx(test_cache):
    # Same context as tests/test_integration_objects.py: models are shared
    # through the session cache, so this trains nothing extra.
    return ExperimentContext("objects", profile=SMOKE, cache=test_cache,
                             seed=3)


@pytest.fixture(scope="module", params=ZOO_VARIANTS,
                ids=[f"{d}-{v}" for d, v in ZOO_VARIANTS])
def zoo_case(request, tiny_zoo):
    dataset, variant = request.param
    if dataset == "digits":
        # Same specs as tests/defenses/test_variants.py (cache hits).
        fpr_total = 0.01
        magnet = build_magnet(tiny_zoo, "digits", variant, ae_epochs=8,
                              wide_width=6, fpr_total=fpr_total)
        splits = tiny_zoo.splits
    else:
        ctx = request.getfixturevalue("objects_ctx")
        magnet = ctx.magnet(variant)
        fpr_total = ctx.profile.fpr_total("objects")
        splits = ctx.zoo.splits
    return _ZooCase(request.param, magnet, splits.val.x, splits.test.x,
                    fpr_total)


class TestZooVariants:
    def test_thresholds_match_oracle(self, zoo_case):
        magnet = zoo_case.magnet
        want = _oracle_thresholds(magnet, zoo_case.x_val, zoo_case.fpr_total)
        assert [det.threshold for det in magnet.detectors] == want

    @pytest.mark.parametrize("n", [0, 3, 32])
    def test_decisions_match_oracle(self, zoo_case, n):
        _assert_matches_oracle(zoo_case.magnet, _batch(zoo_case.x_test, n))

    def test_forward_counts(self, zoo_case, monkeypatch):
        magnet = zoo_case.magnet
        per_decide, per_calibrate = FORWARDS[zoo_case.key]
        spy = _ForwardSpy(monkeypatch, _modules(magnet))
        x = _batch(zoo_case.x_test, 32)
        thresholds = [det.threshold for det in magnet.detectors]
        assert spy.count(magnet.decide_batch, x) == per_decide
        assert spy.count(magnet.decide, x) == per_decide
        assert spy.count(magnet.calibrate, zoo_case.x_val,
                         zoo_case.fpr_total) == per_calibrate
        assert [det.threshold for det in magnet.detectors] == thresholds


def test_chunked_batch_matches_oracle(tiny_zoo):
    """A batch over 256 rows is forwarded in the same chunks as the oracle."""
    magnet = build_magnet(tiny_zoo, "digits", "jsd", ae_epochs=8,
                          fpr_total=0.01)
    x = _batch(np.concatenate([tiny_zoo.splits.test.x] * 2), 300)
    _assert_matches_oracle(magnet, x)


# ----------------------------------------------------------------------
# Shapes the zoo does not build
# ----------------------------------------------------------------------
def _toy_models(seed=0, final_sigmoid=True):
    rng = np.random.default_rng(seed)
    classifier = Sequential(Dense(DIM, 32, rng=rng), Sigmoid(),
                            Dense(32, 10, rng=rng))
    layers = [Dense(DIM, DIM, rng=rng)] + ([Sigmoid()] if final_sigmoid
                                           else [])
    return classifier, Sequential(*layers), rng


def _toy_detectors(ae, classifier):
    return [ReconstructionDetector(ae, norm=1),
            ReconstructionDetector(ae, norm=2),
            JSDDetector(ae, classifier, temperature=10.0)]


def _unbounded_ae_magnet():
    """The reformer's AE has no final sigmoid, so the clip changes values."""
    classifier, ae, rng = _toy_models(seed=1, final_sigmoid=False)
    magnet = MagNet(classifier, _toy_detectors(ae, classifier), Reformer(ae))
    magnet.calibrate(rng.random((100, DIM)).astype(np.float32), 0.05)
    return magnet


def _no_reformer_magnet():
    classifier, ae, rng = _toy_models(seed=2)
    magnet = MagNet(classifier, _toy_detectors(ae, classifier), None)
    magnet.calibrate(rng.random((100, DIM)).astype(np.float32), 0.05)
    return magnet


def _no_detector_magnet():
    classifier, ae, _ = _toy_models(seed=3)
    return MagNet(classifier, [], Reformer(ae))


TOY_CASES = {
    # name: (factory, decide_batch forwards)
    "sigmoid_ae": (build_toy_magnet, 3),
    "unbounded_ae": (_unbounded_ae_magnet, 4),
    "no_reformer": (_no_reformer_magnet, 3),
    "no_detectors": (_no_detector_magnet, 3),
}


def _toy_inputs(n):
    return np.random.default_rng(n).random((n, DIM)).astype(np.float32)


@pytest.mark.parametrize("name", sorted(TOY_CASES))
class TestToyShapes:
    @pytest.mark.parametrize("n", [0, 3, 32])
    def test_decisions_match_oracle(self, name, n):
        magnet = TOY_CASES[name][0]()
        _assert_matches_oracle(magnet, _toy_inputs(n))

    def test_forward_counts(self, name, monkeypatch):
        factory, per_decide = TOY_CASES[name]
        magnet = factory()
        spy = _ForwardSpy(monkeypatch, _modules(magnet))
        assert spy.count(magnet.decide_batch, _toy_inputs(8)) == per_decide
        assert spy.count(magnet.decide_batch, _toy_inputs(0)) == 0


@pytest.mark.parametrize("name", ["sigmoid_ae", "unbounded_ae", "no_reformer"])
def test_toy_thresholds_match_oracle(name):
    magnet = TOY_CASES[name][0]()
    x_val = _toy_inputs(64)
    magnet.calibrate(x_val, 0.1)
    assert ([det.threshold for det in magnet.detectors]
            == _oracle_thresholds(magnet, x_val, 0.1))


def test_unbounded_ae_clip_changes_reformed_labels():
    """The unbounded case really exercises the clf(clip(AE(x))) fallback:
    reusing clf(AE(x)) would change some reformed labels of the oracle
    batch."""
    magnet = _unbounded_ae_magnet()
    x = _toy_inputs(32)
    recon = _forward(magnet.reformer.autoencoder, x)
    clipped = np.clip(recon, 0.0, 1.0)
    assert (_oracle_labels(magnet.classifier, recon)
            != _oracle_labels(magnet.classifier, clipped)).any()


def test_detect_only_pass_skips_classifier(monkeypatch):
    """Reconstruction-only detection never runs the classifier."""
    classifier, ae, rng = _toy_models()
    magnet = MagNet(classifier, [ReconstructionDetector(ae, norm=1)],
                    Reformer(ae))
    magnet.calibrate(rng.random((32, DIM)).astype(np.float32), 0.1)
    spy = _ForwardSpy(monkeypatch, [classifier])
    x = rng.random((8, DIM)).astype(np.float32)
    assert spy.count(magnet.detect, x) == 0
    assert spy.count(magnet.detector_scores, x) == 0
