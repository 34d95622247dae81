#!/usr/bin/env python
"""Benchmark the fft conv kernel against the numpy reference.

Three stages, each timed on both conv kernels (numpy / fft):

* **conv microbench** — forward, backward-input and backward-weight
  timings on the paper profile's autoencoder conv shapes (256 filters at
  28x28, 3x3 same-padding: the 1->256 / 256->256 / 256->1 trio);
* **AE epoch** — one `Trainer.fit` epoch of a MagNet-style conv
  autoencoder, the training workload the paper profile spends most of
  its wall-clock on;
* **EAD step** — a small EAD run against a trained digits classifier,
  reported as seconds per model dispatch (the attack inner loop).

It answers a question the repository benchmark (``perfbench/``) does
not: no perfbench workload runs ``fft``, so this is where the per-shape
fft-vs-numpy time comes from.  The acceptance floor is a >=1.5x speedup
of fft over numpy on the summed paper-shape conv microbench (exit 1
below it).  Whether fft computes the same numbers as numpy is a tier-1
test, ``tests/nn/test_backend.py::TestFftAgainstNumpy``.

The JSON result is printed to stdout; progress goes to stderr.

Usage:  PYTHONPATH=src python benchmarks/bench_nn.py [--repeats N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: Acceptance floor: fft vs numpy on the summed paper-shape conv
#: microbench (fwd + both backwards).
SPEEDUP_FLOOR = 1.5

#: Paper-profile AE conv trio: (n, ci, co, hw, k, stride, padding).
#: n = 64 is the Trainer's default batch size — the batch every conv in
#: the paper profile's AE training loop actually sees.
PAPER_SHAPES = (
    ("conv_1_256", 64, 1, 256, 28, 3, 1, 1),
    ("conv_256_256", 64, 256, 256, 28, 3, 1, 1),
    ("conv_256_1", 64, 256, 1, 28, 3, 1, 1),
)

#: EAD budget: enough for the attack to craft successes, so the timed
#: dispatches are the ones a real sweep cell runs.
EAD_BUDGET = dict(binary_search_steps=3, max_iterations=50,
                  initial_const=10.0)


def _log(message: str) -> None:
    print(f"[bench_nn] {message}", file=sys.stderr, flush=True)


def _best_of(repeats, fn):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _bench_conv(backends, repeats) -> dict:
    """Per-kernel fwd/bwd conv timings on the paper shapes."""
    import numpy as np

    from repro.nn.backend import KERNELS

    stage = {}
    rng = np.random.default_rng(0)
    for name, n, ci, co, hw, k, stride, padding in PAPER_SHAPES:
        x = rng.standard_normal((n, ci, hw, hw)).astype(np.float32)
        w = (rng.standard_normal((co, ci, k, k)).astype(np.float32)
             / np.sqrt(ci * k * k))
        b = rng.standard_normal(co).astype(np.float32)
        g = rng.standard_normal((n, co, hw, hw)).astype(np.float32)

        shape_row = {"shape": f"{n}x{ci}x{hw}x{hw} -> {co} ({k}x{k})"}
        for bk_name in backends:
            be = KERNELS[bk_name]
            fwd_s, (_, ctx) = _best_of(repeats, lambda: be.conv2d_forward(
                x, w, b, stride, padding, 1, needs_grad=True))
            bx_s, _ = _best_of(
                repeats, lambda: be.conv2d_backward_input(ctx, g))
            bw_s, _ = _best_of(
                repeats, lambda: be.conv2d_backward_weight(ctx, g))
            shape_row[bk_name] = {
                "fwd_s": round(fwd_s, 4),
                "bwd_input_s": round(bx_s, 4),
                "bwd_weight_s": round(bw_s, 4),
                "total_s": round(fwd_s + bx_s + bw_s, 4),
            }
        stage[name] = shape_row
        _log(f"conv {name}: " + ", ".join(
            f"{bk}={stage[name][bk]['total_s']:.3f}s" for bk in backends))
    return stage


def _bench_ae_epoch(backends, repeats, width=256, batch=8,
                    samples=16) -> dict:
    """One autoencoder training epoch per kernel."""
    import numpy as np

    from repro.nn import Conv2D, Sequential, Sigmoid, Trainer

    rng = np.random.default_rng(3)
    x = rng.random((samples, 1, 28, 28)).astype(np.float32)

    def build(conv_kernel):
        return Sequential(
            Conv2D(1, width, 3, rng=np.random.default_rng(10),
                   conv_kernel=conv_kernel), Sigmoid(),
            Conv2D(width, 1, 3, rng=np.random.default_rng(11),
                   conv_kernel=conv_kernel), Sigmoid())

    stage = {"width": width, "batch": batch, "samples": samples}
    for bk_name in backends:
        def epoch():
            trainer = Trainer(build(bk_name), loss="mse", seed=0)
            return trainer.fit(x, None, epochs=1, batch_size=batch,
                               verbose=False).final_train_loss

        wall_s, loss = _best_of(repeats, epoch)
        stage[bk_name] = {"epoch_s": round(wall_s, 3),
                          "final_loss": round(loss, 8)}
        _log(f"ae_epoch {bk_name}: {wall_s:.2f}s loss={loss:.6f}")
    return stage


def _bench_ead(backends, batch=4) -> dict:
    """EAD seconds per model dispatch, per kernel."""
    import tempfile

    import numpy as np

    from repro.attacks import EAD, logits_of
    from repro.datasets import load_digit_splits
    from repro.models import ClassifierSpec, ModelZoo
    from repro.nn import set_conv_kernel
    from repro.obs import counter
    from repro.utils.cache import DiskCache

    splits = load_digit_splits(n_train=400, n_val=100, n_test=200, seed=7)
    with tempfile.TemporaryDirectory(prefix="bench_nn_") as tmp:
        zoo = ModelZoo(splits, cache=DiskCache(tmp))
        model = zoo.classifier(ClassifierSpec(dataset="digits", epochs=2))
    preds = logits_of(model, splits.test.x).argmax(1)
    idx = np.flatnonzero(preds == splits.test.y)[:batch]
    x0, y0 = splits.test.x[idx], splits.test.y[idx]

    stage = {"batch": int(idx.shape[0]), **EAD_BUDGET}
    dispatches = counter("attack/dispatches")
    for bk_name in backends:
        attack = EAD(set_conv_kernel(model, bk_name), beta=1e-1, kappa=0.0,
                     **EAD_BUDGET)
        before = dispatches.value
        t0 = time.perf_counter()
        result = attack.attack(x0, y0)
        wall_s = time.perf_counter() - t0
        n_disp = dispatches.value - before
        stage[bk_name] = {
            "wall_s": round(wall_s, 3),
            "dispatches": int(n_disp),
            "step_ms": round(1e3 * wall_s / max(n_disp, 1), 3),
            "success_rate": round(result.success_rate, 3),
        }
        _log(f"ead {bk_name}: {wall_s:.2f}s "
             f"({stage[bk_name]['step_ms']}ms/dispatch, "
             f"asr={result.success_rate:.2f})")
    return stage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats (min reported; default 3)")
    args = parser.parse_args(argv)

    from repro.nn.backend import KERNELS, kernel_stats

    backends = sorted(KERNELS, key=lambda n: (n != "numpy", n))  # ref first
    _log(f"kernels: {backends}, repeats={args.repeats}")
    conv = _bench_conv(backends, args.repeats)
    ae = _bench_ae_epoch(backends, args.repeats)
    ead = _bench_ead(backends)

    totals = {bk: round(sum(conv[s][bk]["total_s"] for s in conv), 4)
              for bk in backends}
    speedup = totals["numpy"] / max(totals["fft"], 1e-9)
    result = {
        "benchmark": "conv kernels: conv microbench + AE epoch + EAD",
        "repeats": args.repeats,
        "speedup_floor": SPEEDUP_FLOOR,
        "conv": conv,
        "conv_total_s": totals,
        "conv_speedup": round(speedup, 2),
        "ae_epoch": ae,
        "ead": ead,
        "kernel_dispatches": {bk: stats["dispatches"]
                              for bk, stats in kernel_stats().items()},
    }
    print(json.dumps(result, indent=2))

    if speedup < SPEEDUP_FLOOR:
        _log(f"FAIL: fft speedup {speedup:.2f}x over numpy is below the "
             f"{SPEEDUP_FLOOR}x acceptance floor")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
