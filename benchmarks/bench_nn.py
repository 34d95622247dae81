#!/usr/bin/env python
"""Benchmark the fft conv kernel against the numpy reference.

Three stages, each run on both conv kernels (numpy / fft):

* **conv microbench** — forward, backward-input and backward-weight
  timings on the paper profile's autoencoder conv shapes (256 filters at
  28x28, 3x3 same-padding: the 1->256 / 256->256 / 256->1 trio);
* **AE epoch** — one `Trainer.fit` epoch of a MagNet-style conv
  autoencoder, the training workload the paper profile spends most of
  its wall-clock on;
* **EAD step** — a small EAD run against a trained digits classifier,
  reported as seconds per model dispatch (the attack inner loop).

Every stage doubles as an **equivalence gate** (exit 1 on divergence):
``fft`` must match ``numpy`` within its documented scale-relative
tolerance on single dispatches (``FFT_GATE_RTOL`` x the output's max
magnitude; see docs/nn_backends.md for why iterated trajectories are
compared loosely instead: per-step tolerance errors compound and can
flip borderline attack successes).

The acceptance budget (full mode only) is a >=1.5x speedup of fft over
numpy on the summed paper-shape conv microbench.  ``--quick`` shrinks batches/budgets for CI and skips the
wall-clock floor (timings on shared runners are noise) but keeps every
equivalence gate.

Results are written to ``BENCH_nn.json`` at the repo root.

Usage:  PYTHONPATH=src python benchmarks/bench_nn.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Acceptance floor: fft vs numpy on the summed paper-shape conv
#: microbench (fwd + both backwards).
SPEEDUP_FLOOR = 1.5

#: Scale-relative gate for single FFT dispatches: max|a - ref| must stay
#: below this fraction of max|ref|.  The per-element float32 bound grows
#: ~sqrt(K) with the K = Ci*kh*kw accumulation length; 2e-3 covers the
#: paper profile's K = 2304 with margin (measured ~2e-4 at K <= 128).
FFT_GATE_RTOL = 2e-3

#: Paper-profile AE conv trio: (n, ci, co, hw, k, stride, padding).
#: n = 64 is the Trainer's default batch size — the batch every conv in
#: the paper profile's AE training loop actually sees.
PAPER_SHAPES = (
    ("conv_1_256", 64, 1, 256, 28, 3, 1, 1),
    ("conv_256_256", 64, 256, 256, 28, 3, 1, 1),
    ("conv_256_1", 64, 256, 1, 28, 3, 1, 1),
)
QUICK_SHAPES = tuple((spec[0], 1) + spec[2:] for spec in PAPER_SHAPES)


def _rel_err(a, ref) -> float:
    import numpy as np

    scale = float(np.abs(ref).max())
    if scale == 0.0:
        return float(np.abs(a).max())
    return float(np.abs(a - ref).max()) / scale


def _best_of(repeats, fn):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _bench_conv(backends, shapes, repeats, failures) -> dict:
    """Per-kernel fwd/bwd conv timings + the hard equivalence gate."""
    import numpy as np

    from repro.nn.backend import KERNELS

    stage = {}
    rng = np.random.default_rng(0)
    for name, n, ci, co, hw, k, stride, padding in shapes:
        x = rng.standard_normal((n, ci, hw, hw)).astype(np.float32)
        w = (rng.standard_normal((co, ci, k, k)).astype(np.float32)
             / np.sqrt(ci * k * k))
        b = rng.standard_normal(co).astype(np.float32)
        ref = KERNELS["numpy"]
        ref_out, ref_ctx = ref.conv2d_forward(
            x, w, b, stride, padding, 1, needs_grad=True)
        g = rng.standard_normal(ref_out.shape).astype(np.float32)
        ref_gx = ref.conv2d_backward_input(ref_ctx, g)
        ref_gw = ref.conv2d_backward_weight(ref_ctx, g)

        shape_row = {"shape": f"{n}x{ci}x{hw}x{hw} -> {co} ({k}x{k})"}
        for bk_name in backends:
            be = KERNELS[bk_name]
            fwd_s, (out, ctx) = _best_of(repeats, lambda: be.conv2d_forward(
                x, w, b, stride, padding, 1, needs_grad=True))
            bx_s, gx = _best_of(
                repeats, lambda: be.conv2d_backward_input(ctx, g))
            bw_s, gw = _best_of(
                repeats, lambda: be.conv2d_backward_weight(ctx, g))
            errs = {"out": _rel_err(out, ref_out),
                    "gx": _rel_err(gx, ref_gx),
                    "gw": _rel_err(gw, ref_gw)}
            for field, err in errs.items():
                if err > FFT_GATE_RTOL:
                    failures.append(
                        f"conv/{name}: {bk_name} {field} rel err "
                        f"{err:.2e} exceeds gate {FFT_GATE_RTOL:.0e}")
            shape_row[bk_name] = {
                "fwd_s": round(fwd_s, 4),
                "bwd_input_s": round(bx_s, 4),
                "bwd_weight_s": round(bw_s, 4),
                "total_s": round(fwd_s + bx_s + bw_s, 4),
                "max_rel_err": max(errs.values()),
            }
        stage[name] = shape_row
        print(f"[bench_nn] conv {name}: " + ", ".join(
            f"{bk}={stage[name][bk]['total_s']:.3f}s" for bk in backends),
            flush=True)
    return stage


def _bench_ae_epoch(backends, width, batch, samples, repeats,
                    failures) -> dict:
    """One autoencoder training epoch per kernel, loss-gated."""
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
    losses = {}
    for bk_name in backends:
        def epoch():
            trainer = Trainer(build(bk_name), loss="mse", seed=0)
            return trainer.fit(x, None, epochs=1, batch_size=batch,
                               verbose=False).final_train_loss

        wall_s, loss = _best_of(repeats, epoch)
        losses[bk_name] = loss
        stage[bk_name] = {"epoch_s": round(wall_s, 3),
                          "final_loss": round(loss, 8)}
        print(f"[bench_nn] ae_epoch {bk_name}: {wall_s:.2f}s "
              f"loss={loss:.6f}", flush=True)

    for bk_name in backends:
        if bk_name == "numpy":
            continue
        if abs(losses[bk_name] - losses["numpy"]) > \
                1e-2 * max(abs(losses["numpy"]), 1e-12):
            failures.append(
                f"ae_epoch: {bk_name} loss {losses[bk_name]:.8f} diverged "
                f"from numpy {losses['numpy']:.8f} beyond 1%")
    return stage


def _bench_ead(backends, budget, batch, failures) -> dict:
    """EAD per-dispatch seconds per kernel, gated on crafted outputs."""
    import numpy as np

    from repro.attacks import EAD, logits_of
    from repro.datasets import load_digit_splits
    from repro.models import ClassifierSpec, ModelZoo
    from repro.nn import set_conv_kernel
    from repro.obs import counter
    from repro.utils.cache import DiskCache

    import tempfile

    splits = load_digit_splits(n_train=400, n_val=100, n_test=200, seed=7)
    with tempfile.TemporaryDirectory(prefix="bench_nn_") as tmp:
        zoo = ModelZoo(splits, cache=DiskCache(tmp))
        model = zoo.classifier(ClassifierSpec(dataset="digits", epochs=2))
    preds = logits_of(model, splits.test.x).argmax(1)
    idx = np.flatnonzero(preds == splits.test.y)[:batch]
    x0, y0 = splits.test.x[idx], splits.test.y[idx]

    stage = {"batch": int(idx.shape[0]), **budget}
    results = {}
    dispatches = counter("attack/dispatches")
    for bk_name in backends:
        attack = EAD(set_conv_kernel(model, bk_name), beta=1e-1, kappa=0.0,
                     **budget)
        before = dispatches.value
        t0 = time.perf_counter()
        result = attack.attack(x0, y0)
        wall_s = time.perf_counter() - t0
        n_disp = dispatches.value - before
        results[bk_name] = result
        stage[bk_name] = {
            "wall_s": round(wall_s, 3),
            "dispatches": int(n_disp),
            "step_ms": round(1e3 * wall_s / max(n_disp, 1), 3),
            "success_rate": round(result.success_rate, 3),
            "mean_l1": (round(result.mean_distortion("l1"), 4)
                        if result.success.any() else None),
        }
        print(f"[bench_nn] ead {bk_name}: {wall_s:.2f}s "
              f"({stage[bk_name]['step_ms']}ms/dispatch, "
              f"asr={result.success_rate:.2f})", flush=True)

    ref = results["numpy"]
    if not ref.success.any():
        failures.append(
            "ead: the numpy reference crafted no successful lane, so the "
            "success-agreement and mean-L1 gates cannot run; raise the "
            "EAD budget")
    for bk_name in backends:
        if bk_name == "numpy":
            continue
        got = results[bk_name]
        # Iterated FFT trajectories compound per-step tolerance error;
        # gate on aggregate agreement, not bitwise paths.
        agree = float((got.success == ref.success).mean())
        stage[bk_name]["success_agreement"] = round(agree, 3)
        if agree < 0.9:
            failures.append(
                f"ead: {bk_name} success mask agrees with numpy on "
                f"only {agree:.0%} of lanes (< 90%)")
        both = got.success & ref.success
        if both.any():
            rel = abs(float(got.l1[both].mean())
                      - float(ref.l1[both].mean()))
            rel /= max(float(ref.l1[both].mean()), 1e-12)
            stage[bk_name]["l1_rel_diff"] = round(rel, 4)
            # Loose by design: hundreds of ISTA steps + per-lane binary
            # search bifurcate on tolerance-level noise and legitimately
            # land on different (equally valid) minima.  Wrong *math* is
            # caught by the tight single-dispatch and AE-loss gates
            # above; this bound only catches grossly divergent attack
            # behaviour.
            if rel > 0.25:
                failures.append(
                    f"ead: {bk_name} mean L1 diverged {rel:.1%} "
                    "from numpy (> 25%)")
    return stage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced budget (fast, for CI); skips the "
                             "speedup floor but keeps equivalence gates")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timing repeats (min reported; default 3, "
                             "1 with --quick)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_nn.json"))
    args = parser.parse_args(argv)

    from repro.nn.backend import KERNELS, kernel_stats

    backends = sorted(KERNELS, key=lambda n: (n != "numpy", n))  # ref first
    repeats = args.repeats or (1 if args.quick else 3)
    shapes = QUICK_SHAPES if args.quick else PAPER_SHAPES
    ae_width = 32 if args.quick else 256
    ae_batch, ae_samples = (4, 8) if args.quick else (8, 16)
    # Both budgets are chosen so the attack actually crafts successes
    # (``_bench_ead`` fails a run whose reference crafts none, since the
    # L1 gate is vacuous then).  At 10 iterations the quick run needs a
    # const near 100: at 50 and below no digits lane succeeds.
    ead_budget = (dict(binary_search_steps=1, max_iterations=10,
                       initial_const=100.0)
                  if args.quick
                  else dict(binary_search_steps=3, max_iterations=50,
                            initial_const=10.0))

    failures: list = []
    print(f"[bench_nn] kernels: {backends}, repeats={repeats}", flush=True)
    conv = _bench_conv(backends, shapes, repeats, failures)
    ae = _bench_ae_epoch(backends, ae_width, ae_batch, ae_samples,
                         repeats, failures)
    ead = _bench_ead(backends, ead_budget, batch=4, failures=failures)

    totals = {bk: round(sum(conv[s][bk]["total_s"] for s in conv), 4)
              for bk in backends}
    alternatives = {bk: t for bk, t in totals.items() if bk != "numpy"}
    best = min(alternatives, key=alternatives.get)
    speedup = totals["numpy"] / max(alternatives[best], 1e-9)

    result = {
        "benchmark": "conv kernels: conv microbench + AE epoch + EAD",
        "mode": "quick" if args.quick else "paper-shape",
        "repeats": repeats,
        "speedup_floor": SPEEDUP_FLOOR,
        "fft_gate_rtol": FFT_GATE_RTOL,
        "conv": conv,
        "conv_total_s": totals,
        "best_backend": best,
        "conv_speedup": round(speedup, 2),
        "ae_epoch": ae,
        "ead": ead,
        "kernel_dispatches": {bk: stats["dispatches"]
                              for bk, stats in kernel_stats().items()},
        "equivalence_gate": "fail" if failures else "pass",
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result, indent=2))

    if not args.quick and speedup < SPEEDUP_FLOOR:
        failures.append(
            f"conv: {best} speedup {speedup:.2f}x over "
            f"numpy is below the {SPEEDUP_FLOOR}x acceptance floor")
    for failure in failures:
        print(f"[bench_nn] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
