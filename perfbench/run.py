"""The repository benchmark: one workload, several fresh-process repetitions.

    python3 perfbench/run.py --workload table1-cold --seed 0 --seconds 20 --trace 0

Runs repetitions of the workload, each in a fresh process tree, until
``--seconds`` have passed (at least :data:`MIN_REPS`), checks every
output, and prints the medians.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``; the per-layer metrics with
``--trace 1``, which alternates untraced and traced repetitions).  The
line before it is a JSON report with the host fingerprint, every
repetition's values, their spread and the per-phase operation counts.

Must be run from a checkout holding ``src/repro``; see README.md.
"""

from __future__ import annotations

import os

# One BLAS thread per process, for this process and every child: the
# setting is part of the benchmark, recorded in each report.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from stats import Tally, quartiles, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: workload -> (sweep jobs, datasets its trained-model store needs).
#: ``None`` jobs means one worker per core; an empty store means the
#: workload starts from nothing (table1-cold trains everything).
WORKLOADS = {
    "table1-cold": (1, ()),
    "table1-sweep": (None, ("digits", "objects")),
    "serve-inproc": (1, ("digits",)),
    "serve-cluster": (1, ("digits",)),
}

#: End-to-end metrics and units, reported with ``--trace 0``.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "p50_ms": "ms", "throughput_rps": "1/s"}

#: End-to-end metrics measured once per repetition; the others once
#: per round (table1: one round per repetition; serving: several).
PER_REP = ("wall_s", "setup_s", "peak_rss_mb")

#: Per-layer metrics and units, reported with ``--trace 1``.
PER_LAYER = {
    "host.probe_s": "s", "proc.cpu_s": "s", "proc.cpu_per_wall": "frac",
    "datasets.gen_s": "s",
    "models.train_s": "s", "models.fits": "count", "models.epoch_ms": "ms",
    "models.load_s": "s",
    "defenses.calibrate_s": "s", "defenses.decide_s": "s",
    "defenses.decide_images": "count",
    "attacks.busy_s": "s", "attacks.dispatches": "count",
    "attacks.step_ms": "ms", "attacks.lane_iterations": "count",
    "attacks.success_frac": "frac", "attacks.converged_frac": "frac",
    "nn.conv_dispatches": "count", "nn.kernel_s": "s",
    "nn.kernel_share": "frac",
    "experiments.cells": "count", "experiments.cell_hit_frac": "frac",
    "experiments.self_s": "s",
    "runtime.map_s": "s", "runtime.leases": "count", "runtime.steals": "count",
    "runtime.worker_busy_frac": "frac", "runtime.retries": "count",
    "runtime.timeouts": "count",
    "store.saves": "count", "store.save_s": "s", "store.bytes_written": "B",
    "store.loads": "count", "store.load_s": "s", "store.hit_frac": "frac",
    "store.dedup_hits": "count",
    "serving.rejected": "count", "serving.queue_ms": "ms",
    "serving.infer_ms": "ms", "serving.batch_size_light": "count",
    "serving.batch_size_sat": "count", "serving.detect_ms": "ms",
    "serving.reform_ms": "ms", "serving.classify_ms": "ms",
    "serving.p90_ms": "ms", "serving.p99_ms": "ms", "serving.samples": "count",
    "serving.gen_late_ms": "ms",
    "cluster.transit_ms": "ms", "cluster.dispatched": "count",
    "cluster.redispatched": "count", "cluster.worker_restarts": "count",
    "cluster.pickle_fallbacks": "count",
    "obs.overhead_frac": "frac",
    "trace.wall_s": "s", "trace.attributed_s": "s",
    "trace.unattributed_s": "s",
}

#: Repetitions per run, at least; setup_s is a median over them.
MIN_REPS = 3
#: Traced repetitions per ``--trace 1`` run, at least.
MIN_PAIRS = 2
#: No repetition starts after this much of the run, so a run ends well
#: inside three minutes.
START_BUDGET_S = 120.0
REP_TIMEOUT_S = 150.0


def host_probe_s() -> float:
    """A fixed numpy loop, timed: drift between runs shows here first."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192))
    t0 = time.perf_counter()
    for _ in range(300):
        a = np.tanh(a @ a.T / 192.0) + 0.01
    return time.perf_counter() - t0


def fingerprint(args, nproc: int, reps: int) -> Dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):     # numpy without the dict-mode config
        blas = "unknown"
    return {"commit": _commit(), "src_sha256": _src_digest(),
            "nproc": nproc, "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "repeats": reps}


def _commit() -> str:
    """The checkout's git commit, or "unknown" when it is not a git work tree
    of its own (the ``src_sha256`` fingerprint still names the code)."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def _src_digest() -> str:
    """Hash of every source file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class RepFailed(RuntimeError):
    pass


def run_child(spec: Dict, workdir: Path, env: Dict) -> Dict:
    """Run one fresh repetition process; return its result and spawn time."""
    workdir.mkdir(parents=True)
    spec = dict(spec, out=str(workdir / "out.json"),
                store=str(workdir / "store"), sink=str(workdir / "trace.jsonl"),
                src=str(SRC))
    log = workdir / "stderr.log"
    with open(log, "w", encoding="utf-8") as err:
        t_spawn = time.monotonic()
        # Own session, so the whole tree can be stopped: nothing the
        # repetition started may outlive it.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            env=env, cwd=str(ROOT), stdout=err, stderr=err,
            start_new_session=True)
        try:
            proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass                    # the tree has already ended
            proc.wait()
    if proc.returncode != 0:
        raise RepFailed(f"repetition exited {proc.returncode}: {_tail(log)}")
    with open(spec["out"], encoding="utf-8") as fh:
        out = json.load(fh)
    out["t_spawn"] = t_spawn
    return out


def _tail(path: Path, lines: int = 15) -> str:
    return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    jobs, datasets = WORKLOADS[args.workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_TELEMETRY", None)          # untraced unless asked
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    base = {"workload": args.workload, "seed": args.seed,
            "jobs": jobs or nproc, "trace": 0}
    try:
        probe_s = host_probe_s()
        if datasets:
            run_child(dict(base, mode="prep", datasets=list(datasets)),
                      workdir / "prep", env)
            base["source_store"] = str(workdir / "prep" / "store")
        plain, traced = [], []
        t0 = time.monotonic()
        k = 0
        while True:
            elapsed = time.monotonic() - t0
            if args.trace:
                # plain, traced, ..., plain: one more untraced repetition
                # than traced ones, for the tail-latency sample count.
                done = (len(traced) >= MIN_PAIRS and len(plain) > len(traced)
                        and elapsed >= args.seconds)
            else:
                done = len(plain) >= MIN_REPS and elapsed >= args.seconds
            if done or (elapsed > START_BUDGET_S and plain
                        and (traced or not args.trace)):
                break
            trace = args.trace and len(traced) < len(plain)
            out = run_child(dict(base, mode="rep", trace=int(trace)),
                            workdir / f"rep{k}", env)
            shutil.rmtree(workdir / f"rep{k}" / "store", ignore_errors=True)
            out["setup_s"] = out["setup_end"] - out["t_spawn"]
            (traced if trace else plain).append(out)
            k += 1
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass                      # other runs still hold directories

    tallies: Dict[str, Tally] = {}
    for out in plain + traced:
        for phase, d in out["tallies"].items():
            tallies.setdefault(phase, Tally()).merge(Tally.from_dict(d))
    attempted = sum(t.attempted for t in tallies.values())
    failed = sum(t.not_ok for t in tallies.values())

    e2e = {name: [r["setup_s"] if name == "setup_s" else r["e2e"][name]
                  for r in plain] for name in PER_REP}
    e2e.update({name: [rnd[name] for r in plain for rnd in r["rounds"]]
                for name in END_TO_END if name not in PER_REP})
    late = _pooled(plain, "late_ms")
    report = {
        "fingerprint": fingerprint(args, nproc, len(plain)),
        "host_probe_s": probe_s,
        "end_to_end": {name: dict(quartiles(e2e[name]), values=e2e[name])
                       for name in END_TO_END},
        "operations": {phase: t.as_dict() for phase, t in tallies.items()},
        "generator_late_ms": quartiles(late) if late else None,
    }
    if args.trace:
        report["per_layer"] = per_layer(plain, traced, probe_s)
        values = {name: (report["per_layer"][name]["median"], unit)
                  for name, unit in PER_LAYER.items()}
    else:
        values = {name: (report["end_to_end"][name]["median"], unit)
                  for name, unit in END_TO_END.items()}
    for name, (value, unit) in values.items():
        print(f"{name:28s} {value:14.6g} {unit}")
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


#: Per-layer metrics that need no tracing, read from untraced repetitions.
UNTRACED_LAYERS = ("proc.cpu_s", "proc.cpu_per_wall", "serving.rejected")


def _pooled(reps: List[Dict], name: str) -> List[float]:
    return [v for r in reps for v in r.get("samples", {}).get(name, [])]


def per_layer(plain: List[Dict], traced: List[Dict], probe_s: float) -> Dict:
    """Median and spread of every per-layer metric over the repetitions
    that measure it; pooled serving latencies give the tail percentiles."""
    def over(reps, name):
        return quartiles([r["layers"].get(name, 0.0) for r in reps])

    m = {name: over(traced, name) for name in PER_LAYER}
    m.update({name: over(plain, name) for name in UNTRACED_LAYERS})
    latency, late = _pooled(plain, "latency_ms"), _pooled(plain, "late_ms")
    wall_plain = quartiles([r["e2e"]["wall_s"] for r in plain])
    wall_traced = quartiles([r["e2e"]["wall_s"] for r in traced])
    single = {
        "serving.samples": len(latency),
        "serving.p90_ms": tail_percentile(latency, 90) or 0.0,
        "serving.p99_ms": tail_percentile(latency, 99) or 0.0,
        "serving.gen_late_ms": quartiles(late)["median"] if late else 0.0,
        "trace.wall_s": wall_traced["median"],
        "obs.overhead_frac": wall_traced["median"] / wall_plain["median"] - 1,
        "host.probe_s": probe_s,
    }
    m.update({name: quartiles([v]) for name, v in single.items()})
    return m


if __name__ == "__main__":
    sys.exit(main())
