"""Command-line experiment runner.

Usage::

    python -m repro.experiments list                   # show experiment ids
    python -m repro.experiments run table1             # run one reproduction
    python -m repro.experiments run all --jobs 4       # everything, 4 workers
    python -m repro.experiments run fig2 --profile smoke --seed 1
    python -m repro.experiments scenarios list         # threat-model grid
    python -m repro.experiments scenarios run --threat-model bpda --resume
    python -m repro.experiments timings                # per-stage wall-clock
    python -m repro.experiments trace                  # span-tree report
    python -m repro.experiments serve --port 8080      # online inference

``scenarios`` drives the :mod:`repro.scenarios` registry — the
threat-model × attack × defense grid around the defended MagNet
pipeline (oblivious / transfer / gray-box / BPDA / detector-aware,
plus non-adversarial corruption rows).  ``scenarios list`` enumerates
the registry (axis filters: ``--dataset``, ``--variant``,
``--threat-model``, ``--attack``, ``--workload``); ``scenarios run``
executes the selected cells through the checkpointed parallel sweep
runner and prints the per-cell table plus the adaptive-vs-oblivious
gain summary.

``serve`` starts the micro-batching HTTP inference service over the
defended pipeline (``repro.serving``): concurrent ``POST /predict``
requests are coalesced into batches (``--max-batch``/``--max-wait-ms``)
with bounded admission (``--max-queue``, HTTP 429 beyond it), routed by
their ``model`` field (``--models``), and run in this process
(``--workers 0``, the default) or in N worker processes; see
``GET /healthz`` and ``GET /stats`` for liveness and latency
percentiles, and ``GET /metrics`` for Prometheus-format counters.

``trace`` reassembles the hierarchical span tree recorded by
:mod:`repro.obs` (sweep → cell → attack → binary-search step; request →
micro-batch → pipeline stage) from the same JSONL log that ``timings``
aggregates flat, with per-span total/self times.

``run`` accepts ``--profile`` (smoke|quick|paper), ``--jobs`` (worker
processes; 0 = one per core, negative values rejected), ``--cache-dir``,
``--seed`` and ``--telemetry`` (JSONL event log, default
``<cache-dir>/telemetry.jsonl``).  Sweeps are fault-tolerant and
checkpointed: ``--resume`` continues an interrupted run from its
checkpoint manifest (recomputing only missing or corrupt cells),
``--timeout``/``--retries`` tune the per-cell watchdog and retry budget,
and ``--inject-faults "seed=1,crash=0.05,timeout=0.02,transient=0.1"``
runs deterministic chaos against the runtime itself.

``run`` and ``scenarios run`` also expose the storage layer
(``repro.runtime.store``): ``--store-shards N`` sets the shard fan-out
of the content-addressed artifact store, and ``--store-max-bytes SIZE``
(plain bytes or ``512M``/``2G``-style suffixes) bounds it with LRU
eviction.  At ``--jobs N`` one pool crafts the missing cells of every
dataset the experiment needs, and each cell is its own pool task, so an
idle worker always takes the next cell and a straggling high-κ cell
holds up only its own worker.

The profile picks the conv kernel: every model of a ``--profile`` run
trains and runs on its ``nn_backend`` — ``numpy`` for smoke/quick,
``fft`` for paper (see ``docs/nn_backends.md``).  ``fft`` is
tolerance-equivalent to ``numpy``, so its models and attacks get their
own cache entries.

An omitted ``--profile`` or ``--cache-dir`` takes the library default:
``$REPRO_PROFILE`` (else ``quick``) and ``$REPRO_CACHE_DIR`` (else
``.repro_cache``), read by :func:`repro.experiments.config.current_profile`
and :class:`repro.utils.cache.DiskCache`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional, Union

from repro.experiments.config import PROFILES, current_profile
from repro.experiments.registry import (
    EXPERIMENT_IDS,
    describe_experiments,
    run_experiment,
)
from repro.obs import (
    configure_observability,
    load_events,
    render_timings,
    render_trace,
)
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.utils.cache import DiskCache
from repro.utils.logging import get_logger

log = get_logger(__name__)

_DEFAULT_TELEMETRY_NAME = "telemetry.jsonl"


def _jobs_arg(value: str) -> int:
    """argparse type for --jobs: integer >= 0 (0 = one per core)."""
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0 (0 = one worker per core), got {jobs}; "
            "there is no '-1 means all cores' convention")
    return jobs


def _fault_plan_arg(value: str) -> FaultPlan:
    """argparse type for --inject-faults: a FaultPlan spec string."""
    try:
        return FaultPlan.parse(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "t": 1024 ** 4}


def _bytes_arg(value: str) -> int:
    """argparse type for --store-max-bytes: bytes, with K/M/G/T suffixes."""
    text = value.strip().lower().rstrip("b")
    factor = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        amount = int(float(text) * factor)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a size like 1048576, 512M or 2G, got {value!r}")
    if amount <= 0:
        raise argparse.ArgumentTypeError(
            f"--store-max-bytes must be positive, got {value!r}")
    return amount


def _store_flags(p: argparse.ArgumentParser) -> None:
    """Artifact-store flags shared by run/scenarios run."""
    p.add_argument("--store-shards", type=int, default=256, metavar="N",
                   help="shard fan-out of the content-addressed artifact "
                        "store (default 256)")
    p.add_argument("--store-max-bytes", type=_bytes_arg, default=None,
                   metavar="SIZE",
                   help="bound stored artifact bytes with LRU eviction; "
                        "accepts K/M/G/T suffixes (default: unbounded)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser(
        "run", help="run one or more experiments (or 'all')",
        description="Run table/figure reproductions by id.")
    run.add_argument("experiments", nargs="+", metavar="EXPERIMENT",
                     help=f"experiment ids or 'all'; ids: {', '.join(EXPERIMENT_IDS)}")
    run.add_argument("--profile", choices=sorted(PROFILES),
                     help="scale profile (default: $REPRO_PROFILE, else "
                          "quick)")
    run.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                     help="worker processes for attack sweeps "
                          "(1 = serial, 0 = one per core, negative "
                          "rejected, huge values clamped to 4x cores; "
                          "default 1)")
    run.add_argument("--resume", action="store_true",
                     help="continue an interrupted sweep from its "
                          "checkpoint manifest: load-verify cached cells "
                          "and recompute only missing/corrupt/failed ones")
    run.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-attack-cell timeout in seconds, enforced "
                          "by a SIGALRM watchdog inside the worker "
                          "(default: none)")
    run.add_argument("--retries", type=int, default=None, metavar="N",
                     help="retry budget per attack cell before it is "
                          "recorded as a terminal failure (default 2)")
    run.add_argument("--inject-faults", type=_fault_plan_arg, default=None,
                     metavar="SPEC",
                     help="chaos mode: deterministic fault injection, e.g. "
                          "'seed=1,crash=0.05,timeout=0.02,transient=0.1"
                          ",corrupt=0.05,hang=120' (rates per sweep cell; "
                          "cells are indexed across the experiment's "
                          "datasets in grid order)")
    run.add_argument("--cache-dir", metavar="DIR",
                     help="artifact cache root (default: $REPRO_CACHE_DIR, "
                          "else .repro_cache)")
    run.add_argument("--seed", type=int, default=0,
                     help="root experiment seed (default 0)")
    run.add_argument("--telemetry", metavar="PATH",
                     help="JSONL event log (default: "
                          "<cache-dir>/telemetry.jsonl; 'off' disables)")
    _store_flags(run)

    sub.add_parser("list", help="show experiment ids",
                   description="List every experiment id with a description.")

    scenarios = sub.add_parser(
        "scenarios", help="enumerate or run the threat-model scenario grid",
        description="Drive the repro.scenarios registry: the threat-model "
                    "× attack × defense grid against the defended MagNet "
                    "pipeline.")
    scen_sub = scenarios.add_subparsers(dest="scenario_command")

    def _axis_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", action="append", metavar="NAME",
                       help="restrict to a dataset (repeatable)")
        p.add_argument("--variant", action="append", metavar="NAME",
                       help="restrict to a MagNet defense variant "
                            "(repeatable)")
        p.add_argument("--threat-model", action="append", metavar="NAME",
                       help="restrict to a threat model (oblivious, "
                            "transfer, graybox, bpda, detector_aware, "
                            "corruption; repeatable)")
        p.add_argument("--attack", action="append", metavar="NAME",
                       help="restrict to an attack family or corruption "
                            "(repeatable)")
        p.add_argument("--workload", action="append",
                       metavar="NAME",
                       help="restrict to a workload (adversarial or "
                            "corruption; repeatable)")

    scen_list = scen_sub.add_parser(
        "list", help="enumerate registered scenarios",
        description="List scenario ids matching the axis filters, plus an "
                    "axes summary.")
    _axis_flags(scen_list)

    scen_run = scen_sub.add_parser(
        "run", help="run the selected scenario cells",
        description="Execute the selected cells through the checkpointed "
                    "parallel sweep runner and print the per-cell report.")
    _axis_flags(scen_run)
    scen_run.add_argument("--profile", choices=sorted(PROFILES),
                          help="scale profile (default: quick)")
    scen_run.add_argument("--jobs", type=_jobs_arg, default=1, metavar="N",
                          help="worker processes (1 = serial, 0 = one per "
                               "core; default 1)")
    scen_run.add_argument("--resume", action="store_true",
                          help="continue an interrupted sweep from its "
                               "checkpoint manifest (load-verify cached "
                               "cells, recompute missing/corrupt ones)")
    scen_run.add_argument("--timeout", type=float, default=None, metavar="S",
                          help="per-cell timeout in seconds (default: none)")
    scen_run.add_argument("--retries", type=int, default=None, metavar="N",
                          help="retry budget per cell (default 2)")
    scen_run.add_argument("--inject-faults", type=_fault_plan_arg,
                          default=None, metavar="SPEC",
                          help="chaos mode: deterministic fault injection "
                               "(same spec syntax as 'run')")
    scen_run.add_argument("--cache-dir", metavar="DIR",
                          help="artifact cache root (default: .repro_cache)")
    scen_run.add_argument("--seed", type=int, default=0,
                          help="root sweep seed (default 0)")
    scen_run.add_argument("--telemetry", metavar="PATH",
                          help="JSONL event log (default: "
                               "<cache-dir>/telemetry.jsonl; 'off' "
                               "disables)")
    _store_flags(scen_run)

    serve = sub.add_parser(
        "serve", help="run the online MagNet inference service over HTTP",
        description="Serve the defended pipeline: coalesce concurrent "
                    "/predict requests into micro-batches through one "
                    "batched MagNet pass, in this process (--workers 0) "
                    "or in worker processes (--workers N). Endpoints: "
                    "POST /predict, GET /healthz, GET /models, GET /stats, "
                    "GET /metrics.")
    serve.add_argument("--dataset", choices=("digits", "objects"),
                       default="digits", help="dataset whose models to serve")
    serve.add_argument("--variant", default="default",
                       help="MagNet variant (default: 'default')")
    serve.add_argument("--ae-loss", default="mse", choices=("mse", "mae"),
                       help="autoencoder training loss (default mse)")
    serve.add_argument("--profile", choices=sorted(PROFILES),
                       help="scale profile for the served models "
                            "(default: quick)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 = ephemeral; the bound port is "
                            "printed on startup)")
    serve.add_argument("--max-batch", type=int, default=32, metavar="N",
                       help="flush a micro-batch at this many requests "
                            "(default 32)")
    serve.add_argument("--max-wait-ms", type=float, default=5.0, metavar="MS",
                       help="flush when the oldest queued request is this "
                            "old (default 5)")
    serve.add_argument("--max-queue", type=int, default=256, metavar="N",
                       help="admission bound: reject (HTTP 429) beyond this "
                            "queue depth (default 256)")
    serve.add_argument("--workers", type=int, default=0, metavar="N",
                       help="model worker processes: 0 runs batches in "
                            "this process, one thread per model; N >= 1 "
                            "runs them in N OS processes over "
                            "shared-memory rings (default 0)")
    serve.add_argument("--models", metavar="V1,V2,...",
                       help="comma-separated MagNet variants to route by "
                            "the /predict 'model' field (overrides "
                            "--variant)")
    serve.add_argument("--adaptive-wait", action="store_true",
                       help="AIMD-tune each tenant's max_wait_ms from its "
                            "live queue-depth gauge (bounds: "
                            "[--min-wait-ms, --max-wait-ms])")
    serve.add_argument("--min-wait-ms", type=float, default=0.25,
                       metavar="MS",
                       help="adaptive-wait lower bound (default 0.25)")
    serve.add_argument("--max-requests", type=int, default=None, metavar="N",
                       help="exit after serving N requests (smoke/testing; "
                            "default: run until interrupted)")
    serve.add_argument("--cache-dir", metavar="DIR",
                       help="artifact cache root (default: .repro_cache)")
    serve.add_argument("--seed", type=int, default=0,
                       help="model seed (default 0)")
    serve.add_argument("--telemetry", metavar="PATH",
                       help="JSONL event log (default: "
                            "<cache-dir>/telemetry.jsonl; 'off' disables)")

    timings = sub.add_parser(
        "timings", help="per-stage wall-clock report from the telemetry log",
        description="Aggregate a telemetry JSONL log into a per-stage "
                    "wall-clock table.")
    timings.add_argument("--telemetry", metavar="PATH",
                         help="JSONL log to read (default: "
                              "<cache-dir>/telemetry.jsonl)")
    timings.add_argument("--cache-dir", metavar="DIR",
                         help="cache root holding the default telemetry log")

    trace = sub.add_parser(
        "trace", help="hierarchical span-tree report from the telemetry log",
        description="Reassemble the span tree recorded by repro.obs and "
                    "render it with per-span total/self wall-clock times.")
    trace.add_argument("--telemetry", metavar="PATH",
                       help="JSONL log to read (default: "
                            "<cache-dir>/telemetry.jsonl)")
    trace.add_argument("--cache-dir", metavar="DIR",
                       help="cache root holding the default telemetry log")
    trace.add_argument("--max-depth", type=int, default=None, metavar="N",
                       help="truncate the tree below this depth")
    trace.add_argument("--no-collapse", action="store_true",
                       help="show every span instead of collapsing "
                            "repeated same-name siblings into one xN line")
    return parser


def _resolve_profile(flag_value: Optional[str]):
    """``--profile``, else the library default (:func:`current_profile`)."""
    if not flag_value:
        return current_profile()
    name = flag_value.lower()
    if name not in PROFILES:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}")
    return PROFILES[name]


def _telemetry_path(flag_value: Optional[str],
                    cache_dir: Union[str, os.PathLike]) -> Optional[str]:
    if flag_value == "off":
        return None
    if flag_value:
        return flag_value
    env = os.environ.get("REPRO_TELEMETRY")
    if env:
        return env
    return os.path.join(cache_dir, _DEFAULT_TELEMETRY_NAME)


def _cmd_run(args: argparse.Namespace) -> int:
    profile = _resolve_profile(args.profile)

    exp_ids: List[str] = []
    for target in args.experiments:
        if target == "all":
            exp_ids.extend(EXPERIMENT_IDS)
        else:
            exp_ids.append(target)
    # Validate before enabling the process-global telemetry sink, so a
    # typo'd id leaves no environment side effects behind.
    for exp_id in exp_ids:
        if exp_id not in EXPERIMENT_IDS:
            raise KeyError(f"unknown experiment {exp_id!r}; available: "
                           f"{sorted(EXPERIMENT_IDS)}")

    retry_policy = None
    if args.timeout is not None or args.retries is not None:
        from repro.experiments.sweeps import SWEEP_RETRY_POLICY

        retry_policy = RetryPolicy(
            timeout_s=args.timeout,
            retries=(SWEEP_RETRY_POLICY.retries if args.retries is None
                     else args.retries),
            backoff_s=SWEEP_RETRY_POLICY.backoff_s)
    if args.inject_faults is not None:
        log.warning("chaos mode enabled: %s", args.inject_faults.describe())

    cache = DiskCache(args.cache_dir, shards=args.store_shards,
                      max_bytes=args.store_max_bytes)
    configure_observability(_telemetry_path(args.telemetry, cache.root))
    for exp_id in exp_ids:
        report = run_experiment(exp_id, profile=profile, cache=cache,
                                seed=args.seed, jobs=args.jobs,
                                resume=args.resume,
                                retry_policy=retry_policy,
                                fault_plan=args.inject_faults)
        print(report)
        print()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: route each ``--models`` variant (else ``--variant``)."""
    from repro.experiments.context import ExperimentContext, build_served_magnet
    from repro.serving import (
        ClusterConfig,
        ClusterService,
        ModelSpec,
        ServingConfig,
        serve_in_thread,
    )

    profile = _resolve_profile(args.profile)
    cache = DiskCache(args.cache_dir)
    configure_observability(_telemetry_path(args.telemetry, cache.root))

    variants = [v.strip() for v in (args.models or args.variant).split(",")
                if v.strip()]
    if not variants:
        log.error("--models needs at least one variant")
        return 2
    # Warm the cache first so every builder loads (never re-trains)
    # bitwise-identical weights, in this process or in each worker.
    ctx = ExperimentContext(args.dataset, profile=profile, cache=cache,
                            seed=args.seed)
    input_shape = tuple(ctx.splits.test.x.shape[1:])
    tenant_config = ServingConfig(max_batch=args.max_batch,
                                  max_wait_ms=args.max_wait_ms,
                                  max_queue=args.max_queue,
                                  adaptive_wait=args.adaptive_wait,
                                  min_wait_ms=args.min_wait_ms)
    specs = []
    for variant in variants:
        log.info("loading %s/%s models (%s profile) ...", args.dataset,
                 variant, profile.name)
        ctx.magnet(variant, ae_loss=args.ae_loss)
        specs.append(ModelSpec(
            model_id=variant, builder=build_served_magnet,
            builder_kwargs={"dataset": args.dataset, "variant": variant,
                            "ae_loss": args.ae_loss,
                            "profile": profile.name,
                            "cache_dir": str(cache.root),
                            "seed": args.seed},
            input_shape=input_shape, config=tenant_config))

    with ClusterService(specs, ClusterConfig(workers=args.workers)) as service:
        service.wait_ready(timeout=600.0)
        server, _ = serve_in_thread(service, args.host, args.port)
        host, port = server.server_address[:2]
        print(f"serving {args.dataset} x {variants} on http://{host}:{port} "
              f"(workers={args.workers}, max_batch="
              f"{tenant_config.max_batch}, max_wait_ms="
              f"{tenant_config.max_wait_ms:g}, max_queue="
              f"{tenant_config.max_queue}, adaptive_wait="
              f"{tenant_config.adaptive_wait})", flush=True)
        try:
            while True:
                time.sleep(0.2)
                completed = service.stats_snapshot()["requests"]["completed"]
                if (args.max_requests is not None
                        and completed >= args.max_requests):
                    log.info("served %d requests (--max-requests), exiting",
                             completed)
                    break
                if not service.healthy():
                    log.error("service became unhealthy, exiting")
                    return 1
        except KeyboardInterrupt:
            print("interrupted, draining ...", flush=True)
        finally:
            server.shutdown()
            server.server_close()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    path = _telemetry_path(args.telemetry, DiskCache(args.cache_dir).root)
    events = load_events(path) if path else []
    if not events:
        print(f"no telemetry events found at {path}")
        print("run experiments first: python -m repro.experiments run all")
        return 1
    print(f"telemetry: {path} ({len(events)} events)")
    print()
    print(render_trace(events, collapse=not args.no_collapse,
                       max_depth=args.max_depth))
    return 0


def _cmd_list() -> int:
    for exp_id, desc in describe_experiments().items():
        print(f"{exp_id:<8} {desc}")
    return 0


def _selected_scenarios(args: argparse.Namespace):
    """Registry scenarios matching the CLI axis filters."""
    from repro.scenarios import default_registry

    def axis(values):
        return tuple(values) if values else None

    registry = default_registry()
    return registry, registry.select(
        dataset=axis(args.dataset),
        defense_variant=axis(args.variant),
        threat_model=axis(args.threat_model),
        attack=axis(args.attack),
        workload=axis(args.workload))


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    registry, selected = _selected_scenarios(args)
    for scenario in selected:
        print(scenario.scenario_id)
    print()
    print(f"{len(selected)} of {len(registry)} scenarios selected; axes:")
    for axis, values in registry.axes().items():
        print(f"  {axis:<16} {', '.join(values)}")
    return 0


def _cmd_scenarios_run(args: argparse.Namespace) -> int:
    from repro.experiments.context import ExperimentContext
    from repro.scenarios import (
        adaptive_gain,
        outcomes_table,
        render_table,
        run_scenarios,
    )
    from repro.scenarios.runner import SCENARIO_RETRY_POLICY

    registry, selected = _selected_scenarios(args)
    if not selected:
        print("no scenarios match the given filters")
        return 1

    profile = _resolve_profile(args.profile)
    cache = DiskCache(args.cache_dir, shards=args.store_shards,
                      max_bytes=args.store_max_bytes)
    configure_observability(_telemetry_path(args.telemetry, cache.root))

    policy = None
    if args.timeout is not None or args.retries is not None:
        policy = RetryPolicy(
            timeout_s=args.timeout,
            retries=(SCENARIO_RETRY_POLICY.retries if args.retries is None
                     else args.retries),
            backoff_s=SCENARIO_RETRY_POLICY.backoff_s)

    cells = registry.expand(args.seed, scenarios=selected)
    contexts = {
        dataset: ExperimentContext(dataset, profile=profile, cache=cache,
                                   seed=args.seed)
        for dataset in sorted({c.scenario.dataset for c in cells})
    }
    log.info("running %d scenario cells (%s profile, %d dataset(s))",
             len(cells), profile.name, len(contexts))
    if args.inject_faults is not None:
        log.warning("chaos mode enabled: %s", args.inject_faults.describe())
    outcomes = run_scenarios(cells, contexts, jobs=args.jobs,
                             resume=args.resume, policy=policy,
                             fault_plan=args.inject_faults)

    print(render_table(outcomes_table(outcomes)))
    gains = adaptive_gain(outcomes)
    if gains:
        print()
        print("adaptive gain over the oblivious baseline:")
        print(render_table(gains, columns=(
            "dataset", "defense_variant", "attack", "threat_model",
            "baseline_asr", "adaptive_asr", "gain")))
    missing = len(cells) - len(outcomes)
    if missing:
        print()
        print(f"warning: {missing} cell(s) failed; rerun with --resume")
        return 1
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        return _cmd_scenarios_list(args)
    if args.scenario_command == "run":
        return _cmd_scenarios_run(args)
    print("usage: python -m repro.experiments scenarios {list,run} [...]")
    return 2


def _cmd_timings(args: argparse.Namespace) -> int:
    path = _telemetry_path(args.telemetry, DiskCache(args.cache_dir).root)
    events = load_events(path) if path else []
    if not events:
        print(f"no telemetry events found at {path}")
        print("run experiments first: python -m repro.experiments run all")
        return 1
    print(f"telemetry: {path} ({len(events)} events)")
    print()
    print(render_timings(events))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list":
        return _cmd_list()
    if args.command == "timings":
        return _cmd_timings(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    print(__doc__)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
