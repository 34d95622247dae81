"""One repetition of a workload, in a fresh process.

Run by ``run.py`` as ``python3 perfbench/rep.py '<spec json>'``; writes
its result to ``spec["out"]``.  ``spec["mode"]`` is ``"prep"`` (build
the trained-model store once per benchmark invocation) or ``"rep"``.
With ``spec["trace"]`` the repetition points the :mod:`repro.obs` sink
at ``spec["sink"]`` and installs the :class:`layers.Probe` timers
before the program does any work.
"""

from __future__ import annotations

import json
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    from procmon import TreeMonitor, cpu_seconds

    monitor = TreeMonitor().start()
    probe = None
    if spec.get("trace"):
        from repro.obs import configure_observability
        import layers

        configure_observability(spec["sink"])
        probe = layers.Probe().install()
    import workloads

    if spec["mode"] == "prep":
        workloads.prepare_store(spec["store"], spec["seed"], spec["datasets"])
        monitor.stop()
        _write(spec["out"], {})
        return 0

    marks = {}

    def mark_setup() -> None:
        if probe is not None:
            from repro.nn.backend import flush_kernel_events

            # Forked sweep workers inherit the flush marks, so none of
            # them re-reports the dispatches this process made so far.
            flush_kernel_events()
            marks["attributed0"] = probe.attributed_s()
        marks["cpu0"] = cpu_seconds()
        marks["setup_end"] = time.monotonic()

    body = (workloads.table1_rep if spec["workload"].startswith("table1")
            else workloads.serve_rep)
    out = body(spec, mark_setup)
    end = time.monotonic()
    out["e2e"].update(monitor.stop())
    out["setup_end"] = marks["setup_end"]
    run_s = end - marks["setup_end"]
    cpu_s = cpu_seconds() - marks["cpu0"]
    out["layers"].update({"proc.cpu_s": cpu_s,
                          "proc.cpu_per_wall": cpu_s / run_s})
    if probe is not None:
        out["layers"].update(_traced_layers(spec, probe, marks, out))
    _write(spec["out"], out)
    return 0


def _traced_layers(spec, probe, marks, out) -> dict:
    import layers
    from repro.nn.backend import flush_kernel_events
    from repro.obs import metrics_snapshot

    flush_kernel_events()
    m = {}
    m.update(probe.metrics())
    m.update(layers.read_sink(spec["sink"]))
    m.update(layers.registry_metrics(metrics_snapshot()))
    m["nn.kernel_share"] = layers.kernel_share(m)
    if spec["workload"].startswith("table1"):
        # One thread does all of table1's in-process work, so its layer
        # self times account for the window's wall time.
        wall = out["e2e"]["wall_s"]
        attributed = probe.attributed_s() - marks["attributed0"]
        m.update({"trace.attributed_s": attributed,
                  "trace.unattributed_s": wall - attributed})
    return m


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    sys.exit(main())
