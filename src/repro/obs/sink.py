"""The JSONL event sink shared by tracing and metrics.

One process-wide sink owns the append-only event file.  Every
observability record — a closed span, a point event, a metrics snapshot
— is a single ``write()`` of one JSON line on a file opened in append
mode, which POSIX keeps atomic for short lines, so concurrent worker
processes can share the same file without interleaving partial lines.

The sink is *opt-in*: it writes only when a path is configured, via
:func:`configure_observability` or the ``REPRO_TELEMETRY`` environment
variable.  The environment variable doubles as the hand-off mechanism to
:mod:`repro.runtime.executor` worker processes — children inherit it and
append to the same file.  (The variable keeps its historical name so
logs written by older runs and newer runs land in the same place.)
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.utils.logging import get_logger

log = get_logger(__name__)

#: Environment variable naming the JSONL sink (inherited by workers).
TELEMETRY_ENV = "REPRO_TELEMETRY"


class ObsSink:
    """Append-only JSONL writer; disabled when ``path`` is None."""

    __slots__ = ("path",)

    def __init__(self, path: Optional[Union[str, os.PathLike]] = None):
        self.path = Path(path) if path else None

    @property
    def enabled(self) -> bool:
        return self.path is not None

    def emit_line(self, record: Dict[str, Any]) -> None:
        """Append one record as a JSON line; no-op when disabled.

        Observability must never take a run down: write failures are
        logged and swallowed.
        """
        if self.path is None:
            return
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, default=str) + "\n")
        except OSError as exc:
            log.warning("observability write to %s failed: %s",
                        self.path, exc)


def base_record(name: str, duration_s: Optional[float] = None,
                **fields: Any) -> Dict[str, Any]:
    """The common record shape: timestamp, stage name, worker pid.

    ``stage`` is the name key, so span records are readable by the flat
    per-stage aggregation (``load_events``/``render_timings``).
    ``None``-valued fields are dropped.
    """
    record: Dict[str, Any] = {
        "ts": round(time.time(), 6),
        "stage": name,
        "worker": os.getpid(),
    }
    if duration_s is not None:
        record["duration_s"] = round(float(duration_s), 6)
    record.update({k: v for k, v in fields.items() if v is not None})
    return record


_ACTIVE: Optional[ObsSink] = None


def configure_observability(path: Optional[Union[str, os.PathLike]]
                            ) -> ObsSink:
    """Point the process-wide sink at ``path`` (None disables it).

    Also exports ``REPRO_TELEMETRY`` so executor worker processes append
    to the same log.
    """
    global _ACTIVE
    if path is None:
        os.environ.pop(TELEMETRY_ENV, None)
        _ACTIVE = ObsSink(None)
    else:
        os.environ[TELEMETRY_ENV] = str(path)
        _ACTIVE = ObsSink(path)
    return _ACTIVE


def active_sink() -> ObsSink:
    """The process-wide sink, tracking ``REPRO_TELEMETRY`` changes."""
    global _ACTIVE
    env = os.environ.get(TELEMETRY_ENV) or None
    active_path = str(_ACTIVE.path) if _ACTIVE is not None and _ACTIVE.path else None
    if _ACTIVE is None or env != active_path:
        _ACTIVE = ObsSink(env)
    return _ACTIVE
