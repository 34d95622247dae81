"""Deterministic fault injection for the sweep runtime.

The paper's adversarial-evaluation lesson — Carlini & Wagner showed
MagNet falls to an attacker who actually probes the defense — applies to
infrastructure too: a runtime whose failure paths are never exercised
should be assumed broken.  This module makes the failure paths testable
by injecting *deterministic* faults keyed by work-item index:

* **crash** — the worker process exits hard (``os._exit``), producing a
  ``BrokenProcessPool`` for every item still in flight in the pool.
* **timeout** — the item sleeps past the executor's per-item timeout so
  the SIGALRM watchdog fires (:class:`ItemTimeout`).
* **transient** — the item raises :class:`InjectedFault`; a retry
  succeeds once the fault's fire budget is spent.
* **corrupt** — a cached artifact is overwritten with garbage bytes,
  exercising :class:`~repro.utils.cache.DiskCache` self-healing.

A :class:`FaultPlan` is immutable plain data (picklable, shippable to
worker processes) and every decision is a pure function of
``(seed, item index, attempt)``, so chaos runs are reproducible: the
same plan against the same sweep injects the same faults.  Plans are
built explicitly in tests or parsed from the CLI ``--inject-faults``
spec for chaos runs.

:class:`RetryPolicy` is the executor-side counterpart: how long an item
may run, how many times it is retried, and how the backoff grows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Any, Dict, Iterable, Mapping, Optional, Union

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "InjectedFault",
    "ItemFailure",
    "ItemTimeout",
    "RetryPolicy",
    "corrupt_cache_entry",
]


class InjectedFault(RuntimeError):
    """A deliberately injected, transient work-item failure."""


class InjectedCrash(InjectedFault):
    """A crash fault fired outside a worker process (serial path)."""


class ItemTimeout(TimeoutError):
    """A work item exceeded the executor's per-item timeout."""


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How the executor treats a failing work item.

    Args:
        timeout_s: per-item wall-clock limit enforced *inside* the
            worker via SIGALRM (None disables the watchdog).
        retries: additional attempts after the first failure; an item
            that fails ``retries + 1`` times is terminal.
        backoff_s: base delay before a re-dispatch round; doubles per
            attempt (exponential) up to ``backoff_cap_s``.
    """

    timeout_s: Optional[float] = None
    retries: int = 2
    backoff_s: float = 0.25
    backoff_cap_s: float = 30.0

    def __post_init__(self):
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")

    def delay(self, attempt: int) -> float:
        """Backoff before re-running an item that failed ``attempt`` times."""
        if attempt <= 0 or self.backoff_s <= 0:
            return 0.0
        return min(self.backoff_s * (2.0 ** (attempt - 1)), self.backoff_cap_s)


@dataclasses.dataclass
class ItemFailure:
    """Terminal failure record for one work item (``on_error="record"``).

    Appears in the results list at the failed item's position instead of
    a value, so a sweep can keep every healthy cell and report exactly
    which cells died and why.
    """

    index: int
    kind: str           # "crash" | "timeout" | exception class name
    error: str
    attempts: int

    def __bool__(self) -> bool:  # failed cells are falsy for filtering
        return False


_KINDS = ("crash", "timeout", "transient")


def _as_fires(spec: Union[None, Iterable[int], Mapping[int, int]]
              ) -> Dict[int, int]:
    """Normalize an index collection to ``{index: times_to_fire}``."""
    if spec is None:
        return {}
    if isinstance(spec, Mapping):
        return {int(k): int(v) for k, v in spec.items()}
    return {int(i): 1 for i in spec}


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """A seeded, per-item-index schedule of injected faults.

    Explicit indices (``crashes``/``timeouts``/``transients``) may be an
    iterable of item indices (each fires on the first attempt only) or a
    ``{index: n_fires}`` mapping — a fault fires while
    ``attempt < n_fires``, so ``n_fires`` larger than the retry budget
    makes the item terminally fail.  Rate-based plans
    (:meth:`from_rates` / :meth:`parse`) pick items deterministically
    from ``seed``.

    ``hang_s`` is how long a timeout fault sleeps; it must exceed the
    executor's ``timeout_s`` for the watchdog to fire.
    """

    seed: int = 0
    crashes: Any = None
    timeouts: Any = None
    transients: Any = None
    corrupts: Any = None
    hang_s: float = 3600.0
    rates: Any = None          # (crash, timeout, transient, corrupt) rates
    fires: int = 1             # fire budget for rate-selected items

    def __post_init__(self):
        object.__setattr__(self, "crashes", _as_fires(self.crashes))
        object.__setattr__(self, "timeouts", _as_fires(self.timeouts))
        object.__setattr__(self, "transients", _as_fires(self.transients))
        object.__setattr__(self, "corrupts", _as_fires(self.corrupts))
        if self.rates is not None:
            object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rates(cls, seed: int, *, crash: float = 0.0, timeout: float = 0.0,
                   transient: float = 0.0, corrupt: float = 0.0,
                   fires: int = 1, hang_s: float = 3600.0) -> "FaultPlan":
        """A plan that faults each item index with the given probabilities.

        Decisions are a pure hash of ``(seed, index)`` — no RNG state —
        so any two runs over the same grid inject identical faults.
        """
        return cls(seed=int(seed), rates=(crash, timeout, transient, corrupt),
                   fires=int(fires), hang_s=float(hang_s))

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse the ``--inject-faults`` CLI spec.

        Comma-separated ``key=value`` pairs: ``seed`` (int), ``crash`` /
        ``timeout`` / ``transient`` / ``corrupt`` (rates in [0, 1]),
        ``fires`` (int) and ``hang`` (seconds), e.g.
        ``"seed=7,crash=0.05,timeout=0.02,transient=0.1"``.
        """
        fields: Dict[str, float] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad --inject-faults field {part!r}; expected key=value")
            key, value = part.split("=", 1)
            key = key.strip().lower()
            if key not in ("seed", "crash", "timeout", "transient", "corrupt",
                           "fires", "hang"):
                raise ValueError(f"unknown --inject-faults key {key!r}")
            fields[key] = float(value)
        return cls.from_rates(
            int(fields.get("seed", 0)),
            crash=fields.get("crash", 0.0),
            timeout=fields.get("timeout", 0.0),
            transient=fields.get("transient", 0.0),
            corrupt=fields.get("corrupt", 0.0),
            fires=int(fields.get("fires", 1)),
            hang_s=fields.get("hang", 3600.0),
        )

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def _unit(self, index: int, salt: str) -> float:
        """Deterministic uniform in [0, 1) from (seed, index, salt)."""
        blob = f"{self.seed}:{index}:{salt}".encode()
        digest = hashlib.sha256(blob).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def kind_for(self, index: int) -> Optional[str]:
        """The fault kind injected at ``index`` (None = healthy item)."""
        for kind, fires in (("crash", self.crashes),
                            ("timeout", self.timeouts),
                            ("transient", self.transients)):
            if index in fires:
                return kind
        if self.rates is not None:
            u = self._unit(index, "kind")
            edge = 0.0
            for kind, rate in zip(_KINDS, self.rates):
                edge += rate
                if u < edge:
                    return kind
        return None

    def fires_for(self, index: int) -> int:
        """How many attempts the fault at ``index`` fires for."""
        for fires in (self.crashes, self.timeouts, self.transients):
            if index in fires:
                return fires[index]
        return self.fires

    def corrupts_item(self, index: int) -> bool:
        """Whether the artifact published by ``index`` gets corrupted."""
        if index in self.corrupts:
            return True
        if self.rates is not None and len(self.rates) > 3:
            return self._unit(index, "corrupt") < self.rates[3]
        return False

    def fire(self, index: int, attempt: int, *, in_worker: bool) -> None:
        """Inject the planned fault for ``(index, attempt)``, if any.

        Called by the executor immediately before the work function.
        ``in_worker`` distinguishes a pool child (where a crash may
        really ``os._exit``) from the serial path (where it raises
        :class:`InjectedCrash` so the experiment process survives).
        """
        kind = self.kind_for(index)
        if kind is None or attempt >= self.fires_for(index):
            return
        if kind == "crash":
            if in_worker:
                os._exit(13)
            raise InjectedCrash(
                f"injected crash at item {index} attempt {attempt}")
        if kind == "timeout":
            time.sleep(self.hang_s)
            raise InjectedFault(
                f"injected hang at item {index} outlived its sleep "
                f"({self.hang_s}s) without a timeout watchdog")
        raise InjectedFault(
            f"injected transient fault at item {index} attempt {attempt}")

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        for kind, fires in (("crash", self.crashes), ("timeout", self.timeouts),
                            ("transient", self.transients),
                            ("corrupt", self.corrupts)):
            if fires:
                parts.append(f"{kind}@{sorted(fires)}")
        if self.rates is not None and any(self.rates):
            parts.append("rates=" + "/".join(f"{r:g}" for r in self.rates))
        return "FaultPlan(" + ", ".join(parts) + ")"


def corrupt_cache_entry(path: Union[str, os.PathLike]) -> None:
    """Overwrite a cached artifact with garbage (a simulated torn write).

    The bytes are chosen so every reader fails: too short to be a valid
    npz/JSON payload, wrong magic.  :class:`~repro.utils.cache.DiskCache`
    must respond by discarding the entry and recomputing.
    """
    with open(path, "wb") as fh:
        fh.write(b"\x00CORRUPT\x00")
