"""Summary statistics and operation accounting for the benchmark.

Pure python on purpose: the harness imports this module before it
knows whether the program under test is importable, and the tests
exercise it without numpy.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from typing import Dict, List, Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, one outlier decides the value.
MIN_TAIL_SAMPLES = 10


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(values, n=4)``.

    A single value is its own quartiles.  ``iqr_frac`` is the
    inter-quartile distance as a share of the median: the spread a
    comparison between two sets of runs is judged against.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no values")
    if len(vals) == 1:
        q1 = med = q3 = vals[0]
    else:
        q1, med, q3 = statistics.quantiles(vals, n=4)
    frac = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": frac,
            "n": len(vals)}


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    vals = sorted(float(v) for v in values)
    if not vals:
        raise ValueError("no values")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    rank = (len(vals) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (rank - lo)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` distinct samples lie above the ``pct`` percentile.

    The interpolated percentile sits at rank ``(n - 1) * pct / 100``;
    every sample ranked above its floor is beyond it.
    """
    return n - 1 - math.floor((n - 1) * pct / 100.0) if n else 0


def tail_percentile(values: Sequence[float], pct: float
                    ) -> Optional[float]:
    """``percentile(values, pct)``, or None with too few samples beyond it."""
    if samples_beyond(len(values), pct) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, pct)


@dataclasses.dataclass
class Tally:
    """Operations of one workload phase: attempted = succeeded + refused + failed.

    ``refused`` counts operations the program declined (admission
    control); ``failed`` counts operations that ran and were wrong or
    raised.  Both miss any latency limit, so :attr:`not_ok` sums them.
    """

    attempted: int = 0
    succeeded: int = 0
    refused: int = 0
    failed: int = 0
    reasons: List[str] = dataclasses.field(default_factory=list)

    def ok(self) -> None:
        self.attempted += 1
        self.succeeded += 1

    def refuse(self, reason: str) -> None:
        self.attempted += 1
        self.refused += 1
        self._note(reason)

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self._note(reason)

    def check(self, passed: bool, reason: str) -> bool:
        """Count one checked operation; ``reason`` is kept when it fails."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    def _note(self, reason: str) -> None:
        if len(self.reasons) < 20:          # keep the report readable
            self.reasons.append(reason)

    @property
    def not_ok(self) -> int:
        return self.refused + self.failed

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.succeeded += other.succeeded
        self.refused += other.refused
        self.failed += other.failed
        for reason in other.reasons:
            self._note(reason)

    def as_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Dict) -> "Tally":
        return cls(**d)
