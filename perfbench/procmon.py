"""Peak memory and CPU of one repetition's own process tree.

Each repetition runs in a fresh process, so its tree is the process
itself plus the workers it starts (sweep pool, serving worker).  A
sampler thread records every descendant's ``VmHWM`` (its peak resident
set) while it lives; :meth:`TreeMonitor.stop` adds the process's own
peak.  Workers are joined before ``stop`` so CPU read from
``RUSAGE_CHILDREN`` covers exactly this tree.
"""

from __future__ import annotations

import os
import resource
import threading
from typing import Dict, List


def _read_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass                      # exited between listing and reading
    return 0


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children",
                      encoding="ascii") as fh:
                kids.extend(int(p) for p in fh.read().split())
        except (OSError, ValueError):
            continue
    return kids


def descendants(pid: int) -> List[int]:
    out, todo = [], _children(pid)
    while todo:
        child = todo.pop()
        out.append(child)
        todo.extend(_children(child))
    return out


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class TreeMonitor:
    """Samples descendants' peak RSS every ``interval_s`` until stopped."""

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self._peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-procmon", daemon=True)

    def start(self) -> "TreeMonitor":
        self._thread.start()
        return self

    def _sample(self) -> None:
        for pid in descendants(os.getpid()):
            kb = _read_hwm_kb(pid)
            if kb > self._peaks.get(pid, 0):
                self._peaks[pid] = kb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def stop(self) -> Dict[str, float]:
        """Stop sampling; return the tree's summed peak RSS in MB."""
        self._sample()
        self._stop.set()
        self._thread.join()
        own = _read_hwm_kb(os.getpid())
        return {"peak_rss_mb": (own + sum(self._peaks.values())) / 1024.0,
                "processes": 1 + len(self._peaks)}
