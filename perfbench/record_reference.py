"""Record the table1 reference the benchmark checks against.

    python3 perfbench/record_reference.py

Runs the benchmark profile's table1 cold, serially, for every context
seed and writes ``reference.json`` beside this file.  Run it only on
the commit whose outputs define "correct"; the file records that
commit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    from repro.experiments.registry import clear_contexts, run_experiment
    from repro.utils.cache import DiskCache

    import workloads

    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    reference = {"commit": commit}
    for seed in range(workloads.CONTEXT_SEEDS):
        clear_contexts()
        with tempfile.TemporaryDirectory(dir=ROOT) as store:
            report = run_experiment("table1", workloads.BENCH_PROFILE,
                                    cache=DiskCache(store), seed=seed, jobs=1)
        reference[str(seed)] = {
            row: {k: cell[k] for k in ("kappa", "asr", "l1", "l2")}
            for row, cell in report.data.items()}
        print(f"seed {seed}: " + ", ".join(
            f"{row}={cell['asr']:.3f}" for row, cell in report.data.items()))
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
