#!/usr/bin/env python
"""CI smoke test for the serving stack (thin wrapper).

Boots the HTTP inference server on an ephemeral port around two tiny
in-memory MagNets, fires concurrent /predict requests, and asserts
/healthz, /models and /stats; ``--workers N`` runs the batches in N
worker processes (default 0: in-process).  The logic lives in
:mod:`repro.serving.smoke` so it is importable and exposed as the
``repro-smoke-serving`` console script; this wrapper keeps the
conventional ``scripts/`` entry point.

Usage:  PYTHONPATH=src python scripts/smoke_serving.py [--requests N]
        [--workers N]
"""

import sys

from repro.serving.smoke import main

if __name__ == "__main__":
    sys.exit(main())
