"""The repository benchmark: end-to-end simulator speed, set-up time and
memory on five workloads, plus an outside-in per-layer host-time ledger.

Run ``python -m perf --help`` from the repository root; see
``perf/README.md`` for the workloads, metrics and bounds.
"""

import os

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
#: The repository checkout this benchmark measures.
ROOT = os.path.dirname(PERF_DIR)
#: Chrome traces and, by default, ``BENCH_PERF.json`` (not committed).
OUT_DIR = os.path.join(PERF_DIR, "out")
