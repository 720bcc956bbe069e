"""Re-exports of the straight-line program and the meter digest.

:data:`STRAIGHTLINE` lives in :mod:`repro.sim.differential` and
:func:`meter_digest` in :mod:`repro.sim.checkpoint`.  This module exists
only because the benchmark (``perf/workloads.py``) imports both names
from here, and ``perf/`` changes only together with its committed
baseline.  Import from the homes above in new code.
"""

from repro.sim.checkpoint import meter_digest
from repro.sim.differential import STRAIGHTLINE

__all__ = ["STRAIGHTLINE", "meter_digest"]
