"""One repetition (rep) of one workload, run inside a fresh child process.

The run phase is host time spent inside the simulator's public run entry
points -- ``SnapProcessor.run``, ``Kernel.run`` and
``NetworkSimulator.run`` -- which :class:`RunClock` times by wrapping
them from outside.  The rest of the rep (assembly, node creation, boot
prologue, digest harvest) is set-up time.
"""

import functools
import gc
import resource
import time

from repro.core import SnapProcessor
from repro.core.kernel import Kernel
from repro.network.simulator import NetworkSimulator

from perf.workloads import WORKLOADS


class Patcher:
    """Replaces attributes and puts the saved ones back, newest first."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, name, replacement):
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, replacement)

    def restore(self):
        """Undo every patch; returns True when each attribute is the very
        object that was there before."""
        saved, self._saved = self._saved, []
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
        return all(vars(owner)[name] is original
                   for owner, name, original in saved)


class RunClock:
    """Times the outermost call into the simulator's run entry points.

    Nested entries (``NetworkSimulator.run`` calling ``Kernel.run``)
    count once.  Also sums the simulated seconds those calls advanced
    and keeps the last target, so a workload whose builder hides its
    simulator can still digest it.
    """

    ENTRY_POINTS = ((SnapProcessor, "run"), (Kernel, "run"),
                    (NetworkSimulator, "run"))

    def __init__(self):
        self.run_ns = 0
        self.sim_s = 0.0
        self.calls = 0
        self.last_target = None
        self.restored = None
        self._depth = 0
        self._patcher = Patcher()

    def __enter__(self):
        for owner, name in self.ENTRY_POINTS:
            self._patcher.patch(owner, name, self._timed(vars(owner)[name]))
        return self

    def __exit__(self, *exc):
        self.restored = self._patcher.restore()
        return False

    def _timed(self, run):
        clock = self

        @functools.wraps(run)
        def timed(target, *args, **kwargs):
            if clock._depth:
                return run(target, *args, **kwargs)
            kernel = getattr(target, "kernel", target)
            sim_start = kernel.now
            clock._depth = 1
            start = time.perf_counter_ns()
            try:
                return run(target, *args, **kwargs)
            finally:
                clock.run_ns += time.perf_counter_ns() - start
                clock._depth = 0
                clock.calls += 1
                clock.sim_s += kernel.now - sim_start
                clock.last_target = target

        return timed


def run_rep(workload, seed, quick=False, fast_path=True, trace=False):
    """Run one rep in this process; returns its JSON-ready record.

    With *trace*, the rep runs under :class:`perf.trace.Tracer` and the
    record carries the per-layer aggregates; traced reps never feed the
    end-to-end metrics.
    """
    fn = WORKLOADS[workload]
    tracer = None
    if trace:
        from perf.trace import Tracer
        tracer = Tracer(rep_id="%s/seed%d/traced" % (workload, seed))
    gc.collect()
    with RunClock() as clock:
        try:
            if tracer is not None:
                tracer.install()
            start = time.perf_counter_ns()
            outcome = fn(seed, quick, fast_path, clock)
            wall_ns = time.perf_counter_ns() - start
        finally:
            restored = tracer.remove() if tracer is not None else True
    record = {
        "workload": workload,
        "seed": seed,
        "quick": quick,
        "fast_path": fast_path,
        "traced": trace,
        "wall_s": wall_ns / 1e9,
        "run_s": clock.run_ns / 1e9,
        "setup_s": (wall_ns - clock.run_ns) / 1e9,
        "sim_s": clock.sim_s,
        "run_calls": clock.calls,
        "instructions": outcome.instructions,
        "digest": outcome.digest,
        "extra": outcome.extra,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "restored": restored and clock.restored,
    }
    if tracer is not None:
        record["trace"] = tracer.summary(wall_ns)
        record["trace_file"] = tracer.write_chrome(workload)
    return record
