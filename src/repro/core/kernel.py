"""Discrete-event simulation kernel.

Every component in a simulated node or network (processor core, timer
coprocessor, radio, sensors, wireless channel) shares one kernel and
schedules callbacks on its timeline.  Time is a float in seconds.

Heap entries are mutable lists ``[time, handle, callback, args]`` indexed
by handle in ``_live``: cancelling clears the callback slot in place and
drops the index entry, so :meth:`cancel` is O(1), idempotent, and safe on
handles that already fired -- nothing accumulates across long timer-heavy
runs.  Dead entries are skipped (and popped) lazily by :meth:`step` and
:meth:`next_time`.
"""

import heapq


class Kernel:
    """A minimal deterministic discrete-event scheduler."""

    def __init__(self):
        self._queue = []
        #: Next handle to hand out.  A plain integer (not an iterator) so
        #: a checkpoint can capture and restore the exact tie-break
        #: sequence: events at equal times run in handle order.
        self._next_handle = 0
        self._now = 0.0
        #: handle -> live heap entry; cancelled/fired handles are absent.
        self._live = {}
        #: Bumped on every schedule; burst loops use it to know when a
        #: cached :meth:`next_time` may have moved *earlier*.  (Cancels
        #: can only move it later, which a stale cache handles safely.)
        self._version = 0
        #: Set by :meth:`run`: the ``until`` horizon of the active run
        #: (None outside a run or for unbounded runs).
        self._horizon = None
        #: Cumulative callbacks executed over the kernel's lifetime.
        #: Host-side telemetry only (events/s heartbeats); not part of
        #: any checkpoint or digest.
        self.executed = 0
        #: True while inside an unbounded :meth:`run` (no ``max_events``):
        #: components may batch work between events.  ``step()`` called
        #: directly -- e.g. by a debugger -- keeps single-event semantics.
        self._burst_ok = False

    @property
    def now(self):
        """Current simulation time in seconds."""
        return self._now

    @property
    def horizon(self):
        """The ``until`` bound of the active :meth:`run`, or ``None``
        outside a run / for unbounded runs.  Lets periodic host-side
        callbacks (progress heartbeats) compute an ETA."""
        return self._horizon

    def schedule(self, delay, callback, *args):
        """Schedule ``callback(*args)`` to run *delay* seconds from now.

        Returns an opaque handle usable with :meth:`cancel`.  Events at
        equal times run in scheduling order (deterministic).
        """
        if delay < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay)
        handle = self._next_handle
        self._next_handle = handle + 1
        entry = [self._now + delay, handle, callback, args]
        self._live[handle] = entry
        heapq.heappush(self._queue, entry)
        self._version += 1
        return handle

    def schedule_at(self, time, callback, *args):
        """Schedule ``callback(*args)`` at an absolute *time*."""
        return self.schedule(time - self._now, callback, *args)

    def cancel(self, handle):
        """Cancel a previously scheduled callback.

        O(1); a no-op when the handle already fired or was already
        cancelled.
        """
        entry = self._live.pop(handle, None)
        if entry is not None:
            entry[2] = None

    @property
    def pending(self):
        """Number of scheduled (non-cancelled) events."""
        return len(self._live)

    def step(self):
        """Run the next event; returns False when the queue is empty."""
        queue = self._queue
        while queue:
            entry = heapq.heappop(queue)
            callback = entry[2]
            if callback is None:
                continue
            del self._live[entry[1]]
            self._now = entry[0]
            self.executed += 1
            callback(*entry[3])
            return True
        return False

    def run(self, until=None, max_events=None):
        """Run events until the queue drains, *until* seconds pass, or
        *max_events* callbacks have run.  Returns the number of callbacks
        executed.

        When the run ends with no runnable event at or before *until*
        (the queue drained, or the next event lies beyond the horizon),
        the clock advances to *until* so back-to-back bounded runs and
        timeline samplers see a consistent timeline.  A run cut short by
        *max_events* leaves the clock at the last event executed.
        """
        executed = 0
        saved = (self._horizon, self._burst_ok)
        self._horizon = until
        self._burst_ok = max_events is None
        try:
            while True:
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.next_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    break
                self.step()
                executed += 1
        finally:
            self._horizon, self._burst_ok = saved
        if until is not None and until > self._now:
            next_time = self.next_time()
            if next_time is None or next_time > until:
                self._now = until
        return executed

    def next_time(self):
        """Time of the next live event, or None when the queue is empty."""
        queue = self._queue
        while queue:
            entry = queue[0]
            if entry[2] is None:
                heapq.heappop(queue)
                continue
            return entry[0]
        return None

    # -- checkpoint support ----------------------------------------------------

    def live_entries(self):
        """The live heap entries as ``(time, handle, callback, args)``
        tuples in execution order (time, then handle).

        Cancelled entries are excluded -- they carry no future behavior.
        Used by :mod:`repro.sim.checkpoint` to serialize the heap.
        """
        entries = [(entry[0], entry[1], entry[2], entry[3])
                   for entry in self._live.values()]
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        return entries

    def restore_state(self, now, next_handle, entries):
        """Replace clock, handle counter, and heap with restored state.

        *entries* is an iterable of ``(time, handle, callback, args)``;
        handles must be unique and below *next_handle*.  Replaces any
        existing schedule wholesale.
        """
        self._now = now
        self._queue = []
        self._live = {}
        for time, handle, callback, args in entries:
            if handle >= next_handle:
                raise ValueError(
                    "restored handle %d is not below the restored "
                    "counter %d" % (handle, next_handle))
            if handle in self._live:
                raise ValueError("duplicate restored handle %d" % handle)
            entry = [time, handle, callback, tuple(args)]
            self._live[handle] = entry
            self._queue.append(entry)
        heapq.heapify(self._queue)
        self._next_handle = next_handle
        self._version += 1

    def advance(self, time):
        """Move the clock forward without running events.

        Used by batching components (the processor's instruction-burst
        loop) that account for intermediate work themselves; *time* must
        not exceed the next pending event's time.
        """
        if time < self._now:
            raise ValueError("cannot advance backwards (%r < %r)"
                             % (time, self._now))
        self._now = time
