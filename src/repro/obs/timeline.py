"""The network energy-timeline sampler.

Network-lifetime claims need a *drain curve*, not a single end-of-run
total: which node is draining fastest, when the radio duty cycle
changes, whether the event queue is backing up.  The
:class:`TimelineSampler` periodically snapshots every node of a
:class:`~repro.network.simulator.NetworkSimulator` (or a single node)
into an aligned time-series -- one row per (tick, node) with cumulative
energies, the per-component breakdown, the radio's duty-cycle state,
and the event-queue depth.

The sampler only *reads* simulation state; its kernel callbacks mutate
nothing, so an instrumented run stays bit-identical to an
uninstrumented one.  Rows are kept in memory for
:meth:`drain_curve` / :meth:`to_csv`, and each row is also emitted on
the trace bus as a :class:`~repro.obs.events.TimelineSample` event when
an observability context is attached.
"""

import csv

#: Column order of a timeline row (and of the exported CSV).
TIMELINE_FIELDS = (
    "time_s", "node", "energy_j", "cpu_energy_j", "cpu_instruction_j",
    "cpu_idle_j", "radio_energy_j", "radio_mode", "duty_tx", "duty_rx",
    "queue_depth", "instructions",
)


class TimelineSampler:
    """Samples per-node energy and activity on a fixed simulated period.

    *nodes* is a mapping of node id (or name) to
    :class:`~repro.node.node.SensorNode`; pass a
    :class:`~repro.network.simulator.NetworkSimulator` to
    :meth:`for_network` instead.  Call :meth:`start` after the nodes are
    created; sampling stops when :meth:`stop` is called or the kernel
    stops running.  Ticks are host work
    (:meth:`~repro.core.kernel.Kernel.schedule_host`), so a started
    sampler never keeps a drained simulation alive.
    """

    def __init__(self, kernel, nodes, interval, obs=None, retain=True):
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self.kernel = kernel
        self.nodes = nodes
        self.interval = interval
        self.obs = obs
        #: With ``retain=False`` rows are returned from :meth:`sample`
        #: (and emitted on the bus) but not accumulated in ``rows`` --
        #: the telemetry exporter samples on every flush of an
        #: arbitrarily long run and must not grow host memory with it.
        self.retain = retain
        self.rows = []
        self._handle = None
        #: Previous cumulative radio (tx_time, rx_time) per node, for
        #: duty-cycle deltas.
        self._last_radio = {}

    @classmethod
    def for_network(cls, net, interval, obs=None, retain=True):
        """A sampler over every node of a :class:`NetworkSimulator`."""
        return cls(net.kernel, net.nodes, interval, obs=obs, retain=retain)

    # -- scheduling -----------------------------------------------------------

    def start(self, first_delay=None):
        """Take a first sample after *first_delay* (default: one
        interval), then keep sampling every interval."""
        self.stop()
        delay = self.interval if first_delay is None else first_delay
        self._handle = self.kernel.schedule_host(delay, self._tick)
        return self

    def stop(self):
        if self._handle is not None:
            self.kernel.cancel(self._handle)

    def _tick(self):
        self.sample()
        self._handle = self.kernel.schedule_host(self.interval, self._tick)

    # -- sampling -------------------------------------------------------------

    def sample(self):
        """Take one aligned snapshot of every node right now.

        Returns the list of rows produced by this call (one per node);
        with :attr:`retain` set they are also appended to :attr:`rows`.
        """
        now = self.kernel.now
        new_rows = [self._row(now, node_id, node)
                    for node_id, node in self.nodes.items()]
        if self.retain:
            self.rows.extend(new_rows)
        return new_rows

    def _row(self, now, node_id, node):
        meter = node.meter
        radio = node.radio
        cpu_energy = meter.total_energy
        instruction_energy = (cpu_energy - meter.wakeup_energy
                              - meter.event_token_energy - meter.idle_energy)
        radio_energy = radio.radio_energy()
        tx_time, rx_time = radio.tx_time, radio.rx_time
        if radio.mode.value == "rx" and radio._rx_since is not None:
            rx_time += now - radio._rx_since
        last_tx, last_rx, last_t = self._last_radio.get(node_id, (0.0, 0.0, 0.0))
        window = now - last_t
        duty_tx = (tx_time - last_tx) / window if window > 0 else 0.0
        duty_rx = (rx_time - last_rx) / window if window > 0 else 0.0
        self._last_radio[node_id] = (tx_time, rx_time, now)
        row = {
            "time_s": now,
            "node": node_id,
            "energy_j": cpu_energy + radio_energy,
            "cpu_energy_j": cpu_energy,
            "cpu_instruction_j": instruction_energy,
            "cpu_idle_j": meter.idle_energy,
            "radio_energy_j": radio_energy,
            "radio_mode": radio.mode.value,
            "duty_tx": duty_tx,
            "duty_rx": duty_rx,
            "queue_depth": len(node.processor.event_queue),
            "instructions": meter.instructions,
        }
        if self.obs is not None:
            self.obs.timeline_sample(
                node.name, now, energy=row["energy_j"],
                cpu_energy=cpu_energy, radio_energy=radio_energy,
                radio_mode=row["radio_mode"], duty_tx=duty_tx,
                duty_rx=duty_rx, queue_depth=row["queue_depth"],
                instructions=meter.instructions)
        return row

    # -- queries and export ---------------------------------------------------

    def drain_curve(self, node_id):
        """``(time_s, cumulative energy_j)`` points for one node."""
        return [(row["time_s"], row["energy_j"]) for row in self.rows
                if row["node"] == node_id]

    def node_ids(self):
        seen = []
        for row in self.rows:
            if row["node"] not in seen:
                seen.append(row["node"])
        return seen

    def to_csv(self, path_or_handle):
        """Write the aligned time-series as CSV (one row per tick+node)."""
        handle = path_or_handle
        close = False
        if isinstance(path_or_handle, str):
            handle = open(path_or_handle, "w", newline="")
            close = True
        try:
            writer = csv.DictWriter(handle, fieldnames=TIMELINE_FIELDS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        finally:
            if close:
                handle.close()
        return path_or_handle
