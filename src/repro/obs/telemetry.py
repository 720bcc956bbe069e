"""Live streaming telemetry: the ``repro.obs.telemetry/1`` delta feed.

Everything the obs stack built so far -- trace bus, metrics registry,
timeline sampler, journey tracker, watchdog, flight recorder -- is
pull-at-end: you learn what happened when the run finishes.  The
:class:`TelemetryExporter` turns that stack into a *push* pipeline: a
periodic kernel callback batches what changed since the last flush into
small typed NDJSON records and hands them to a non-blocking transport
(:mod:`repro.obs.transports`) -- a file, stdout, or a localhost socket
that any number of ``snap-top`` dashboards can attach to mid-run.

Records (one JSON object per line; every record carries ``type``,
``seq``, and ``sim_s``):

``hello``
    Stream preamble: the schema string, the node names covered, and the
    flush cadence.  Re-sent (followed by a *full* ``metrics`` record)
    whenever a new socket consumer attaches, so delta decoding always
    starts from a known base.
``progress``
    Heartbeat: simulated/wall time, cumulative kernel events and
    instructions with their per-second rates over the last window, the
    run horizon with an ETA, and the stream's own delivery counters
    (records sent, transport drops, buffer drops, attached clients).
``metrics``
    The :meth:`~repro.obs.metrics.MetricsRegistry.diff` since the last
    flush (or the full snapshot when ``full`` is true).
``timeline``
    The :class:`~repro.obs.timeline.TimelineSampler` rows taken at this
    flush -- per-node cumulative energy, duty cycle, queue depth.
``journeys``
    Newly delivered packet journeys (summaries) plus live aggregate
    delivery/drop statistics.
``handlers``
    The hottest handlers by energy spent *in this window*.
``watchdog``
    Invariant checks run since the last flush.
``energy``
    Per-protocol-layer energy provenance from an armed
    :class:`~repro.obs.energy.EnergyLedger`: cumulative and
    this-window joules per layer, the hottest symbolicated source
    lines, and the ledger's reconciliation residual against the
    meters.  Only present when the observability context was built
    with ``energy=True``.
``events``
    Buffered drop-class trace-bus events (event-queue drops, radio
    drops) from this window, with an overflow count when the bounded
    buffer had to discard some.
``bye``
    End of stream: final counters.

The exporter is a pure observer: every read goes through the same
counter-free paths the timeline sampler and watchdog use, so an
exporter-armed run is bit-identical to a bare one (enforced by
``tests/test_telemetry.py`` on the fig5-blink and convergecast meter
digests).  It never blocks the kernel: transports drop-and-count under
backpressure, and the in-exporter event buffer is bounded the same way.

Versioning rules (``repro.obs.telemetry/1``):

* consumers MUST ignore record types they do not know;
* consumers MUST ignore unknown fields on known record types;
* additive changes (new record types, new fields) keep the schema
  string; anything that changes the meaning of an existing field bumps
  it to ``/2``.
"""

import json
import time
from collections import deque

from repro.obs.bus import KindFilter
from repro.obs.timeline import TimelineSampler
from repro.obs.transports import FileTransport, TelemetryTransport

#: The wire schema identifier carried in every ``hello`` record.
SCHEMA = "repro.obs.telemetry/1"

#: Default flush cadence in simulated seconds.
DEFAULT_INTERVAL = 0.05

#: Bounded buffer of drop-class bus events between flushes; overflow is
#: counted, never blocking.
EVENT_BUFFER_LIMIT = 256

#: Bus event kinds buffered into ``events`` records.
EVENT_KINDS = ("drop", "radio_drop")

#: Handlers listed in each ``handlers`` record, hottest first.
TOP_HANDLERS = 5

#: Recent records kept for crash-bundle tails.
TAIL_LIMIT = 64


class TelemetryExporter:
    """Batches obs-stack deltas into the NDJSON telemetry stream.

    *nodes* is any mapping whose values are
    :class:`~repro.node.node.SensorNode` instances (the mapping keys are
    ignored; records use each node's ``name``).  *transport* is a
    :class:`~repro.obs.transports.TelemetryTransport` (or a path string,
    shorthand for a :class:`FileTransport`).  *interval* is the flush
    cadence in simulated seconds.  *clock* is the wall-time source --
    injectable so the golden-stream test can pin it.

    Use :meth:`for_network` / :meth:`for_node` rather than the raw
    constructor; they wire the observability context for you.
    """

    def __init__(self, kernel, nodes, obs, transport,
                 interval=DEFAULT_INTERVAL, watchdog=None, clock=None,
                 on_progress=None):
        if interval <= 0:
            raise ValueError("telemetry interval must be positive")
        if isinstance(transport, str):
            transport = FileTransport(transport)
        if not isinstance(transport, TelemetryTransport):
            raise TypeError("transport must be a TelemetryTransport "
                            "(or a path string), not %r" % (transport,))
        self.kernel = kernel
        self.nodes = {node.name: node for node in nodes.values()}
        self.obs = obs
        self.transport = transport
        self.interval = interval
        self.watchdog = watchdog
        self.clock = clock if clock is not None else time.perf_counter
        self.on_progress = on_progress
        #: Recent records (dicts, newest last) for crash-bundle tails.
        self.tail = deque(maxlen=TAIL_LIMIT)
        #: Records discarded by the bounded in-exporter event buffer.
        self.buffer_dropped = 0
        self.seq = 0
        self.flushes = 0
        self.closed = False
        self._started = False
        self._handle = None
        self._horizon = None
        self._wall0 = None
        self._last_wall = None
        self._last_events = 0
        self._last_instructions = 0
        self._last_metrics = None
        self._last_handlers = {}
        self._last_layers = {}
        self._last_watchdog_checks = 0
        self._last_journey_stats = None
        self._emitted_journeys = set()
        self._event_buffer = []
        self._event_overflow = 0
        self._sampler = TimelineSampler(kernel, self.nodes, interval,
                                        obs=obs, retain=False)
        self._sink = KindFilter(EVENT_KINDS, self._buffer_event)
        if obs is not None:
            obs.bus.attach(self._sink)
            #: Let the blackbox find the stream tail for crash bundles.
            obs.telemetry = self

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_network(cls, net, transport, interval=DEFAULT_INTERVAL,
                    obs=None, journeys=True, **kwargs):
        """An exporter over every node of a
        :class:`~repro.network.simulator.NetworkSimulator`.

        Reuses the simulator's attached observability context when it
        has one (so one context feeds profiler, blackbox, and telemetry
        alike); otherwise creates and attaches a fresh
        ``Observability(journeys=journeys)``.
        """
        from repro.obs.context import Observability

        if obs is None:
            obs = net.obs
        if obs is None:
            obs = Observability(journeys=journeys)
        if net.obs is not obs:
            net.attach_observability(obs)
        return cls(net.kernel, net.nodes, obs, transport,
                   interval=interval, **kwargs)

    @classmethod
    def for_node(cls, node, transport, interval=DEFAULT_INTERVAL,
                 obs=None, **kwargs):
        """An exporter over a single :class:`SensorNode`."""
        from repro.obs.context import Observability

        if obs is None:
            obs = Observability()
            node.attach_observability(obs)
        return cls(node.kernel, {node.name: node}, obs, transport,
                   interval=interval, **kwargs)

    # -- lifecycle -------------------------------------------------------------

    def start(self, horizon=None):
        """Emit the stream preamble and arm the periodic flush.

        *horizon* (simulated seconds) feeds the progress ETA when known
        up front; while the kernel is inside a bounded ``run(until=)``
        its own horizon takes precedence.
        """
        if self._started:
            return self
        self._started = True
        self._horizon = horizon
        self._wall0 = self._last_wall = self.clock()
        self._emit(self._hello_record())
        self._emit({"type": "metrics", "full": True,
                    "values": self._metric_values(full=True)})
        self.transport.flush()
        self._handle = self.kernel.schedule_host(self.interval, self._tick)
        return self

    def _tick(self):
        self.flush()
        self._handle = self.kernel.schedule_host(self.interval, self._tick)

    def close(self):
        """Final flush, remaining journey summaries, and ``bye``."""
        if self.closed or not self._started:
            self.closed = True
            return
        self.flush()
        tracker = self.obs.journeys if self.obs is not None else None
        if tracker is not None:
            leftovers = [journey.summary() for journey in tracker.journeys
                         if journey.id not in self._emitted_journeys]
            if leftovers:
                for journey in leftovers:
                    self._emitted_journeys.add(journey["journey"])
                self._emit({"type": "journeys", "final": True,
                            "completed": leftovers,
                            "stats": self._journey_stats(tracker)})
        self._emit({"type": "bye",
                    "wall_s": self._wall(),
                    "flushes": self.flushes,
                    "records_sent": self.transport.sent,
                    "transport_dropped": self.transport.dropped,
                    "buffer_dropped": self.buffer_dropped})
        if self._handle is not None:
            self.kernel.cancel(self._handle)
            self._handle = None
        if self.obs is not None:
            try:
                self.obs.bus.detach(self._sink)
            except ValueError:
                pass
        self.transport.close()
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # -- flushing --------------------------------------------------------------

    def flush(self, full=False):
        """Emit one delta batch right now (normally driven by the
        periodic kernel callback)."""
        if self.closed:
            return
        if self.transport.poll():
            # A new consumer attached: restate the preamble and force a
            # full metrics snapshot so its delta decoding has a base.
            full = True
            self._emit(self._hello_record())
        self.flushes += 1
        rows = self._sampler.sample()
        if rows:
            self._emit({"type": "timeline", "rows": rows})
        values = self._metric_values(full=full)
        if values or full:
            self._emit({"type": "metrics", "full": full, "values": values})
        self._flush_journeys()
        self._flush_handlers()
        self._flush_energy()
        self._flush_watchdog()
        self._flush_events()
        progress = self._progress_record()
        self._emit(progress)
        if self.on_progress is not None:
            self.on_progress(progress)
        self.transport.flush()

    def _emit(self, record):
        record.setdefault("sim_s", self.kernel.now)
        record["seq"] = self.seq
        self.seq += 1
        self.tail.append(record)
        self.transport.send(json.dumps(record, separators=(",", ":"),
                                       default=str))

    def _hello_record(self):
        return {"type": "hello", "schema": SCHEMA,
                "nodes": sorted(self.nodes),
                "interval_s": self.interval}

    # -- record builders -------------------------------------------------------

    def _wall(self):
        return self.clock() - self._wall0 if self._wall0 is not None else 0.0

    def _metric_values(self, full=False):
        if self.obs is None:
            return {}
        registry = self.obs.metrics
        if full:
            values = registry.snapshot()
        else:
            values = registry.diff(self._last_metrics)
        self._last_metrics = registry.snapshot()
        return values

    def _progress_record(self):
        now = self.kernel.now
        wall = self._wall()
        wall_delta = wall - (self._last_wall - self._wall0) \
            if self._wall0 is not None else 0.0
        events = self.kernel.executed
        instructions = sum(node.meter.instructions
                           for node in self.nodes.values())
        events_s = instructions_s = 0.0
        if wall_delta > 0:
            events_s = (events - self._last_events) / wall_delta
            instructions_s = ((instructions - self._last_instructions)
                              / wall_delta)
        horizon = self.kernel.horizon
        if horizon is None:
            horizon = self._horizon
        eta = done = None
        if horizon is not None and horizon > 0:
            done = min(now / horizon, 1.0)
            remaining = max(horizon - now, 0.0)
            # ETA from the sim-time rate of the last window.
            sim_delta = now - getattr(self, "_last_sim", 0.0)
            if wall_delta > 0 and sim_delta > 0:
                eta = remaining * wall_delta / sim_delta
            elif remaining == 0.0:
                eta = 0.0
        self._last_wall = self._wall0 + wall if self._wall0 is not None \
            else None
        self._last_events = events
        self._last_instructions = instructions
        self._last_sim = now
        record = {
            "type": "progress",
            "sim_s": now,
            "wall_s": wall,
            "events": events,
            "events_s": events_s,
            "instructions": instructions,
            "instructions_s": instructions_s,
            "horizon_s": horizon,
            "eta_s": eta,
            "done": done,
            "records_sent": self.transport.sent,
            "transport_dropped": self.transport.dropped,
            "buffer_dropped": self.buffer_dropped,
            "clients": getattr(self.transport, "clients", None),
        }
        return record

    def _journey_stats(self, tracker):
        delivered = dropped = in_flight = 0
        reasons = {}
        latencies = []
        for journey in tracker.journeys:
            if journey.delivered:
                delivered += 1
                if journey.latency is not None:
                    latencies.append(journey.latency)
            elif journey.drop_reasons:
                dropped += 1
            else:
                in_flight += 1
            for reason in journey.drop_reasons:
                reasons[reason] = reasons.get(reason, 0) + 1
        stats = {"total": len(tracker.journeys), "delivered": delivered,
                 "dropped": dropped, "in_flight": in_flight,
                 "reasons": reasons}
        if latencies:
            ordered = sorted(latencies)
            stats["latency_p50_s"] = ordered[len(ordered) // 2]
            stats["latency_max_s"] = ordered[-1]
        return stats

    def _flush_journeys(self):
        tracker = self.obs.journeys if self.obs is not None else None
        if tracker is None:
            return
        completed = []
        for journey in tracker.journeys:
            if journey.delivered and journey.id not in self._emitted_journeys:
                self._emitted_journeys.add(journey.id)
                completed.append(journey.summary())
        stats = self._journey_stats(tracker)
        if not completed and stats == self._last_journey_stats:
            return
        self._last_journey_stats = stats
        self._emit({"type": "journeys", "completed": completed,
                    "stats": stats})

    def _flush_handlers(self):
        deltas = []
        for name, node in self.nodes.items():
            meter = node.processor.meter
            for tag, stats in meter.by_handler.items():
                key = (name, tag)
                last = self._last_handlers.get(key, (0, 0.0, 0))
                delta = (stats.instructions - last[0],
                         stats.energy - last[1],
                         stats.invocations - last[2])
                self._last_handlers[key] = (stats.instructions, stats.energy,
                                            stats.invocations)
                if delta[0] > 0 or delta[1] > 0:
                    deltas.append({"node": name, "handler": tag,
                                   "instructions": delta[0],
                                   "energy_j": delta[1],
                                   "invocations": delta[2]})
        if not deltas:
            return
        deltas.sort(key=lambda entry: (-entry["energy_j"], entry["node"],
                                       entry["handler"]))
        self._emit({"type": "handlers", "top": deltas[:TOP_HANDLERS]})

    def _flush_energy(self):
        ledger = getattr(self.obs, "energy", None) if self.obs is not None \
            else None
        if ledger is None:
            return
        view = ledger.line_view()
        layers = {}
        for frame in view["frames"]:
            layers[frame["layer"]] = layers.get(frame["layer"], 0.0) \
                + frame["energy_j"]
        deltas = {}
        for layer, total in layers.items():
            delta = total - self._last_layers.get(layer, 0.0)
            if delta != 0.0:
                deltas[layer] = delta
        if not deltas and self._last_layers:
            return
        self._last_layers = layers
        top_lines = [{"node": frame["node"], "layer": frame["layer"],
                      "name": ledger._frame_name(frame),
                      "energy_j": frame["energy_j"]}
                     for frame in view["frames"][:3]]
        self._emit({"type": "energy", "layers": layers, "deltas": deltas,
                    "total_j": view["total_j"],
                    "residual_j": view["residual_j"],
                    "residual_frac": view["residual_frac"],
                    "top_lines": top_lines})

    def _flush_watchdog(self):
        if self.watchdog is None:
            return
        checks = self.watchdog.checks_run
        delta = checks - self._last_watchdog_checks
        if delta == 0 and checks == 0:
            return
        self._last_watchdog_checks = checks
        self._emit({"type": "watchdog", "checks": delta,
                    "checks_total": checks, "armed": self.watchdog.armed,
                    "ok": True})

    def _buffer_event(self, event):
        if len(self._event_buffer) >= EVENT_BUFFER_LIMIT:
            self._event_overflow += 1
            self.buffer_dropped += 1
            return
        self._event_buffer.append(event.to_record())

    def _flush_events(self):
        if not self._event_buffer and not self._event_overflow:
            return
        record = {"type": "events", "events": self._event_buffer}
        if self._event_overflow:
            record["overflow"] = self._event_overflow
        self._event_buffer = []
        self._event_overflow = 0
        self._emit(record)

    # -- crash-bundle support --------------------------------------------------

    def tail_snapshot(self):
        """The recent record tail plus stream counters, embedded in
        crash bundles by the :class:`~repro.obs.blackbox.Blackbox`."""
        return {"schema": SCHEMA,
                "records": list(self.tail),
                "records_sent": self.transport.sent,
                "transport_dropped": self.transport.dropped,
                "buffer_dropped": self.buffer_dropped}


# -- the consumer-side model ---------------------------------------------------

def _metric_num(value, default=0):
    return value if isinstance(value, (int, float)) else default


class TelemetryView:
    """Replays a ``repro.obs.telemetry/1`` stream into current state.

    Everything ``snap-top`` shows comes from this model, and the model
    is fed *only* by stream records -- no simulator access -- so the
    same dashboard renders a live socket, a recorded NDJSON file, or a
    pipe identically.  Unknown record types and fields are ignored, per
    the schema's versioning rules; malformed lines are counted, and seq
    gaps (records the transport had to drop) are surfaced as ``lost``.
    """

    def __init__(self):
        self.schema = None
        self.node_names = []
        self.interval_s = None
        self.nodes = {}            # node name -> latest timeline row
        self.power = {}            # node name -> watts over last window
        self.metrics = {}
        self.progress = None
        self.watchdog = None
        self.handlers = []
        self.energy = None
        self.journey_stats = None
        self.recent_journeys = deque(maxlen=6)
        self.recent_events = deque(maxlen=6)
        self.event_overflow = 0
        self.bye = None
        self.records = 0
        self.malformed = 0
        self.lost = 0
        self._last_seq = None
        self._prev_rows = {}

    @property
    def ready(self):
        """True once at least one full batch (ending in a progress
        heartbeat) has been applied."""
        return self.progress is not None

    # -- feeding ---------------------------------------------------------------

    def apply_line(self, line):
        """Apply one NDJSON line; returns the parsed record or ``None``
        for blank/malformed input."""
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except ValueError:
            self.malformed += 1
            return None
        if not isinstance(record, dict):
            self.malformed += 1
            return None
        self.apply(record)
        return record

    def apply(self, record):
        self.records += 1
        seq = record.get("seq")
        if isinstance(seq, int):
            if self._last_seq is not None and seq > self._last_seq + 1:
                self.lost += seq - self._last_seq - 1
            if self._last_seq is None or seq > self._last_seq:
                self._last_seq = seq
        handler = getattr(self, "_apply_" + str(record.get("type")), None)
        if handler is not None:
            handler(record)

    def _apply_hello(self, record):
        self.schema = record.get("schema")
        self.node_names = list(record.get("nodes") or ())
        self.interval_s = record.get("interval_s")

    def _apply_metrics(self, record):
        values = record.get("values") or {}
        if record.get("full"):
            self.metrics = dict(values)
        else:
            self.metrics.update(values)

    def _apply_timeline(self, record):
        for row in record.get("rows") or ():
            node = row.get("node")
            if node is None:
                continue
            prev = self.nodes.get(node)
            if prev is not None:
                dt = row.get("time_s", 0) - prev.get("time_s", 0)
                if dt > 0:
                    self.power[node] = ((row.get("energy_j", 0.0)
                                         - prev.get("energy_j", 0.0)) / dt)
            self.nodes[node] = row

    def _apply_journeys(self, record):
        stats = record.get("stats")
        if stats is not None:
            self.journey_stats = stats
        for summary in record.get("completed") or ():
            self.recent_journeys.append(summary)

    def _apply_handlers(self, record):
        self.handlers = list(record.get("top") or ())

    def _apply_energy(self, record):
        self.energy = record

    def _apply_watchdog(self, record):
        self.watchdog = record

    def _apply_progress(self, record):
        self.progress = record

    def _apply_events(self, record):
        for event in record.get("events") or ():
            self.recent_events.append(event)
        self.event_overflow += record.get("overflow") or 0

    def _apply_bye(self, record):
        self.bye = record

    # -- rendering -------------------------------------------------------------

    def render(self, width=100):
        """The dashboard frame as plain text (no cursor control)."""
        lines = [self._header_line(), self._stream_line()]
        watchdog = self._watchdog_line()
        if watchdog:
            lines.append(watchdog)
        lines.append("")
        lines.extend(self._node_table())
        packets = self._packet_lines()
        if packets:
            lines.append("")
            lines.extend(packets)
        handlers = self._handler_lines()
        if handlers:
            lines.append("")
            lines.extend(handlers)
        energy = self._energy_lines()
        if energy:
            lines.append("")
            lines.extend(energy)
        events = self._event_lines()
        if events:
            lines.append("")
            lines.extend(events)
        if self.bye is not None:
            lines.append("")
            lines.append("stream ended: %d records, %d dropped"
                         % (self.bye.get("records_sent", 0),
                            (self.bye.get("transport_dropped", 0)
                             + self.bye.get("buffer_dropped", 0))))
        return "\n".join(line[:width] for line in lines)

    def _header_line(self):
        progress = self.progress or {}
        sim = progress.get("sim_s")
        parts = ["snap-top", self.schema or "(no stream)"]
        if sim is not None:
            horizon = progress.get("horizon_s")
            if horizon:
                done = progress.get("done")
                parts.append("sim %.3fs/%.3fs%s"
                             % (sim, horizon,
                                " (%d%%)" % round(done * 100)
                                if done is not None else ""))
            else:
                parts.append("sim %.3fs" % sim)
            wall = progress.get("wall_s")
            if wall is not None:
                parts.append("wall %.1fs" % wall)
            eta = progress.get("eta_s")
            if eta is not None:
                parts.append("eta %.1fs" % eta)
        return " · ".join(parts)

    def _stream_line(self):
        progress = self.progress or {}
        parts = []
        if progress:
            parts.append("%s events/s" % _si(progress.get("events_s") or 0))
            parts.append("%s ins/s"
                         % _si(progress.get("instructions_s") or 0))
        dropped = ((progress.get("transport_dropped") or 0)
                   + (progress.get("buffer_dropped") or 0))
        parts.append("stream: %d recs" % self.records)
        parts.append("%d dropped" % dropped)
        parts.append("%d lost" % self.lost)
        if self.malformed:
            parts.append("%d malformed" % self.malformed)
        clients = progress.get("clients")
        if clients is not None:
            parts.append("%d client%s" % (clients,
                                          "" if clients == 1 else "s"))
        return " · ".join(parts)

    def _watchdog_line(self):
        if self.watchdog is None:
            return None
        status = "OK" if self.watchdog.get("ok") else "VIOLATED"
        return "watchdog: %s · %d checks%s" % (
            status, self.watchdog.get("checks_total", 0),
            "" if self.watchdog.get("armed") else " (disarmed)")

    def _node_table(self):
        header = ("node", "energy", "power", "duty tx", "duty rx",
                  "queue", "mode", "instructions", "tx", "rx", "drop")
        rows = [header]
        for node in sorted(self.nodes):
            row = self.nodes[node]
            rows.append((
                str(node),
                _si(row.get("energy_j", 0.0)) + "J",
                _si(self.power.get(node, 0.0)) + "W",
                "%.1f%%" % (100.0 * row.get("duty_tx", 0.0)),
                "%.1f%%" % (100.0 * row.get("duty_rx", 0.0)),
                str(row.get("queue_depth", 0)),
                str(row.get("radio_mode", "?")),
                str(row.get("instructions", 0)),
                str(_metric_num(self.metrics.get(
                    "%s.radio.tx_words" % node, 0))),
                str(_metric_num(self.metrics.get(
                    "%s.radio.rx_words" % node, 0))),
                str(_metric_num(self.metrics.get(
                    "%s.radio.dropped_words" % node, 0))),
            ))
        if len(rows) == 1:
            return ["(no timeline samples yet)"]
        widths = [max(len(row[i]) for row in rows)
                  for i in range(len(header))]
        return ["  ".join(cell.ljust(width)
                          for cell, width in zip(row, widths)).rstrip()
                for row in rows]

    def _packet_lines(self):
        stats = self.journey_stats
        if stats is None:
            return []
        reasons = stats.get("reasons") or {}
        reason_text = " (%s)" % ", ".join(
            "%s:%d" % (reason, count)
            for reason, count in sorted(reasons.items())) if reasons else ""
        line = ("packets: %d journeys · %d delivered · %d dropped%s · "
                "%d in flight"
                % (stats.get("total", 0), stats.get("delivered", 0),
                   stats.get("dropped", 0), reason_text,
                   stats.get("in_flight", 0)))
        p50 = stats.get("latency_p50_s")
        if p50 is not None:
            line += " · p50 %.1fms" % (p50 * 1e3)
        lines = [line]
        for summary in list(self.recent_journeys)[-3:]:
            lines.append("  #%s %s %s→%s %s %s hops %sJ" % (
                summary.get("journey"), summary.get("kind"),
                summary.get("origin"), summary.get("destination"),
                "delivered" if summary.get("delivered")
                else ("dropped" if summary.get("drop_reasons")
                      else "in flight"),
                summary.get("hops"), _si(summary.get("energy_j") or 0.0)))
        return lines

    def _handler_lines(self):
        if not self.handlers:
            return []
        lines = ["hottest handlers (energy this window):"]
        for entry in self.handlers:
            lines.append("  %-12s %-14s %6sJ  %6d ins  %d calls" % (
                entry.get("node"), entry.get("handler"),
                _si(entry.get("energy_j") or 0.0),
                entry.get("instructions", 0),
                entry.get("invocations", 0)))
        return lines

    def _energy_lines(self):
        record = self.energy
        if record is None:
            return []
        layers = record.get("layers") or {}
        deltas = record.get("deltas") or {}
        parts = []
        for layer, total in sorted(layers.items(), key=lambda kv: -kv[1]):
            if total <= 0:
                continue
            delta = deltas.get(layer)
            text = "%s %sJ" % (layer, _si(total))
            if delta:
                text += " (+%sJ)" % _si(delta)
            parts.append(text)
        lines = ["energy by layer: " + (" · ".join(parts) or "(none)")]
        residual = record.get("residual_frac")
        if residual is not None:
            lines[0] += " · residual %.3g%%" % (residual * 100.0)
        for entry in record.get("top_lines") or ():
            lines.append("  %-10s %-12s %-32s %6sJ" % (
                entry.get("node"), entry.get("layer"),
                entry.get("name"), _si(entry.get("energy_j") or 0.0)))
        return lines

    def _event_lines(self):
        if not self.recent_events and not self.event_overflow:
            return []
        lines = ["recent drops:"]
        for event in list(self.recent_events)[-4:]:
            lines.append("  %.6fs %s %s %s" % (
                event.get("time", 0.0), event.get("node", "?"),
                event.get("type", "?"), event.get("reason",
                                                  event.get("event", ""))))
        if self.event_overflow:
            lines.append("  (+%d buffered drop events discarded)"
                         % self.event_overflow)
        return lines


def _si(value):
    """Engineering-notation formatting: 1234.5 -> '1.23k'."""
    if value is None:
        return "?"
    magnitude = abs(value)
    for threshold, divisor, suffix in (
            (1e9, 1e9, "G"), (1e6, 1e6, "M"), (1e3, 1e3, "k")):
        if magnitude >= threshold:
            return "%.2f%s" % (value / divisor, suffix)
    if magnitude >= 1 or magnitude == 0:
        return "%.2f " % value
    for threshold, divisor, suffix in (
            (1e-3, 1e-3, "m"), (1e-6, 1e-6, "u"), (1e-9, 1e-9, "n")):
        if magnitude >= threshold:
            return "%.2f%s" % (value / divisor, suffix)
    return "%.2fp" % (value / 1e-12)


def read_stream(path):
    """Load a recorded NDJSON telemetry stream into (view, records)."""
    view = TelemetryView()
    records = []
    with open(path) as handle:
        for line in handle:
            record = view.apply_line(line)
            if record is not None:
                records.append(record)
    return view, records
