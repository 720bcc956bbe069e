"""Causal energy provenance: every picojoule, attributed four ways.

The :class:`EnergyLedger` turns the per-instruction energy stream into
four reconciling views:

* **source lines** -- the cost table's per-(node, pc, handler, class)
  rows (:class:`~repro.obs.profiler.Profiler`, armed alongside the
  ledger as ``obs.profiler``) rolled up through ``Program.lookup`` line
  tables into call-free flame graphs (collapsed-stack and speedscope
  JSON export);
* **protocol layers** -- app / aggregation / reliable / AODV / MAC /
  radio / idle-sleep, the same rows rolled up through the netstack
  layout's handler->layer and function-prefix maps;
* **packet identity** -- each journey's true end-to-end cost including
  forwarding CPU, TX/RX air time, and overhearing on third-party nodes,
  by matching handler invocations to journey span time windows.  The
  invocation windows are the one thing the ledger accumulates itself,
  as a trace-bus sink;
* **node lifetime** -- linear and drain-curve battery projections over
  :class:`~repro.obs.timeline.TimelineSampler` rows.

Reconciliation contract: every view reports ``attributed_j``, the
ledger-wide ``total_j`` (sum of every registered meter's total energy
plus every registered radio's energy), and the ``residual_j`` between
them -- unattributed energy is surfaced, never silently dropped.
Because the cost table sums the identical per-instruction floats the
meter records (in the identical order, through the fast-path burst loop
too), its rows are bit-identical across engines and residuals stay at
float-rounding scale.
"""

import math

from repro.netstack.layout import LAYERS, function_layer, handler_layer

#: Pseudo-frames for the meter's non-instruction costs.
_WAKEUP = "[wakeup]"
_TOKEN = "[event-token]"
_IDLE = "[idle]"
_RADIO = "[radio]"


class _NodeRecord:
    """What the ledger knows about one registered core."""

    __slots__ = ("name", "processor", "meter", "radio")

    def __init__(self, name, processor, meter, radio=None):
        self.name = name
        self.processor = processor
        self.meter = meter
        self.radio = radio

    @property
    def program(self):
        return getattr(self.processor, "program", None)


class EnergyLedger:
    """Attributes energy to lines, layers, packets, and lifetimes,
    reconciling each view against the meters.

    The line and layer views roll up the owning context's cost table;
    as a trace-bus sink the ledger itself only keeps the handler
    invocation windows the packet view matches against journeys.
    """

    def __init__(self, max_invocations=200_000):
        #: cpu name -> list of ``[t0, t_end, handler, energy]`` handler
        #: invocations (``t_end is None`` while open).  Bounded by
        #: *max_invocations* per cpu; energy past the cap stays in the
        #: cost table's total and lands in the ``(non-packet)`` bucket.
        self.invocations = {}
        self.max_invocations = max_invocations
        #: cpu name -> :class:`_NodeRecord`.
        self._records = {}
        #: The owning :class:`Observability` (set by the context); its
        #: ``profiler`` is the cost table and its ``journeys`` feed the
        #: packet view.
        self.obs = None

    # -- registration ---------------------------------------------------------

    def register_node(self, node):
        """Register a :class:`~repro.node.node.SensorNode` (its cpu,
        meter, radio, and program feed every view)."""
        self._records[node.processor.name] = _NodeRecord(
            node.name, node.processor, node.processor.meter,
            radio=node.radio)

    def register_processor(self, processor):
        """Register a bare core (no radio) by its processor."""
        if processor.name not in self._records:
            self._records[processor.name] = _NodeRecord(
                processor.name, processor, processor.meter)

    # -- the sink interface ---------------------------------------------------

    def __call__(self, event):
        kind = event.kind
        if kind == "instruction":
            stack = self.invocations.get(event.node)
            if not stack or stack[-1][1] is not None:
                if stack is None:
                    stack = self.invocations[event.node] = []
                # Instructions before any dispatch run under the boot tag.
                if len(stack) >= self.max_invocations:
                    return
                stack.append([event.time, None, event.handler, 0.0])
            stack[-1][3] += event.energy
        elif kind == "dispatch":
            self._dispatch(event.node, event.time, event.handler)

    def _dispatch(self, cpu, time, handler):
        stack = self.invocations.get(cpu)
        if stack is None:
            stack = self.invocations[cpu] = []
        if stack and stack[-1][1] is None:
            stack[-1][1] = time
        if len(stack) >= self.max_invocations:
            return
        stack.append([time, None, handler, 0.0])

    # -- symbolication --------------------------------------------------------

    def _symbolicate(self, record, pc):
        """``(function, file, line)`` for one pc, best effort."""
        program = record.program if record is not None else None
        if program is None:
            return (None, None, None)
        loc = program.lookup(pc)
        return (loc.function, loc.file or None, loc.line)

    def _frames(self):
        """Roll the cost table up into (node, layer, handler, function,
        file, line) frames, plus meter/radio pseudo-frames."""
        frames = {}

        def add(node, layer, handler, function, file, line, energy, time=0.0,
                count=0):
            key = (node, layer, handler, function, file, line)
            frame = frames.get(key)
            if frame is None:
                frame = frames[key] = {
                    "node": node, "layer": layer, "handler": handler,
                    "function": function, "file": file, "line": line,
                    "energy_j": 0.0, "time_s": 0.0, "count": 0}
            frame["energy_j"] += energy
            frame["time_s"] += time
            frame["count"] += count

        def site(cpu, pc, handler, instr_class):
            record = self._records.get(cpu)
            function, file, line = self._symbolicate(record, pc)
            return (record.name if record is not None else cpu,
                    function_layer(function, handler), handler,
                    function or ("0x%04x" % pc), file, line)

        for frame, (count, energy, time, _) in \
                self.obs.profiler.rollup(site).items():
            add(*frame, energy, time, count)
        for record in self._records.values():
            meter = record.meter
            add(record.name, "idle-sleep", "-", _WAKEUP, None, None,
                meter.wakeup_energy)
            add(record.name, "idle-sleep", "-", _TOKEN, None, None,
                meter.event_token_energy)
            add(record.name, "idle-sleep", "-", _IDLE, None, None,
                meter.idle_energy)
            if record.radio is not None:
                add(record.name, "radio", "-", _RADIO, None, None,
                    record.radio.radio_energy())
        return [frames[key] for key in sorted(
            frames, key=lambda k: tuple("" if v is None else str(v)
                                        for v in k))]

    # -- reconciliation -------------------------------------------------------

    def total_energy(self):
        """Ground truth: every registered meter + radio, in joules."""
        total = 0.0
        for record in self._records.values():
            total += record.meter.total_energy
            if record.radio is not None:
                total += record.radio.radio_energy()
        return total

    def _reconcile(self, attributed):
        total = self.total_energy()
        residual = total - attributed
        return {
            "attributed_j": attributed,
            "total_j": total,
            "residual_j": residual,
            "residual_frac": abs(residual) / total if total else 0.0,
        }

    # -- the four views -------------------------------------------------------

    def line_view(self):
        """Per-source-line attribution (flame-graph frames) with
        explicit residual."""
        frames = self._frames()
        result = self._reconcile(sum(f["energy_j"] for f in frames))
        result["frames"] = sorted(frames, key=lambda f: -f["energy_j"])
        return result

    def layer_view(self):
        """Per-protocol-layer attribution with explicit residual."""
        layers = {layer: 0.0 for layer in LAYERS}
        for frame in self._frames():
            layers[frame["layer"]] = layers.get(frame["layer"], 0.0) \
                + frame["energy_j"]
        result = self._reconcile(sum(layers.values()))
        result["layers"] = layers
        return result

    def packet_view(self, journeys=None):
        """Per-packet end-to-end cost: radio air time plus the CPU
        invocations each journey caused, with everything unmatched
        reported as an explicit ``(non-packet)`` bucket."""
        tracker = journeys
        if tracker is None and self.obs is not None:
            tracker = self.obs.journeys
        journeys_list = tracker.journeys if tracker is not None else []
        rows, matched_cpu = self._match_journeys(journeys_list)

        instruction_total = self.obs.profiler.energy
        idle_sleep = 0.0
        radio_total = 0.0
        for record in self._records.values():
            meter = record.meter
            idle_sleep += (meter.wakeup_energy + meter.event_token_energy
                           + meter.idle_energy)
            if record.radio is not None:
                radio_total += record.radio.radio_energy()
        journey_radio = sum(row["radio_j"] for row in rows)
        non_packet = {
            "cpu_j": instruction_total - matched_cpu,
            "idle_sleep_j": idle_sleep,
            "radio_idle_j": radio_total - journey_radio,
        }
        attributed = (sum(row["total_j"] for row in rows)
                      + sum(non_packet.values()))
        result = self._reconcile(attributed)
        result["packets"] = rows
        result["non_packet"] = non_packet
        return result

    def _match_journeys(self, journeys):
        """Charge handler invocations to journey span windows.

        Returns ``(rows, matched_cpu_energy)``.  Matching is
        first-match-wins in time order; an invocation is charged at most
        once, and anything unmatched lands in the ``(non-packet)``
        bucket -- so reconciliation never depends on matching quality.
        """
        # Per node name: (time, deadline, kind, journey id) windows.
        windows = {}
        rows = []
        by_name = {record.name: record for record in self._records.values()}
        for journey in journeys:
            rows.append({
                "journey": journey.id,
                "kind": journey.kind,
                "origin": journey.origin,
                "destination": journey.destination,
                "seq": journey.seq,
                "delivered": journey.delivered,
                "hops": journey.hop_count,
                "radio_j": journey.energy,
                "cpu_j": 0.0,
            })
            for span in journey.spans:
                record = by_name.get(span.node)
                grace = 1e-3
                if record is not None and record.radio is not None:
                    grace = record.radio.config.word_duration + 1e-6
                if span.op in ("send", "forward"):
                    kind = "tx"
                elif span.op in ("receive", "overhear", "drop", "deliver"):
                    kind = "rx"
                else:
                    continue
                windows.setdefault(span.node, []).append(
                    (span.time, span.time + span.duration + grace, kind,
                     journey.id))
        row_by_id = {row["journey"]: row for row in rows}
        matched = 0.0
        for cpu, stack in self.invocations.items():
            record = self._records.get(cpu)
            name = record.name if record is not None else cpu
            node_windows = sorted(windows.get(name, ()))
            if not node_windows:
                continue
            for t0, t_end, handler, energy in stack:
                if energy == 0.0:
                    continue
                end = t_end if t_end is not None else math.inf
                journey_id = None
                if handler in ("RADIO_RX", "RADIO_TX_DONE"):
                    want = "rx" if handler == "RADIO_RX" else "tx"
                    # The dispatch lands inside (or a word after) the
                    # span's air window on this node.
                    for start, deadline, kind, jid in node_windows:
                        if kind == want and start <= t0 <= deadline:
                            journey_id = jid
                            break
                else:
                    # A timer/soft/boot handler that staged a transmit:
                    # the send span opens while the invocation runs.
                    for start, deadline, kind, jid in node_windows:
                        if kind == "tx" and t0 <= start <= end:
                            journey_id = jid
                            break
                if journey_id is not None:
                    row = row_by_id.get(journey_id)
                    if row is not None:
                        row["cpu_j"] += energy
                        matched += energy
        for row in rows:
            row["total_j"] = row["radio_j"] + row["cpu_j"]
        return rows, matched

    # -- flame-graph export ---------------------------------------------------

    def _frame_name(self, frame):
        name = frame["function"]
        if frame["file"] and frame["line"] is not None:
            name = "%s %s:%d" % (name, frame["file"], frame["line"])
        return name

    def collapsed_stack(self):
        """Brendan Gregg collapsed-stack lines:
        ``node;layer;handler;function file:line <weight_pJ>``."""
        lines = []
        for frame in self._frames():
            weight = int(round(frame["energy_j"] * 1e12))
            if weight <= 0:
                continue
            stack = ";".join((frame["node"], frame["layer"],
                              frame["handler"], self._frame_name(frame)))
            lines.append("%s %d" % (stack, weight))
        return "\n".join(lines) + "\n" if lines else ""

    def speedscope(self, name="snap-energy"):
        """A speedscope ``sampled`` profile document (weights in pJ)."""
        frames = []
        frame_index = {}

        def intern(label, file=None, line=None):
            key = (label, file, line)
            index = frame_index.get(key)
            if index is None:
                index = frame_index[key] = len(frames)
                entry = {"name": label}
                if file:
                    entry["file"] = file
                if line is not None:
                    entry["line"] = line
                frames.append(entry)
            return index

        profiles = {}
        for frame in self._frames():
            weight = frame["energy_j"] * 1e12
            if weight <= 0:
                continue
            stack = [
                intern(frame["node"]),
                intern(frame["layer"]),
                intern(frame["handler"]),
                intern(self._frame_name(frame), frame["file"], frame["line"]),
            ]
            profile = profiles.setdefault(frame["node"], {
                "type": "sampled", "name": frame["node"], "unit": "none",
                "startValue": 0, "endValue": 0, "samples": [], "weights": []})
            profile["samples"].append(stack)
            profile["weights"].append(weight)
            profile["endValue"] += weight
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": "%s (weights in pJ)" % name,
            "activeProfileIndex": 0,
            "exporter": "repro.obs.energy",
            "shared": {"frames": frames},
            "profiles": [profiles[node] for node in sorted(profiles)],
        }

    # -- reporting ------------------------------------------------------------

    def report(self, top=10):
        """A human-readable four-view summary."""
        lines = []
        line_view = self.line_view()
        lines.append("energy provenance: %.3f nJ total, residual %.3g nJ "
                     "(%.4f%%)" % (line_view["total_j"] * 1e9,
                                   line_view["residual_j"] * 1e9,
                                   line_view["residual_frac"] * 100))
        lines.append("-- hottest lines --")
        for frame in line_view["frames"][:top]:
            lines.append("  %-28s %-12s %10.3f nJ"
                         % (self._frame_name(frame), frame["layer"],
                            frame["energy_j"] * 1e9))
        layer_view = self.layer_view()
        lines.append("-- layers --")
        for layer in LAYERS:
            energy = layer_view["layers"].get(layer, 0.0)
            if energy:
                lines.append("  %-12s %10.3f nJ" % (layer, energy * 1e9))
        packet_view = self.packet_view()
        if packet_view["packets"]:
            lines.append("-- packets --")
            for row in packet_view["packets"][:top]:
                lines.append(
                    "  #%-3d %-12s %s->%s %d hops %10.3f nJ "
                    "(radio %.3f + cpu %.3f)"
                    % (row["journey"], row["kind"], row["origin"],
                       row["destination"], row["hops"],
                       row["total_j"] * 1e9, row["radio_j"] * 1e9,
                       row["cpu_j"] * 1e9))
            non_packet = packet_view["non_packet"]
            lines.append("  (non-packet) cpu %.3f nJ, idle-sleep %.3f nJ, "
                         "radio idle %.3f nJ"
                         % (non_packet["cpu_j"] * 1e9,
                            non_packet["idle_sleep_j"] * 1e9,
                            non_packet["radio_idle_j"] * 1e9))
        return "\n".join(lines)


# -- meter-side layer split (no observability required) ------------------------

def layer_split_from_meter(meter, radio_energy=0.0):
    """A layer -> joules split straight from an :class:`EnergyMeter`.

    Coarser than the ledger (handler tags only, no function-prefix
    refinement) but needs no trace bus -- the sweep engine uses it to
    put per-layer energy on every cell.  Sums exactly to
    ``meter.total_energy + radio_energy``.
    """
    split = {layer: 0.0 for layer in LAYERS}
    non_instruction = (meter.wakeup_energy + meter.event_token_energy
                       + meter.idle_energy)
    attributed = 0.0
    for tag, stats in meter.by_handler.items():
        split[handler_layer(tag)] += stats.energy
        attributed += stats.energy
    split["idle-sleep"] += non_instruction
    split["radio"] += radio_energy
    # Instructions retired outside any handler tag (none in practice,
    # but keep the split exactly reconciling regardless).
    split["app"] += (meter.total_energy - non_instruction) - attributed
    return split


# -- battery-lifetime projection -----------------------------------------------

def project_lifetime(rows, capacity_j, tail_fraction=0.5):
    """Time-to-depletion per node from timeline rows.

    *rows* are :class:`TimelineSampler` rows (cumulative ``energy_j``
    per node over ``time_s``); *capacity_j* is a battery capacity in
    joules, or a ``{node: joules}`` map.  Two extrapolations per node:

    * ``linear_s`` -- whole-run average power;
    * ``drain_s`` -- the slope of the trailing *tail_fraction* of the
      curve (tracks duty-cycle changes; the paper's DVS story).

    ``partition_s`` is the earliest projected depletion across nodes --
    the moment the network first loses a node.
    """
    by_node = {}
    for row in rows:
        by_node.setdefault(row["node"], []).append(
            (row["time_s"], row["energy_j"]))
    nodes = {}
    partition = math.inf
    first_death = None
    for node, points in by_node.items():
        points.sort()
        t_last, e_last = points[-1]
        capacity = capacity_j.get(node, 0.0) \
            if isinstance(capacity_j, dict) else capacity_j
        linear = math.inf
        if t_last > 0 and e_last > 0:
            linear = capacity * t_last / e_last
        drain = math.inf
        tail_start = max(0, int(len(points) * (1.0 - tail_fraction)) - 1)
        t0, e0 = points[tail_start]
        if t_last > t0 and e_last > e0:
            slope = (e_last - e0) / (t_last - t0)
            drain = t_last + (capacity - e_last) / slope
        estimate = drain if drain != math.inf else linear
        nodes[node] = {
            "capacity_j": capacity,
            "consumed_j": e_last,
            "elapsed_s": t_last,
            "mean_power_w": e_last / t_last if t_last > 0 else 0.0,
            "linear_s": linear,
            "drain_s": drain,
            "depletes_s": estimate,
        }
        if estimate < partition:
            partition = estimate
            first_death = node
    return {
        "nodes": nodes,
        "partition_s": partition,
        "first_death": first_death,
    }
