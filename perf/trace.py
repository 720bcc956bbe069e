"""Outside-in per-layer host-time ledger for one traced rep.

:class:`Tracer` wraps public functions of each simulator layer from
outside the program, records a span per call (layer, name, start and
end in ns, parent span, rep id), and aggregates self time -- a span's
duration minus its child spans -- and call counts per layer for the
whole rep.  ``Kernel.schedule`` is wrapped too, so every kernel callback
becomes a span of the layer that owns it (``SnapProcessor._step`` is
``core.processor``, ``Radio._finish_word`` is ``radio.transceiver``).
A layer is the module that defines the function, without the ``repro.``
prefix; the ``asm``, ``netstack``, ``network`` and ``sensors`` packages
count as one layer each.

Only the first :data:`SPAN_CAP` spans are kept, and written as a Chrome
trace; the aggregates cover every span.  :meth:`Tracer.remove` puts
every wrapped attribute back.
"""

import functools
import gc
import inspect
import json
import os
import sys
import time

import repro.asm
import repro.asm.assembler
import repro.asm.linker
import repro.netstack.aggregation
import repro.netstack.apps
import repro.netstack.drivers
import repro.netstack.reliable
import repro.netstack.sampling
import repro.netstack.tinyos_ports
import repro.sensors.temperature
from repro.coprocessors.message import MessageCoprocessor
from repro.coprocessors.timer import TimerCoprocessor
from repro.core import SnapProcessor
from repro.core.kernel import Kernel
from repro.network.simulator import NetworkSimulator
from repro.obs.blackbox import Blackbox, FlightRecorder
from repro.obs.bus import JsonlSink, KindFilter, MemorySink, TraceBus
from repro.obs.context import Observability
from repro.obs.energy import EnergyLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.spans import JourneyTracker
from repro.obs.watchdog import Watchdog
from repro.radio.channel import Channel
from repro.radio.transceiver import Radio
from repro.sensors.sensor import Sensor

from perf import OUT_DIR
from perf.rep import Patcher

#: Spans kept for the Chrome trace (a prefix; aggregates cover all).
SPAN_CAP = 100_000

#: Packages that count as a single layer rather than one per module.
PACKAGE_LAYERS = ("asm", "netstack", "network", "sensors")

#: Classes whose methods become spans; ``None`` means every public
#: function the class itself defines.
CLASS_TARGETS = (
    (Kernel, ("run", "step")),
    (SnapProcessor, ("run", "load")),
    (MessageCoprocessor, None),
    (TimerCoprocessor, None),
    (Radio, None),
    (Channel, None),
    (NetworkSimulator, ("add_node", "start", "run")),
    (Observability, None),
    (TraceBus, ("emit",)),
    (MemorySink, ("__call__",)),
    (KindFilter, ("__call__",)),
    (JsonlSink, ("__call__",)),
    (MetricsRegistry, ("counter", "gauge", "histogram")),
    (Profiler, ("__call__",)),
    (EnergyLedger, ("__call__", "register_node", "register_processor")),
    (JourneyTracker, None),
    (FlightRecorder, ("register_processor", "record_instruction",
                      "record_event")),
    (Blackbox, ("observe",)),
    (Watchdog, None),
)

#: Set-up layers whose ``*_s`` metrics are inclusive time: the time in
#: each function called from outside its own layer, child spans included
#: (a netstack builder's time covers the assembly it triggers).
INCLUSIVE_LAYERS = ("asm", "netstack", "network")


def layer_of(module):
    """``repro.radio.channel`` -> ``radio.channel``; ``repro.asm.linker``
    -> ``asm``."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1:
        parts = parts[1:]
    if parts[0] in PACKAGE_LAYERS:
        return parts[0]
    return ".".join(parts[:2])


def _public_functions(cls, names):
    if names is None:
        names = [name for name, value in vars(cls).items()
                 if not name.startswith("_") and inspect.isfunction(value)]
    return names


def _sensor_classes():
    pending, seen = [Sensor], []
    while pending:
        cls = pending.pop()
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return [cls for cls in seen if "read" in vars(cls)]


def _module_functions():
    """(layer, function) for asm entry points and netstack builders."""
    functions = [repro.asm.build, repro.asm.assembler.assemble,
                 repro.asm.linker.link]
    for name, module in sorted(sys.modules.items()):
        if name.startswith("repro.netstack.") and module is not None:
            functions.extend(
                value for attr, value in vars(module).items()
                if attr.startswith("build_") and inspect.isfunction(value)
                and value.__module__ == name)
    return [(layer_of(fn.__module__), fn) for fn in dict.fromkeys(functions)]


class Tracer:
    """Per-layer spans and self-time aggregates for one traced rep."""

    def __init__(self, rep_id):
        self.rep_id = rep_id
        #: (layer, name) -> [calls, self_ns]
        self.stats = {}
        #: (layer, name) -> ns inside calls not nested in the same layer
        self.inclusive_ns = {}
        self._depth = {}
        #: Recorded spans: (id, parent id, layer, name, start, end).
        self.spans = []
        self.span_count = 0
        #: Frames of open spans: [child ns, span id]; the root is id 0.
        self._stack = [[0, 0]]
        self._owners = {}
        self.gc_pause_ns = 0
        self.gc_collections = 0
        self._gc_start = None
        self._origin_ns = None
        self._patcher = Patcher()

    # -- installation --------------------------------------------------------

    def install(self):
        patch = self._patcher.patch
        for cls, names in CLASS_TARGETS:
            layer = layer_of(cls.__module__)
            for name in _public_functions(cls, names):
                patch(cls, name, self._wrapper(
                    layer, "%s.%s" % (cls.__name__, name), vars(cls)[name]))
        for cls in _sensor_classes():
            patch(cls, "read", self._wrapper(
                "sensors", "%s.read" % cls.__name__, vars(cls)["read"]))
        patch(Kernel, "schedule", self._wrapper(
            "core.kernel", "Kernel.schedule",
            self._scheduling(vars(Kernel)["schedule"])))
        modules = [module for name, module in sorted(sys.modules.items())
                   if module is not None
                   and name.split(".")[0] in ("repro", "perf")]
        for layer, fn in _module_functions():
            wrapped = self._wrapper(layer, fn.__qualname__, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        patch(module, attr, wrapped)
        gc.callbacks.append(self._on_gc)
        self._origin_ns = time.perf_counter_ns()

    def remove(self):
        """Unwrap everything; True when each attribute is the original."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        return self._patcher.restore()

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start is not None:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- spans ---------------------------------------------------------------

    def _stats_for(self, layer, name):
        stats = self.stats.get((layer, name))
        if stats is None:
            stats = self.stats[(layer, name)] = [0, 0]
        return stats

    def _wrapper(self, layer, name, fn):
        if layer in INCLUSIVE_LAYERS:
            span = self._outer_span(layer, name, fn)
        else:
            span = self._span(layer, name, fn)
        return functools.wraps(fn)(span)

    def _span(self, layer, name, fn):
        stats = self._stats_for(layer, name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            span_id = tracer.span_count + 1
            tracer.span_count = span_id
            frame = [0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed - frame[0]
                parent = stack[-1]
                parent[0] += elapsed
                if span_id <= SPAN_CAP:
                    spans.append((span_id, parent[1], layer, name, start, end))

        return span

    def _outer_span(self, layer, name, fn):
        """A span that also accumulates inclusive time for its layer,
        counted once when calls of the layer nest."""
        inner = self._span(layer, name, fn)
        depth = self._depth
        inclusive = self.inclusive_ns
        key = (layer, name)
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            level = depth.get(layer, 0)
            depth[layer] = level + 1
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                depth[layer] = level
                if not level:
                    inclusive[key] = inclusive.get(key, 0) + clock() - start

        return span

    def _scheduling(self, schedule):
        """``Kernel.schedule`` that turns each callback into a span keyed
        by the callback's owner."""
        owners = self._owners
        make_span = self._span

        def schedule_traced(kernel, delay, callback, *args):
            func = getattr(callback, "__func__", callback)
            owner = owners.get(func)
            if owner is None:
                owner = owners[func] = (
                    layer_of(getattr(func, "__module__", None) or "?"),
                    getattr(func, "__qualname__", repr(func)))
            return schedule(kernel, delay, make_span(owner[0], owner[1],
                                                     callback), *args)

        return schedule_traced

    # -- results -------------------------------------------------------------

    def summary(self, wall_ns):
        """Aggregates for the parent: per-layer self time, per-function
        call counts, inclusive set-up time, GC pauses and coverage."""
        layers, calls = {}, {}
        for (layer, name), (count, self_ns) in self.stats.items():
            layers[layer] = layers.get(layer, 0.0) + self_ns / 1e9
            if count:
                calls[name] = calls.get(name, 0) + count
        inclusive, inclusive_layers = {}, {}
        for (layer, name), ns in self.inclusive_ns.items():
            inclusive[name] = ns / 1e9
            inclusive_layers[layer] = inclusive_layers.get(layer, 0.0) \
                + ns / 1e9
        traced_s = sum(layers.values())
        return {
            "rep_id": self.rep_id,
            "wall_s": wall_ns / 1e9,
            "self_s": layers,
            "calls": calls,
            "inclusive_s": inclusive,
            "inclusive_layer_s": inclusive_layers,
            "gc_pause_s": self.gc_pause_ns / 1e9,
            "gc_collections": self.gc_collections,
            "coverage": traced_s / (wall_ns / 1e9) if wall_ns else 0.0,
            "spans": self.span_count,
        }

    def write_chrome(self, workload):
        """Write the recorded span prefix as Chrome trace JSON; returns
        the path."""
        origin = self._origin_ns or 0
        events = [{"name": name, "cat": layer, "ph": "X", "pid": 1,
                   "tid": 1, "ts": (start - origin) / 1e3,
                   "dur": (end - start) / 1e3,
                   "args": {"id": span_id, "parent": parent,
                            "rep": self.rep_id}}
                  for span_id, parent, layer, name, start, end
                  in self.spans]
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace_%s.json" % workload)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"rep": self.rep_id,
                                     "spans_total": self.span_count,
                                     "spans_written": len(events)}},
                      handle)
        return path


def layer_metrics(traced, untraced_wall_s):
    """The per-layer metrics of BENCHMARK.json from a traced rep record.

    *untraced_wall_s* is the median wall time of the same workload's
    untraced reps, the base of ``trace.overhead_x``.
    """
    summary = traced["trace"]
    self_s = summary["self_s"]
    calls = summary["calls"]
    inclusive = summary["inclusive_s"]
    extra = traced["extra"]

    def prefixed(prefix):
        return sum(count for name, count in calls.items()
                   if name.startswith(prefix))

    processor_callbacks = calls.get("SnapProcessor._step", 0)
    channel_words = calls.get("Channel.end_transmission", 0)
    deliveries = calls.get("Radio.deliver", 0)
    range_checks = calls.get("Channel.in_range", 0)
    metrics = {
        "core.kernel.self_s": self_s.get("core.kernel", 0.0),
        "core.kernel.callbacks": calls.get("Kernel.step", 0),
        "core.processor.self_s": self_s.get("core.processor", 0.0),
        "core.processor.callbacks": processor_callbacks,
        "core.processor.ins_per_callback":
            traced["instructions"] / processor_callbacks
            if processor_callbacks else 0.0,
        "coprocessors.timer.self_s": self_s.get("coprocessors.timer", 0.0),
        "coprocessors.timer.expiries": calls.get("TimerCoprocessor._expire",
                                                 0),
        "coprocessors.message.self_s": self_s.get("coprocessors.message",
                                                  0.0),
        "coprocessors.message.calls": prefixed("MessageCoprocessor."),
        "radio.transceiver.self_s": self_s.get("radio.transceiver", 0.0),
        "radio.transceiver.words_sent": calls.get("Radio._finish_word", 0),
        "radio.transceiver.rx_useful_frac":
            calls.get("MessageCoprocessor.radio_word_received", 0)
            / deliveries if deliveries else 0.0,
        "sensors.self_s": self_s.get("sensors", 0.0),
        "sensors.samples": sum(count for name, count in calls.items()
                               if name.endswith(".read")),
        "radio.channel.self_s": self_s.get("radio.channel", 0.0),
        "radio.channel.words": channel_words,
        "radio.channel.range_checks": range_checks,
        "radio.channel.range_checks_per_word":
            range_checks / channel_words if channel_words else 0.0,
        "obs.context.self_s": self_s.get("obs.context", 0.0),
        "obs.context.hook_calls": prefixed("Observability."),
        "obs.bus.self_s": self_s.get("obs.bus", 0.0),
        "obs.bus.events": calls.get("TraceBus.emit", 0),
        "obs.metrics.self_s": self_s.get("obs.metrics", 0.0),
        "obs.metrics.lookups": prefixed("MetricsRegistry."),
        "asm.build_s": summary["inclusive_layer_s"].get("asm", 0.0),
        "asm.assemble_calls": calls.get("assemble", 0),
        "netstack.build_s": summary["inclusive_layer_s"].get("netstack",
                                                             0.0),
        "network.add_node_s": inclusive.get("NetworkSimulator.add_node",
                                            0.0),
        "network.run_calls": calls.get("NetworkSimulator.run", 0),
        "bench.sweep.cell_s_p50": extra.get("cell_s_p50", 0.0),
        "bench.sweep.predecode_hit_frac": extra.get("predecode_hit_frac",
                                                    0.0),
        "host.gc.pause_s": summary["gc_pause_s"],
        "host.gc.collections": summary["gc_collections"],
        "trace.coverage": summary["coverage"],
        "trace.overhead_x": traced["wall_s"] / untraced_wall_s
        if untraced_wall_s else 0.0,
    }
    for component in ("profiler", "energy", "spans", "blackbox", "watchdog"):
        metrics["obs.%s.self_s" % component] = self_s.get(
            "obs." + component, 0.0)
    return metrics
