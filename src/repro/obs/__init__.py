"""Unified observability for the SNAP/LE simulation stack.

Cooperating pieces, all opt-in and zero-cost when detached:

* a **structured trace bus** (:mod:`repro.obs.bus`) carrying typed
  events (:mod:`repro.obs.events`) to sinks -- in-memory ring, JSONL
  stream, Chrome ``chrome://tracing`` export;
* a **metrics registry** (:mod:`repro.obs.metrics`) of counters, gauges,
  and histograms wired into the core, event queue, coprocessors, radio,
  and channel;
* a **cost table** (:mod:`repro.obs.profiler`): instructions, energy
  and time per (node, pc, handler, instruction class), reconciling
  against the :class:`~repro.energy.accounting.EnergyMeter`.  The
  profile report (CLI: ``snap-run --profile``), the energy ledger's
  line and layer views and the differential analyzer's delta tables
  are roll-ups of it;
* an **energy ledger** (:mod:`repro.obs.energy`) attributing every
  picojoule to guest source lines (collapsed-stack / speedscope flame
  graphs) and protocol layers by rolling up the cost table, and to
  individual packet journeys by matching handler invocations, plus
  battery-lifetime projection -- every view reconciles against the
  meter with its residual reported (CLI: ``snap-energy``);
* a **blackbox** (:mod:`repro.obs.blackbox`) -- a bounded flight
  recorder of recently retired instructions and events -- with a
  **watchdog** (:mod:`repro.obs.watchdog`) re-checking simulator
  invariants at a fixed cadence, and **crash bundles**
  (:mod:`repro.obs.postmortem`) that symbolicate the recorded tail back
  to C source lines on any fault (CLI: ``snap-flight``);
* a **differential analyzer** (:mod:`repro.obs.diff`) aligning two runs
  event-by-event to localize their first divergence -- time window via
  checkpoint bisection, node, handler, symbolicated PC, flight-recorder
  tails -- and comparing intentionally different runs (two voltages, two
  engines) as per-handler/per-PC/per-flow delta reports over two cost
  tables (``repro.obs.diff/1``, CLI: ``snap-diff``), on the shared
  float-free projections of :mod:`repro.obs.project`;
* a **telemetry exporter** (:mod:`repro.obs.telemetry`) streaming
  batched deltas of all of the above as versioned NDJSON
  (``repro.obs.telemetry/1``) over non-blocking transports
  (:mod:`repro.obs.transports`) -- file, stdout, or a localhost socket
  that live ``snap-top`` dashboards attach to mid-run.

Typical use::

    from repro.obs import Observability

    obs = Observability(profile=True)
    obs.observe(node)                  # or processor, or NetworkSimulator
    node.run(until=0.1)
    print(obs.profiler.report())       # per-node handlers + hot PCs
    print(obs.metrics.snapshot())

``snap-run --profile`` (``python -m repro.tools.snap_run``) wraps this
for one-shot program profiling.  See ``docs/OBSERVABILITY.md``.
"""

from repro.obs.bus import (
    JsonlSink,
    KindFilter,
    MemorySink,
    TraceBus,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
)
from repro.obs.blackbox import Blackbox, FlightRecorder
from repro.obs.context import Observability
from repro.obs.diff import (
    Bisector,
    Divergence,
    RunCapture,
    align,
    capture_from_checkpoint,
    capture_run,
    compare,
    first_divergence,
    load_trace,
)
from repro.obs.energy import (
    EnergyLedger,
    layer_split_from_meter,
    project_lifetime,
)
from repro.obs.events import EVENT_KINDS, PacketSpan, TimelineSample, TraceEvent
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.postmortem import (
    build_crash_bundle,
    normalize_bundle,
    render_markdown,
    write_bundle,
)
from repro.obs.profiler import Profiler
from repro.obs.telemetry import TelemetryExporter, TelemetryView
from repro.obs.timeline import TimelineSampler
from repro.obs.transports import (
    FileTransport,
    NullTransport,
    SocketServerTransport,
    StreamTransport,
    TelemetryTransport,
)
from repro.obs.project import (
    STABLE_FIELDS,
    project_event,
    project_telemetry,
    project_trace,
)
from repro.obs.watchdog import InvariantViolation, Watchdog

__all__ = [
    "Observability",
    "Bisector",
    "Divergence",
    "RunCapture",
    "align",
    "capture_from_checkpoint",
    "capture_run",
    "compare",
    "first_divergence",
    "load_trace",
    "STABLE_FIELDS",
    "project_event",
    "project_telemetry",
    "project_trace",
    "Blackbox",
    "FlightRecorder",
    "Watchdog",
    "InvariantViolation",
    "build_crash_bundle",
    "normalize_bundle",
    "render_markdown",
    "write_bundle",
    "TraceBus",
    "MemorySink",
    "JsonlSink",
    "KindFilter",
    "chrome_trace",
    "write_chrome_trace",
    "read_jsonl",
    "EVENT_KINDS",
    "TraceEvent",
    "PacketSpan",
    "TimelineSample",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "EnergyLedger",
    "layer_split_from_meter",
    "project_lifetime",
    "TimelineSampler",
    "TelemetryExporter",
    "TelemetryView",
    "TelemetryTransport",
    "FileTransport",
    "StreamTransport",
    "NullTransport",
    "SocketServerTransport",
]
