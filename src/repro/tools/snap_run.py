"""``snap-run``: execute a program on the simulated SNAP/LE core.

Accepts either assembly sources (assembled and linked on the fly, so
pcs symbolicate to source lines) or a ``.hex`` image.  Prints the run's
statistics; optionally an instruction trace and, with ``--profile``, the
per-handler / hot-PC profile (the software side of the paper's Table 1).
``--jsonl`` and ``--chrome`` export the typed event trace, which ends
with one cumulative ``energy`` record; ``--metrics`` prints the metrics
registry.

The run executes on a full :class:`~repro.node.SensorNode` (core plus
radio, LED port, and coprocessors), so it can be frozen mid-flight:
``--checkpoint-every`` writes a :mod:`repro.sim.checkpoint` snapshot on
a fixed simulated period, and ``--resume`` picks a saved checkpoint
back up and continues bit-identically -- the resumed run's meters match
an uninterrupted run exactly.

Long runs can be watched live: ``--progress`` prints a heartbeat line
(simulated time, wall time, events/s, ETA) to stderr, ``--telemetry
PATH`` records the full ``repro.obs.telemetry/1`` NDJSON stream (``-``
for stdout), and ``--telemetry-port N`` serves the stream on a
localhost socket that any number of ``snap-top`` dashboards can attach
to and detach from mid-run without perturbing the simulation.

Usage::

    python -m repro.tools.snap_run program.s --voltage 0.6 --until 1e-3
    python -m repro.tools.snap_run image.hex --trace --max-trace 50
    python -m repro.tools.snap_run program.s --profile --top 20 \
        --jsonl trace.jsonl --chrome trace.json --metrics
    python -m repro.tools.snap_run app.s --until 2.0 \
        --checkpoint-every 0.5 --checkpoint-path app.ckpt.json
    python -m repro.tools.snap_run --resume app.ckpt.json --until 2.0
    python -m repro.tools.snap_run app.s --until 60 --progress \
        --telemetry-port 9317        # then: snap-top --connect :9317
"""

import argparse
import json
import sys

from repro.asm import AsmError, LinkError
from repro.core import CoreConfig, SimulationError
from repro.core.trace import Tracer
from repro.node import SensorNode
from repro.obs import JsonlSink, MemorySink, Observability, write_chrome_trace
from repro.sim.checkpoint import Checkpoint, CheckpointError, capture
from repro.tools.hexfile import load_program, load_words

DEFAULT_CHECKPOINT_PATH = "snap-run.ckpt.json"

DEFAULT_TELEMETRY_INTERVAL = 0.05

#: In-memory trace ring size for the ``--chrome`` export, in events.
CHROME_BUFFER_LIMIT = 1_000_000


def _progress_printer(stream=None):
    """A heartbeat-line callback for the telemetry exporter's
    ``progress`` records: one updating line on a tty, one line per
    heartbeat otherwise."""
    stream = stream if stream is not None else sys.stderr
    tty = stream.isatty() if hasattr(stream, "isatty") else False

    def emit(record):
        parts = []
        done = record.get("done")
        if done is not None:
            parts.append("%3d%%" % round(done * 100))
        parts.append("sim %.3fs" % record["sim_s"])
        parts.append("wall %.1fs" % record["wall_s"])
        rate = record.get("events_s") or 0.0
        parts.append("%.0f ev/s" % rate if rate < 1e4
                     else "%.0fk ev/s" % (rate / 1e3))
        eta = record.get("eta_s")
        if eta is not None:
            parts.append("eta %.1fs" % eta)
        line = "snap-run: " + " | ".join(parts)
        if tty:
            stream.write("\r" + line + "\x1b[K")
        else:
            stream.write(line + "\n")
        stream.flush()

    emit.finish = lambda: (stream.write("\n"), stream.flush()) if tty \
        else None
    return emit


def _build_exporter(node, args, obs):
    """Arm a telemetry exporter per the --telemetry*/--progress flags,
    on the run's observability context *obs* if it has one; returns
    ``None`` when none were given."""
    if not (args.telemetry or args.telemetry_port is not None
            or args.progress):
        return None
    from repro.obs.telemetry import TelemetryExporter
    from repro.obs.transports import (
        NullTransport,
        SocketServerTransport,
        StreamTransport,
    )

    if args.telemetry == "-":
        transport = StreamTransport()
    elif args.telemetry:
        transport = args.telemetry        # path: exporter opens the file
    elif args.telemetry_port is not None:
        transport = SocketServerTransport(port=args.telemetry_port)
        print("telemetry    : serving %s on %s"
              % ("repro.obs.telemetry/1", transport.address),
              file=sys.stderr)
    else:
        transport = NullTransport()
    on_progress = _progress_printer() if args.progress else None
    exporter = TelemetryExporter.for_node(
        node, transport, interval=args.telemetry_interval, obs=obs,
        on_progress=on_progress)
    exporter.start(horizon=args.until)
    return exporter


def _build_node(args):
    node = SensorNode(config=CoreConfig(
        voltage=args.voltage,
        max_instructions=args.max_instructions))
    if len(args.inputs) == 1 and args.inputs[0].endswith(".hex"):
        # Raw words: an image carries no symbols or line table.
        with open(args.inputs[0]) as handle:
            imem, dmem = load_words(handle.read())
        node.processor.imem.load_image(imem)
        node.processor.dmem.load_image(dmem)
        node.loaded = True
    else:
        node.load(load_program(args.inputs))
    return node


def _build_obs(node, args):
    """Arm one profiling context on *node* for --profile, --jsonl,
    --chrome or --metrics; returns ``(obs, memory, jsonl)``, each
    ``None`` when not wanted (*memory* is the ring --chrome reads)."""
    if not (args.profile or args.jsonl or args.chrome or args.metrics):
        return None, None, None
    obs = Observability(profile=True)
    memory = jsonl = None
    if args.chrome:
        memory = obs.bus.attach(MemorySink(limit=CHROME_BUFFER_LIMIT))
    if args.jsonl:
        jsonl = obs.bus.attach(JsonlSink(args.jsonl))
    node.attach_observability(obs)
    return obs, memory, jsonl


def _resume_node(args):
    checkpoint = Checkpoint.load(args.resume)
    if checkpoint.kind != "node":
        raise CheckpointError(
            "%s is a %r checkpoint; snap-run resumes single-node "
            "checkpoints (use NetworkSimulator.from_checkpoint for "
            "networks)" % (args.resume, checkpoint.kind))
    return checkpoint.restore()


def _run(node, args, checkpoint_path):
    """Drive the node to ``--until``, checkpointing on the period."""
    processor = node.processor
    if args.checkpoint_every:
        horizon = args.until
        while True:
            boundary = min(processor.kernel.now + args.checkpoint_every,
                           horizon)
            meter = processor.run(until=boundary)
            capture(node).save(checkpoint_path)
            print("checkpoint   : t=%.6f s -> %s"
                  % (processor.kernel.now, checkpoint_path))
            if processor.kernel.now >= horizon:
                return meter
    meter = processor.run(until=args.until)
    if checkpoint_path:
        capture(node).save(checkpoint_path)
        print("checkpoint   : t=%.6f s -> %s"
              % (processor.kernel.now, checkpoint_path))
    return meter


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-run",
        description="Run a SNAP program on the simulated SNAP/LE core.")
    parser.add_argument("inputs", nargs="*",
                        help="assembly sources or one .hex image")
    parser.add_argument("--voltage", type=float, default=0.6,
                        help="supply voltage (default 0.6)")
    parser.add_argument("--until", type=float, default=None,
                        help="simulated seconds to run (default: to sleep)")
    parser.add_argument("--max-instructions", type=int, default=1_000_000)
    parser.add_argument("--trace", action="store_true",
                        help="print an instruction trace")
    parser.add_argument("--max-trace", type=int, default=100,
                        help="trace lines to keep (default 100)")
    parser.add_argument("--dump-dmem", type=int, default=8, metavar="N",
                        help="print the first N data words after the run")
    parser.add_argument("--checkpoint-every", type=float, metavar="SECONDS",
                        help="write a checkpoint every SECONDS of simulated "
                        "time (requires --until)")
    parser.add_argument("--checkpoint-path", metavar="PATH",
                        help="where to write checkpoints (default %s); "
                        "without --checkpoint-every, one checkpoint is "
                        "written at the end of the run"
                        % DEFAULT_CHECKPOINT_PATH)
    parser.add_argument("--resume", metavar="CHECKPOINT",
                        help="resume from a saved checkpoint instead of "
                        "loading a program")
    telemetry = parser.add_mutually_exclusive_group()
    telemetry.add_argument("--telemetry", metavar="PATH",
                           help="stream repro.obs.telemetry/1 NDJSON to "
                           "PATH ('-' for stdout)")
    telemetry.add_argument("--telemetry-port", type=int, metavar="N",
                           help="serve the telemetry stream on localhost "
                           "TCP port N (0 picks a free port) for snap-top")
    parser.add_argument("--telemetry-interval", type=float,
                        default=DEFAULT_TELEMETRY_INTERVAL, metavar="S",
                        help="telemetry flush cadence in simulated seconds "
                        "(default %(default)s)")
    parser.add_argument("--progress", action="store_true",
                        help="print a heartbeat line (sim time, wall time, "
                        "events/s, ETA) to stderr while running")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-handler and hot-PC time and "
                        "energy profile after the run")
    parser.add_argument("--top", type=int, default=10,
                        help="hot PCs in the profile (default 10)")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="stream the typed event trace to PATH (JSONL)")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write a chrome://tracing timeline to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry snapshot as JSON")
    args = parser.parse_args(argv)

    if bool(args.inputs) == bool(args.resume):
        parser.error("give either program inputs or --resume, not both")
    if args.checkpoint_every and args.until is None:
        parser.error("--checkpoint-every needs --until (a run horizon)")
    if args.profile and args.resume:
        # The meter carries the energy spent before the checkpoint; the
        # profile would only see the resumed tail.
        parser.error("--profile attributes a whole run; not with --resume")

    try:
        node = _resume_node(args) if args.resume else _build_node(args)
        obs, memory, jsonl = _build_obs(node, args)
    except (AsmError, LinkError, CheckpointError, OSError,
            ValueError) as error:
        print("snap-run: %s" % error, file=sys.stderr)
        return 1

    tracer = None
    if args.trace:
        tracer = Tracer(limit=args.max_trace)
        node.processor.config.trace_fn = tracer

    checkpoint_path = args.checkpoint_path
    if args.checkpoint_every and not checkpoint_path:
        checkpoint_path = DEFAULT_CHECKPOINT_PATH

    exporter = _build_exporter(node, args, obs)

    processor = node.processor
    resumed_at = processor.kernel.now
    try:
        meter = _run(node, args, checkpoint_path)
    except SimulationError as error:
        print("snap-run: %s" % error, file=sys.stderr)
        return 1
    finally:
        if exporter is not None:
            exporter.close()
            if args.progress and exporter.on_progress is not None:
                exporter.on_progress.finish()
        if obs is not None:
            # Final cumulative sample, after the exporter's last flush,
            # so the trace always ends with totals.
            obs.energy_sample(processor.name, processor.kernel.now,
                              processor.meter.total_energy,
                              processor.meter.instructions)
        if jsonl is not None:
            jsonl.close()

    if tracer is not None:
        print(tracer.format())
        print()
    if args.resume:
        print("resumed      : %s (from t=%.6f s)" % (args.resume, resumed_at))
    print("state        : %s" % processor.mode.value)
    print("instructions : %d (%d cycles)" % (meter.instructions, meter.cycles))
    print("sim time     : %.6f s (busy %.6f s, idle %.6f s)"
          % (processor.kernel.now, meter.busy_time, meter.idle_time))
    print("energy       : %.3f nJ (%.1f pJ/ins)"
          % (meter.total_energy * 1e9, meter.energy_per_instruction * 1e12))
    print("wakeups      : %d" % meter.wakeups)
    if args.dump_dmem:
        words = processor.dmem.dump(0, args.dump_dmem)
        print("dmem[0:%d]   : %s"
              % (args.dump_dmem, " ".join("%04x" % word for word in words)))
    if args.profile:
        profiled, metered = obs.profiler.reconcile(meter)
        print("attribution  : profiled %.3f nJ vs metered %.3f nJ "
              "(non-instruction: %.3f nJ wakeup+token+idle)"
              % (profiled * 1e9, metered * 1e9,
                 (meter.total_energy - metered) * 1e9))
        print()
        print(obs.profiler.report(
            top=args.top, programs={processor.name: processor.program}))
    if args.metrics:
        print()
        print(json.dumps(obs.metrics.snapshot(), indent=2))
    if jsonl is not None:
        print()
        print("jsonl trace  : %s (%d events)" % (args.jsonl, jsonl.count))
    if memory is not None:
        write_chrome_trace(memory.events, args.chrome)
        print("chrome trace : %s (%d events; open in chrome://tracing)"
              % (args.chrome, len(memory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
