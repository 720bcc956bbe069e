"""``snap-prof``: run a program under full observability and print a
per-handler / per-PC energy and time profile (roll-ups of the
:class:`~repro.obs.profiler.Profiler` cost table, each row labelled with
its node).

Accepts the same inputs as ``snap-run`` (assembly sources or a ``.hex``
image).  On top of the run statistics it can stream the structured trace
to JSONL, export a Chrome ``chrome://tracing`` timeline, and dump the
metrics registry.

Usage::

    python -m repro.tools.snap_prof program.s --until 1e-3
    python -m repro.tools.snap_prof program.s --jsonl trace.jsonl \\
        --chrome trace.json --metrics --top 20
"""

import argparse
import json
import sys

from repro.asm import AsmError, LinkError
from repro.core import CoreConfig, SimulationError, SnapProcessor
from repro.obs import JsonlSink, MemorySink, Observability, write_chrome_trace
from repro.sensors.ports import LedPort
from repro.tools.hexfile import load_words
from repro.tools.snap_run import load_program

#: Port identifier the library software writes LEDs to (matches
#: :data:`repro.node.node.LED_PORT_ID`).
LED_PORT_ID = 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-prof",
        description="Profile a SNAP program: per-handler and per-PC time "
                    "and energy attribution, structured trace export, "
                    "metrics snapshot.")
    parser.add_argument("inputs", nargs="+",
                        help="assembly sources or one .hex image")
    parser.add_argument("--voltage", type=float, default=0.6,
                        help="supply voltage (default 0.6)")
    parser.add_argument("--until", type=float, default=None,
                        help="simulated seconds to run (default: to sleep)")
    parser.add_argument("--max-instructions", type=int, default=1_000_000)
    parser.add_argument("--top", type=int, default=10,
                        help="hot PCs to show (default 10)")
    parser.add_argument("--jsonl", metavar="PATH",
                        help="stream the typed event trace to PATH (JSONL)")
    parser.add_argument("--chrome", metavar="PATH",
                        help="write a chrome://tracing timeline to PATH")
    parser.add_argument("--metrics", action="store_true",
                        help="print the metrics registry snapshot as JSON")
    parser.add_argument("--sample-every", type=float, default=None,
                        metavar="SECONDS",
                        help="emit a cumulative energy sample every "
                             "SECONDS of simulated time")
    parser.add_argument("--buffer-limit", type=int, default=1_000_000,
                        help="in-memory trace ring size for the Chrome "
                             "export (default 1000000 events)")
    args = parser.parse_args(argv)

    try:
        program = load_program(args.inputs)
        if program is None:
            with open(args.inputs[0]) as handle:
                imem, dmem = load_words(handle.read())
    except (AsmError, LinkError, OSError) as error:
        print("snap-prof: %s" % error, file=sys.stderr)
        return 1

    obs = Observability(profile=True)
    memory = obs.bus.attach(MemorySink(limit=args.buffer_limit))
    jsonl = None
    if args.jsonl:
        jsonl = obs.bus.attach(JsonlSink(args.jsonl))

    processor = SnapProcessor(config=CoreConfig(
        voltage=args.voltage, max_instructions=args.max_instructions))
    if program is not None:
        processor.load(program)
    else:
        processor.imem.load_image(imem)
        processor.dmem.load_image(dmem)
    # Handler workloads (blink and friends) write the LED port; attach
    # the standard one so they profile without a full SensorNode.
    processor.mcp.attach_port(LED_PORT_ID, LedPort())
    processor.attach_observability(obs)

    if args.sample_every:
        def sample():
            obs.energy_sample(processor.name, processor.kernel.now,
                              processor.meter.total_energy,
                              processor.meter.instructions)
            if not processor.halted:
                processor.kernel.schedule(args.sample_every, sample)
        processor.kernel.schedule(args.sample_every, sample)

    try:
        meter = processor.run(until=args.until)
        # Final cumulative sample so the trace always ends with totals.
        obs.energy_sample(processor.name, processor.kernel.now,
                          meter.total_energy, meter.instructions)
    except SimulationError as error:
        print("snap-prof: %s" % error, file=sys.stderr)
        return 1
    finally:
        if jsonl is not None:
            jsonl.close()

    print("state        : %s" % processor.mode.value)
    print("sim time     : %.6f s (busy %.6f s, idle %.6f s)"
          % (processor.kernel.now, meter.busy_time, meter.idle_time))
    print("energy       : %.3f nJ total (%.1f pJ/ins), %d wakeups"
          % (meter.total_energy * 1e9,
             meter.energy_per_instruction * 1e12, meter.wakeups))
    profiled, metered = obs.profiler.reconcile(meter)
    print("attribution  : profiled %.3f nJ vs metered %.3f nJ "
          "(non-instruction: %.3f nJ wakeup+token+idle)"
          % (profiled * 1e9, metered * 1e9,
             (meter.total_energy - metered) * 1e9))
    print()
    print(obs.profiler.report(top=args.top,
                              programs={processor.name: program}))

    if args.metrics:
        print()
        print(json.dumps(obs.metrics.snapshot(), indent=2))

    if args.jsonl:
        print()
        print("jsonl trace  : %s (%d events)" % (args.jsonl, jsonl.count))
    if args.chrome:
        write_chrome_trace(memory.events, args.chrome)
        print("chrome trace : %s (%d events; open in chrome://tracing)"
              % (args.chrome, len(memory)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
