"""``snap-flight``: inspect and replay flight-recorder crash bundles.

A crash bundle is the JSON post-mortem the
:class:`~repro.obs.Blackbox` facade writes when a simulation faults
(see :mod:`repro.obs.postmortem` for the schema).  This CLI renders a
bundle for humans, replays its disassembly tail, and can generate a
bundle on demand by running a deliberately faulting guest program --
the end-to-end smoke the CI job runs.

Usage::

    snap-flight inspect crash-bundles/crash.json
    snap-flight replay-tail crash-bundles/crash.json --node node0.cpu
    snap-flight replay-tail crash-bundles/crash.json --replay
    snap-flight demo-crash --out /tmp/demo --mode fault
"""

import argparse
import json
import sys

DEMO_MODES = ("fault", "invariant", "leak")

#: The deliberately buggy guest the demo crash runs: on its third timer
#: tick it stores through a pointer far outside the 2048-word DMEM.
DEMO_CRASH_C = """\
int ticks;

void arm() { __schedlo(0, 200); }

void init() { ticks = 0; arm(); }

__handler void on_timer() {
    ticks = ticks + 1;
    if (ticks == 3) {
        int *p;
        p = 6000;
        *p = 1;
    }
    arm();
}
"""


class BundleError(Exception):
    """A file that is not a well-formed ``repro.obs.crash-bundle/1``
    bundle."""


_NUMBER = (int, float)
#: The fields snap-flight prints from each per-node state and each
#: recorded instruction, with the types they must have.
_NODE_FIELDS = {"mode": (str,), "pc": (int,)}
_INSTRUCTION_FIELDS = {"time": _NUMBER, "pc": (int,), "mnemonic": (str,),
                       "handler": (str, type(None))}


def _expect(where, value, types):
    if not isinstance(value, types):
        raise BundleError("field %r is %s, not %s"
                          % (where, type(value).__name__,
                             " or ".join(kind.__name__ for kind in types)))
    return value


def _check_fields(record, fields, prefix=""):
    for name, types in fields.items():
        if name not in record:
            raise BundleError("field %r is missing" % (prefix + name))
        _expect(prefix + name, record[name], types)


def _check_bundle(bundle):
    """Raise :class:`BundleError` unless *bundle* is a crash-bundle/1
    object whose fields snap-flight reads are present and well typed."""
    from repro.obs.postmortem import SCHEMA

    if not isinstance(bundle, dict):
        raise BundleError("not a crash bundle (a JSON %s, not an object)"
                          % type(bundle).__name__)
    if bundle.get("schema") != SCHEMA:
        raise BundleError("schema %r is not %r"
                          % (bundle.get("schema"), SCHEMA))
    _check_fields(bundle, {"time_s": _NUMBER + (type(None),)})
    nodes = _expect("nodes", bundle.get("nodes", {}), (dict,))
    for name, state in nodes.items():
        where = "nodes.%s" % name
        _check_fields(_expect(where, state, (dict,)), _NODE_FIELDS,
                      where + ".")
    tails = _expect("disassembly", bundle.get("disassembly") or {}, (dict,))
    for name, tail in tails.items():
        where = "disassembly.%s" % name
        for index, record in enumerate(_expect(where, tail, (list,))):
            entry = "%s[%d]" % (where, index)
            _check_fields(_expect(entry, record, (dict,)),
                          _INSTRUCTION_FIELDS, entry + ".")


def _load_bundle(path):
    try:
        with open(path) as handle:
            bundle = json.load(handle)
    except (OSError, ValueError) as error:
        raise BundleError("%s: %s" % (path, error)) from error
    try:
        _check_bundle(bundle)
    except BundleError as error:
        raise BundleError("%s: %s" % (path, error)) from None
    return bundle


def cmd_inspect(args):
    """Render a bundle's Markdown report to stdout."""
    from repro.obs.postmortem import render_markdown
    print(render_markdown(_load_bundle(args.bundle)))
    return 0


def cmd_replay_tail(args):
    """Print the recorded instruction tail, one line per instruction.

    With ``--replay``, also restore the bundle's embedded checkpoint and
    re-run the simulation tail up to the crash time, verifying that the
    restored run reproduces the bundle's final per-node state exactly
    (mode, pc, registers, meter) -- deterministic replay without
    rerunning from t=0.
    """
    bundle = _load_bundle(args.bundle)
    if args.replay:
        status = _replay_from_checkpoint(bundle)
        if status:
            return status
        print()
    disassembly = bundle.get("disassembly") or {}
    if not disassembly:
        print("snap-flight: bundle has no recorded instructions",
              file=sys.stderr)
        return 1
    nodes = [args.node] if args.node else sorted(disassembly)
    for name in nodes:
        tail = disassembly.get(name)
        if tail is None:
            print("snap-flight: no tail for node %r (have: %s)"
                  % (name, ", ".join(sorted(disassembly))), file=sys.stderr)
            return 1
        print("== %s: last %d instructions ==" % (name, len(tail)))
        for record in tail[-args.tail:] if args.tail else tail:
            source = record.get("source") or {}
            where = ""
            if source.get("file") is not None:
                where = "  ; %s:%s" % (source["file"], source["line"])
                if source.get("function"):
                    where += " (%s)" % source["function"]
            rd = ""
            if "rd" in record:
                rd = "  r%d=0x%04x" % (record["rd"],
                                       record["rd_value"] or 0)
            print("%12.9f  %04x  %-20s %-10s%s%s"
                  % (record["time"], record["pc"], record["mnemonic"],
                     record["handler"], rd, where))
    return 0


def _replay_from_checkpoint(bundle):
    """Restore a bundle's embedded checkpoint and re-run to the crash.

    Compares the replayed per-node state (mode, pc, registers, carry,
    meter, event queue, low DMEM) against the bundle's recorded state;
    any divergence is a determinism bug.  Returns 0 on an exact match.
    """
    from repro.core.exceptions import SimulationError
    from repro.node.node import SensorNode
    from repro.obs.postmortem import _processor_state
    from repro.sim.checkpoint import Checkpoint, restore

    data = bundle.get("checkpoint")
    if not data:
        print("snap-flight: bundle has no embedded checkpoint "
              "(Blackbox(checkpoint_every=...) was not enabled)",
              file=sys.stderr)
        return 1
    crash_time = bundle["time_s"]
    if crash_time is None:
        raise BundleError("bundle has no crash time (time_s is null) to "
                          "replay to")
    sim = restore(Checkpoint(data))
    print("replay       : checkpoint t=%.6f s -> crash t=%.6f s"
          % (data["time_s"], crash_time))
    reproduced = None
    try:
        sim.kernel.run(until=crash_time)
    except SimulationError as error:
        reproduced = error
    if reproduced is not None:
        print("reproduced   : %s: %s"
              % (type(reproduced).__name__, reproduced))
    elif bundle.get("reason") == "guest_fault":
        print("snap-flight: replay reached t=%.6f s without the "
              "recorded guest fault" % crash_time, file=sys.stderr)
        return 1

    nodes = [sim] if isinstance(sim, SensorNode) \
        else list(sim.nodes.values())
    divergent = 0
    for node in nodes:
        name = node.processor.name
        recorded = dict(bundle.get("nodes", {}).get(name) or {})
        if not recorded:
            continue
        # Symbolication is not part of a checkpoint (raw memory images
        # carry no line table), so source locations are not compared.
        recorded.pop("pc_source", None)
        replayed = _processor_state(node.processor, None)
        if replayed == recorded:
            print("replayed     : %s state matches the bundle" % name)
        else:
            divergent += 1
            keys = [key for key in set(recorded) | set(replayed)
                    if recorded.get(key) != replayed.get(key)]
            print("snap-flight: %s diverged from the bundle in: %s"
                  % (name, ", ".join(sorted(keys))), file=sys.stderr)
    if divergent:
        return 1
    return 0


def cmd_demo_crash(args):
    """Build a faulting guest, run it under the blackbox, dump the bundle.

    ``--mode fault`` crashes the guest itself (out-of-DMEM store);
    ``--mode invariant`` perturbs the energy meter so the watchdog's
    conservation check trips; ``--mode leak`` corrupts a kernel heap
    entry so the heap-liveness check trips.
    """
    from repro.cc.compiler import build_c_node
    from repro.isa.events import Event
    from repro.node.node import SensorNode
    from repro.obs import Blackbox, InvariantViolation
    from repro.core.exceptions import SimulationError

    program = build_c_node(DEMO_CRASH_C,
                           handlers={Event.TIMER0: "on_timer"},
                           source_name="crash.c")
    node = SensorNode(node_id=0)
    node.load(program)
    # Checkpoints at 250/500 us; the guest faults on its third 200 us
    # tick, so the bundle embeds a 500 us snapshot 100 us before the
    # crash -- the tail that ``replay-tail --replay`` re-runs.
    box = Blackbox(bundle_dir=args.out, watchdog_interval=1e-4,
                   checkpoint_every=2.5e-4)
    box.observe(node)

    if args.mode == "invariant":
        # Let the guest run a little, then corrupt the meter total: the
        # watchdog's next energy-conservation check must catch it.
        node.kernel.schedule(
            3e-4, lambda: setattr(node.meter, "total_energy",
                                  node.meter.total_energy + 1e-9))
    elif args.mode == "leak":
        # Null a live heap entry without dropping its index -- the
        # "leaked cancel" bug class the heap-liveness invariant exists
        # for.  (Skip the watchdog's own pending check, which would
        # disarm the very detector this mode demonstrates.)
        def leak():
            for handle, entry in node.kernel._live.items():
                if handle != box.watchdog._handle:
                    entry[2] = None
                    return
        node.kernel.schedule(3e-4, leak)

    try:
        box.run(node, until=1.0)
    except (SimulationError, InvariantViolation) as error:
        json_path, md_path = error.crash_bundle_paths
        print("crash        : %s: %s" % (type(error).__name__, error))
        print("bundle       : %s" % json_path)
        print("report       : %s" % md_path)
        checkpoint = error.crash_bundle.get("checkpoint")
        if checkpoint:
            print("checkpoint   : embedded, t=%.6f s"
                  % checkpoint["time_s"])
        tail = (error.crash_bundle.get("disassembly") or {}).get(
            node.processor.name) or []
        symbolicated = [record for record in tail
                        if (record.get("source") or {}).get("file")]
        if symbolicated:
            last = symbolicated[-1]
            print("last C line  : %s:%s (%s) at pc=0x%04x"
                  % (last["source"]["file"], last["source"]["line"],
                     last["source"]["function"], last["pc"]))
        return 0
    print("snap-flight: demo guest did not crash", file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-flight",
        description="Inspect, replay, and demo flight-recorder crash "
                    "bundles.")
    sub = parser.add_subparsers(dest="command")

    inspect = sub.add_parser("inspect",
                             help="render a bundle as Markdown")
    inspect.add_argument("bundle", help="path to crash.json")

    replay = sub.add_parser("replay-tail",
                            help="print the recorded instruction tail")
    replay.add_argument("bundle", help="path to crash.json")
    replay.add_argument("--node", default=None,
                        help="only this node's tail")
    replay.add_argument("--tail", type=int, default=None, metavar="N",
                        help="only the last N instructions")
    replay.add_argument("--replay", action="store_true",
                        help="restore the bundle's embedded checkpoint "
                             "and re-run the tail up to the crash, "
                             "verifying the final state matches")

    demo = sub.add_parser("demo-crash",
                          help="run a deliberately faulting guest and "
                               "write its bundle")
    demo.add_argument("--out", default="crash-bundles",
                      help="bundle output directory (default "
                           "crash-bundles)")
    demo.add_argument("--mode", choices=DEMO_MODES, default="fault",
                      help="demo failure: guest fault, meter invariant, "
                           "or leaked kernel handle (default fault)")

    args = parser.parse_args(argv)
    command = {"inspect": cmd_inspect, "replay-tail": cmd_replay_tail,
               "demo-crash": cmd_demo_crash}.get(args.command)
    if command is None:
        parser.print_help()
        return 2
    from repro.sim.checkpoint import CheckpointError

    try:
        return command(args)
    except (BundleError, CheckpointError) as error:
        print("snap-flight: error: %s" % error, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
