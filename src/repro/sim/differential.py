"""Differential proof harness for checkpoint/restore.

The determinism contract (DESIGN.md, "Checkpoint & deterministic
replay") is proven the same way PR 4 proved the fast path: run a
scenario to a mid-flight time ``t``, :func:`~repro.sim.checkpoint.capture`,
:func:`~repro.sim.checkpoint.restore` into a fresh simulator, run both
the resumed and an uninterrupted twin to the horizon ``T``, and assert
:func:`~repro.sim.checkpoint.network_digest` equality -- every meter
accumulator at full float precision, every radio/channel counter.

Each scenario here is a *builder*: it assembles the simulation and plays
any staged host-side prologue (boot runs, route seeding, packet
injection), then hands back a sim that evolves autonomously to the
horizon.  Checkpoint times are drawn from the autonomous tail, so the
interrupted and uninterrupted twins differ only in the capture/restore
round-trip under test.

:data:`SCENARIOS` is the repository's one table of named scenarios:
``snap-diff scenario:NAME`` and ``snap-energy NAME`` resolve names
here, so a scenario added once is checkpoint-tested, diffable and
energy-profiled.  The chain and convergecast networks are built by
:mod:`repro.network.experiments`; the builders here add only their own
boot, packet and horizon timing.

The matrix deliberately covers the state the checkpoint schema is most
likely to get wrong:

* ``straightline`` -- a single busy core (burst engine mid-flight).
* ``blink`` -- fig. 5 timers: armed timer registers and their pending
  kernel expirations.
* ``sti`` -- timer-driven self-modifying code: predecoded-IMEM validity
  must survive the round trip.
* ``chain_biterr`` -- multi-hop DATA traffic over a noisy channel:
  in-flight radio words, TX queues, MAC retries, and the channel noise
  RNG mid-stream.
* ``aodv_noroute`` -- AODV route discovery that never resolves: RREQ
  flooding state in guest DMEM.
* ``convergecast`` -- periodic sensing with per-node temperature RNGs.
* ``c_blink`` -- the fig. 5 blink compiled from C, so energy views
  symbolicate to ``blink.c`` lines.

``convergecast`` and ``c_blink`` are the expensive cases
(:data:`SLOW_SCENARIOS`, marked slow in the tier-1 suite).

Run standalone (CI's ``checkpoint`` job)::

    python -m repro.sim.differential --scenarios straightline,blink \
        --json checkpoint-report.json
"""

import argparse
import json
import sys

from repro.asm import build
from repro.core import CoreConfig
from repro.isa.encoding import encode
from repro.isa.events import Event
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.netstack import build_blink_app
from repro.netstack.runtime import boot_source
from repro.network import experiments
from repro.network.simulator import NetworkSimulator
from repro.node import SensorNode
from repro.sim.checkpoint import Checkpoint, capture, network_digest, restore

#: Both execution engines; every scenario differential runs under each.
ENGINES = (True, False)


# -- scenario builders --------------------------------------------------------
#
# Each builder returns ``(sim, horizon)``: *sim* is a NetworkSimulator
# or SensorNode whose clock sits at the end of the staged prologue, and
# the simulation runs host-intervention-free from there to *horizon*.


#: A counted ALU loop; ``%(outer)d`` sets the outer iteration count
#: (2000 inner iterations each).
STRAIGHTLINE = """
boot:
    movi r1, 0
    movi r2, %(outer)d
outer:
    movi r3, 2000
inner:
    addi r1, 1
    subi r3, 1
    bnez r3, inner
    subi r2, 1
    bnez r2, outer
    halt
"""


def build_straightline(fast_path):
    """One busy core grinding a counted loop, no coprocessor traffic."""
    node = SensorNode(node_id=1, config=CoreConfig(fast_path=fast_path))
    node.load(build(STRAIGHTLINE % {"outer": 12}))
    node.processor.start()
    return node, 0.025


def build_blink(fast_path):
    """Two fig. 5 blink nodes: armed timers and LED port history."""
    net = NetworkSimulator()
    program = build_blink_app(period_ticks=400)
    config = CoreConfig(fast_path=fast_path)
    net.add_node(1, program=program, config=config)
    net.add_node(2, program=program, config=config)
    net.start()
    return net, 1.0


#: Self-modifying workload: every timer tick the handler loads the next
#: replacement word from DMEM and rewrites its own patch site, toggling
#: it between ``mov r1, r0`` and ``add r2, r3`` -- predecode validity
#: churns for the whole run.
_STI_APP = r"""
    .equ STATE, 0x10
    .equ COUNT, 0x11
    .equ WORDS, 0x12

sti_init:
    st r0, STATE(r0)
    st r0, COUNT(r0)
    movi r1, %(word_mov)d
    st r1, WORDS(r0)
    movi r1, %(word_add)d
    st r1, 0x13(r0)
    movi r2, 5
    movi r3, 7
    ret

sti_arm:
    movi r1, 0
    movi r2, %(period)d
    schedlo r1, r2
    ret

sti_handler:
    jal sti_arm
    ld r4, STATE(r0)
    xori r4, 1
    st r4, STATE(r0)
    movi r6, WORDS
    add r6, r4
    ld r7, 0(r6)
    movi r5, patch
    sti r7, 0(r5)
patch:
    mov r1, r0
    ld r3, COUNT(r0)
    addi r3, 1
    st r3, COUNT(r0)
    done
"""


def build_sti(fast_path):
    """Timer-driven self-modifying code (predecode churn)."""
    word_mov = encode(Instruction(Opcode.MOV, rd=1, rs=0))[0]
    word_add = encode(Instruction(Opcode.ADD, rd=2, rs=3))[0]
    source = boot_source(handlers={Event.TIMER0: "sti_handler"},
                         init_calls=("sti_init",),
                         extra="    jal sti_arm")
    app = _STI_APP % {"word_mov": word_mov, "word_add": word_add,
                      "period": 500}
    node = SensorNode(node_id=1, config=CoreConfig(fast_path=fast_path))
    node.load(build(source + app))
    node.processor.start()
    return node, 0.05


def _build_chain(fast_path, bit_error_rate, no_route, packets):
    """The three-node snap-net-trace chain, staged up to its last packet."""
    sink_id = 3
    net = experiments.build_chain(sink_id, bit_error_rate=bit_error_rate,
                                  seed=7, corruption="flip",
                                  fast_path=fast_path)
    net.run(until=0.01)  # everyone boots and sleeps

    app_dest = experiments.UNROUTABLE_DEST if no_route else sink_id
    if not no_route:
        experiments.seed_chain_routes(net, first_relay=2, sink_id=sink_id)

    for sequence in range(packets):
        experiments.send_chain_packet(net, sequence, app_dest)
        if sequence < packets - 1:
            net.run(until=net.kernel.now + 0.05)
    # The last packet's whole flight (CSMA backoff, per-hop relays, MAC
    # retries under noise) happens inside the differential window.  The
    # flight itself is over within ~8 ms; the tight horizon keeps
    # mid-tail checkpoint fractions landing with radio words genuinely
    # in the air rather than in the idle aftermath.
    return net, net.kernel.now + 0.02


def build_chain_biterr(fast_path):
    """Multi-hop DATA delivery over a noisy, bit-flipping channel."""
    return _build_chain(fast_path, bit_error_rate=0.02, no_route=False,
                        packets=3)


def build_aodv_noroute(fast_path):
    """AODV route discovery that can never resolve (RREQ flooding)."""
    return _build_chain(fast_path, bit_error_rate=0.0, no_route=True,
                        packets=2)


def build_convergecast(fast_path):
    """Periodic sensing chain with per-node temperature-sensor RNGs."""
    net = experiments.build_convergecast(chain_length=3, period_s=0.05,
                                         seed=0, fast_path=fast_path)
    return net, net.kernel.now + 1.0


#: The fig. 5 blink written in the C dialect, so every hot frame
#: symbolicates to a real ``file:line`` in ``blink.c`` (the assembly
#: scenarios carry assembler line tables instead).
C_BLINK = """\
int state;

void arm() { __schedlo(0, 400); }

void init() { state = 0; arm(); }

__handler void on_timer() {
    state = 1 - state;
    __r15_write(16384 + state);
    arm();
}
"""


def build_c_blink(fast_path):
    """A single fig5-blink node compiled from :data:`C_BLINK`."""
    from repro.cc.compiler import build_c_node

    program = build_c_node(C_BLINK, handlers={Event.TIMER0: "on_timer"},
                           source_name="blink.c")
    node = SensorNode(node_id=1, config=CoreConfig(fast_path=fast_path))
    node.load(program)
    node.processor.start()
    return node, 1.0


#: Name -> ``builder(fast_path) -> (sim, horizon)``.
SCENARIOS = {
    "straightline": build_straightline,
    "blink": build_blink,
    "sti": build_sti,
    "chain_biterr": build_chain_biterr,
    "aodv_noroute": build_aodv_noroute,
    "convergecast": build_convergecast,
    "c_blink": build_c_blink,
}

#: The cheapest scenarios, used by CI's differential smoke matrix.
CHEAP_SCENARIOS = ("straightline", "blink")
#: Scenarios too slow for the tier-1 suite (seconds per case on the
#: reference engine); CI runs them in the checkpoint job.
SLOW_SCENARIOS = ("convergecast", "c_blink")


# -- the differential ---------------------------------------------------------


def _run(sim, until):
    if isinstance(sim, SensorNode):
        sim.kernel.run(until=until)
    else:
        sim.run(until=until)


def checkpoint_time(sim, horizon, fraction):
    """A mid-flight capture time: *fraction* of the autonomous tail."""
    start = sim.kernel.now
    return start + (horizon - start) * fraction


def _check_fraction(fraction):
    """Reject capture points outside the tail: at or past the horizon
    the twins' clocks differ, and before the tail the capture is moot."""
    if not 0 <= fraction < 1:
        raise ValueError("checkpoint fraction must lie in [0, 1), not %r"
                         % (fraction,))


def differential(scenario, fast_path, fraction=0.5, via_json=True,
                 localize=False):
    """Run one (scenario, engine) differential; returns a report dict.

    Builds the scenario twice.  The *baseline* runs uninterrupted to the
    horizon.  The *subject* runs to ``t`` (a *fraction* of the autonomous
    tail), is captured, optionally round-tripped through JSON text
    (*via_json*, the default -- the persisted format is what must be
    deterministic), restored into a fresh simulator, and resumed to the
    horizon.  ``report["identical"]`` is the verdict;
    ``report["baseline"]``/``report["resumed"]`` hold the full digests.

    With *localize*, a failed differential additionally carries
    ``report["divergence"]``: the first divergent trace record between
    the baseline and resumed tails, pinned to node/handler/symbolicated
    PC by :mod:`repro.obs.diff` (see :func:`localize_divergence`).

    Raises :class:`ValueError` unless ``0 <= fraction < 1``.
    """
    _check_fraction(fraction)
    builder = SCENARIOS[scenario]

    baseline_sim, horizon = builder(fast_path)
    _run(baseline_sim, horizon)
    baseline = network_digest(baseline_sim)

    subject, horizon_b = builder(fast_path)
    if horizon_b != horizon:
        raise AssertionError("non-deterministic scenario builder %r"
                             % scenario)
    t = checkpoint_time(subject, horizon, fraction)
    _run(subject, t)
    checkpoint = capture(subject)
    if via_json:
        checkpoint = Checkpoint.from_json(checkpoint.to_json())
    resumed_sim = restore(checkpoint)
    _run(resumed_sim, horizon)
    resumed = network_digest(resumed_sim)

    report = {
        "scenario": scenario,
        "fast_path": fast_path,
        "t": t,
        "horizon": horizon,
        "identical": resumed == baseline,
        "baseline": baseline,
        "resumed": resumed,
    }
    if localize and not report["identical"]:
        report["divergence"] = localize_divergence(
            scenario, fast_path, t, via_json=via_json)
    return report


def localize_divergence(scenario, fast_path, t, via_json=True,
                        max_probes=12, tail=16):
    """Pin a failed differential's divergence to its first trace record.

    Rebuilds both sides of the differential at time *t* -- an
    uninterrupted twin and a capture/restore round trip -- and hands
    them to :class:`repro.obs.diff.Bisector`: bisect the digests over
    the tail, re-run the bisected window under the trace bus, and
    localize the first mismatching record (node, handler, symbolicated
    PC, flight-recorder tails).  Returns the divergence as a dict (with
    a rendered ``text``), or ``None`` when the tails never diverge.

    The restore here goes through this module's ``restore`` binding so
    fault-injection harnesses can intercept exactly the path under test.
    """
    from repro.obs.diff import Bisector

    builder = SCENARIOS[scenario]

    def make_baseline():
        sim, horizon = builder(fast_path)
        _run(sim, t)
        return sim, horizon

    def make_resumed():
        sim, horizon = builder(fast_path)
        _run(sim, t)
        ckpt = capture(sim)
        if via_json:
            ckpt = Checkpoint.from_json(ckpt.to_json())
        return restore(ckpt), horizon

    bisector = Bisector(make_baseline, make_resumed, max_probes=max_probes)
    divergence, _, _ = bisector.localize(
        tail=tail, label_a="baseline", label_b="resumed")
    if divergence is None:
        return None
    result = divergence.to_dict()
    result["text"] = divergence.describe()
    return result


def main(argv=None):
    from repro.obs.diff import deep_diff_paths

    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.differential",
        description="checkpoint/restore differential matrix")
    parser.add_argument("--scenarios",
                        default=",".join(CHEAP_SCENARIOS),
                        help="comma-separated scenario names (or 'all')")
    parser.add_argument("--fractions", default="0.25,0.75",
                        help="checkpoint points as fractions of the tail")
    parser.add_argument("--json", help="write the full report here")
    parser.add_argument("--no-localize", dest="localize",
                        action="store_false", default=True,
                        help="on divergence, skip snap-diff localization "
                             "and print only digest paths")
    args = parser.parse_args(argv)

    names = list(SCENARIOS) if args.scenarios == "all" \
        else args.scenarios.split(",")
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        parser.error("unknown scenarios: %s (have: %s)"
                     % (", ".join(unknown), ", ".join(SCENARIOS)))
    try:
        fractions = [float(field) for field in args.fractions.split(",")]
        for fraction in fractions:
            _check_fraction(fraction)
    except ValueError as error:
        parser.error("--fractions: %s" % error)

    reports, failed = [], 0
    for name in names:
        for fast_path in ENGINES:
            for fraction in fractions:
                report = differential(name, fast_path, fraction=fraction,
                                      localize=args.localize)
                reports.append(report)
                verdict = "ok" if report["identical"] else "DIVERGED"
                print("%-14s fast_path=%-5s t=%.6fs  %s"
                      % (name, fast_path, report["t"], verdict))
                if not report["identical"]:
                    failed += 1
                    for line in deep_diff_paths(report["baseline"],
                                                report["resumed"])[:20]:
                        print("    " + line)
                    divergence = report.get("divergence")
                    if divergence is not None:
                        for line in divergence["text"].splitlines():
                            print("    " + line)

    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"reports": reports, "failed": failed}, handle,
                      indent=2, sort_keys=True)
        print("report: %s" % args.json)

    print("%d/%d differentials identical"
          % (len(reports) - failed, len(reports)))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
