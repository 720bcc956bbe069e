"""Checkpoint/restore differential harness and schema tests.

The headline proof for :mod:`repro.sim.checkpoint`: for every scenario
in the :mod:`repro.sim.differential` matrix and both execution engines,
a simulation checkpointed at a mid-flight time ``t`` and resumed runs
bit-identically to one that was never interrupted -- meter digests,
trace streams, and packet-journey trees all match exactly.  Plus
property tests (capture/restore round-trips arbitrary live state,
capture is idempotent and mutation-free) and the schema-versioning
contract (typed :class:`CheckpointVersionError`, committed golden).
"""

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CoreConfig
from repro.core.kernel import Kernel
from repro.netstack import build_blink_app
from repro.network.simulator import NetworkSimulator
from repro.node import SensorNode
from repro.obs import MemorySink, Observability
from repro.sim import (
    SCHEMA,
    Checkpoint,
    CheckpointCaptureError,
    CheckpointError,
    CheckpointVersionError,
    capture,
    network_digest,
    restore,
)
from repro.sim.differential import (
    SCENARIOS,
    SLOW_SCENARIOS,
    _run,
    checkpoint_time,
    differential,
    digest_diff,
)
from repro.sim.differential import main as differential_main
from repro.tools.snap_diff import main as snap_diff_main
from repro.tools.snap_flight import main as snap_flight_main
from repro.tools.snap_run import main as snap_run_main

ENGINES = [True, False]

#: Every differential scenario.  The slow ones carry
#: ``@pytest.mark.slow``: the tier-1 run deselects them, CI's full
#: matrix runs them.
MATRIX = [pytest.param(name, marks=pytest.mark.slow)
          if name in SLOW_SCENARIOS else name for name in SCENARIOS]

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "checkpoint_v1.json")


def _fraction(scenario, fast_path):
    """A pseudo-random mid-flight checkpoint fraction, stable per case.

    Seeded from the case identity so failures reproduce, while the
    matrix still spreads capture points across the autonomous tails.
    """
    return random.Random("%s/%s" % (scenario, fast_path)).uniform(0.15, 0.85)


# -- the differential matrix --------------------------------------------------


class TestDifferentialMatrix:
    @pytest.mark.parametrize("fast_path", ENGINES)
    @pytest.mark.parametrize("scenario", MATRIX)
    def test_resume_is_bit_identical(self, scenario, fast_path):
        report = differential(scenario, fast_path,
                              fraction=_fraction(scenario, fast_path))
        assert report["identical"], "\n".join(
            digest_diff(report["baseline"], report["resumed"]))

    def test_differential_round_trips_via_json(self):
        """The persisted JSON text, not just the in-memory dict, is what
        must restore bit-identically (the default, pinned here)."""
        report = differential("sti", True, fraction=0.5, via_json=True)
        assert report["identical"]

    @pytest.mark.parametrize("fraction", [1.0, 1.5, -2.0])
    def test_fraction_outside_the_tail_is_rejected(self, fraction):
        # 1.5 would capture past the horizon (a false DIVERGED) and -2
        # before the tail starts (a vacuous ok).
        with pytest.raises(ValueError, match="fraction"):
            differential("straightline", True, fraction=fraction)

    def test_cli_rejects_fraction_outside_the_tail(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            differential_main(["--scenarios", "straightline",
                               "--fractions", "1.5,-2"])
        assert excinfo.value.code == 2
        assert "--fractions" in capsys.readouterr().err


class TestTraceStreamIdentity:
    """The resumed run's trace stream equals the uninterrupted run's
    stream filtered to events after the checkpoint time."""

    @pytest.mark.parametrize("fast_path", ENGINES)
    def test_blink_stream_tail_matches(self, fast_path):
        builder = SCENARIOS["blink"]

        baseline, horizon = builder(fast_path)
        obs = Observability()
        sink = obs.bus.attach(MemorySink())
        baseline.attach_observability(obs)
        t = checkpoint_time(baseline, horizon, 0.4)
        _run(baseline, horizon)

        subject, _ = builder(fast_path)
        subject_obs = Observability()
        subject.attach_observability(subject_obs)
        subject_obs.bus.attach(MemorySink())
        _run(subject, t)
        resumed = restore(Checkpoint.from_json(capture(subject).to_json()))
        resumed_obs = Observability()
        resumed_sink = resumed_obs.bus.attach(MemorySink())
        resumed.attach_observability(resumed_obs)
        _run(resumed, horizon)

        tail = [record for record in sink.records() if record["time"] > t]
        assert tail  # non-vacuous: the tail saw real activity
        assert resumed_sink.records() == tail

    def test_chain_stream_tail_matches(self):
        builder = SCENARIOS["chain_biterr"]

        baseline, horizon = builder(True)
        obs = Observability()
        sink = obs.bus.attach(MemorySink())
        baseline.attach_observability(obs)
        t = checkpoint_time(baseline, horizon, 0.25)
        _run(baseline, horizon)

        subject, _ = builder(True)
        subject.attach_observability(Observability())
        _run(subject, t)
        resumed = restore(capture(subject))
        resumed_obs = Observability()
        resumed_sink = resumed_obs.bus.attach(MemorySink())
        resumed.attach_observability(resumed_obs)
        _run(resumed, horizon)

        tail = [record for record in sink.records() if record["time"] > t]
        assert tail
        assert resumed_sink.records() == tail


class TestJourneyTreeIdentity:
    """Packet-journey trees reconstructed over the resumed tail equal
    those reconstructed over the same tail of an uninterrupted run.

    Journey trackers reassemble frames statefully from word streams, so
    the comparison window must contain whole frames: the chain scenarios
    start their last flight at the very head of the autonomous tail
    (checkpoint there), while convergecast traffic is periodic and
    supports a genuinely mid-flight capture point (the slow case).
    """

    @staticmethod
    def _journeys_after(sim, t, horizon):
        _run(sim, t)
        obs = Observability(journeys=True)
        sim.attach_observability(obs)
        _run(sim, horizon)
        obs.journeys.flush()
        return [journey.tree() for journey in obs.journeys.journeys]

    def _check(self, scenario, fraction):
        builder = SCENARIOS[scenario]

        baseline, horizon = builder(True)
        t = checkpoint_time(baseline, horizon, fraction)
        want = self._journeys_after(baseline, t, horizon)

        subject, _ = builder(True)
        _run(subject, t)
        resumed = restore(Checkpoint.from_json(capture(subject).to_json()))
        got = self._journeys_after(resumed, t, horizon)

        assert want  # non-vacuous: the tail carried packets
        assert got == want

    @pytest.mark.parametrize("scenario", ["chain_biterr", "aodv_noroute"])
    def test_tail_journey_trees_match(self, scenario):
        self._check(scenario, fraction=0.0)

    @pytest.mark.slow
    def test_convergecast_mid_flight_journey_trees_match(self):
        self._check("convergecast", fraction=0.35)


# -- property tests -----------------------------------------------------------


def _scrambled_node(regs, dmem_writes, meter_floats, fifo_words, lfsr,
                    timer_ticks, carry, pc):
    """A node with randomized architectural, meter, and kernel state."""
    node = SensorNode(node_id=3, config=CoreConfig(fast_path=False))
    processor = node.processor
    processor.regs._regs = list(regs)
    for address, word in dmem_writes:
        processor.dmem.poke(address, word)
    processor.lfsr.seed(lfsr)
    processor.carry = carry
    processor.pc = pc
    meter = processor.meter
    meter.total_energy, meter.busy_time, meter.idle_energy = meter_floats
    meter.instructions = int(meter_floats[0] * 1e9) & 0xFFFFFF
    for word in fifo_words:
        processor.mcp.outgoing.push(word)
    for index, ticks in enumerate(timer_ticks):
        processor.timer.schedlo(index, ticks)
    return node


@given(
    regs=st.lists(st.integers(0, 0xFFFF), min_size=15, max_size=15),
    dmem_writes=st.lists(
        st.tuples(st.integers(0, 2047), st.integers(0, 0xFFFF)),
        max_size=8),
    meter_floats=st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False)),
    fifo_words=st.lists(st.integers(0, 0xFFFF), max_size=8),
    lfsr=st.integers(1, 0xFFFF),
    timer_ticks=st.lists(st.integers(1, 0xFFFF), min_size=0, max_size=3),
    carry=st.integers(0, 1),
    pc=st.integers(0, 2047),
)
@settings(max_examples=30, deadline=None)
def test_restore_capture_round_trips(regs, dmem_writes, meter_floats,
                                     fifo_words, lfsr, timer_ticks, carry,
                                     pc):
    """``capture(restore(capture(s)))`` is a fixed point for arbitrary
    live state: registers, memories, meter floats at full precision,
    FIFO contents, armed timers and their pending kernel expirations."""
    node = _scrambled_node(regs, dmem_writes, meter_floats, fifo_words,
                           lfsr, timer_ticks, carry, pc)
    first = capture(node)
    clone = restore(Checkpoint.from_json(first.to_json()))
    second = capture(clone)
    assert second.data == first.data


@given(delays=st.lists(st.floats(1e-6, 1.0, allow_nan=False), max_size=4))
@settings(max_examples=20, deadline=None)
def test_capture_is_idempotent_and_pure(delays):
    """Capturing twice yields identical bytes, and capture itself never
    perturbs the simulation (digests before and after agree)."""
    node = SensorNode(node_id=1)
    for index, delay in enumerate(delays):
        ticks = max(1, int(delay * node.processor.timer.tick_hz)) & 0xFFFF
        node.processor.timer.schedlo(index % 3, max(1, ticks))
    before = network_digest(node)
    first = capture(node)
    second = capture(node)
    assert first.to_json() == second.to_json()
    assert network_digest(node) == before


# -- schema versioning --------------------------------------------------------


class TestSchemaVersioning:
    def test_unknown_schema_raises_typed_error_with_version(self):
        bogus = {"schema": "repro.sim.checkpoint/999", "kind": "node"}
        with pytest.raises(CheckpointVersionError) as excinfo:
            Checkpoint(bogus)
        message = str(excinfo.value)
        assert "repro.sim.checkpoint/999" in message
        assert SCHEMA in message
        assert excinfo.value.found == "repro.sim.checkpoint/999"

    def test_missing_schema_raises(self):
        with pytest.raises(CheckpointVersionError):
            Checkpoint({"kind": "node"})
        with pytest.raises(CheckpointVersionError):
            restore({"kind": "node"})

    def test_version_error_is_a_checkpoint_error(self):
        assert issubclass(CheckpointVersionError, CheckpointError)

    def test_golden_schema_v1(self):
        """The committed golden detects accidental schema drift.

        Regenerate deliberately (after a schema *version bump*) with::

            PYTHONPATH=src python -m tests.regen_checkpoint_golden
        """
        builder = SCENARIOS["sti"]
        node, _ = builder(True)
        _run(node, 0.02)
        data = json.loads(capture(node).to_json())
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert data == golden


# -- malformed checkpoints ----------------------------------------------------

#: Corruptions of the golden's ``nodes`` field: deleted (``None``),
#: mistyped, and empty.
MALFORMED_NODES = pytest.mark.parametrize(
    "value", [None, "node0", []], ids=["deleted", "mistyped", "empty"])


def _golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def _malformed_golden(tmp_path, value):
    data = _golden()
    if value is None:
        del data["nodes"]
    else:
        data["nodes"] = value
    path = tmp_path / "malformed.ckpt.json"
    path.write_text(json.dumps(data))
    return data, str(path)


class TestMalformedCheckpoint:
    @MALFORMED_NODES
    def test_restore_names_the_field(self, tmp_path, value):
        data, path = _malformed_golden(tmp_path, value)
        with pytest.raises(CheckpointError, match="'nodes'"):
            restore(data)
        with pytest.raises(CheckpointError, match="'nodes'"):
            Checkpoint.load(path)

    @MALFORMED_NODES
    def test_snap_run_resume_reports_it(self, tmp_path, capsys, value):
        _, path = _malformed_golden(tmp_path, value)
        assert snap_run_main(["--resume", path, "--until", "0.1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("snap-run: ") and "'nodes'" in err

    @MALFORMED_NODES
    def test_snap_diff_is_a_usage_error(self, tmp_path, capsys, value):
        _, path = _malformed_golden(tmp_path, value)
        assert snap_diff_main([path, path, "--until", "0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("snap-diff: error: ") and "'nodes'" in err

    def test_missing_kind_is_rejected_at_construction(self):
        data = _golden()
        del data["kind"]
        with pytest.raises(CheckpointError, match="'kind'"):
            Checkpoint(data)

    def test_nested_field_errors_are_chained(self):
        missing = _golden()
        del missing["nodes"][0]["processor"]["pc"]
        with pytest.raises(CheckpointError, match=r"nodes\[0\].*'pc'") \
                as excinfo:
            restore(missing)
        assert isinstance(excinfo.value.__cause__, KeyError)
        mistyped = _golden()
        mistyped["kernel"]["events"] = [7]
        with pytest.raises(CheckpointError, match="kernel") as excinfo:
            restore(mistyped)
        assert isinstance(excinfo.value.__cause__, TypeError)

    def test_non_json_file_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "cut.ckpt.json"
        with open(GOLDEN) as handle:
            path.write_text(handle.read()[:100])
        with pytest.raises(CheckpointError, match="not JSON"):
            Checkpoint.load(str(path))


# -- capture policy and error paths -------------------------------------------


class TestCapturePolicy:
    def test_unknown_callback_raises_by_default(self):
        node = SensorNode(node_id=1)
        node.kernel.schedule(0.5, lambda: None)
        with pytest.raises(CheckpointCaptureError) as excinfo:
            capture(node)
        assert "lambda" in str(excinfo.value)

    def test_unknown_callback_skip_policy_records_the_skip(self):
        node = SensorNode(node_id=1)
        node.kernel.schedule(0.5, lambda: None)
        checkpoint = capture(node, unknown="skip")
        skipped = checkpoint.data["skipped_callbacks"]
        assert len(skipped) == 1 and skipped[0]["time"] == 0.5

    def test_unsupported_sensor_type_raises(self):
        class WeirdSensor:
            def read(self, now):
                return 0

        node = SensorNode(node_id=1)
        node.attach_sensor(WeirdSensor(), sensor_id=5)
        with pytest.raises(CheckpointCaptureError) as excinfo:
            capture(node)
        assert "WeirdSensor" in str(excinfo.value)

    def test_capture_rejects_bare_objects(self):
        with pytest.raises(CheckpointCaptureError):
            capture(Kernel())

    def test_restored_kernel_rejects_bad_handles(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            kernel.restore_state(0.0, 2, [(0.1, 5, print, ())])
        with pytest.raises(ValueError):
            kernel.restore_state(0.0, 4, [(0.1, 2, print, ()),
                                          (0.2, 2, print, ())])


class TestSimulatorSurface:
    def test_network_checkpoint_methods_round_trip(self, tmp_path):
        net = NetworkSimulator()
        program = build_blink_app(period_ticks=400)
        net.add_node(1, program=program)
        net.start()
        net.run(until=0.05)
        path = str(tmp_path / "net.ckpt.json")
        net.checkpoint().save(path)
        clone = NetworkSimulator.from_checkpoint(path)
        assert network_digest(clone) == network_digest(net)
        clone.run(until=0.1)
        net.run(until=0.1)
        assert network_digest(clone) == network_digest(net)


# -- CLI surfaces -------------------------------------------------------------


_CLI_PROGRAM = """
boot:
    movi r1, 0
    movi r2, 6
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


class TestSnapRunCheckpoint:
    def _write_program(self, tmp_path):
        path = tmp_path / "loop.s"
        path.write_text(_CLI_PROGRAM)
        return str(path)

    def test_checkpoint_resume_matches_uninterrupted(self, tmp_path,
                                                     capsys):
        source = self._write_program(tmp_path)
        ckpt = str(tmp_path / "loop.ckpt.json")

        assert snap_run_main([source, "--until", "0.01"]) == 0
        uninterrupted = capsys.readouterr().out

        assert snap_run_main([source, "--until", "0.004",
                              "--checkpoint-every", "0.002",
                              "--checkpoint-path", ckpt]) == 0
        assert "checkpoint   : t=0.004000 s" in capsys.readouterr().out

        assert snap_run_main(["--resume", ckpt, "--until", "0.01"]) == 0
        resumed = capsys.readouterr().out
        assert "resumed      : %s" % ckpt in resumed

        def stats(text):
            return [line for line in text.splitlines()
                    if not line.startswith(("checkpoint", "resumed"))]

        assert stats(resumed) == stats(uninterrupted)

    def test_checkpoint_every_requires_until(self, tmp_path, capsys):
        source = self._write_program(tmp_path)
        with pytest.raises(SystemExit):
            snap_run_main([source, "--checkpoint-every", "0.5"])

    def test_resume_and_inputs_are_exclusive(self, tmp_path):
        source = self._write_program(tmp_path)
        with pytest.raises(SystemExit):
            snap_run_main([source, "--resume", "x.json"])
        with pytest.raises(SystemExit):
            snap_run_main([])

    def test_resume_rejects_network_checkpoints(self, tmp_path, capsys):
        net = NetworkSimulator()
        net.add_node(1, program=build_blink_app(period_ticks=400))
        net.run(until=0.01)
        path = str(tmp_path / "net.ckpt.json")
        net.checkpoint().save(path)
        assert snap_run_main(["--resume", path, "--until", "0.02"]) == 1
        assert "single-node" in capsys.readouterr().err


class TestSnapFlightReplay:
    def test_replay_tail_reproduces_crash_from_checkpoint(self, tmp_path,
                                                          capsys):
        out = str(tmp_path / "bundle")
        assert snap_flight_main(["demo-crash", "--out", out]) == 0
        assert "checkpoint   : embedded" in capsys.readouterr().out
        bundle = os.path.join(out, "crash.json")
        assert snap_flight_main(["replay-tail", bundle, "--replay",
                                 "--tail", "1"]) == 0
        output = capsys.readouterr().out
        assert "reproduced   : MemoryFault" in output
        assert "state matches the bundle" in output

    def test_replay_without_embedded_checkpoint_fails_cleanly(
            self, tmp_path, capsys):
        bundle = tmp_path / "bare.json"
        bundle.write_text(json.dumps({"schema": "repro.obs.crash-bundle/1",
                                      "time_s": 0.1, "nodes": {}}))
        assert snap_flight_main(["replay-tail", str(bundle),
                                 "--replay"]) == 1
        assert "no embedded checkpoint" in capsys.readouterr().err
