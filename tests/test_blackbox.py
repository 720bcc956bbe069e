"""Flight recorder, watchdog invariants, and crash bundles."""

import json
import os

import pytest

from repro.cc.compiler import build_c_node
from repro.core.exceptions import MemoryFault
from repro.isa.events import Event
from repro.netstack import build_blink_app
from repro.node.node import SensorNode
from repro.obs import (
    Blackbox,
    InvariantViolation,
    Observability,
    normalize_bundle,
    render_markdown,
)
from repro.tools.debugger import Debugger
from repro.tools.snap_flight import DEMO_CRASH_C, main as snap_flight_main

GOLDEN = os.path.join(os.path.dirname(__file__), "goldens",
                      "crash_bundle.json")

# The same deliberately-faulting guest the snap-flight demo and the CI
# smoke job run: at the third timer tick it stores through a pointer one
# past anything DMEM can hold.
FAULTY = DEMO_CRASH_C
FAULT_LINE = 1 + next(index for index, line
                      in enumerate(FAULTY.splitlines())
                      if "*p = 1;" in line)


def _faulty_node():
    program = build_c_node(FAULTY, handlers={Event.TIMER0: "on_timer"},
                           source_name="crash.c")
    node = SensorNode(node_id=0)
    node.load(program)
    return node


def _blink_node(node_id=0):
    node = SensorNode(node_id=node_id)
    node.load(build_blink_app(period_ticks=1000))
    return node


class TestWatchdog:
    def test_clean_run_trips_nothing(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        box.run(node, until=0.25)
        assert box.watchdog.checks_run > 10
        assert box.last_bundle is None

    def test_meter_perturbation_trips_energy_conservation(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        node.run(until=0.01)
        node.meter.total_energy += 1e-9
        with pytest.raises(InvariantViolation) as caught:
            box.watchdog.check()
        assert caught.value.invariant == "energy_conservation"
        assert caught.value.node == node.processor.name
        # The violation carries a flight-recorder snapshot of the tail.
        assert caught.value.snapshot["instructions"][node.processor.name]

    def test_leaked_cancel_trips_heap_liveness(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        node.run(until=0.01)
        # The bug class: an entry nulled on the heap while its handle
        # stays in the live index.
        entry = next(iter(node.kernel._live.values()))
        entry[2] = None
        with pytest.raises(InvariantViolation) as caught:
            box.watchdog.check()
        assert caught.value.invariant == "heap_liveness"

    def test_class_count_mismatch_trips_meter_consistency(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        node.run(until=0.01)
        next(iter(node.meter.by_class.values())).count += 1
        with pytest.raises(InvariantViolation) as caught:
            box.watchdog.check()
        assert caught.value.invariant == "meter_consistency"

    def test_mac_illegal_rx_index_trips(self):
        from repro.netstack import layout
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        node.run(until=0.01)
        node.processor.dmem.poke(layout.RX_INDEX_ADDR, 33)
        with pytest.raises(InvariantViolation) as caught:
            box.watchdog.check()
        assert caught.value.invariant == "mac_legality"

    def test_disabled_invariant_is_skipped(self):
        box = Blackbox(bundle_dir=None, invariants=("clock_monotonic",))
        node = _blink_node()
        box.observe(node)
        node.run(until=0.01)
        node.meter.total_energy += 1e-9
        box.watchdog.check()  # energy check disabled: no raise

    def test_watchdog_does_not_keep_a_drained_kernel_alive(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        # An unbounded run ends when the program halts or the queue
        # drains; the watchdog must stand down rather than re-arm
        # forever.  Blink never halts, so use a bounded run and then
        # check the disarm logic directly on an empty queue.
        node.run(until=0.05)
        for handle in list(node.kernel._live):
            if handle != box.watchdog._handle:
                node.kernel.cancel(handle)
        while node.kernel.step():
            pass
        assert not box.watchdog.armed


class TestCrashBundle:
    def test_guest_fault_produces_symbolicated_bundle(self, tmp_path):
        box = Blackbox(bundle_dir=str(tmp_path))
        node = _faulty_node()
        box.observe(node)
        with pytest.raises(MemoryFault) as caught:
            box.run(node, until=1.0)
        bundle = caught.value.crash_bundle
        assert bundle["reason"] == "guest_fault"
        assert bundle["error"]["type"] == "MemoryFault"
        tail = bundle["disassembly"][node.processor.name]
        assert len(tail) <= box.recorder.instruction_limit
        # The faulting store's tail must symbolicate back to the C
        # source line holding `*p = 1;`.
        last = tail[-1]
        assert last["source"]["file"] == "crash.c"
        assert last["source"]["function"] == "on_timer"
        assert last["source"]["line"] == FAULT_LINE
        # Node state captured at the fault.
        state = bundle["nodes"][node.processor.name]
        assert state["registers"]["r1"] == 6000
        assert state["mode"] == "running"
        assert state["event_queue"] == []
        # Both bundle files landed on disk.
        json_path, md_path = caught.value.crash_bundle_paths
        assert os.path.getsize(json_path) > 0
        assert "crash.c" in open(md_path).read()

    def test_invariant_violation_bundle_reason(self, tmp_path):
        box = Blackbox(bundle_dir=str(tmp_path), watchdog_interval=1e-4)
        node = _blink_node()
        box.observe(node)
        node.kernel.schedule(
            5e-4, lambda: setattr(node.meter, "total_energy",
                                  node.meter.total_energy + 1e-9))
        with pytest.raises(InvariantViolation) as caught:
            box.run(node, until=1.0)
        bundle = caught.value.crash_bundle
        assert bundle["reason"] == "invariant_violation"
        assert bundle["error"]["invariant"] == "energy_conservation"

    def test_host_exception_bundle_reason(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)

        def boom():
            raise RuntimeError("host bug in a kernel callback")
        node.kernel.schedule(5e-3, boom)
        with pytest.raises(RuntimeError):
            box.run(node, until=1.0)
        assert box.last_bundle["reason"] == "host_exception"

    def test_markdown_render_covers_the_tail(self):
        box = Blackbox(bundle_dir=None)
        node = _faulty_node()
        box.observe(node)
        with pytest.raises(MemoryFault):
            box.run(node, until=1.0)
        report = render_markdown(box.last_bundle)
        assert "# Crash bundle" in report
        assert "crash.c:%d" % FAULT_LINE in report
        assert "MemoryFault" in report

    def test_bundle_matches_golden(self, tmp_path):
        assert snap_flight_main(["demo-crash", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "crash.json") as handle:
            bundle = json.load(handle)
        with open(GOLDEN) as handle:
            golden = json.load(handle)
        assert normalize_bundle(bundle) == golden


class TestSnapFlightCli:
    def test_demo_crash_modes(self, tmp_path, capsys):
        for mode in ("fault", "invariant", "leak"):
            out = tmp_path / mode
            assert snap_flight_main(
                ["demo-crash", "--out", str(out), "--mode", mode]) == 0
            captured = capsys.readouterr().out
            assert "last C line  : crash.c:" in captured
            assert (out / "crash.json").exists()
            assert (out / "crash.md").exists()

    def test_inspect_and_replay(self, tmp_path, capsys):
        assert snap_flight_main(["demo-crash", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert snap_flight_main(
            ["inspect", str(tmp_path / "crash.json")]) == 0
        assert "## node0.cpu" in capsys.readouterr().out
        assert snap_flight_main(
            ["replay-tail", str(tmp_path / "crash.json"), "--tail", "4"]) == 0
        replay = capsys.readouterr().out
        assert "crash.c:" in replay

    @pytest.mark.parametrize("content", [None, "[]", '{"hello": 1}'],
                             ids=["truncated", "array", "no-schema"])
    def test_non_bundles_are_usage_errors(self, tmp_path, capsys, content):
        if content is None:  # the golden bundle, cut short
            with open(GOLDEN) as handle:
                content = handle.read()[:2000]
        path = tmp_path / "crash.json"
        path.write_text(content)
        for command in ("inspect", "replay-tail"):
            assert snap_flight_main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(
                "snap-flight: error: %s: " % path)
            assert captured.out == ""

    @pytest.mark.parametrize("command, edit, field", [
        (["replay-tail", "--replay"],
         lambda bundle: bundle.pop("time_s"), "'time_s' is missing"),
        (["replay-tail"],
         lambda bundle: bundle["disassembly"]["node0.cpu"][0].pop("time"),
         "'disassembly.node0.cpu[0].time' is missing"),
        (["inspect"],
         lambda bundle: bundle.update(nodes=list(bundle["nodes"].values())),
         "'nodes' is list, not dict"),
    ], ids=["no-time_s", "instruction-without-time", "nodes-as-list"])
    def test_malformed_bundle_fields_are_usage_errors(
            self, tmp_path, capsys, command, edit, field):
        with open(GOLDEN) as handle:
            bundle = json.load(handle)
        edit(bundle)
        path = tmp_path / "crash.json"
        path.write_text(json.dumps(bundle))
        assert snap_flight_main(command[:1] + [str(path)] + command[1:]) == 2
        captured = capsys.readouterr()
        assert captured.err == "snap-flight: error: %s: field %s\n" % (
            path, field)
        assert captured.out == ""

    def test_replay_of_a_malformed_checkpoint_is_a_usage_error(
            self, tmp_path, capsys):
        checkpoint_golden = os.path.join(os.path.dirname(__file__),
                                         "goldens", "checkpoint_v1.json")
        with open(checkpoint_golden) as handle:
            checkpoint = json.load(handle)
        del checkpoint["nodes"]
        path = tmp_path / "crash.json"
        path.write_text(json.dumps({
            "schema": "repro.obs.crash-bundle/1", "time_s": 0.1,
            "nodes": {}, "checkpoint": checkpoint}))
        assert snap_flight_main(["replay-tail", str(path), "--replay"]) == 2
        assert capsys.readouterr().err.startswith(
            "snap-flight: error: checkpoint field 'nodes' is missing")

    def test_demo_fault_line_is_a_store(self):
        # The CI smoke greps for `last C line : crash.c:`; make sure the
        # demo guest still contains the faulting store it symbolicates.
        assert "*p = 1;" in DEMO_CRASH_C


class TestDebuggerDetach:
    def test_detach_restores_previous_trace_fn(self):
        calls = []

        def original(processor, time, pc, instruction):
            calls.append(pc)

        node = _blink_node()
        node.processor.config.trace_fn = original
        debugger = Debugger(node.processor)
        installed = node.processor.config.trace_fn
        assert getattr(installed, "__self__", None) is debugger
        debugger.step(5)
        assert calls, "chained trace_fn must still fire while attached"
        seen = len(calls)
        debugger.detach()
        assert node.processor.config.trace_fn is original
        node.run(until=0.01)
        assert len(calls) > seen
        debugger.detach()  # idempotent
        assert node.processor.config.trace_fn is original

    def test_where_symbolicates_current_pc(self):
        node = _faulty_node()
        debugger = Debugger(node.processor)
        debugger.add_breakpoint("g_on_timer"
                                if "g_on_timer" in
                                (node.processor.program.symbols or {})
                                else "on_timer")
        stop = debugger.cont()
        assert stop.reason == "breakpoint"
        loc = debugger.where()
        assert loc.function == "on_timer"
        assert loc.file == "crash.c"


class TestOccupancyGauges:
    def test_load_reports_imem_dmem_occupancy(self):
        obs = Observability()
        node = _blink_node()
        node.attach_observability(obs)
        snapshot = obs.metrics.snapshot()
        name = node.processor.name
        used = snapshot[name + ".imem.occupancy_words"]
        assert used == len(node.processor.program.imem)
        frac = snapshot[name + ".imem.occupancy_frac"]
        assert 0.0 < frac <= 1.0
        assert name + ".dmem.occupancy_words" in snapshot

    def test_load_after_attach_also_reports(self):
        obs = Observability()
        node = SensorNode(node_id=0)
        node.attach_observability(obs)
        node.load(build_blink_app(period_ticks=1000))
        snapshot = obs.metrics.snapshot()
        assert snapshot[node.processor.name + ".imem.occupancy_words"] > 0
