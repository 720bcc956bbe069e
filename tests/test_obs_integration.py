"""Integration tests for observability wired into the core, node, and
network layers: the zero-cost-when-disabled guarantee, profiler/meter
reconciliation, metrics wiring, and the snapshot APIs."""

import json

import pytest

from repro.asm import build
from repro.core import CoreConfig, SnapProcessor
from repro.network import NetworkSimulator
from repro.node import SensorNode
from repro.obs import MemorySink, Observability

BLINK = """
boot:
    movi r1, 0
    movi r2, handler
    setaddr r1, r2
    movi r1, 0
    movi r2, 100
    schedlo r1, r2
    done
handler:
    ld r3, 0(r0)
    xori r3, 1
    st r3, 0(r0)
    movi r4, 0x4000
    or r4, r3
    mov r15, r4          ; write LED port
    movi r1, 0
    movi r2, 100
    schedlo r1, r2
    done
"""

SENDER = """
boot:
    movi r1, 4           ; RADIO_TX_DONE -> ignore handler
    movi r2, idle
    setaddr r1, r2
    movi r15, 0x2000     ; TX command
    movi r15, 0x1234     ; data word
    done
idle:
    done
"""

RECEIVER = """
boot:
    movi r1, 3           ; RADIO_RX event
    movi r2, on_word
    setaddr r1, r2
    movi r15, 0x1000     ; RX command
    done
on_word:
    mov r3, r15
    st r3, 0(r0)
    done
"""


def _run_blink(obs=None, until=0.0005):
    node = SensorNode(config=CoreConfig(voltage=0.6))
    node.load(build(BLINK))
    if obs is not None:
        node.attach_observability(obs)
    node.run(until=until)
    return node


class TestZeroCost:
    def test_observability_disabled_by_default(self):
        processor = SnapProcessor()
        assert processor.obs is None
        assert processor.event_queue.obs is None
        assert processor.mcp.obs is None
        node = SensorNode()
        assert node.radio.obs is None
        assert NetworkSimulator().obs is None

    def test_disabled_run_is_bit_identical_to_instrumented_run(self):
        plain = _run_blink()
        traced = _run_blink(obs=Observability(profile=True))

        # Exact float equality, not approx: the disabled path must not
        # perturb the simulation in any way.
        assert plain.meter.total_energy == traced.meter.total_energy
        assert plain.meter.instructions == traced.meter.instructions
        assert plain.meter.busy_time == traced.meter.busy_time
        assert plain.meter.idle_time == traced.meter.idle_time
        assert plain.meter.wakeups == traced.meter.wakeups
        assert plain.kernel.now == traced.kernel.now
        assert plain.leds.toggles(led=0) == traced.leds.toggles(led=0)

    def test_network_run_is_bit_identical(self):
        def run(obs=None):
            net = NetworkSimulator(seed=7)
            net.add_node(0, program=build(SENDER))
            net.add_node(1, program=build(RECEIVER))
            if obs is not None:
                net.attach_observability(obs)
            net.run(until=0.05)
            return net

        plain, traced = run(), run(obs=Observability())
        assert plain.total_energy(include_radio=True) == \
            traced.total_energy(include_radio=True)
        assert plain.nodes[1].processor.dmem.peek(0) == \
            traced.nodes[1].processor.dmem.peek(0) == 0x1234


class TestProfiler:
    def test_reconciles_with_energy_meter(self):
        obs = Observability(profile=True)
        node = _run_blink(obs=obs)
        profiled, metered = obs.profiler.reconcile(node.meter)
        assert profiled == pytest.approx(metered, rel=1e-12)
        assert obs.profiler.instructions == node.meter.instructions
        # Per-handler energies partition the profiled total.
        assert sum(row[1] for row in obs.profiler.handlers().values()) == \
            pytest.approx(profiled, rel=1e-12)

    def test_handler_attribution(self):
        obs = Observability(profile=True)
        node = _run_blink(obs=obs)
        handlers = obs.profiler.handlers()
        assert {cpu for cpu, _ in handlers} == {node.processor.name}
        assert "boot" in {tag for _, tag in handlers}
        timer = [row for (_, tag), row in handlers.items() if tag != "boot"]
        instructions, energy, time, invocations = timer[0]
        assert invocations >= 2
        assert energy / invocations > 0
        assert instructions / invocations > 0

    def test_hotspots_sorted_by_energy(self):
        obs = Observability(profile=True)
        _run_blink(obs=obs)
        report = obs.profiler.report(top=5)
        hot = report.split("-- hot PCs (top 5 by energy) --")[1]
        pcs = [int(line.split()[1], 16) for line in hot.splitlines()[1:]]
        by_pc = obs.profiler.rollup(
            lambda node, pc, handler, instr_class: pc)
        assert len(pcs) == 5
        energies = [by_pc[pc][1] for pc in pcs]
        assert energies == sorted(energies, reverse=True)
        assert energies[0] == max(row[1] for row in by_pc.values())
        assert all(by_pc[pc][3] for pc in pcs)

    def test_report_mentions_handlers_and_hotspots(self):
        obs = Observability(profile=True)
        node = _run_blink(obs=obs)
        report = obs.profiler.report(top=3)
        assert "-- handlers (by energy) --" in report
        assert "-- hot PCs (top 3 by energy) --" in report
        assert "boot" in report
        hot = report.split("-- hot PCs")[1].splitlines()[1:]
        assert len(hot) == 3
        assert all(line.split()[0] == node.processor.name for line in hot)

    def test_one_image_on_two_nodes_keeps_per_node_rows(self):
        # One linked program on both receivers; only node 1 is in range
        # of the sender, and node 2 runs at another voltage.  A table
        # keyed by bare handler or pc would fold the two together.
        receiver = build(RECEIVER)
        net = NetworkSimulator(seed=7, comm_range=10.0)
        net.add_node(0, program=build(SENDER))
        net.add_node(1, program=receiver)
        net.add_node(2, program=receiver, position=(1e6, 0.0),
                     config=CoreConfig(voltage=1.8))
        obs = Observability(profile=True)
        net.attach_observability(obs)
        net.run(until=0.05)
        assert net.nodes[1].processor.dmem.peek(0) == 0x1234

        handlers = obs.profiler.handlers()
        for node_id in (1, 2):
            node = net.nodes[node_id]
            cpu = node.processor.name
            rows = {tag: row for (name, tag), row in handlers.items()
                    if name == cpu}
            meter = {tag: stats for tag, stats in
                     node.meter.by_handler.items() if stats.instructions}
            assert set(rows) == set(meter), cpu
            for tag, (instructions, energy, _, invocations) in rows.items():
                assert instructions == meter[tag].instructions, (cpu, tag)
                assert invocations == meter[tag].invocations, (cpu, tag)
                assert energy == pytest.approx(meter[tag].energy,
                                               rel=1e-12), (cpu, tag)
        cpu1, cpu2 = (net.nodes[i].processor.name for i in (1, 2))
        assert (cpu1, "RADIO_RX") in handlers
        assert (cpu2, "RADIO_RX") not in handlers
        # The shared boot code has one row per node, each with that
        # node's own energy.
        boot = {}
        for (cpu, pc, tag, _), row in obs.profiler.rows.items():
            if tag == "boot" and cpu in (cpu1, cpu2):
                boot.setdefault(pc, {})[cpu] = row
        assert boot
        for pc, per_node in boot.items():
            assert set(per_node) == {cpu1, cpu2}, pc
            assert per_node[cpu1][0] == per_node[cpu2][0], pc
            assert per_node[cpu1][1] != per_node[cpu2][1], pc


class TestMetricsWiring:
    def test_processor_and_queue_metrics_match_meter(self):
        obs = Observability()
        node = _run_blink(obs=obs)
        snapshot = obs.metrics.snapshot()
        assert snapshot["node0.cpu.instructions"] == node.meter.instructions
        assert snapshot["node0.cpu.wakeups"] == node.meter.wakeups
        assert snapshot["node0.cpu.eq.inserted"] == \
            node.processor.event_queue.inserted
        assert snapshot["node0.cpu.dispatch_latency"]["count"] == \
            node.meter.dispatch_count

    def test_radio_and_channel_metrics(self):
        obs = Observability()
        net = NetworkSimulator()
        net.attach_observability(obs)
        net.add_node(0, program=build(SENDER))
        net.add_node(1, program=build(RECEIVER))
        net.run(until=0.05)

        snapshot = obs.metrics.snapshot()
        assert snapshot["node0.radio.tx_words"] == 1
        assert snapshot["node1.radio.rx_words"] == 1
        assert snapshot["channel.words_carried"] == 1
        assert snapshot["node0.cpu.mcp.commands"] >= 1

    def test_radio_events_on_the_bus(self):
        obs = Observability()
        sink = obs.bus.attach(MemorySink())
        net = NetworkSimulator()
        net.attach_observability(obs)
        net.add_node(0, program=build(SENDER))
        net.add_node(1, program=build(RECEIVER))
        net.run(until=0.05)

        kinds = [record["type"] for record in sink.records()]
        assert "radio_tx" in kinds and "radio_rx" in kinds
        assert "command" in kinds
        tx = next(r for r in sink.records() if r["type"] == "radio_tx")
        assert tx["word"] == 0x1234 and tx["node"] == "node0.radio"


class TestSnapshots:
    def test_node_metrics_snapshot(self):
        node = _run_blink()
        snapshot = node.metrics_snapshot()
        assert snapshot["cpu"]["instructions"] == node.meter.instructions
        assert snapshot["cpu"]["mode"] == "sleeping"
        assert snapshot["event_queue"]["inserted"] >= 2
        assert snapshot["mcp"]["commands"] >= 1
        # The blink program is not the netstack, but harvest still reads
        # the (zeroed) counter cells without side effects.
        assert set(snapshot["mac"]) == {"tx_packets", "rx_packets", "rx_bad"}
        json.dumps(snapshot)

    def test_network_snapshot_totals_are_consistent(self):
        net = NetworkSimulator()
        net.add_node(0, program=build(SENDER))
        net.add_node(1, program=build(RECEIVER))
        net.add_node(2)  # passive sniffer, no program
        net.run(until=0.05)

        snapshot = net.snapshot(include_netstack=False)
        assert snapshot["time_s"] == net.kernel.now
        assert set(snapshot["nodes"]) == {0, 1, 2}
        totals = snapshot["totals"]
        assert totals["instructions"] == sum(
            node.meter.instructions for node in net.nodes.values())
        assert totals["energy_j"] == pytest.approx(net.total_energy())
        assert totals["radio_words_sent"] == 1
        assert snapshot["channel"]["words_carried"] == 1
        json.dumps(snapshot)
