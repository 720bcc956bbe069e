"""End-to-end tests of the SNAP software stack running on the simulated
processor: MAC, AODV routing, applications, and TinyOS ports."""

import pytest

from repro.asm.assembler import _Assembler
from repro.core import CoreConfig
from repro.isa.events import Event
from repro.netstack import (
    build_blink_app,
    build_radiostack_app,
    build_sense_app,
    build_temperature_app,
    checksum,
)
from repro.netstack import layout
from repro.netstack.apps import (
    THRESH_COUNT,
    THRESH_EXCEED,
    TEMP_AVG,
    TEMP_ITERATIONS,
    TEMP_MAX,
    TEMP_MIN,
)
from repro.netstack.drivers import build_aodv_node, build_rx_node, build_tx_node
from repro.netstack.tinyos_ports import RS_CRC
from repro.network import NetworkSimulator
from repro.node import SensorNode
from repro.radio import crc16_update, secded_encode
from repro.sensors import ConstantSensor, TemperatureSensor


def stage_packet(node, words):
    """Poke a packet body (no checksum) into the node's TX buffer."""
    for index, word in enumerate(words):
        node.processor.dmem.poke(layout.TX_BUF + index, word)


def tx_rx_pair(receiver_program, **net_kwargs):
    net = NetworkSimulator(**net_kwargs)
    sender = net.add_node(0, program=build_tx_node(0))
    receiver = net.add_node(2, program=receiver_program)
    net.run(until=0.001)  # both nodes boot and sleep
    return net, sender, receiver


def send(net, sender, packet):
    stage_packet(sender, packet[:-1])  # the MAC computes the checksum
    sender.processor.raise_soft_event()
    net.run(until=net.kernel.now + 0.5)


class TestPacketHelpers:
    def test_checksum(self):
        assert checksum([1, 2, 3]) == 6
        assert checksum([0xFFFF, 1]) == 0  # 16-bit wraparound

    def test_make_and_parse(self):
        packet = layout.make_packet(2, 1, layout.PKT_TYPE_DATA, 9, [5, 6])
        parsed = layout.parse_packet(packet)
        assert parsed["dst"] == 2
        assert parsed["payload"] == [5, 6]

    def test_parse_rejects_bad_checksum(self):
        packet = layout.make_packet(2, 1, layout.PKT_TYPE_DATA, 9, [5])
        packet[-1] ^= 1
        with pytest.raises(ValueError, match="checksum"):
            layout.parse_packet(packet)

    def test_payload_limit(self):
        with pytest.raises(ValueError):
            layout.make_packet(1, 0, 1, 0, [0] * 27)


class TestMac:
    def test_packet_round_trip(self):
        net, sender, receiver = tx_rx_pair(build_rx_node(2))
        packet = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 1,
                                    [9, 0x100, 0x180])
        send(net, sender, packet)
        dmem = receiver.processor.dmem
        assert dmem.peek(layout.RX_COUNT_ADDR) == 1
        assert dmem.peek(layout.RX_BAD_ADDR) == 0
        received = [dmem.peek(layout.RX_BUF + i) for i in range(len(packet))]
        assert received == packet

    def test_transmitted_checksum_matches_golden(self):
        net, sender, receiver = tx_rx_pair(build_rx_node(2))
        packet = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 5, [1, 2, 3])
        send(net, sender, packet)
        dmem = receiver.processor.dmem
        body_len = layout.PKT_HEADER_WORDS + 3
        assert dmem.peek(layout.RX_BUF + body_len) == checksum(packet[:-1])

    def test_corrupted_packet_dropped(self):
        """Failure injection: flip every word with some probability and
        confirm the checksum path counts bad packets."""
        net, sender, receiver = tx_rx_pair(build_rx_node(2))
        # Deliver a corrupted packet directly to the receiver's radio.
        packet = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 1, [7])
        packet[3] ^= 0x0040  # corrupt the seq word
        for word in packet:
            receiver.radio.deliver(word)
        net.run(until=net.kernel.now + 0.5)
        dmem = receiver.processor.dmem
        assert dmem.peek(layout.RX_BAD_ADDR) == 1
        assert dmem.peek(layout.RX_COUNT_ADDR) == 0

    def test_back_to_back_packets(self):
        net, sender, receiver = tx_rx_pair(build_rx_node(2))
        for seq in range(3):
            packet = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, seq, [seq])
            send(net, sender, packet)
        assert receiver.processor.dmem.peek(layout.RX_COUNT_ADDR) == 3

    def test_tx_handler_instruction_count_near_paper(self):
        """Table 1: Packet Transmission approximately 70 instructions."""
        net, sender, receiver = tx_rx_pair(build_rx_node(2))
        packet = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 1, [9, 1, 2])
        sender.meter.reset()
        send(net, sender, packet)
        handler = sender.meter.by_handler["SOFT"]
        assert 50 <= handler.instructions <= 100


class TestAodv:
    def test_route_reply(self):
        """An RREQ naming this node triggers an RREP (Table 1 row 3)."""
        net, sender, node = tx_rx_pair(build_aodv_node(2))
        rreq = layout.make_packet(2, 0, layout.PKT_TYPE_RREQ, 7, [2])
        send(net, sender, rreq)
        assert node.processor.dmem.peek(layout.RREP_COUNT_ADDR) == 1
        assert node.radio.words_sent > 0  # the reply left the node

    def test_rreq_for_other_node_ignored(self):
        net, sender, node = tx_rx_pair(build_aodv_node(2))
        rreq = layout.make_packet(2, 0, layout.PKT_TYPE_RREQ, 7, [9])
        send(net, sender, rreq)
        assert node.processor.dmem.peek(layout.RREP_COUNT_ADDR) == 0

    def test_forwarding_rewrites_header(self):
        net, sender, node = tx_rx_pair(build_aodv_node(2))
        # Install: destination 5 is reachable via next hop 9.
        node.processor.dmem.poke(layout.ROUTE_TABLE + 0, 5)
        node.processor.dmem.poke(layout.ROUTE_TABLE + 1, 9)
        node.processor.dmem.poke(layout.ROUTE_TABLE + 2, 1)
        # A passive sniffer records what the relay transmits.
        sniffer = net.add_node(99)
        sniffer.radio.set_receive(True)
        sniffed = []
        sniffer.radio.on_word_received = sniffed.append
        data = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 3, [5, 17, 34])
        send(net, sender, data)
        assert node.processor.dmem.peek(layout.FWD_COUNT_ADDR) == 1
        # The sniffer hears both the original and the forwarded packet.
        forwarded = sniffed[len(data):]
        assert forwarded[layout.PKT_DST] == 9   # next hop
        assert forwarded[layout.PKT_SRC] == 2   # relay
        parsed = layout.parse_packet(forwarded)
        assert parsed["payload"] == [5, 17, 34]

    def test_rrep_installs_route(self):
        net, sender, node = tx_rx_pair(build_aodv_node(2))
        rrep = layout.make_packet(2, 7, layout.PKT_TYPE_RREP, 1, [4, 2])
        send(net, sender, rrep)
        dmem = node.processor.dmem
        # Route: dest 4 via next hop 7 (the RREP's MAC sender).
        assert dmem.peek(layout.ROUTE_TABLE + 0) == 4
        assert dmem.peek(layout.ROUTE_TABLE + 1) == 7

    def test_three_hop_route_reply_chain(self):
        """Full RREQ -> RREP exchange over the air between two stacks."""
        net = NetworkSimulator()
        requester = net.add_node(1, program=build_aodv_node(1))
        responder = net.add_node(2, program=build_aodv_node(2))
        net.run(until=0.001)
        # Hand-inject an RREQ from node 1 looking for node 2: stage it in
        # node 1's TX buffer and transmit via the MAC's CSMA-free path.
        # (Node 1's boot has no SOFT handler, so drive its radio directly.)
        rreq = layout.make_packet(2, 1, layout.PKT_TYPE_RREQ, 3, [2])
        for word in rreq:
            responder.radio.deliver(word)
        net.run(until=net.kernel.now + 1.0)
        assert responder.processor.dmem.peek(layout.RREP_COUNT_ADDR) == 1
        # The RREP travelled back over the channel and node 1 installed it.
        dmem = requester.processor.dmem
        assert dmem.peek(layout.ROUTE_TABLE + 0) == 2

    def test_rebuilding_a_node_assembles_nothing(self, monkeypatch):
        first = build_aodv_node(2)
        # Count real assemblies, whichever name a builder calls them by.
        assembled = []
        run = _Assembler.run

        def counting_run(self):
            assembled.append(self._name)
            return run(self)

        monkeypatch.setattr(_Assembler, "run", counting_run)
        second = build_aodv_node(2)
        assert assembled == []
        assert second == first
        assert second.imem is not first.imem
        assert second.dmem is not first.dmem


class TestThresholdApp:
    def test_logs_larger_field(self):
        net, sender, node = tx_rx_pair(build_aodv_node(2))
        data = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 4,
                                  [2, 0x150, 0x250])
        send(net, sender, data)
        dmem = node.processor.dmem
        assert dmem.peek(THRESH_COUNT) == 1
        assert dmem.peek(layout.APP_DATA + 1) == 0x250  # the larger field
        assert dmem.peek(THRESH_EXCEED) == 1            # 0x250 > 0x200

    def test_below_threshold_not_counted(self):
        net, sender, node = tx_rx_pair(build_aodv_node(2))
        data = layout.make_packet(2, 0, layout.PKT_TYPE_DATA, 4,
                                  [2, 0x010, 0x020])
        send(net, sender, data)
        assert node.processor.dmem.peek(THRESH_EXCEED) == 0


class TestTemperatureApp:
    def _run_iterations(self, count, sensor=None):
        node = SensorNode(config=CoreConfig(voltage=0.6))
        node.attach_sensor(sensor or ConstantSensor(100), sensor_id=1)
        node.load(build_temperature_app(period_ticks=500))
        node.run(until=0.0004)
        node.meter.reset()
        node.run(until=0.0004 + count * 0.0005 + 0.0001)
        return node

    def test_iterations_counted(self):
        node = self._run_iterations(10)
        assert node.processor.dmem.peek(TEMP_ITERATIONS) == 10

    def test_constant_input_average_converges(self):
        node = self._run_iterations(20)
        assert node.processor.dmem.peek(TEMP_AVG) == 100

    def test_min_max_tracking(self):
        from repro.sensors import TraceSensor
        # One sample per 500us period.
        sensor = TraceSensor([50, 200, 125, 90], sample_hz=2000.0)
        node = self._run_iterations(4, sensor=sensor)
        dmem = node.processor.dmem
        assert dmem.peek(TEMP_MIN) == 50
        assert dmem.peek(TEMP_MAX) == 200

    def test_realistic_sensor_runs(self):
        node = self._run_iterations(16, sensor=TemperatureSensor(seed=3))
        assert node.processor.dmem.peek(TEMP_ITERATIONS) == 16
        assert 0 < node.processor.dmem.peek(TEMP_AVG) < 1024


class TestTinyOsPorts:
    def test_blink_toggles(self):
        node = SensorNode(config=CoreConfig(voltage=0.6))
        node.load(build_blink_app(period_ticks=1000))
        node.run(until=0.0105)
        assert node.leds.toggles(led=0) >= 9

    def test_blink_cycles_near_paper(self):
        """Figure 5: the SNAP Blink iteration takes ~41 cycles."""
        node = SensorNode(config=CoreConfig(voltage=0.6))
        node.load(build_blink_app(period_ticks=1000))
        node.run(until=0.0005)
        node.meter.reset()
        node.run(until=0.0105)
        handler = node.meter.by_handler["TIMER0"]
        cycles = handler.cycles / handler.invocations
        assert 25 <= cycles <= 55

    def test_sense_averages_and_displays(self):
        node = SensorNode(config=CoreConfig(voltage=0.6))
        node.attach_sensor(ConstantSensor(0x3FF), sensor_id=2)
        node.load(build_sense_app(period_ticks=1000))
        node.run(until=0.040)
        from repro.netstack.tinyos_ports import SENSE_AVG
        # After 32+ samples of 0x3FF the windowed average converges.
        assert node.processor.dmem.peek(SENSE_AVG) == 0x3FF
        assert node.leds.value == 0x3FF >> 7

    def test_radiostack_matches_golden_models(self):
        """The assembly SEC-DED and CRC agree with the Python references
        for a run of bytes."""
        net = NetworkSimulator()
        tx = net.add_node(0, program=build_radiostack_app())
        sniffer = net.add_node(1)
        sniffer.radio.set_receive(True)
        captured = []
        sniffer.radio.on_word_received = captured.append
        net.start()
        count = 8
        for _ in range(count):
            tx.processor.raise_soft_event()
        net.run(until=1.0)
        assert captured == [secded_encode(byte) for byte in range(count)]
        crc = 0xFFFF
        for byte in range(count):
            crc = crc16_update(crc, byte)
        assert tx.processor.dmem.peek(RS_CRC) == crc

    def test_radiostack_cycles_near_paper(self):
        """Section 4.6: ~331 cycles to send one byte through the stack."""
        net = NetworkSimulator()
        tx = net.add_node(0, program=build_radiostack_app())
        net.run(until=0.001)
        tx.meter.reset()
        tx.processor.raise_soft_event()
        net.run(until=1.0)
        handler = tx.meter.by_handler["SOFT"]
        assert 200 <= handler.cycles <= 400


class TestCodeSizes:
    def test_blink_code_size_small(self):
        """Section 4.6: SNAP Blink is a few hundred bytes (paper: 184B)
        versus 1.4KB for the TinyOS version."""
        program = build_blink_app()
        assert program.text_size_bytes < 500

    def test_table1_apps_fit_comfortably(self):
        """Section 4.5: the application suite totals ~2.8KB, leaving room
        in the 4KB IMEM."""
        total = (build_aodv_node(1).text_size_bytes
                 + build_temperature_app().text_size_bytes)
        assert total < 3500
