"""Streaming-telemetry tests: protocol, transports, dashboards, wiring.

The load-bearing guarantees, in order:

1. **Bit-identity** -- arming a :class:`TelemetryExporter` (at the
   default cadence, over any transport) changes no simulation result:
   the fig5-blink and convergecast meter digests match a bare run
   exactly.
2. **Never block** -- a slow, abandoned, or garbage-writing socket
   consumer costs *dropped records* (counted and surfaced), never a
   stalled simulation.
3. **Replayability** -- the NDJSON stream alone reconstructs the
   dashboard: the golden pins the stream's stable (float-free)
   projection, and a full write/read round-trip is exact.

Golden regen, after an intentional protocol or netstack change::

    PYTHONPATH=src python tests/test_telemetry.py --regen
"""

import io
import json
import os
import socket
import time

from repro.asm import build
from repro.core import CoreConfig
from repro.core.kernel import Kernel
from repro.netstack import build_blink_app
from repro.network.experiments import convergecast
from repro.node import SensorNode
from repro.obs import (
    Blackbox,
    FileTransport,
    MetricsRegistry,
    NullTransport,
    Observability,
    SocketServerTransport,
    TelemetryExporter,
    TelemetryView,
    project_telemetry,
)
from repro.obs.telemetry import SCHEMA, read_stream
from repro.sim import meter_digest
from repro.tools import snap_run, snap_top

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")
GOLDEN_STREAM = os.path.join(GOLDEN_DIR, "telemetry_stream.json")

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
    movi r1, 0
    movi r2, 100
    schedlo r1, r2
    done
"""


class FakeClock:
    """A deterministic wall clock: every read advances a fixed step, so
    recorded streams are byte-stable for the golden."""

    def __init__(self, step=0.125):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def _blink_node():
    node = SensorNode(node_id=0)
    node.load(build_blink_app(period_ticks=1000))
    return node


def stream_blink(until=0.2, interval=0.05):
    """The golden workload: a blink node streamed to an in-memory NDJSON
    buffer under the fake clock.  Returns the raw NDJSON text."""
    node = _blink_node()
    buffer = io.StringIO()
    exporter = TelemetryExporter.for_node(
        node, FileTransport(buffer), interval=interval, clock=FakeClock())
    exporter.start(horizon=until)
    node.run(until=until)
    exporter.close()
    return buffer.getvalue()


#: Reduce stream records to their float-free, machine-independent core
#: (repo golden convention).  The projection itself lives in
#: :mod:`repro.obs.project`, shared with the trace goldens and the
#: snap-diff alignment engine.
def stable_projection(records):
    return project_telemetry(records)


# -- metrics diff -------------------------------------------------------------


class TestMetricsDiff:
    def test_none_prev_returns_full_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        assert registry.diff(None) == registry.snapshot()

    def test_only_changed_metrics_are_returned(self):
        registry = MetricsRegistry()
        registry.counter("a").inc(3)
        registry.gauge("b").set(7)
        base = registry.snapshot()
        registry.counter("a").inc()
        diff = registry.diff(base)
        assert diff == {"a": 4}

    def test_new_metrics_always_included(self):
        registry = MetricsRegistry()
        base = registry.snapshot()
        registry.counter("late").inc()
        assert registry.diff(base) == {"late": 1}

    def test_histogram_summary_carries_min_max_sum(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (2.0, 5.0, 3.0):
            histogram.observe(value)
        summary = registry.snapshot()["h"]
        assert summary["min"] == 2.0
        assert summary["max"] == 5.0
        assert summary["sum"] == 10.0
        assert summary["count"] == 3

    def test_histogram_diff_triggers_on_new_observation(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(1.0)
        base = registry.snapshot()
        assert registry.diff(base) == {}
        registry.histogram("h").observe(2.0)
        assert "h" in registry.diff(base)


# -- the stream itself --------------------------------------------------------


class TestStream:
    def test_matches_golden(self):
        records = [json.loads(line)
                   for line in stream_blink().splitlines()]
        actual = stable_projection(records)
        with open(GOLDEN_STREAM) as handle:
            expected = json.load(handle)
        assert actual == expected, (
            "telemetry stream diverged from tests/goldens/"
            "telemetry_stream.json; if intentional: "
            "PYTHONPATH=src python tests/test_telemetry.py --regen")

    def test_round_trip_is_exact(self, tmp_path):
        text = stream_blink()
        path = tmp_path / "stream.ndjson"
        path.write_text(text)
        view, records = read_stream(str(path))
        lines = text.splitlines()
        assert len(records) == len(lines)
        assert view.malformed == 0 and view.lost == 0
        # Parsing and re-serializing every line loses nothing.
        for line, record in zip(lines, records):
            assert json.loads(line) == json.loads(
                json.dumps(record, separators=(",", ":")))

    def test_stream_structure(self):
        records = [json.loads(line)
                   for line in stream_blink().splitlines()]
        assert records[0]["type"] == "hello"
        assert records[0]["schema"] == SCHEMA
        assert records[1]["type"] == "metrics" and records[1]["full"]
        assert records[-1]["type"] == "bye"
        seqs = [record["seq"] for record in records]
        assert seqs == list(range(len(records)))
        types = {record["type"] for record in records}
        assert {"progress", "timeline", "handlers"} <= types

    def test_view_tolerates_unknown_and_malformed_input(self):
        view = TelemetryView()
        assert view.apply_line("not json {") is None
        assert view.malformed == 1
        assert view.apply_line("[1, 2]") is None
        assert view.malformed == 2
        # Unknown record types are ignored per the versioning rules.
        view.apply({"type": "from_the_future", "seq": 0})
        view.apply({"type": "progress", "seq": 5, "sim_s": 1.0})
        assert view.lost == 4          # seq 1..4 never arrived
        assert view.progress["sim_s"] == 1.0

    def test_exporter_does_not_keep_a_drained_kernel_alive(self):
        kernel = Kernel()
        exporter = TelemetryExporter(kernel, {}, None, NullTransport(),
                                     interval=0.01)
        exporter.start()
        # The only pending event is the exporter's own tick: it must not
        # re-arm, or an unbounded run would never return.
        assert kernel.run() <= 2
        assert kernel.pending == 0
        exporter.close()

    def test_exporter_rearms_while_work_is_pending(self):
        kernel = Kernel()
        ticks = []

        def work(count):
            ticks.append(count)
            if count < 5:
                kernel.schedule(0.01, work, count + 1)

        kernel.schedule(0.01, work, 0)
        exporter = TelemetryExporter(kernel, {}, None, NullTransport(),
                                     interval=0.01)
        exporter.start()
        kernel.run()
        assert len(ticks) == 6
        assert exporter.flushes >= 5
        exporter.close()


# -- bit-identity -------------------------------------------------------------


class TestBitIdentity:
    def test_fig5_blink_digest_identical(self, tmp_path):
        def blink(armed):
            node = _blink_node()
            exporter = None
            if armed:
                exporter = TelemetryExporter.for_node(
                    node, FileTransport(str(tmp_path / "blink.ndjson")))
                exporter.start(horizon=0.25)
            node.run(until=0.25)
            if exporter is not None:
                exporter.close()
            return meter_digest(node.processor)

        assert blink(False) == blink(True)

    def test_convergecast_digest_identical(self, tmp_path):
        plain = convergecast(duration_s=0.5)
        streamed = convergecast(
            duration_s=0.5,
            telemetry=str(tmp_path / "convergecast.ndjson"))
        assert plain.sink_deliveries == streamed.sink_deliveries
        for node_id in plain.nodes:
            assert plain.nodes[node_id].instructions \
                == streamed.nodes[node_id].instructions
            assert plain.nodes[node_id].energy_j \
                == streamed.nodes[node_id].energy_j
        # The stream really covered the run.
        view, records = read_stream(str(tmp_path / "convergecast.ndjson"))
        assert view.journey_stats["delivered"] > 0
        assert len(view.nodes) == 4


# -- backpressure and hostile consumers ---------------------------------------


def _drain_socket(sock, timeout=2.0):
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    except socket.timeout:
        pass
    return b"".join(chunks)


class TestSocketTransport:
    def test_slow_consumer_drops_are_counted_not_blocking(self):
        transport = SocketServerTransport(max_pending=1024)
        client = socket.create_connection(("127.0.0.1", transport.port))
        try:
            assert transport.poll()          # accepted -> resync request
            # Shrink the kernel-side send buffer so an unread consumer
            # exerts real backpressure instead of vanishing into the
            # default socket buffers.
            for attached in transport._clients:
                attached.sock.setsockopt(socket.SOL_SOCKET,
                                         socket.SO_SNDBUF, 2048)
            node = _blink_node()
            exporter = TelemetryExporter.for_node(node, transport,
                                                  interval=0.002)
            exporter.start(horizon=0.25)
            node.run(until=0.25)            # client never reads a byte
            exporter.close()
            assert node.kernel.now >= 0.25  # the run completed regardless
            assert transport.dropped > 0    # and the cost was counted
            assert exporter.seq > transport.sent - transport.dropped
        finally:
            client.close()

    def test_garbage_writing_consumer_cannot_stall_the_sim(self):
        transport = SocketServerTransport()
        client = socket.create_connection(("127.0.0.1", transport.port))
        try:
            client.sendall(b"GET / HTTP/1.1\r\nHost: nonsense\r\n\r\n")
            node = _blink_node()
            exporter = TelemetryExporter.for_node(node, transport,
                                                  interval=0.01)
            exporter.start(horizon=0.1)
            node.run(until=0.05)
            client.sendall(b"\x00\xff" * 512)   # mid-run garbage too
            node.run(until=0.1)
            exporter.close()
            assert node.kernel.now >= 0.1
        finally:
            client.close()

    def test_abandoned_consumer_is_reaped(self):
        transport = SocketServerTransport()
        client = socket.create_connection(("127.0.0.1", transport.port))
        node = _blink_node()
        exporter = TelemetryExporter.for_node(node, transport,
                                              interval=0.01)
        exporter.start(horizon=0.1)
        node.run(until=0.03)
        assert transport.clients == 1
        client.close()                       # consumer walks away
        node.run(until=0.1)
        exporter.close()
        assert transport.clients == 0
        assert node.kernel.now >= 0.1

    def test_late_joiner_gets_preamble_resync(self):
        transport = SocketServerTransport()
        node = _blink_node()
        exporter = TelemetryExporter.for_node(node, transport,
                                              interval=0.01)
        exporter.start(horizon=0.1)
        node.run(until=0.05)                 # stream well underway
        client = socket.create_connection(("127.0.0.1", transport.port))
        try:
            node.run(until=0.1)
            exporter.close()
            lines = _drain_socket(client).decode().splitlines()
            records = [json.loads(line) for line in lines]
            # First thing a late joiner sees: hello, then a full
            # metrics snapshot -- a base for delta decoding.
            assert records[0]["type"] == "hello"
            assert records[0]["schema"] == SCHEMA
            metrics = next(r for r in records if r["type"] == "metrics")
            assert metrics["full"] is True
            view = TelemetryView()
            for record in records:
                view.apply(record)
            assert view.ready
            assert "node0.cpu.instructions" in view.metrics \
                or any("instructions" in name for name in view.metrics)
        finally:
            client.close()


# -- blackbox integration -----------------------------------------------------


class TestCrashBundleTail:
    def test_bundle_embeds_telemetry_tail(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        exporter = TelemetryExporter.for_node(
            node, NullTransport(), obs=box.obs, interval=0.01,
            watchdog=box.watchdog)
        exporter.start(horizon=0.05)
        node.run(until=0.05)
        bundle = box.capture(reason="manual")
        exporter.close()
        tail = bundle["telemetry"]
        assert tail["schema"] == SCHEMA
        assert tail["records"], "tail must hold the recent records"
        assert tail["records"][0]["seq"] >= 0
        assert {"records_sent", "transport_dropped",
                "buffer_dropped"} <= set(tail)

    def test_bundle_without_telemetry_is_unchanged(self):
        box = Blackbox(bundle_dir=None)
        node = _blink_node()
        box.observe(node)
        node.run(until=0.02)
        bundle = box.capture(reason="manual")
        assert "telemetry" not in bundle


# -- CLI wiring ---------------------------------------------------------------


class TestSnapRunTelemetry:
    def _write_blink(self, tmp_path):
        path = tmp_path / "blink.s"
        path.write_text(BLINK)
        return str(path)

    def test_telemetry_and_progress_smoke(self, tmp_path, capsys):
        stream = tmp_path / "run.ndjson"
        code = snap_run.main([
            self._write_blink(tmp_path), "--until", "0.05",
            "--telemetry", str(stream),
            "--telemetry-interval", "0.01", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "snap-run:" in captured.err       # heartbeat lines
        assert "sim " in captured.err and "ev/s" in captured.err
        view, records = read_stream(str(stream))
        assert records[0]["type"] == "hello"
        assert records[-1]["type"] == "bye"
        assert view.ready

    def test_progress_only_uses_null_transport(self, tmp_path, capsys):
        code = snap_run.main([
            self._write_blink(tmp_path), "--until", "0.03", "--progress"])
        captured = capsys.readouterr()
        assert code == 0
        assert "snap-run:" in captured.err

    def test_checkpointing_with_telemetry_armed(self, tmp_path):
        # The exporter's kernel tick is a host-side callback: capture
        # must skip it, not crash on it.
        stream = tmp_path / "run.ndjson"
        ckpt = tmp_path / "run.ckpt.json"
        code = snap_run.main([
            self._write_blink(tmp_path), "--until", "0.04",
            "--checkpoint-every", "0.02",
            "--checkpoint-path", str(ckpt),
            "--telemetry", str(stream)])
        assert code == 0
        assert ckpt.exists() and stream.exists()


class TestSnapTop:
    def test_once_renders_recorded_stream(self, tmp_path):
        path = tmp_path / "stream.ndjson"
        path.write_text(stream_blink())
        out = io.StringIO()
        code = snap_top.main(["--file", str(path), "--once"], stdout=out)
        frame = out.getvalue()
        assert code == 0
        assert "snap-top" in frame and SCHEMA in frame
        assert "node0" in frame
        assert "hottest handlers" in frame

    def test_once_over_live_socket(self):
        transport = SocketServerTransport()
        node = _blink_node()
        exporter = TelemetryExporter.for_node(node, transport,
                                              interval=0.01)
        exporter.start(horizon=0.1)
        node.run(until=0.06)
        out = io.StringIO()
        # The dashboard connects mid-run; pump a few more flushes so the
        # resync and a full batch land, then close the stream.
        import threading

        result = {}

        def attach():
            result["code"] = snap_top.main(
                ["--connect", "127.0.0.1:%d" % transport.port, "--once",
                 "--retry", "5"], stdout=out)

        thread = threading.Thread(target=attach)
        thread.start()
        # Keep the run going until the dashboard has attached, on a
        # wall-clock deadline: its thread may take longer to connect
        # than any fixed stretch of simulated time, and closing the
        # exporter first refuses the connection.  Pausing between steps
        # meanwhile lets that thread take the interpreter lock.
        deadline = time.monotonic() + 30.0
        close_at = None
        while thread.is_alive() and time.monotonic() < deadline:
            if close_at is None and transport.clients:
                close_at = node.kernel.now + 0.5
            if close_at is None:
                time.sleep(0.005)
            elif node.kernel.now >= close_at:
                break
            node.run(until=node.kernel.now + 0.01)
        exporter.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert result["code"] == 0
        assert "node0" in out.getvalue()

    def test_stdin_pipe(self):
        out = io.StringIO()
        code = snap_top.main(["--once"], stdout=out,
                             stdin=io.StringIO(stream_blink()))
        assert code == 0
        assert "node0" in out.getvalue()


# -- trajectory ---------------------------------------------------------------


class TestTrajectory:
    def _seed_runs(self, tmp_path):
        for label, deliveries, wall in (("run-a", 288, 30.5),
                                        ("run-b", 291, 28.1)):
            directory = tmp_path / label
            directory.mkdir()
            (directory / "BENCH_network_lifetime.json").write_text(
                json.dumps({"benchmark": "network_lifetime",
                            "results": {"sink_deliveries": deliveries},
                            "host": {"wall_time_s": wall}}))
        (tmp_path / "run-b" / "BENCH_FIDELITY.json").write_text(
            json.dumps({"schema": 1, "gate": {"ok": True, "failures": []},
                        "summary": {"match": 9, "within_band": 5},
                        "claims": []}))
        return [str(tmp_path / "run-a"), str(tmp_path / "run-b")]

    def test_trajectory_payload_and_table(self, tmp_path):
        from repro.report.trajectory import (
            SCHEMA as TRAJECTORY_SCHEMA,
            format_trajectory,
            trajectory,
        )

        payload = trajectory(self._seed_runs(tmp_path)
                             + [str(tmp_path / "missing")])
        assert payload["schema"] == TRAJECTORY_SCHEMA
        assert [run["label"] for run in payload["runs"]] \
            == ["run-a", "run-b"]
        assert payload["skipped"] == [str(tmp_path / "missing")]
        run_a, run_b = payload["runs"]
        assert run_a["metrics"]["network_lifetime.sink_deliveries"] == 288
        assert run_b["metrics"]["fidelity.gate_ok"] == 1
        table = format_trajectory(payload)
        assert "network_lifetime.sink_deliveries" in table
        assert "run-a" in table and "run-b" in table
        assert "+1.0%" in table            # 288 -> 291

    def test_snap_report_trajectory_mode(self, tmp_path, capsys):
        from repro.tools import snap_report

        directories = self._seed_runs(tmp_path)
        out_json = tmp_path / "trajectory.json"
        code = snap_report.main(["--trajectory"] + directories
                                + ["--trajectory-json", str(out_json)])
        captured = capsys.readouterr()
        assert code == 0
        assert "Benchmark trajectory over 2 runs" in captured.out
        payload = json.loads(out_json.read_text())
        assert payload["schema"] == "repro.report.trajectory/1"
        assert len(payload["runs"]) == 2

    def test_snap_report_trajectory_empty(self, tmp_path, capsys):
        # An empty feed is a normal state (fresh checkout, no results
        # yet), not a usage error: exit 0 with a clear explanation.
        from repro.tools import snap_report

        code = snap_report.main(["--trajectory", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "no BENCH_*.json runs found" in captured.err
        assert "(no benchmark results found)" in captured.out


def regen():
    records = [json.loads(line) for line in stream_blink().splitlines()]
    with open(GOLDEN_STREAM, "w") as handle:
        json.dump(stable_projection(records), handle, indent=1)
        handle.write("\n")
    print("wrote %s (%d records)" % (GOLDEN_STREAM, len(records)))


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        regen()
    else:
        print(__doc__)
