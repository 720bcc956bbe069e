"""Distributed packet-journey tracing and energy-timeline tests.

Covers the journey tracker's reconstruction of multi-hop AODV traffic
(the ISSUE's acceptance scenario: a 5-node chain with a complete
source -> forward -> sink journey tree), the Chrome flow-event export,
the timeline sampler's aligned drain curves, histogram percentiles, the
JSONL sink's context-manager protocol, and -- most importantly -- that
a run with all of this disabled stays bit-identical to an
uninstrumented one.
"""

import io
import json
import os

import pytest

from repro.asm import build
from repro.core.exceptions import SimulationDeadlock
from repro.network.experiments import convergecast
from repro.node import SensorNode
from repro.obs import (
    Histogram,
    JsonlSink,
    Observability,
    TimelineSampler,
    chrome_trace,
    read_jsonl,
)
from repro.tools.snap_net_trace import main as net_trace_main
from repro.tools.snap_net_trace import run_chain_scenario


# -- histogram percentiles ----------------------------------------------------

class TestHistogramPercentiles:
    def test_empty_histogram_has_no_percentiles(self):
        hist = Histogram()
        assert hist.percentile(50) is None
        assert hist.summary()["p50"] is None

    def test_single_observation(self):
        hist = Histogram()
        hist.observe(7.0)
        assert hist.percentile(0) == 7.0
        assert hist.percentile(50) == 7.0
        assert hist.percentile(100) == 7.0

    def test_percentiles_interpolate(self):
        hist = Histogram()
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 100.0
        assert hist.percentile(50) == pytest.approx(50.5)
        assert hist.percentile(90) == pytest.approx(90.1)

    def test_clamps_out_of_range_p(self):
        hist = Histogram()
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.percentile(-5) == 1.0
        assert hist.percentile(150) == 3.0

    def test_reservoir_decimates_deterministically(self):
        hist = Histogram(sample_limit=64)
        for value in range(1000):
            hist.observe(float(value))
        assert len(hist._samples) < 128
        # Aggregates stay exact; quantiles approximate on the decimated,
        # evenly spaced subset.
        assert hist.count == 1000
        assert hist.max == 999.0
        assert hist.percentile(50) == pytest.approx(499.5, abs=40)
        # Two identical streams give identical quantiles (no randomness).
        other = Histogram(sample_limit=64)
        for value in range(1000):
            other.observe(float(value))
        assert other._samples == hist._samples

    def test_summary_includes_quantiles(self):
        hist = Histogram()
        for value in range(10):
            hist.observe(float(value))
        summary = hist.summary()
        assert summary["count"] == 10
        assert summary["p50"] == pytest.approx(4.5)
        assert summary["p99"] <= summary["max"]


# -- JSONL sink context manager ----------------------------------------------

class TestJsonlSinkContextManager:
    def test_with_block_flushes_and_closes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        obs = Observability()
        with JsonlSink(path) as sink:
            obs.bus.attach(sink)
            obs.sleep_enter("n0", 0.0)
            obs.wakeup("n0", 1.0, idle=1.0)
            assert not sink.closed
        assert sink.closed
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["sleep", "wakeup"]
        assert sink.count == 2

    def test_close_after_exception(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with pytest.raises(RuntimeError):
            with JsonlSink(path) as sink:
                obs = Observability()
                obs.bus.attach(sink)
                obs.sleep_enter("n0", 0.0)
                raise RuntimeError("boom")
        assert sink.closed
        assert len(read_jsonl(path)) == 1

    def test_flush_makes_events_visible_before_close(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JsonlSink(path)
        obs = Observability()
        obs.bus.attach(sink)
        obs.sleep_enter("n0", 0.0)
        sink.flush()
        assert len(read_jsonl(path)) == 1
        sink.close()

    def test_double_close_is_safe(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "t.jsonl"))
        sink.close()
        sink.close()
        assert sink.closed


# -- the acceptance scenario --------------------------------------------------

@pytest.fixture(scope="module")
def chain5():
    """The ISSUE's acceptance scenario: 5-node chain, 2 DATA packets."""
    return run_chain_scenario(nodes=5, packets=2, sample_every=0.05)


class TestJourneyReconstruction:
    def test_multihop_journey_tree_is_complete(self, chain5):
        net, obs, _ = chain5
        tracker = obs.journeys
        delivered = [j for j in tracker.journeys if j.delivered]
        assert delivered, "no journey reached the sink"
        journey = delivered[0]
        ops = [span.op for span in journey.spans]
        # Source send, at least one relay forward, sink delivery.
        assert "send" in ops and "forward" in ops and "deliver" in ops
        assert journey.forwards >= 3          # 4 hops = 3 relays
        assert journey.hop_count == 4
        assert journey.origin == "node1"
        assert journey.destination == 5

    def test_span_tree_parents_link_hops(self, chain5):
        _, obs, _ = chain5
        journey = [j for j in obs.journeys.journeys if j.delivered][0]
        spans = {span.span: span for span in journey.spans}
        deliver = [s for s in journey.spans if s.op == "deliver"][0]
        # Walk deliver -> receive -> air -> forward ... up to the send.
        chain_ops = []
        cursor = deliver
        while cursor is not None:
            chain_ops.append(cursor.op)
            cursor = spans.get(cursor.parent)
        assert chain_ops[-1] == "send"
        assert chain_ops.count("forward") == 3
        assert chain_ops.count("air") == 4

    def test_per_hop_latency_and_energy_attributed(self, chain5):
        _, obs, _ = chain5
        journey = [j for j in obs.journeys.journeys if j.delivered][0]
        assert journey.latency is not None and journey.latency > 0
        assert journey.energy > 0
        for span in journey.spans:
            if span.op in ("send", "forward", "receive", "overhear"):
                assert span.energy > 0, span
        rows = [row for row in obs.journeys.hop_rows()
                if row["journey"] == journey.id
                and row["outcome"] == "receive"]
        assert len(rows) == 4
        for row in rows:
            assert row["latency_s"] > 0
            assert row["energy_j"] > 0
        # Hop latencies also land in the metrics histogram.
        assert obs.metrics.histogram("net.hop_latency_s").count >= 4
        assert obs.metrics.counter("net.journeys_delivered").value >= 1

    def test_chrome_trace_exports_flow_events(self, chain5):
        _, obs, extras = chain5
        entries = chrome_trace(extras["memory"].events)
        json.dumps(entries)  # must be serializable as-is
        journey = [j for j in obs.journeys.journeys if j.delivered][0]
        flows = [e for e in entries
                 if e["ph"] in ("s", "t", "f") and e["id"] == journey.id]
        phases = [e["ph"] for e in flows]
        assert phases[0] == "s" and phases[-1] == "f"
        assert "t" in phases
        # The flow hops across node tracks from source to sink.
        assert flows[0]["pid"] == "node1"
        assert flows[-1]["pid"] == "node5"
        finish = [e for e in flows if e["ph"] == "f"][0]
        assert finish.get("bp") == "e"
        slices = [e for e in entries
                  if e["ph"] == "X"
                  and e.get("args", {}).get("journey") == journey.id]
        assert len(slices) == len(journey.spans)

    def test_journey_summaries_are_json_friendly(self, chain5):
        _, obs, _ = chain5
        summaries = obs.journeys.summaries()
        json.dumps(summaries)
        delivered = [s for s in summaries if s["delivered"]]
        assert delivered and delivered[0]["hops"] == 4

    def test_report_renders_trees(self, chain5):
        _, obs, _ = chain5
        report = obs.journeys.report()
        assert "journey #" in report
        assert "deliver node5" in report
        assert "forward" in report


class TestDisabledBitIdentity:
    def test_observed_run_matches_uninstrumented_run(self):
        def fingerprint(net):
            rows = []
            for node_id, node in sorted(net.nodes.items()):
                meter = node.meter
                radio = node.radio
                rows.append((node_id, meter.instructions, meter.cycles,
                             meter.total_energy, meter.wakeups,
                             radio.words_sent, radio.words_received,
                             radio.words_dropped, radio.tx_time,
                             radio.rx_time))
            return (net.kernel.now, net.channel.words_carried,
                    net.channel.collisions, net.channel.noise_corruptions,
                    tuple(rows))

        kwargs = dict(nodes=5, packets=2, bit_error_rate=0.02,
                      corruption="flip", seed=3, sample_every=0)
        traced, _, _ = run_chain_scenario(observe=True, **kwargs)
        plain, plain_obs, _ = run_chain_scenario(observe=False, **kwargs)
        assert plain_obs is None
        assert fingerprint(traced) == fingerprint(plain)


class TestDropReconstruction:
    def test_bit_error_drop(self):
        net, obs, _ = run_chain_scenario(nodes=2, packets=1,
                                         bit_error_rate=1.0,
                                         sample_every=0)
        reasons = [reason for journey in obs.journeys.journeys
                   for reason in journey.drop_reasons]
        assert "bit_error" in reasons
        assert not any(j.delivered for j in obs.journeys.journeys)
        assert obs.metrics.counter("net.drops.bit_error").value >= 1

    def test_no_route_drop(self):
        net, obs, _ = run_chain_scenario(nodes=2, packets=1, no_route=True,
                                         sample_every=0)
        reasons = [reason for journey in obs.journeys.journeys
                   for reason in journey.drop_reasons]
        assert "no_route" in reasons


# -- timeline sampler ---------------------------------------------------------

class TestTimelineSampler:
    def test_rows_are_aligned_across_nodes(self, chain5):
        net, _, extras = chain5
        sampler = extras["sampler"]
        assert sampler is not None and sampler.rows
        by_time = {}
        for row in sampler.rows:
            by_time.setdefault(row["time_s"], []).append(row["node"])
        for time_s, nodes in by_time.items():
            assert sorted(nodes) == sorted(net.nodes), time_s
        assert len(by_time) >= 5

    def test_drain_curves_are_monotonic(self, chain5):
        net, _, extras = chain5
        sampler = extras["sampler"]
        assert sorted(sampler.node_ids()) == sorted(net.nodes)
        for node_id in net.nodes:
            curve = sampler.drain_curve(node_id)
            energies = [energy for _, energy in curve]
            assert energies == sorted(energies)
            assert energies[-1] > 0
        # The source spends more than an idle-most relay would at zero:
        # every curve ends at the node's true cumulative total.
        node = net.nodes[1]
        expected = node.total_energy(include_radio=True)
        assert sampler.drain_curve(1)[-1][1] == pytest.approx(expected)

    def test_to_csv_round_trips(self, chain5):
        _, _, extras = chain5
        sampler = extras["sampler"]
        buffer = io.StringIO()
        sampler.to_csv(buffer)
        lines = buffer.getvalue().strip().splitlines()
        assert lines[0].startswith("time_s,node,energy_j")
        assert len(lines) == len(sampler.rows) + 1

    def test_sampler_emits_timeline_events(self):
        _, obs, extras = run_chain_scenario(nodes=2, packets=1,
                                            sample_every=0.05)
        events = [e for e in extras["memory"].events
                  if e.kind == "timeline"]
        assert events
        assert {e.node for e in events} == {"node1", "node2"}
        assert all(e.energy >= e.radio_energy for e in events)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            TimelineSampler(kernel=None, nodes={}, interval=0.0)

    def test_started_sampler_does_not_mask_a_deadlock(self):
        # The core stalls on r15 and nothing can ever deliver a word.
        node = SensorNode(node_id=0)
        node.load(build("boot:\n    add r1, r15\n"))
        sampler = TimelineSampler(node.kernel, {0: node}, 1e-3).start()
        with pytest.raises(SimulationDeadlock):
            node.processor.run(until=0.01)
        assert len(sampler.rows) >= 9   # it sampled up to the horizon

    def test_convergecast_carries_drain_series(self):
        result = convergecast(chain_length=3, period_s=0.1, duration_s=1.0,
                              sample_every=0.25)
        assert result.drain
        nodes = {row["node"] for row in result.drain}
        assert nodes == {1, 2, 3}
        for node_id in nodes:
            energies = [row["energy_j"] for row in result.drain
                        if row["node"] == node_id]
            assert len(energies) >= 4
            assert energies == sorted(energies)

    def test_convergecast_without_sampling_has_no_drain(self):
        result = convergecast(chain_length=2, period_s=0.1, duration_s=0.5)
        assert result.drain is None


# -- the CLI ------------------------------------------------------------------

class TestSnapNetTraceCli:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            net_trace_main(["--help"])
        assert excinfo.value.code == 0
        assert "snap-net-trace" in capsys.readouterr().out

    def test_default_run_prints_journeys(self, capsys, tmp_path):
        chrome = str(tmp_path / "net.json")
        drain = str(tmp_path / "drain.csv")
        jsonl = str(tmp_path / "net.jsonl")
        code = net_trace_main(["--nodes", "3", "--packets", "1",
                               "--chrome", chrome, "--drain-csv", drain,
                               "--jsonl", jsonl])
        out = capsys.readouterr().out
        assert code == 0
        assert "journey #1" in out
        assert "deliver node3" in out
        assert "Per-hop table" in out
        with open(chrome) as handle:
            trace = json.load(handle)
        assert any(e["ph"] == "s" for e in trace["traceEvents"])
        assert os.path.getsize(drain) > 0
        assert read_jsonl(jsonl)

    def test_json_output_mode(self, capsys):
        code = net_trace_main(["--nodes", "2", "--packets", "1",
                               "--sample-every", "0", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["journeys"] and payload["hops"]

    def test_rejects_tiny_chain(self, capsys):
        assert net_trace_main(["--nodes", "1"]) == 1
        assert "at least 2 nodes" in capsys.readouterr().err
