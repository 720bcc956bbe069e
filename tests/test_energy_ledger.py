"""Causal energy provenance: the ledger's four reconciling views.

The load-bearing guarantees, in order:

1. **Bit-identical line counters** -- the cost table's per-(node, pc,
   handler, class) rows the line view rolls up are exactly the same
   under ``fast_path=True`` and the reference engine, on fig5 blink and
   on the self-modifying STI scenario (the fast path's burst loop must
   not reorder or coalesce the per-instruction floats).
2. **Bit-identical meters** -- arming the ledger changes no simulation
   result: meter digests match a bare run exactly.
3. **Reconciliation** -- every view (lines, layers, packets) attributes
   the meters' total to within float-rounding residual, reported
   explicitly; the acceptance bar is 1%, the observed scale ~1e-7.
4. **Localization** -- perturbing one handler's instruction energy
   moves exactly the right symbolicated source line and layer
   (``snap-energy --self-test``), and the per-node energy budget
   invariant trips when -- and only when -- a budget is exceeded.
"""

import json
import math

import pytest

from repro.node import SensorNode
from repro.obs import Observability
from repro.obs.energy import (
    EnergyLedger,
    layer_split_from_meter,
    project_lifetime,
)
from repro.obs.watchdog import InvariantViolation
from repro.sim import meter_digest
from repro.sim.differential import SCENARIOS
from repro.tools import snap_energy

#: The issue's acceptance bar on each view's residual fraction.
ACCEPTANCE_RESIDUAL = 0.01


def _run_bare(name, fast_path=True):
    """One scenario run without any observability attached."""
    sim, horizon = SCENARIOS[name](fast_path)
    if isinstance(sim, SensorNode):
        sim.kernel.run(until=horizon)
    else:
        sim.run(until=horizon)
    return sim


def _processors(sim):
    if isinstance(sim, SensorNode):
        return [sim.processor]
    return [node.processor for _, node in sorted(sim.nodes.items())]


# -- 1. bit-identical line counters across engines ------------------------------

@pytest.mark.parametrize("name", ["blink", "sti"])
def test_line_counters_bit_identical_across_engines(name):
    tables = {}
    for fast in (True, False):
        obs, _, _, _ = snap_energy.run_scenario(name, fast_path=fast)
        tables[fast] = obs.profiler
    fast, ref = tables[True], tables[False]
    assert fast.instructions == ref.instructions
    assert fast.energy == ref.energy   # exact float equality
    assert fast.invocations == ref.invocations
    # Every row's count, energy, time and mnemonic, floats exact.
    assert fast.rows == ref.rows


def test_sti_patch_site_has_one_row_per_class():
    # The self-modifying scenario rewrites one TIMER0 instruction in
    # place; the table keeps what ran there apart by class.
    obs, sim, _, _ = snap_energy.run_scenario("sti")
    table = obs.profiler
    sites = {}
    for (cpu, pc, handler, instr_class), row in table.rows.items():
        sites.setdefault((cpu, pc, handler), {})[instr_class] = row
    patched = {site: rows for site, rows in sites.items() if len(rows) > 1}
    assert len(patched) == 1
    ((cpu, pc, handler), rows), = patched.items()
    assert handler == "TIMER0"
    assert {name: (row[0], row[3]) for name, row in rows.items()} == {
        "Arith Reg": (50, "add r2, r3"),
        "Logical Reg": (49, "mov r1, r0"),
    }
    # The per-class rows still partition the meter.
    profiled, metered = table.reconcile(sim.processor.meter)
    assert profiled == pytest.approx(metered, rel=1e-12)
    by_class = table.rollup(
        lambda cpu, pc, handler, instr_class: instr_class)
    for cls, stats in sim.processor.meter.by_class.items():
        assert by_class[cls.value][0] == stats.count
        assert by_class[cls.value][1] == pytest.approx(stats.energy,
                                                       rel=1e-12)


# -- 2. arming the ledger is invisible to the simulation ------------------------

@pytest.mark.parametrize("name", ["blink", "sti"])
def test_meter_digest_identical_armed_vs_disarmed(name):
    bare = _run_bare(name)
    obs, armed, _, _ = snap_energy.run_scenario(name)
    assert obs.profiler.instructions > 0   # the table actually observed
    digests_bare = [meter_digest(p) for p in _processors(bare)]
    digests_armed = [meter_digest(p) for p in _processors(armed)]
    assert digests_bare == digests_armed


# -- 3. every view reconciles ---------------------------------------------------

@pytest.mark.parametrize("name", ["blink", "convergecast"])
def test_views_reconcile_within_tolerance(name):
    obs, _, _, _ = snap_energy.run_scenario(name)
    report = snap_energy.build_report(obs.energy)
    assert report["total_j"] > 0
    for view in ("lines", "layers", "packets"):
        frac = report[view]["residual_frac"]
        assert frac < ACCEPTANCE_RESIDUAL, (view, frac)
        # The default CLI gate is far tighter than the acceptance bar.
        assert frac <= snap_energy.DEFAULT_TOLERANCE, (view, frac)
    assert snap_energy._check_reconciliation(
        report, snap_energy.DEFAULT_TOLERANCE) == []


def test_packet_view_reconciles_past_the_invocation_cap():
    # Instructions retired after a core's invocation windows hit the cap
    # are counted once, in the (non-packet) CPU bucket.
    sim, horizon = SCENARIOS["sti"](True)
    obs = Observability(energy=EnergyLedger(max_invocations=3))
    sim.attach_observability(obs)
    sim.kernel.run(until=horizon)
    assert [len(stack) for stack in obs.energy.invocations.values()] == [3]
    view = obs.energy.packet_view()
    assert view["residual_frac"] <= snap_energy.DEFAULT_TOLERANCE
    assert view["non_packet"]["cpu_j"] == obs.profiler.energy


def test_convergecast_packets_carry_forwarding_cost():
    obs, _, _, _ = snap_energy.run_scenario("convergecast")
    view = obs.energy.packet_view()
    delivered = [row for row in view["packets"] if row["delivered"]]
    assert delivered, "convergecast delivered no journeys"
    multi_hop = [row for row in delivered if row["hops"] >= 2]
    assert multi_hop, "no multi-hop journey to attribute forwarding to"
    for row in delivered:
        assert row["radio_j"] > 0
        assert row["total_j"] == row["radio_j"] + row["cpu_j"]
    # CPU attribution found the handler invocations behind the sends.
    assert sum(row["cpu_j"] for row in delivered) > 0
    # Idle listening dominates a duty-cycled radio; it must be surfaced
    # as an explicit bucket, never folded into per-packet cost.
    assert view["non_packet"]["radio_idle_j"] > 0


def test_layer_split_from_meter_reconciles_exactly():
    sim = _run_bare("blink")
    for _, node in sorted(sim.nodes.items()):
        radio = node.radio.radio_energy()
        split = layer_split_from_meter(node.meter, radio)
        assert sum(split.values()) == pytest.approx(
            node.meter.total_energy + radio, rel=1e-12)
        assert split["radio"] == radio
        assert split["idle-sleep"] > 0   # wakeup/token/idle always accrue


# -- 4. flame-graph exports -----------------------------------------------------

def test_collapsed_stack_and_speedscope_formats():
    obs, _, _, _ = snap_energy.run_scenario("c_blink")
    ledger = obs.energy

    collapsed = ledger.collapsed_stack()
    assert collapsed.endswith("\n")
    total_pj = 0
    saw_c_line = False
    for line in collapsed.strip().split("\n"):
        stack, weight = line.rsplit(" ", 1)
        assert stack.count(";") >= 3, line   # node;layer;handler;frame
        total_pj += int(weight)
        if "blink.c:" in stack:
            saw_c_line = True
    assert saw_c_line, "no frame symbolicated to blink.c"
    # Weights are the attributed energy, rounded per frame to whole pJ.
    attributed = ledger.line_view()["attributed_j"] * 1e12
    assert total_pj == pytest.approx(attributed, abs=len(collapsed))

    doc = ledger.speedscope(name="c_blink")
    json.dumps(doc)   # must be serializable as-is
    assert doc["$schema"].startswith("https://www.speedscope.app/")
    assert doc["shared"]["frames"]
    assert doc["profiles"]
    for profile in doc["profiles"]:
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        for stack in profile["samples"]:
            assert all(0 <= i < len(doc["shared"]["frames"]) for i in stack)


# -- 5. localization: the calibration-perturbation self-test --------------------

def test_snap_energy_self_test_localizes_perturbation():
    ok, failures, details = snap_energy.self_test()
    assert ok, failures
    hot = details["hottest_delta"]
    assert hot["function"] == snap_energy.SELFTEST_FUNCTION
    assert hot["handler"] == snap_energy.SELFTEST_HANDLER
    assert hot["layer"] == snap_energy.SELFTEST_LAYER
    assert hot["delta_j"] > 0


# -- 6. the energy_budget watchdog invariant ------------------------------------

def test_energy_budget_trips_when_exceeded():
    with pytest.raises(InvariantViolation) as excinfo:
        snap_energy.run_scenario("c_blink", budgets={"node1": 1e-9})
    assert "energy_budget" in str(excinfo.value)
    assert "node1" in str(excinfo.value)


def test_energy_budget_silent_when_under():
    obs, _, _, watchdog = snap_energy.run_scenario(
        "c_blink", budgets={"node1": 1.0})
    assert watchdog is not None
    assert watchdog.checks_run > 0
    assert obs.profiler.instructions > 0


# -- 7. battery-lifetime projection ---------------------------------------------

def _rows(node, points):
    return [{"node": node, "time_s": t, "energy_j": e} for t, e in points]


def test_project_lifetime_linear_and_partition():
    rows = (_rows("a", [(0.0, 0.0), (1.0, 1e-3), (2.0, 2e-3)])
            + _rows("b", [(0.0, 0.0), (1.0, 2e-3), (2.0, 4e-3)]))
    projection = project_lifetime(rows, capacity_j=1.0)
    a, b = projection["nodes"]["a"], projection["nodes"]["b"]
    assert a["linear_s"] == pytest.approx(1000.0)
    assert b["linear_s"] == pytest.approx(500.0)
    assert a["mean_power_w"] == pytest.approx(1e-3)
    assert projection["first_death"] == "b"
    assert projection["partition_s"] == pytest.approx(b["depletes_s"])


def test_project_lifetime_drain_curve_tracks_duty_change():
    # Constant 1 mW for 10 s, then the duty cycle jumps to 3 mW: the
    # drain-curve estimate must be pessimistic vs. the whole-run mean.
    points = [(float(t), 1e-3 * t) for t in range(11)]
    points += [(10.0 + t, 1e-2 + 3e-3 * t) for t in range(1, 11)]
    projection = project_lifetime(_rows("n", points), capacity_j=1.0)
    node = projection["nodes"]["n"]
    assert node["drain_s"] < node["linear_s"]
    assert node["depletes_s"] == node["drain_s"]


def test_project_lifetime_never_depletes_on_zero_power():
    projection = project_lifetime(
        _rows("idle", [(0.0, 0.0), (1.0, 0.0)]), capacity_j=1.0)
    node = projection["nodes"]["idle"]
    assert math.isinf(node["linear_s"])
    assert math.isinf(node["depletes_s"])
    assert math.isinf(projection["partition_s"])


def test_project_lifetime_per_node_capacity_map():
    rows = (_rows("a", [(0.0, 0.0), (1.0, 1e-3)])
            + _rows("b", [(0.0, 0.0), (1.0, 1e-3)]))
    projection = project_lifetime(rows, capacity_j={"a": 1.0, "b": 0.1})
    assert projection["first_death"] == "b"
    assert projection["nodes"]["b"]["capacity_j"] == 0.1


# -- 8. the telemetry energy record ---------------------------------------------

def test_telemetry_streams_energy_records():
    import io

    from repro.obs import StreamTransport, TelemetryExporter

    sim, horizon = SCENARIOS["blink"](True)
    obs = Observability(energy=True)
    sim.attach_observability(obs)
    stream = io.StringIO()
    exporter = TelemetryExporter(sim.kernel, sim.nodes, obs,
                                 StreamTransport(stream), interval=0.1)
    exporter.start()
    sim.run(until=horizon)
    exporter.close()
    records = [json.loads(line)
               for line in stream.getvalue().splitlines() if line]
    energy = [r for r in records if r["type"] == "energy"]
    assert energy, "no energy records in the stream"
    last = energy[-1]
    assert last["total_j"] > 0
    assert abs(last["residual_frac"]) < ACCEPTANCE_RESIDUAL
    assert set(last["layers"]) & {"app", "idle-sleep", "radio"}
    assert last["top_lines"]
