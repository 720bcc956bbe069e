"""Full-state checkpoint/restore with deterministic replay.

:func:`capture` freezes a live :class:`~repro.network.NetworkSimulator`
(or a standalone :class:`~repro.node.SensorNode`) into a versioned,
JSON-serializable :class:`Checkpoint`; :func:`restore` rebuilds a fresh
simulator from one.  The contract is *bit-identity*: a simulation
checkpointed at time ``t`` and resumed runs exactly like one that was
never interrupted -- every meter accumulator at full float precision,
every trace timestamp, every radio word (proven by
:mod:`repro.sim.differential` and ``tests/test_checkpoint.py``).

What is captured
================

* **Kernel** -- clock, the handle counter (events at equal times run in
  handle order, so the tie-break sequence must survive), and every live
  heap entry.  Callbacks are serialized as typed descriptors
  (``cpu_step``, ``timer_expire``, ``radio_tx_done``, ``sensor_fire``)
  and re-bound to the restored components.  Host-side observability
  callbacks (watchdog ticks, timeline samplers, telemetry flushes, the
  blackbox's own checkpoint tick) are *skipped* and listed under
  ``skipped_callbacks`` -- they never affect simulation state, and the
  caller re-arms observability after restore.
* **Per node** -- register file, carry, pc, LFSR, IMEM/DMEM contents and
  access counters (which is where the guest netstack's MAC/AODV/reliable
  tables live), predecoded-IMEM validity, execution mode, handler
  table/tags, instruction budget, event-queue tokens and counters,
  message-coprocessor FIFOs and statistics, timer-coprocessor registers,
  radio state including the TX queue and any word in flight, LED-port
  history, and sensors (including their noise RNG streams).
* **Energy accounting** -- every :class:`~repro.energy.EnergyMeter`
  accumulator at full precision, per-class, per-bucket and per-handler.
* **Channel** -- physics parameters, the Bernoulli noise RNG state,
  active/recent transmission intervals, and counters.

What is recomputed on restore
=============================

Pure caches (the reference interpreter's decode cache), observability
(trace functions, ``obs`` contexts, journey trackers -- reattach after
restore), and program symbol/line tables (``processor.program`` comes
back ``None``; checkpoints hold raw memory images, not linker metadata).

Schema
======

``Checkpoint.data`` is a plain dict with ``schema ==
"repro.sim.checkpoint/1"``; loading any other version raises
:class:`CheckpointVersionError`.  A missing, mistyped or empty field
raises :class:`CheckpointError` naming it -- at construction for the
top-level fields, in :func:`restore` for the rest.
``tests/goldens/checkpoint_v1.json`` pins the layout against accidental
drift.
"""

import contextlib
import json

import numpy as np

from repro.core.event_queue import EventToken
from repro.core.processor import CoreConfig, Mode
from repro.coprocessors.timer import NUM_TIMERS
from repro.energy.accounting import ClassStats, EnergyMeter, HandlerStats
from repro.energy.calibration import DEFAULT_CALIBRATION, Calibration
from repro.energy.model import CORE_BUCKETS
from repro.isa.events import Event
from repro.isa.opcodes import InstrClass, Unit
from repro.radio.transceiver import RadioConfig, RadioMode
from repro.sensors.sensor import (
    ConstantSensor,
    InterruptSensor,
    TraceSensor,
)
from repro.sensors.adc import Adc
from repro.sensors.temperature import TemperatureSensor

SCHEMA = "repro.sim.checkpoint/1"

#: Host-side (observability) callbacks that may sit on the kernel heap
#: but carry no simulation state: capture skips them and records the
#: skip.  The caller re-arms observability after restore.
_HOST_CALLBACK_QUALNAMES = (
    "Watchdog._tick",
    "TimelineSampler._tick",
    "Blackbox._checkpoint_tick",
    "TelemetryExporter._tick",
)


class CheckpointError(Exception):
    """Base class for checkpoint capture/restore failures."""


class CheckpointCaptureError(CheckpointError):
    """The live simulation holds state this schema cannot serialize."""


class CheckpointVersionError(CheckpointError):
    """The checkpoint's ``schema`` field is not a supported version."""

    def __init__(self, found):
        self.found = found
        super().__init__(
            "unsupported checkpoint schema %r (this build reads %r)"
            % (found, SCHEMA))


class Checkpoint:
    """A captured simulation state: a JSON-able dict plus conveniences."""

    def __init__(self, data):
        _validate(data)
        self.data = data

    @property
    def schema(self):
        return self.data["schema"]

    @property
    def kind(self):
        """``"network"`` or ``"node"``."""
        return self.data["kind"]

    @property
    def time_s(self):
        """Simulation time at which the checkpoint was taken."""
        return self.data["time_s"]

    def to_json(self, indent=None):
        """Serialize to JSON text (floats round-trip exactly)."""
        return json.dumps(self.data, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except ValueError as error:
            raise CheckpointError("checkpoint is not JSON: %s" % error) \
                from error
        return cls(data)

    def save(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=2))
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path):
        with open(path) as handle:
            return cls.from_json(handle.read())

    def restore(self):
        """Rebuild a fresh simulator; see :func:`restore`."""
        return restore(self)


#: Top-level fields of every checkpoint and the JSON types they hold
#: (``network`` checkpoints also hold a ``channel`` object).
_FIELDS = {"kind": (str,), "time_s": (int, float), "kernel": (dict,),
           "nodes": (list,)}


def _validate(data):
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        found = data.get("schema") if isinstance(data, dict) else None
        raise CheckpointVersionError(found)
    fields = _FIELDS
    if data.get("kind") == "network":
        fields = dict(_FIELDS, channel=(dict,))
    for name, types in fields.items():
        if name not in data:
            raise CheckpointError("checkpoint field %r is missing" % name)
        if not isinstance(data[name], types):
            raise CheckpointError(
                "checkpoint field %r is %s, not %s"
                % (name, type(data[name]).__name__,
                   " or ".join(kind.__name__ for kind in types)))
    if not data["nodes"]:
        raise CheckpointError("checkpoint field 'nodes' is empty")


@contextlib.contextmanager
def _reading(where):
    """Re-raise a lookup or type error met while restoring *where* as a
    :class:`CheckpointError` naming it."""
    try:
        yield
    except KeyError as error:
        raise CheckpointError("checkpoint %s: missing field %s"
                              % (where, error)) from error
    except (TypeError, IndexError, ValueError, AttributeError) as error:
        raise CheckpointError("checkpoint %s: %s: %s"
                              % (where, type(error).__name__, error)) \
            from error


# -- small codecs -------------------------------------------------------------


def _pack_words(words):
    """Pack a word list as a hex string, four digits per 16-bit word."""
    return "".join("%04x" % (word & 0xFFFF) for word in words)


def _unpack_words(text):
    return [int(text[index:index + 4], 16)
            for index in range(0, len(text), 4)]


def _rng_state(rng):
    kind, keys, pos, has_gauss, cached = rng.get_state()
    return {"kind": kind, "keys": [int(key) for key in keys],
            "pos": int(pos), "has_gauss": int(has_gauss),
            "cached_gaussian": float(cached)}


def _restore_rng(rng, state):
    rng.set_state((state["kind"],
                   np.array(state["keys"], dtype=np.uint32),
                   state["pos"], state["has_gauss"],
                   state["cached_gaussian"]))


def _memory_state(bank):
    return {"words_hex": _pack_words(bank._words),
            "reads": bank.reads, "writes": bank.writes}


def _restore_memory(bank, state):
    words = _unpack_words(state["words_hex"])
    if len(words) != bank.size_words:
        raise CheckpointError(
            "%s: checkpoint holds %d words for a %d-word bank"
            % (bank.name, len(words), bank.size_words))
    # Direct assignment: counters are restored verbatim and the
    # predecode write hook is rebuilt separately from the captured
    # validity set.
    bank._words = words
    bank.reads = state["reads"]
    bank.writes = state["writes"]


def _calibration_state(calibration):
    if calibration == DEFAULT_CALIBRATION:
        return "default"
    return {
        "imem_read_pj": calibration.imem_read_pj,
        "dmem_access_pj": calibration.dmem_access_pj,
        "fetch_base_pj": calibration.fetch_base_pj,
        "fetch_extra_word_pj": calibration.fetch_extra_word_pj,
        "decode_pj": calibration.decode_pj,
        "unit_pj": {unit.name: pj
                    for unit, pj in calibration.unit_pj.items()},
        "slow_bus_pj": calibration.slow_bus_pj,
        "mem_if_mem_op_pj": calibration.mem_if_mem_op_pj,
        "mem_if_other_pj": calibration.mem_if_other_pj,
        "misc_base_pj": calibration.misc_base_pj,
        "misc_extra_word_pj": calibration.misc_extra_word_pj,
        "wakeup_pj": calibration.wakeup_pj,
        "event_token_pj": calibration.event_token_pj,
    }


def _restore_calibration(state):
    if state == "default":
        return DEFAULT_CALIBRATION
    fields = dict(state)
    fields["unit_pj"] = {Unit[name]: pj
                         for name, pj in state["unit_pj"].items()}
    return Calibration(**fields)


def _config_state(config):
    return {
        "voltage": config.voltage,
        "imem_words": config.imem_words,
        "dmem_words": config.dmem_words,
        "event_queue_capacity": config.event_queue_capacity,
        "event_queue_policy": config.event_queue_policy,
        "fifo_capacity": config.fifo_capacity,
        "timer_tick_hz": config.timer_tick_hz,
        "leakage_power": config.leakage_power,
        "calibration": _calibration_state(config.calibration),
        "max_instructions": config.max_instructions,
        "fast_path": config.fast_path,
    }


def _restore_config(state):
    fields = dict(state)
    fields["calibration"] = _restore_calibration(state["calibration"])
    # trace_fn is host-side observability and is never serialized;
    # reattach one after restore if needed.
    return CoreConfig(trace_fn=None, **fields)


def _radio_config_state(config):
    return {"bit_rate": config.bit_rate, "word_bits": config.word_bits,
            "tx_power_w": config.tx_power_w, "rx_power_w": config.rx_power_w}


# -- sensors ------------------------------------------------------------------

# Each supported sensor type has a (capture, restore) pair; restore
# receives the node's kernel because interrupt sensors schedule on it.


def _capture_constant(sensor):
    return {"value": sensor.value}


def _restore_constant(state, kernel):
    return ConstantSensor(state["value"])


def _capture_temperature(sensor):
    return {
        "base_c": sensor.base_c, "amplitude_c": sensor.amplitude_c,
        "period_s": sensor.period_s, "noise_c": sensor.noise_c,
        "adc": {"bits": sensor.adc.bits, "low": sensor.adc.low,
                "high": sensor.adc.high},
        "rng": _rng_state(sensor._rng), "reads": sensor.reads,
    }


def _restore_temperature(state, kernel):
    adc = state["adc"]
    sensor = TemperatureSensor(
        base_c=state["base_c"], amplitude_c=state["amplitude_c"],
        period_s=state["period_s"], noise_c=state["noise_c"],
        adc=Adc(bits=adc["bits"], low=adc["low"], high=adc["high"]))
    _restore_rng(sensor._rng, state["rng"])
    sensor.reads = state["reads"]
    return sensor


def _capture_trace_sensor(sensor):
    return {"samples": list(sensor.samples), "sample_hz": sensor.sample_hz,
            "wrap": sensor.wrap, "reads": sensor.reads}


def _restore_trace_sensor(state, kernel):
    sensor = TraceSensor(state["samples"], sample_hz=state["sample_hz"],
                         wrap=state["wrap"])
    sensor.reads = state["reads"]
    return sensor


def _capture_interrupt_sensor(sensor):
    return {
        "values": list(sensor._values) if sensor._values is not None
        else None,
        "value_index": sensor._value_index, "latched": sensor._latched,
        "fires": sensor.fires, "rng": _rng_state(sensor._rng),
    }


def _restore_interrupt_sensor(state, kernel):
    sensor = InterruptSensor(kernel, values=state["values"])
    sensor._value_index = state["value_index"]
    sensor._latched = state["latched"]
    sensor.fires = state["fires"]
    _restore_rng(sensor._rng, state["rng"])
    return sensor


_SENSOR_CODECS = {
    "ConstantSensor": (ConstantSensor, _capture_constant,
                       _restore_constant),
    "TemperatureSensor": (TemperatureSensor, _capture_temperature,
                          _restore_temperature),
    "TraceSensor": (TraceSensor, _capture_trace_sensor,
                    _restore_trace_sensor),
    "InterruptSensor": (InterruptSensor, _capture_interrupt_sensor,
                        _restore_interrupt_sensor),
}


def _capture_sensor(sensor):
    for type_name, (cls, capture_fn, _) in _SENSOR_CODECS.items():
        if type(sensor) is cls:
            return {"type": type_name, "state": capture_fn(sensor)}
    raise CheckpointCaptureError(
        "sensor type %s has no checkpoint codec; supported: %s"
        % (type(sensor).__name__, ", ".join(sorted(_SENSOR_CODECS))))


def _restore_sensor(state, kernel):
    try:
        _, _, restore_fn = _SENSOR_CODECS[state["type"]]
    except KeyError:
        raise CheckpointError(
            "unknown sensor type %r in checkpoint" % (state["type"],)) \
            from None
    return restore_fn(state["state"], kernel)


# -- energy meter -------------------------------------------------------------


def _meter_state(meter):
    return {
        "instructions": meter.instructions,
        "cycles": meter.cycles,
        "total_energy": meter.total_energy,
        "wakeups": meter.wakeups,
        "wakeup_energy": meter.wakeup_energy,
        "event_tokens": meter.event_tokens,
        "event_token_energy": meter.event_token_energy,
        "idle_time": meter.idle_time,
        "idle_energy": meter.idle_energy,
        "busy_time": meter.busy_time,
        "dispatch_count": meter.dispatch_count,
        "dispatch_latency_total": meter.dispatch_latency_total,
        "dispatch_latency_max": meter.dispatch_latency_max,
        "imem_energy": meter.imem_energy,
        "dmem_energy": meter.dmem_energy,
        "by_bucket": {bucket: meter.by_bucket[bucket]
                      for bucket in CORE_BUCKETS},
        "by_class": {cls.name: [stats.count, stats.energy]
                     for cls, stats in sorted(meter.by_class.items(),
                                              key=lambda kv: kv[0].name)},
        "by_handler": {tag: [stats.instructions, stats.cycles,
                             stats.energy, stats.invocations]
                       for tag, stats in sorted(meter.by_handler.items())},
    }


def _restore_meter(meter, state):
    fresh = EnergyMeter()
    meter.__dict__.update(fresh.__dict__)
    for name in ("instructions", "cycles", "total_energy", "wakeups",
                 "wakeup_energy", "event_tokens", "event_token_energy",
                 "idle_time", "idle_energy", "busy_time", "dispatch_count",
                 "dispatch_latency_total", "dispatch_latency_max",
                 "imem_energy", "dmem_energy"):
        setattr(meter, name, state[name])
    for bucket in CORE_BUCKETS:
        meter.by_bucket[bucket] = state["by_bucket"][bucket]
    for name, (count, energy) in state["by_class"].items():
        meter.by_class[InstrClass[name]] = ClassStats(count=count,
                                                      energy=energy)
    for tag, fields in state["by_handler"].items():
        instructions, cycles, energy, invocations = fields
        meter.by_handler[tag] = HandlerStats(
            instructions=instructions, cycles=cycles, energy=energy,
            invocations=invocations)


# -- per-node capture/restore -------------------------------------------------


def _fifo_state(fifo):
    return {"words": fifo.words(), "pushes": fifo.pushes,
            "pops": fifo.pops, "max_occupancy": fifo.max_occupancy}


def _restore_fifo(fifo, state):
    fifo.restore(state["words"], pushes=state["pushes"],
                 pops=state["pops"], max_occupancy=state["max_occupancy"])


def _node_state(node):
    processor = node.processor
    ports = processor.mcp._ports
    if set(ports) - {0} or (0 in ports and ports[0] is not node.leds):
        raise CheckpointCaptureError(
            "%s: custom output ports have no checkpoint codec" % node.name)
    state = {
        "id": node.node_id,
        "name": node.name,
        "position": list(node.position),
        "loaded": node.loaded,
        "config": _config_state(processor.config),
        "radio_config": _radio_config_state(node.radio.config),
        "processor": _processor_state(processor),
        "radio": _radio_state(node.radio),
        "leds": {"count": node.leds.leds,
                 "history": [[time, value]
                             for time, value in node.leds.history]},
        "sensors": {str(sensor_id): _capture_sensor(sensor)
                    for sensor_id, sensor in sorted(node.sensors.items())},
    }
    return state


def _processor_state(processor):
    predecoded = []
    if processor._predec is not None:
        predecoded = [pc for pc, slot in enumerate(processor._predec)
                      if slot is not None]
    timer = processor.timer
    return {
        "pc": processor.pc,
        "carry": processor.carry,
        "mode": processor.mode.value,
        "current_tag": processor.current_tag,
        "handler_table": list(processor.handler_table),
        "handler_tags": {event.name: tag
                         for event, tag in processor.handler_tags.items()},
        "registers": processor.regs.snapshot(),
        "register_reads": processor.regs.reads,
        "register_writes": processor.regs.writes,
        "lfsr": processor.lfsr.state,
        "sleep_start": processor._sleep_start,
        "instruction_budget_used": processor._instruction_budget_used,
        "bursts": processor.bursts,
        "burst_instructions": processor.burst_instructions,
        "imem": _memory_state(processor.imem),
        "dmem": _memory_state(processor.dmem),
        "predecoded": predecoded,
        "meter": _meter_state(processor.meter),
        "event_queue": {
            "tokens": [[token.event.name, token.raised_at]
                       for token in processor.event_queue.tokens()],
            "inserted": processor.event_queue.inserted,
            "dropped": processor.event_queue.dropped,
        },
        "mcp": {
            "incoming": _fifo_state(processor.mcp.incoming),
            "outgoing": _fifo_state(processor.mcp.outgoing),
            "awaiting_tx_data": processor.mcp._awaiting_tx_data,
            "commands_processed": processor.mcp.commands_processed,
            "tx_words": processor.mcp.tx_words,
            "rx_words": processor.mcp.rx_words,
        },
        "timer": {
            "registers": [{"high_bits": register.high_bits,
                           "running": register.running,
                           "expires_at": register.expires_at}
                          for register in timer._registers],
            "expirations": timer.expirations,
            "cancellations": timer.cancellations,
        },
    }


def _radio_state(radio):
    return {
        "mode": radio.mode.value,
        "tx_queue": list(radio._tx_queue),
        "tx_queue_depth": radio._tx_queue_depth,
        "tx_busy": radio._tx_busy,
        "rx_requested": radio._rx_requested,
        "rx_since": radio._rx_since,
        "words_sent": radio.words_sent,
        "words_received": radio.words_received,
        "words_dropped": radio.words_dropped,
        "tx_time": radio.tx_time,
        "rx_time": radio.rx_time,
    }


def _restore_node_state(node, state):
    processor = node.processor
    pstate = state["processor"]
    processor.pc = pstate["pc"]
    processor.carry = pstate["carry"]
    processor.mode = Mode(pstate["mode"])
    processor.current_tag = pstate["current_tag"]
    processor.handler_table = list(pstate["handler_table"])
    processor.handler_tags = {Event[name]: tag
                              for name, tag in
                              pstate["handler_tags"].items()}
    processor.regs._regs = [value & 0xFFFF
                            for value in pstate["registers"]]
    processor.regs.reads = pstate["register_reads"]
    processor.regs.writes = pstate["register_writes"]
    processor.lfsr._state = pstate["lfsr"]
    processor._sleep_start = pstate["sleep_start"]
    processor._instruction_budget_used = pstate["instruction_budget_used"]
    processor.bursts = pstate["bursts"]
    processor.burst_instructions = pstate["burst_instructions"]
    _restore_memory(processor.imem, pstate["imem"])
    _restore_memory(processor.dmem, pstate["dmem"])
    # Warm the predecode cache back to its captured validity; the slots
    # themselves are pure functions of IMEM and the energy/timing models,
    # so re-decoding reproduces them exactly.
    if processor._predec is not None:
        for pc in pstate["predecoded"]:
            processor._predecode(pc)
    _restore_meter(processor.meter, pstate["meter"])

    queue = processor.event_queue
    queue._tokens.clear()
    for name, raised_at in pstate["event_queue"]["tokens"]:
        queue._tokens.append(EventToken(event=Event[name],
                                        raised_at=raised_at))
    queue.inserted = pstate["event_queue"]["inserted"]
    queue.dropped = pstate["event_queue"]["dropped"]

    mcp = processor.mcp
    _restore_fifo(mcp.incoming, pstate["mcp"]["incoming"])
    _restore_fifo(mcp.outgoing, pstate["mcp"]["outgoing"])
    mcp._awaiting_tx_data = pstate["mcp"]["awaiting_tx_data"]
    mcp.commands_processed = pstate["mcp"]["commands_processed"]
    mcp.tx_words = pstate["mcp"]["tx_words"]
    mcp.rx_words = pstate["mcp"]["rx_words"]

    timer = processor.timer
    for register, rstate in zip(timer._registers,
                                pstate["timer"]["registers"]):
        register.high_bits = rstate["high_bits"]
        register.running = rstate["running"]
        register.expires_at = rstate["expires_at"]
        register.handle = None  # re-linked from the heap descriptors
    timer.expirations = pstate["timer"]["expirations"]
    timer.cancellations = pstate["timer"]["cancellations"]

    radio = node.radio
    rstate = state["radio"]
    radio.mode = RadioMode(rstate["mode"])
    radio._tx_queue = [word & 0xFFFF for word in rstate["tx_queue"]]
    radio._tx_queue_depth = rstate["tx_queue_depth"]
    radio._tx_busy = rstate["tx_busy"]
    radio._rx_requested = rstate["rx_requested"]
    radio._rx_since = rstate["rx_since"]
    radio.words_sent = rstate["words_sent"]
    radio.words_received = rstate["words_received"]
    radio.words_dropped = rstate["words_dropped"]
    radio.tx_time = rstate["tx_time"]
    radio.rx_time = rstate["rx_time"]

    node.leds.history = [(time, value)
                         for time, value in state["leds"]["history"]]
    node.leds.leds = state["leds"]["count"]
    node.loaded = state["loaded"]

    for sensor_id, sensor_state in state["sensors"].items():
        node.attach_sensor(_restore_sensor(sensor_state, node.kernel),
                           sensor_id=int(sensor_id))


# -- the kernel heap ----------------------------------------------------------


def _describe_callbacks(kernel, owners, unknown):
    """Serialize the kernel's live heap entries.

    *owners* maps component objects (processors, timer coprocessors,
    radios, sensors) to ``(kind, node_key, extra)`` descriptor stubs.
    Returns ``(events, skipped)``.
    """
    events, skipped = [], []
    for time, handle, callback, args in kernel.live_entries():
        target = getattr(callback, "__self__", None)
        name = getattr(callback, "__name__", None)
        qualname = getattr(callback, "__qualname__", repr(callback))
        owner = owners.get(id(target)) if target is not None else None
        if owner is not None:
            kind, node_key, extra = owner
            descriptor = None
            if kind == "processor" and name == "_step":
                descriptor = {"kind": "cpu_step", "node": node_key}
            elif kind == "timer" and name == "_expire":
                descriptor = {"kind": "timer_expire", "node": node_key,
                              "index": args[0]}
            elif kind == "radio" and name == "_finish_word":
                descriptor = {"kind": "radio_tx_done", "node": node_key,
                              "word": args[0], "start": args[1]}
            elif kind == "sensor" and name == "fire":
                descriptor = {"kind": "sensor_fire", "node": node_key,
                              "sensor": extra}
            if descriptor is not None:
                events.append({"time": time, "handle": handle,
                               "callback": descriptor})
                continue
        if any(qualname.endswith(host)
               for host in _HOST_CALLBACK_QUALNAMES):
            skipped.append({"time": time, "callback": qualname})
            continue
        if unknown == "skip":
            skipped.append({"time": time, "callback": qualname})
            continue
        raise CheckpointCaptureError(
            "cannot serialize kernel callback %r scheduled at t=%.9f; "
            "detach it before capture or pass unknown='skip'"
            % (qualname, time))
    return events, skipped


def _component_owners(nodes):
    """Map ``id(component) -> (kind, node_key, extra)`` for every node."""
    owners = {}
    for node_key, node in nodes:
        owners[id(node.processor)] = ("processor", node_key, None)
        owners[id(node.processor.timer)] = ("timer", node_key, None)
        owners[id(node.radio)] = ("radio", node_key, None)
        for sensor_id, sensor in node.sensors.items():
            owners[id(sensor)] = ("sensor", node_key, sensor_id)
    return owners


def _kernel_state(kernel, nodes, unknown):
    events, skipped = _describe_callbacks(kernel,
                                          _component_owners(nodes), unknown)
    state = {
        "now": kernel.now,
        "next_handle": kernel._next_handle,
        "events": events,
    }
    return state, skipped


def _restore_kernel(kernel, state, nodes_by_key):
    """Rebuild the heap; returns nothing but re-links timer handles and
    processor ``_step_pending`` flags as a side effect."""
    entries = []
    for record in state["events"]:
        descriptor = record["callback"]
        kind = descriptor["kind"]
        try:
            node = nodes_by_key[descriptor["node"]]
        except KeyError:
            raise CheckpointError(
                "heap entry references unknown node %r"
                % (descriptor["node"],)) from None
        if kind == "cpu_step":
            callback, args = node.processor._step, ()
            node.processor._step_pending = True
        elif kind == "timer_expire":
            index = descriptor["index"]
            if not 0 <= index < NUM_TIMERS:
                raise CheckpointError(
                    "timer_expire index %r out of range" % (index,))
            callback, args = node.processor.timer._expire, (index,)
            node.processor.timer._registers[index].handle = record["handle"]
        elif kind == "radio_tx_done":
            callback = node.radio._finish_word
            args = (descriptor["word"], descriptor["start"])
        elif kind == "sensor_fire":
            sensor = node.sensors.get(descriptor["sensor"]) or \
                node.sensors.get(int(descriptor["sensor"]))
            if sensor is None:
                raise CheckpointError(
                    "heap entry references unknown sensor %r on node %r"
                    % (descriptor["sensor"], descriptor["node"]))
            callback, args = sensor.fire, ()
        else:
            raise CheckpointError(
                "unknown heap callback kind %r" % (kind,))
        entries.append((record["time"], record["handle"], callback, args))
    kernel.restore_state(state["now"], state["next_handle"], entries)


# -- channel ------------------------------------------------------------------


def _channel_state(channel, radio_keys):
    def key_for(radio):
        try:
            return radio_keys[id(radio)]
        except KeyError:
            raise CheckpointCaptureError(
                "radio %r joined the channel outside the simulator's "
                "nodes; cannot checkpoint" % (radio.name,)) from None

    return {
        "comm_range": channel.comm_range,
        "bit_error_rate": channel.bit_error_rate,
        "corruption": channel.corruption,
        "rng": _rng_state(channel._rng),
        "active": [[key_for(radio), start, end]
                   for radio, (start, end) in channel._active.items()],
        "recent": [[key_for(radio), start, end]
                   for radio, start, end in channel._recent],
        "collisions": channel.collisions,
        "words_carried": channel.words_carried,
        "noise_corruptions": channel.noise_corruptions,
    }


def _restore_channel(channel, state, nodes_by_key):
    _restore_rng(channel._rng, state["rng"])
    channel._active = {nodes_by_key[key].radio: (start, end)
                       for key, start, end in state["active"]}
    channel._recent = [(nodes_by_key[key].radio, start, end)
                       for key, start, end in state["recent"]]
    channel.collisions = state["collisions"]
    channel.words_carried = state["words_carried"]
    channel.noise_corruptions = state["noise_corruptions"]


# -- the public API -----------------------------------------------------------


def capture(sim, unknown="error"):
    """Freeze *sim* -- a :class:`~repro.network.NetworkSimulator` or a
    standalone :class:`~repro.node.SensorNode` -- into a
    :class:`Checkpoint`.

    Capture never mutates simulation state (all reads go through
    counter-free inspection paths), so ``capture`` at time ``t`` is
    idempotent and a captured run continues bit-identically.

    *unknown* controls what happens when a kernel heap entry's callback
    is not one of the serializable simulation callbacks: ``"error"``
    (default) raises :class:`CheckpointCaptureError`; ``"skip"`` drops
    it and lists it under ``skipped_callbacks`` (the policy the blackbox
    uses, since its own periodic tick and failure-injection hooks sit on
    the same heap).  Host-side observability ticks (watchdog, timeline
    sampler) are always skipped and recorded.
    """
    from repro.network.simulator import NetworkSimulator
    from repro.node.node import SensorNode

    if unknown not in ("error", "skip"):
        raise ValueError("unknown must be 'error' or 'skip', not %r"
                         % (unknown,))
    if isinstance(sim, NetworkSimulator):
        nodes = [(str(node_id), node)
                 for node_id, node in sim.nodes.items()]
        expected = [node.radio for _, node in nodes]
        if sim.channel._radios != expected:
            raise CheckpointCaptureError(
                "channel radios do not match the simulator's nodes; "
                "cannot checkpoint")
        kernel_state, skipped = _kernel_state(sim.kernel, nodes, unknown)
        radio_keys = {id(node.radio): key for key, node in nodes}
        data = {
            "schema": SCHEMA,
            "kind": "network",
            "time_s": sim.kernel.now,
            "kernel": kernel_state,
            "channel": _channel_state(sim.channel, radio_keys),
            "nodes": [_node_state(node) for _, node in nodes],
            "skipped_callbacks": skipped,
        }
        return Checkpoint(data)
    if isinstance(sim, SensorNode):
        nodes = [(str(sim.node_id), sim)]
        kernel_state, skipped = _kernel_state(sim.kernel, nodes, unknown)
        data = {
            "schema": SCHEMA,
            "kind": "node",
            "time_s": sim.kernel.now,
            "kernel": kernel_state,
            "nodes": [_node_state(sim)],
            "skipped_callbacks": skipped,
        }
        return Checkpoint(data)
    raise CheckpointCaptureError(
        "capture() takes a NetworkSimulator or SensorNode, not %s"
        % type(sim).__name__)


def restore(checkpoint):
    """Rebuild a fresh simulator from *checkpoint*.

    Returns a :class:`~repro.network.NetworkSimulator` for ``network``
    checkpoints and a :class:`~repro.node.SensorNode` for ``node``
    checkpoints.  The restored simulation continues bit-identically to
    the captured one; observability (``obs`` contexts, trace functions,
    watchdogs) is not part of a checkpoint and must be re-attached by
    the caller before resuming if event streams are wanted.
    """
    from repro.network.simulator import NetworkSimulator
    from repro.node.node import SensorNode

    if isinstance(checkpoint, dict):
        checkpoint = Checkpoint(checkpoint)
    _validate(checkpoint.data)
    data = checkpoint.data

    if checkpoint.kind == "node":
        with _reading("nodes[0]"):
            state = data["nodes"][0]
            node = SensorNode(
                node_id=state["id"], name=state["name"],
                config=_restore_config(state["config"]),
                radio_config=RadioConfig(**state["radio_config"]),
                position=tuple(state["position"]))
            _restore_node_state(node, state)
        with _reading("kernel"):
            _restore_kernel(node.kernel, data["kernel"],
                            {str(state["id"]): node})
        return node
    if checkpoint.kind != "network":
        raise CheckpointError("unknown checkpoint kind %r"
                              % (checkpoint.kind,))

    channel_state = data["channel"]
    with _reading("channel"):
        net = NetworkSimulator(
            comm_range=channel_state["comm_range"],
            bit_error_rate=channel_state["bit_error_rate"],
            corruption=channel_state["corruption"])
    nodes_by_key = {}
    for index, state in enumerate(data["nodes"]):
        # add_node() cannot carry a custom name, so nodes are rebuilt
        # the way it builds them: construct, join the channel (order
        # matters -- delivery fan-out follows join order), register.
        with _reading("nodes[%d]" % index):
            node = SensorNode(
                kernel=net.kernel, node_id=state["id"], name=state["name"],
                config=_restore_config(state["config"]),
                radio_config=RadioConfig(**state["radio_config"]),
                position=tuple(state["position"]))
            net.channel.join(node.radio)
            net.nodes[state["id"]] = node
            _restore_node_state(node, state)
            nodes_by_key[str(state["id"])] = node
    with _reading("channel"):
        _restore_channel(net.channel, channel_state, nodes_by_key)
    with _reading("kernel"):
        _restore_kernel(net.kernel, data["kernel"], nodes_by_key)
    return net


def meter_digest(processor):
    """Every meter accumulator at full precision, for exact comparison."""
    meter = processor.meter
    return {
        "instructions": meter.instructions,
        "cycles": meter.cycles,
        "total_energy": meter.total_energy,
        "busy_time": meter.busy_time,
        "idle_time": meter.idle_time,
        "idle_energy": meter.idle_energy,
        "wakeups": meter.wakeups,
        "wakeup_energy": meter.wakeup_energy,
        "event_tokens": meter.event_tokens,
        "event_token_energy": meter.event_token_energy,
        "dispatch_count": meter.dispatch_count,
        "dispatch_latency_total": meter.dispatch_latency_total,
        "dispatch_latency_max": meter.dispatch_latency_max,
        "imem_energy": meter.imem_energy,
        "dmem_energy": meter.dmem_energy,
        "by_bucket": dict(meter.by_bucket),
        "by_class": {cls.value: (stats.count, stats.energy)
                     for cls, stats in sorted(meter.by_class.items(),
                                              key=lambda kv: kv[0].value)},
        "by_handler": {tag: (stats.instructions, stats.cycles, stats.energy,
                             stats.invocations)
                       for tag, stats in sorted(meter.by_handler.items())},
        "imem_reads": processor.imem.reads,
        "imem_writes": processor.imem.writes,
        "dmem_reads": processor.dmem.reads,
        "dmem_writes": processor.dmem.writes,
        "now": processor.kernel.now,
        "pc": processor.pc,
        "mode": processor.mode.value,
    }


def network_digest(sim):
    """Every meter accumulator of every node (plus channel and kernel
    counters) at full precision -- the equality the differential harness
    asserts between resumed and uninterrupted runs.

    Accepts a :class:`~repro.network.NetworkSimulator` or a single
    :class:`~repro.node.SensorNode`; each node's entry is its
    :func:`meter_digest` plus its radio state.
    """
    from repro.network.simulator import NetworkSimulator

    if isinstance(sim, NetworkSimulator):
        digest = {
            "kind": "network",
            "now": sim.kernel.now,
            "pending": sim.kernel.pending,
            "channel": {
                "words_carried": sim.channel.words_carried,
                "collisions": sim.channel.collisions,
                "noise_corruptions": sim.channel.noise_corruptions,
            },
            "nodes": {},
        }
        for node_id, node in sorted(sim.nodes.items()):
            node_digest = meter_digest(node.processor)
            node_digest["radio"] = _radio_state(node.radio)
            digest["nodes"][str(node_id)] = node_digest
        return digest
    digest = meter_digest(sim.processor)
    digest["radio"] = _radio_state(sim.radio)
    return digest
