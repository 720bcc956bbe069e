"""Whole-simulation services: checkpoint/restore and deterministic
replay.

``repro.sim.checkpoint`` freezes a live simulation -- kernel clock and
heap, per-node processor/coprocessor/radio state, energy meters at full
float precision, channel physics including the noise RNG -- into a
versioned, JSON-serializable :class:`~repro.sim.checkpoint.Checkpoint`,
and restores it into a fresh simulator that continues bit-identically;
its ``meter_digest`` and ``network_digest`` are the full-precision
fingerprints every bit-identity check in the repository compares.
``repro.sim.differential`` is the proof harness: it checkpoints runs
mid-flight and asserts the resumed simulation is indistinguishable from
an uninterrupted one.
"""

from repro.sim.checkpoint import (
    SCHEMA,
    Checkpoint,
    CheckpointCaptureError,
    CheckpointError,
    CheckpointVersionError,
    capture,
    meter_digest,
    network_digest,
    restore,
)

__all__ = [
    "SCHEMA",
    "Checkpoint",
    "CheckpointCaptureError",
    "CheckpointError",
    "CheckpointVersionError",
    "capture",
    "meter_digest",
    "network_digest",
    "restore",
]
