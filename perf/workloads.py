"""The benchmark's five workloads, built only from existing public builders.

Each workload is ``fn(seed, quick, fast_path, clock) -> Outcome``.  It
builds its scenario, drives it through the simulator's public run entry
points (which *clock* times from outside), and harvests an outcome
digest.  Everything the function does outside those run calls is the
rep's set-up time.

Why these five (the layer each one loads is in ``perf/README.md``):

* ``straightline`` -- the core burst loop and predecode alone; the
  "no change" control for every optimisation outside the core.
* ``blink`` -- two Fig. 5 blink nodes in lockstep on one kernel, about
  one kernel callback per instruction: kernel heap, callback dispatch
  and the timer coprocessor.
* ``convergecast`` -- a four-node multi-hop chain: radio, channel
  (collision checks) and the message coprocessor.
* ``convergecast_obs`` -- the same run with every observability
  consumer armed; must digest identically to ``convergecast``.
* ``chain_ber`` -- a 48-replica bit-error-rate sweep: set-up bound
  (program assembly per node) and the channel's noise path.

``straightline`` and ``blink`` contain no randomness: the seed is
recorded but changes nothing.
"""

import hashlib
import json
import statistics
from dataclasses import dataclass, field

from repro.asm import build
from repro.bench.simspeed import STRAIGHTLINE, meter_digest
from repro.bench.sweep import Sweep, run_sweep
from repro.core import CoreConfig, SnapProcessor
from repro.network import experiments
from repro.obs import Blackbox, Observability
from repro.sim import differential
from repro.sim.checkpoint import network_digest


@dataclass
class Outcome:
    """What one rep produced: the digest the goldens pin, plus the
    instruction count behind ``ins_per_s``."""

    digest: str
    instructions: int
    #: Workload-specific numbers for the per-layer table.
    extra: dict = field(default_factory=dict)


def sha256_of(payload):
    """sha256 over canonical JSON (sorted keys, exact float repr)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _without_pending(digest):
    """``network_digest`` minus ``pending``: the live heap-entry count is
    bookkeeping (an armed watchdog adds a tick to it), not outcome."""
    return {key: value for key, value in digest.items() if key != "pending"}


def _network_outcome(net):
    return Outcome(
        digest=sha256_of(_without_pending(network_digest(net))),
        instructions=sum(node.meter.instructions
                         for node in net.nodes.values()))


def straightline(seed, quick, fast_path, clock):
    processor = SnapProcessor(config=CoreConfig(fast_path=fast_path))
    processor.load(build(STRAIGHTLINE % {"outer": 4 if quick else 200}))
    processor.run()
    # A bare core has no radio, so its digest is the meter digest that
    # network_digest builds every node's entry from.
    return Outcome(digest=sha256_of(meter_digest(processor)),
                   instructions=processor.meter.instructions)


def blink(seed, quick, fast_path, clock):
    net, _ = differential.build_blink(fast_path)
    net.run(until=0.2 if quick else 5.0)
    return _network_outcome(net)


def _convergecast(seed, quick, fast_path, clock, obs=None):
    experiments.convergecast(chain_length=4, period_s=0.1,
                             duration_s=0.3 if quick else 8.0, seed=seed,
                             fast_path=fast_path, obs=obs)
    # The experiment returns reports, not its simulator; the run clock
    # saw the simulator on its way into NetworkSimulator.run.
    return _network_outcome(clock.last_target)


def convergecast(seed, quick, fast_path, clock):
    return _convergecast(seed, quick, fast_path, clock)


def convergecast_obs(seed, quick, fast_path, clock):
    box = Blackbox(obs=Observability(profile=True, journeys=True,
                                     energy=True),
                   bundle_dir=None)
    return _convergecast(seed, quick, fast_path, clock, obs=box)


def chain_ber(seed, quick, fast_path, clock):
    if not fast_path:
        raise ValueError("the chain_ber sweep scenario has no engine switch")
    if quick:
        grid = {"voltage": [0.6], "bit_error_rate": [0, 0.02]}
    else:
        grid = {"voltage": [0.6, 0.9, 1.2, 1.8],
                "bit_error_rate": [0, 0.01, 0.02, 0.05]}
    result = run_sweep(Sweep("chain_ber", grid, replicas=1 if quick else 3,
                             base_seed=seed), workers=1)
    if result.failed_cells:
        raise RuntimeError("chain_ber cells failed: %s" % "; ".join(
            cell.get("error", "?") for cell in result.failed_cells))
    replicas = [dict(replica, digest=_without_pending(replica["digest"]))
                for cell in result.cells for replica in cell["replicas"]]
    predecode = result.predecode
    leases = predecode["hits"] + predecode["misses"]
    return Outcome(
        digest=sha256_of(replicas),
        instructions=sum(replica["instructions"] for replica in replicas),
        extra={"cell_s_p50": statistics.median(
                   cell["wall_time_s"] for cell in result.cells),
               "predecode_hit_frac":
                   predecode["hits"] / leases if leases else 0.0})


WORKLOADS = {
    "straightline": straightline,
    "blink": blink,
    "convergecast": convergecast,
    "convergecast_obs": convergecast_obs,
    "chain_ber": chain_ber,
}

#: Workloads whose golden must be reproduced by the reference engine
#: (``CoreConfig(fast_path=False)``) before ``goldens --write`` accepts it.
#: ``convergecast_obs`` is checked against ``convergecast`` instead, and
#: the chain_ber sweep scenario has no engine switch.
ORACLE_CHECKED = ("straightline", "blink", "convergecast")
