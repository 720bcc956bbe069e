"""Benchmark driver programs for the Table 1 handler measurements.

Each build produces a node image that isolates one of the paper's
software tasks so its dynamic instruction count and energy can be
measured (Section 4.5):

* ``build_tx_node``  -- *Packet Transmission*: a SOFT event transmits the
  packet the harness staged at ``TX_BUF``.
* ``build_rx_node``  -- *Packet Reception*: the MAC assembles and
  verifies incoming packets; the upper-layer dispatch is a stub so only
  reception is measured.
* ``build_aodv_node`` -- *AODV Route Reply* and *AODV Packet Forward*:
  the full MAC + routing stack with the threshold app as the local
  consumer (also used by the network examples).
"""

from repro.asm import assemble_shared, link
from repro.isa.events import Event
from repro.netstack.aodv import aodv_source
from repro.netstack.apps import threshold_source
from repro.netstack.layout import equates
from repro.netstack.mac import mac_source
from repro.netstack.runtime import boot_source


def tx_driver_source():
    """SOFT-event handler that transmits the staged packet."""
    return equates() + """
tx_soft_handler:
    jal mac_send
    done
"""


def null_dispatch_source():
    """A stub upper layer: accept the packet, do nothing."""
    return equates() + """
mac_rx_dispatch:
    ret
"""


def build_tx_node(node_id=0):
    boot = boot_source(handlers={Event.SOFT: "tx_soft_handler"},
                       node_id=node_id)
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(tx_driver_source(), name="txdrv"),
                 assemble_shared(null_dispatch_source(), name="nulldisp")])


def build_rx_node(node_id=1):
    boot = boot_source(handlers={Event.RADIO_RX: "mac_rx_handler"},
                       init_calls=("mac_rx_init",),
                       node_id=node_id, start_rx=True)
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(null_dispatch_source(), name="nulldisp")])


def discovery_driver_source():
    """SOFT-event handler that originates route discovery for the target
    node id staged at ``RREQ_TARGET`` by the harness."""
    return equates() + """
disc_soft_handler:
    ld r1, RREQ_TARGET(r0)
    jal aodv_send_rreq
    done
"""


def build_discovery_node(node_id, csma=False):
    """A full AODV node that can also originate RREQs via SOFT events."""
    handlers = {Event.RADIO_RX: "mac_rx_handler",
                Event.SOFT: "disc_soft_handler"}
    if csma:
        handlers[Event.TIMER2] = "mac_backoff_expired"
    boot = boot_source(handlers=handlers,
                       init_calls=("mac_rx_init", "rt_init", "thresh_init"),
                       node_id=node_id, start_rx=True)
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(aodv_source(), name="aodv"),
                 assemble_shared(threshold_source(), name="thresh"),
                 assemble_shared(discovery_driver_source(), name="disc")])


def build_aodv_node(node_id, csma=False):
    handlers = {Event.RADIO_RX: "mac_rx_handler"}
    if csma:
        handlers[Event.TIMER2] = "mac_backoff_expired"
    boot = boot_source(handlers=handlers,
                       init_calls=("mac_rx_init", "rt_init", "thresh_init"),
                       node_id=node_id, start_rx=True)
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(aodv_source(), name="aodv"),
                 assemble_shared(threshold_source(), name="thresh")])
