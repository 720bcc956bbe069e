"""A data-gathering node: sample periodically and report to a sink.

This is the paper's motivating workload (Section 1: habitat and
environment monitoring with "data gathering nodes").  Each node runs a
periodic timer; every period it polls its sensor through the message
coprocessor and transmits the reading as a DATA packet toward the sink
through the MAC + AODV stack, then goes back to sleep.

The next hop toward the sink lives at ``SAMP_NEXT_HOP`` in DMEM (either
poked by the harness or filled from a discovered route).
"""

from repro.asm import assemble_shared, link
from repro.isa.events import Event
from repro.netstack.aodv import aodv_source
from repro.netstack.apps import threshold_source
from repro.netstack.layout import APP_BASE_ADDR, equates
from repro.netstack.mac import mac_source
from repro.netstack.runtime import boot_source

SAMP_NEXT_HOP = APP_BASE_ADDR + 8   # MAC next hop toward the sink
SAMP_SINK = APP_BASE_ADDR + 9       # final destination node id
SAMP_SEQ = APP_BASE_ADDR + 10       # outgoing sequence number
SAMP_SENT = APP_BASE_ADDR + 11      # packets sent
SAMP_LAST = APP_BASE_ADDR + 12      # last sample value

#: Default sample period in timer ticks.
SAMPLE_PERIOD_TICKS = 100_000  # 100 ms


def sampling_source(period_ticks=SAMPLE_PERIOD_TICKS):
    """Assembly source of the sample-and-report application."""
    header = equates() + """
    .equ NEXT_HOP, %d
    .equ SINK, %d
    .equ SEQ, %d
    .equ SENT, %d
    .equ LAST, %d
    .equ PERIOD_LO, %d
    .equ PERIOD_HI, %d
""" % (SAMP_NEXT_HOP, SAMP_SINK, SAMP_SEQ, SAMP_SENT, SAMP_LAST,
       period_ticks & 0xFFFF, (period_ticks >> 16) & 0xFF)
    return header + r"""
samp_init:
    st r0, SEQ(r0)
    st r0, SENT(r0)
    st r0, LAST(r0)
    ret

samp_arm:
    movi r1, 0
    movi r2, PERIOD_HI
    schedhi r1, r2
    movi r2, PERIOD_LO
    schedlo r1, r2
    ret

; TIMER0: poll the sensor and re-arm the period.
samp_timer_handler:
    movi r15, CMD_QUERY + 1
    jal samp_arm
    done

; QUERY_DONE: package the sample and send it toward the sink.
samp_query_handler:
    mov r1, r15                 ; the sample
    st r1, LAST(r0)
    ; build the DATA packet in TX_BUF
    ld r2, NEXT_HOP(r0)
    st r2, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    movi r2, TYPE_DATA
    st r2, TX_BUF + PKT_TYPE(r0)
    ld r2, SEQ(r0)
    st r2, TX_BUF + PKT_SEQ(r0)
    addi r2, 1
    st r2, SEQ(r0)
    movi r2, 3
    st r2, TX_BUF + PKT_LEN(r0)
    ld r2, SINK(r0)
    st r2, TX_BUF + PKT_HDR(r0)      ; payload[0] = final destination
    st r1, TX_BUF + PKT_HDR + 1(r0)  ; payload[1] = the sample
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_HDR + 2(r0)  ; payload[2] = reporter id
    jal mac_send
    ld r2, SENT(r0)
    addi r2, 1
    st r2, SENT(r0)
    done
"""


def build_sampling_node(node_id, period_ticks=SAMPLE_PERIOD_TICKS):
    """A leaf node: sample + report, plus the full MAC/AODV stack so it
    can also relay traffic for others."""
    boot = boot_source(
        handlers={Event.TIMER0: "samp_timer_handler",
                  Event.QUERY_DONE: "samp_query_handler",
                  Event.RADIO_RX: "mac_rx_handler"},
        init_calls=("mac_rx_init", "rt_init", "thresh_init", "samp_init"),
        node_id=node_id,
        start_rx=True,
        extra="    jal samp_arm",
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(aodv_source(), name="aodv"),
                 assemble_shared(threshold_source(), name="thresh"),
                 assemble_shared(sampling_source(period_ticks), name="samp")])
