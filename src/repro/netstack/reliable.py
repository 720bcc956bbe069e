"""A reliable MAC layer: acknowledgments with timer-based retransmission.

This extension exercises the timer coprocessor's cancel semantics in
real software.  Section 3.2: cancelling a running timer still inserts
the timer's token into the event queue, "to avoid the race condition in
which the core attempts to cancel a timer register that has already
expired ... The software running on the core must therefore maintain
information about which timer registers it has canceled."

The sender's protocol, exactly that pattern:

* ``rel_send`` transmits the staged packet and arms timer 1 with the
  retransmission timeout;
* on ACK arrival, the handler *cancels* timer 1 and sets the
  ``CANCELLED`` flag -- the cancellation token is already in flight;
* the TIMER1 handler checks the flag: when set, the token is the echo
  of a cancellation (delivery succeeded) and is discarded; otherwise the
  timeout is real and the packet is retransmitted, up to ``MAX_RETRIES``.

The receiver acknowledges every reliable DATA packet and suppresses
duplicate deliveries by (source, sequence) tracking.
"""

from repro.asm import assemble_shared, link
from repro.isa.events import Event
from repro.netstack.layout import APP_BASE_ADDR, equates
from repro.netstack.mac import mac_source
from repro.netstack.runtime import boot_source

#: Packet type for acknowledgments (DATA/RREQ/RREP are 1-3).
PKT_TYPE_ACK = 4

#: Sender state (DMEM words).  The APP_BASE scratch region spans
#: 0x010-0x01F (RX_BUF starts at 0x020), so all state must stay within
#: sixteen words of APP_BASE.
REL_PENDING = APP_BASE_ADDR + 0       # 1 while waiting for an ACK
REL_SEQ = APP_BASE_ADDR + 1           # sequence awaiting acknowledgment
REL_RETRIES = APP_BASE_ADDR + 2       # retransmissions remaining
REL_CANCELLED = APP_BASE_ADDR + 3     # timer-1 cancellation flag (§3.2)
REL_DELIVERED = APP_BASE_ADDR + 4     # packets confirmed delivered
REL_FAILED = APP_BASE_ADDR + 5        # packets given up on
REL_RETX = APP_BASE_ADDR + 6          # retransmissions performed

#: Receiver state.
REL_RX_DELIVERED = APP_BASE_ADDR + 8   # unique packets delivered up
REL_RX_DUPS = APP_BASE_ADDR + 9        # duplicates suppressed
REL_RX_LAST_SRC = APP_BASE_ADDR + 10
REL_RX_LAST_SEQ = APP_BASE_ADDR + 11
REL_ACKS_SENT = APP_BASE_ADDR + 12
REL_RX_VALUE = APP_BASE_ADDR + 13      # last delivered payload word

#: Default retransmission timeout in timer ticks (~30 ms covers the
#: ~14 ms data + ACK air time at 19.2 kbps) and retry budget.
RETRY_TIMEOUT_TICKS = 30_000
MAX_RETRIES = 3

#: DMEM cells where the reliable-MAC assembly keeps its counters, by
#: metric name; read with :func:`read_reliable_counters`.  Only
#: meaningful for programs linked with this module (the cells live in the
#: APP_BASE scratch region), so ``SensorNode.metrics_snapshot`` leaves
#: them out.
RELIABLE_COUNTER_CELLS = {
    "delivered": REL_DELIVERED,
    "failed": REL_FAILED,
    "retransmissions": REL_RETX,
    "rx_delivered": REL_RX_DELIVERED,
    "rx_duplicates": REL_RX_DUPS,
    "acks_sent": REL_ACKS_SENT,
}


def read_reliable_counters(dmem):
    """Harvest the reliable layer's DMEM counters from data memory."""
    return {name: dmem.peek(address)
            for name, address in RELIABLE_COUNTER_CELLS.items()}


def ack_journey_key(packet):
    """Journey identity of a reliable-MAC acknowledgment, or ``None``.

    ACKs are single-hop: the receiver unicasts them straight back, so
    (receiver, original sender, acknowledged seq) pins one ACK flight.
    Retransmitted DATA triggers a fresh ACK with the same key; the
    journey tracker folds those into one journey, which is exactly the
    protocol's view (any one of them settles the retransmission timer).
    """
    if packet["type"] != PKT_TYPE_ACK:
        return None
    return ("ack", packet["src"], packet["dst"], packet["seq"])


def reliable_source(timeout_ticks=RETRY_TIMEOUT_TICKS,
                    max_retries=MAX_RETRIES):
    header = equates() + """
    .equ TYPE_ACK, %d
    .equ PENDING, %d
    .equ RSEQ, %d
    .equ RETRIES, %d
    .equ CANCELLED, %d
    .equ DELIVERED, %d
    .equ FAILED, %d
    .equ RETX, %d
    .equ RX_DELIVERED, %d
    .equ RX_DUPS, %d
    .equ RX_LAST_SRC, %d
    .equ RX_LAST_SEQ, %d
    .equ ACKS_SENT, %d
    .equ RX_VALUE, %d
    .equ TIMEOUT, %d
    .equ MAX_RETRIES, %d
""" % (PKT_TYPE_ACK, REL_PENDING, REL_SEQ, REL_RETRIES, REL_CANCELLED,
       REL_DELIVERED, REL_FAILED, REL_RETX, REL_RX_DELIVERED, REL_RX_DUPS,
       REL_RX_LAST_SRC, REL_RX_LAST_SEQ, REL_ACKS_SENT, REL_RX_VALUE,
       timeout_ticks, max_retries)
    return header + r"""
rel_init:
    st r0, PENDING(r0)
    st r0, CANCELLED(r0)
    st r0, DELIVERED(r0)
    st r0, FAILED(r0)
    st r0, RETX(r0)
    st r0, RX_DELIVERED(r0)
    st r0, RX_DUPS(r0)
    st r0, ACKS_SENT(r0)
    movi r1, 0xFFFF
    st r1, RX_LAST_SRC(r0)
    st r1, RX_LAST_SEQ(r0)
    ret

; Arm timer 1 with the retransmission timeout.
rel_arm:
    movi r1, 1
    movi r2, TIMEOUT
    schedlo r1, r2
    ret

; -------------------------------------------------------------- rel_send
; Transmit the packet staged at TX_BUF reliably: remember its sequence,
; arm the retransmission timer, and wait for the ACK.
rel_send:
    push lr
    movi r1, 1
    st r1, PENDING(r0)
    st r0, CANCELLED(r0)
    movi r1, MAX_RETRIES
    st r1, RETRIES(r0)
    ld r1, TX_BUF + PKT_SEQ(r0)
    st r1, RSEQ(r0)
    jal mac_send
    jal rel_arm
    pop lr
    ret

; -------------------------------------------------- rel_timer_handler
; TIMER1 token: either a real timeout (retransmit or give up), or the
; echo of a cancellation issued by the ACK path (discard) -- the
; Section 3.2 software contract.
rel_timer_handler:
    ld r1, CANCELLED(r0)
    beqz r1, .real_timeout
    st r0, CANCELLED(r0)    ; consume the cancellation token
    done
.real_timeout:
    ld r1, PENDING(r0)
    bnez r1, .still_waiting
    done                    ; stale timeout; nothing in flight
.still_waiting:
    ld r1, RETRIES(r0)
    bnez r1, .retransmit
    ; out of retries: give up on this packet
    st r0, PENDING(r0)
    ld r1, FAILED(r0)
    addi r1, 1
    st r1, FAILED(r0)
    done
.retransmit:
    subi r1, 1
    st r1, RETRIES(r0)
    ld r1, RETX(r0)
    addi r1, 1
    st r1, RETX(r0)
    jal mac_send            ; TX_BUF still holds the packet
    jal rel_arm
    done

; -------------------------------------------------------- mac_rx_dispatch
; Upper layer for reliable links: handle ACKs on the sender side and
; DATA on the receiver side (deliver once, acknowledge always).
mac_rx_dispatch:
    push lr
    ld r1, RX_BUF + PKT_TYPE(r0)
    movi r2, TYPE_ACK
    sub r2, r1
    bnez r2, .not_ack
    jmp .got_ack
.not_ack:
    movi r2, TYPE_DATA
    sub r2, r1
    bnez r2, .ignore
    jmp .got_data
.ignore:
    pop lr
    ret

.got_ack:
    ; Does this ACK match the packet in flight?
    ld r1, PENDING(r0)
    beqz r1, .ack_done
    ld r1, RX_BUF + PKT_SEQ(r0)
    ld r2, RSEQ(r0)
    sub r2, r1
    bnez r2, .ack_done      ; an old ACK; the timer keeps running
    ; Delivered: stop the retransmission timer.  The cancel inserts a
    ; TIMER1 token (or the expiry already did); flag it for discard.
    st r0, PENDING(r0)
    movi r1, 1
    st r1, CANCELLED(r0)
    movi r1, 1
    cancel r1
    ld r1, DELIVERED(r0)
    addi r1, 1
    st r1, DELIVERED(r0)
.ack_done:
    pop lr
    ret

.got_data:
    ; Acknowledge: ACK packet [dst=sender, src=me, ACK, seq, len=0].
    ld r1, RX_BUF + PKT_SRC(r0)
    st r1, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    movi r2, TYPE_ACK
    st r2, TX_BUF + PKT_TYPE(r0)
    ld r2, RX_BUF + PKT_SEQ(r0)
    st r2, TX_BUF + PKT_SEQ(r0)
    st r0, TX_BUF + PKT_LEN(r0)
    jal mac_send
    ld r2, ACKS_SENT(r0)
    addi r2, 1
    st r2, ACKS_SENT(r0)
    ; Duplicate suppression: deliver each (src, seq) once.
    ld r1, RX_BUF + PKT_SRC(r0)
    ld r2, RX_LAST_SRC(r0)
    sub r2, r1
    bnez r2, .fresh
    ld r1, RX_BUF + PKT_SEQ(r0)
    ld r2, RX_LAST_SEQ(r0)
    sub r2, r1
    bnez r2, .fresh
    ld r1, RX_DUPS(r0)
    addi r1, 1
    st r1, RX_DUPS(r0)
    pop lr
    ret
.fresh:
    ld r1, RX_BUF + PKT_SRC(r0)
    st r1, RX_LAST_SRC(r0)
    ld r1, RX_BUF + PKT_SEQ(r0)
    st r1, RX_LAST_SEQ(r0)
    ld r1, RX_BUF + PKT_HDR(r0)     ; payload[0]: the delivered value
    st r1, RX_VALUE(r0)
    ld r1, RX_DELIVERED(r0)
    addi r1, 1
    st r1, RX_DELIVERED(r0)
    pop lr
    ret

; Driver: each SOFT event reliably sends the packet staged at TX_BUF.
rel_soft_handler:
    jal rel_send
    done
"""


def build_reliable_node(node_id, timeout_ticks=RETRY_TIMEOUT_TICKS,
                        max_retries=MAX_RETRIES):
    """A node speaking the reliable MAC (both sender and receiver roles)."""
    boot = boot_source(
        handlers={Event.RADIO_RX: "mac_rx_handler",
                  Event.TIMER1: "rel_timer_handler",
                  Event.SOFT: "rel_soft_handler"},
        init_calls=("mac_rx_init", "rel_init"),
        node_id=node_id,
        start_rx=True,
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(reliable_source(timeout_ticks, max_retries),
                                 name="reliable")])
