"""In-network aggregation: query dissemination and aggregated replies.

The paper's Figure 1 shows "larger nodes have more resources (e.g.,
aggregation points)".  This module implements that role in SNAP
assembly: a sink floods an aggregation query (MAX or SUM over every
node's current reading); each node records the flood parent, schedules
an *aggregation window* on timer 0, folds its own reading and its
children's replies into an accumulator, and when the window closes sends
one aggregated reply up the reverse path.  Windows shrink with flood
depth so children answer before their parents' windows close.

Packet types (extending the DATA/RREQ/RREP/ACK space):

* ``TYPE_AGGQ`` (5) -- query flood; payload ``[qid, op, depth]``;
* ``TYPE_AGGR`` (6) -- aggregated reply; payload ``[qid, value, count]``.

Ops: 1 = MAX, 2 = SUM (the sink divides by the count for the average).
"""

from repro.asm import assemble_shared, link
from repro.isa.events import Event
from repro.netstack.layout import APP_BASE_ADDR, equates
from repro.netstack.mac import mac_source
from repro.netstack.runtime import boot_source

PKT_TYPE_AGGQ = 5
PKT_TYPE_AGGR = 6

AGG_OP_MAX = 1
AGG_OP_SUM = 2

#: Node state (DMEM words inside the APP_BASE scratch region).
AGG_QID = APP_BASE_ADDR + 0       # last query id seen (dedup)
AGG_PARENT = APP_BASE_ADDR + 1    # flood parent (reply destination)
AGG_OP = APP_BASE_ADDR + 2
AGG_ACC = APP_BASE_ADDR + 3       # accumulator
AGG_COUNT = APP_BASE_ADDR + 4     # readings folded in
AGG_ACTIVE = APP_BASE_ADDR + 5    # window open?
AGG_VALUE = APP_BASE_ADDR + 6     # this node's current reading
AGG_REPLIES = APP_BASE_ADDR + 7   # child replies merged (statistics)
#: Sink-side results.
AGG_RESULT = APP_BASE_ADDR + 8
AGG_RESULT_COUNT = APP_BASE_ADDR + 9
AGG_DONE = APP_BASE_ADDR + 10     # completed queries
AGG_NEXT_QID = APP_BASE_ADDR + 11
AGG_NEXT_OP = APP_BASE_ADDR + 12  # op for the next originated query

#: Aggregation windows in timer ticks: the sink waits BASE; a depth-d
#: node waits BASE - d*DELTA (deeper answers sooner, so parents still
#: have their windows open).  Adjacent depths must differ by at least
#: two packet air times (~8ms each at 19.2kbps): one for the child's
#: reply to serialize, one so sibling replies at adjacent depths never
#: overlap on the air.  DELTA = 18ms gives ~2.5ms of margin; the floor
#: bounds the usable flood depth at 3 with these constants (BASE fits
#: the 16-bit schedlo immediate).
WINDOW_BASE_TICKS = 62_000
WINDOW_DELTA_TICKS = 18_000
WINDOW_FLOOR_TICKS = 8_000


def aggregation_source():
    header = equates() + """
    .equ TYPE_AGGQ, %d
    .equ TYPE_AGGR, %d
    .equ OP_MAX, %d
    .equ OP_SUM, %d
    .equ A_QID, %d
    .equ A_PARENT, %d
    .equ A_OP, %d
    .equ A_ACC, %d
    .equ A_COUNT, %d
    .equ A_ACTIVE, %d
    .equ A_VALUE, %d
    .equ A_REPLIES, %d
    .equ A_RESULT, %d
    .equ A_RESULT_COUNT, %d
    .equ A_DONE, %d
    .equ A_NEXT_QID, %d
    .equ A_NEXT_OP, %d
    .equ W_BASE, %d
    .equ W_DELTA, %d
    .equ W_FLOOR, %d
    .equ W_SINK_HI, %d
    .equ W_SINK_LO, %d
""" % (PKT_TYPE_AGGQ, PKT_TYPE_AGGR, AGG_OP_MAX, AGG_OP_SUM, AGG_QID,
       AGG_PARENT, AGG_OP, AGG_ACC, AGG_COUNT, AGG_ACTIVE, AGG_VALUE,
       AGG_REPLIES, AGG_RESULT, AGG_RESULT_COUNT, AGG_DONE, AGG_NEXT_QID,
       AGG_NEXT_OP, WINDOW_BASE_TICKS, WINDOW_DELTA_TICKS,
       WINDOW_FLOOR_TICKS,
       ((WINDOW_BASE_TICKS + WINDOW_DELTA_TICKS) >> 16) & 0xFF,
       (WINDOW_BASE_TICKS + WINDOW_DELTA_TICKS) & 0xFFFF)
    return header + r"""
agg_init:
    st r0, A_QID(r0)
    st r0, A_ACTIVE(r0)
    st r0, A_REPLIES(r0)
    st r0, A_DONE(r0)
    movi r1, 1
    st r1, A_NEXT_QID(r0)
    movi r1, OP_MAX
    st r1, A_NEXT_OP(r0)
    ret

; ---- merge r1=value, r2=count into the open accumulator per A_OP.
agg_merge:
    ld r3, A_OP(r0)
    movi r4, OP_MAX
    sub r4, r3
    bnez r4, .merge_sum
    ; MAX: acc = max(acc, value)
    ld r3, A_ACC(r0)
    mov r4, r3
    sub r4, r1              ; acc - value : negative when value larger
    bgez r4, .merge_count
    st r1, A_ACC(r0)
    jmp .merge_count
.merge_sum:
    ld r3, A_ACC(r0)
    add r3, r1
    st r3, A_ACC(r0)
.merge_count:
    ld r3, A_COUNT(r0)
    add r3, r2
    st r3, A_COUNT(r0)
    ret

; -------------------------------------------------------- mac_rx_dispatch
mac_rx_dispatch:
    push lr
    ld r1, RX_BUF + PKT_TYPE(r0)
    movi r2, TYPE_AGGQ
    sub r2, r1
    bnez r2, .try_reply
    jmp .got_query
.try_reply:
    movi r2, TYPE_AGGR
    sub r2, r1
    bnez r2, .agg_ignore
    jmp .got_reply
.agg_ignore:
    pop lr
    ret

.got_query:
    ; Duplicate suppression: one window per query id.
    ld r1, RX_BUF + PKT_HDR(r0)     ; qid
    ld r2, A_QID(r0)
    sub r2, r1
    bnez r2, .fresh_query
    pop lr
    ret
.fresh_query:
    st r1, A_QID(r0)
    ld r2, RX_BUF + PKT_SRC(r0)
    st r2, A_PARENT(r0)
    ld r2, RX_BUF + PKT_HDR + 1(r0)
    st r2, A_OP(r0)
    ; seed the accumulator with this node's own reading
    ld r2, A_VALUE(r0)
    st r2, A_ACC(r0)
    movi r2, 1
    st r2, A_COUNT(r0)
    st r2, A_ACTIVE(r0)
    ; window = W_BASE - depth * W_DELTA, clamped to the floor.  The
    ; values exceed 0x8000, so the comparison uses the unsigned borrow
    ; (materialized through addc) rather than a sign-bit branch.
    ld r2, RX_BUF + PKT_HDR + 2(r0) ; depth
    movi r3, W_BASE
.win_loop:
    beqz r2, .win_done
    mov r4, r3
    subi r4, W_DELTA + W_FLOOR  ; borrow set when w < DELTA + FLOOR
    movi r4, 0
    movi r5, 0
    addc r4, r5
    bnez r4, .win_clamp
    subi r3, W_DELTA
    subi r2, 1
    jmp .win_loop
.win_clamp:
    movi r3, W_FLOOR
.win_done:
    movi r1, 0
    mov r2, r3
    schedlo r1, r2
    ; re-flood the query one level deeper
    movi r2, RX_BUF
    movi r3, TX_BUF
    ld r4, RX_BUF + PKT_LEN(r0)
    addi r4, PKT_HDR
.q_copy:
    ld r5, 0(r2)
    st r5, 0(r3)
    addi r2, 1
    addi r3, 1
    subi r4, 1
    bnez r4, .q_copy
    movi r2, BCAST
    st r2, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    ld r2, TX_BUF + PKT_HDR + 2(r0)
    addi r2, 1
    st r2, TX_BUF + PKT_HDR + 2(r0)
    jal mac_send
    pop lr
    ret

.got_reply:
    ; A child's aggregate.  Replies are unicast: ignore overheard
    ; replies addressed to another parent.
    ld r1, RX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    sub r2, r1
    beqz r2, .reply_addressed
    pop lr
    ret
.reply_addressed:
    ld r1, A_ACTIVE(r0)
    bnez r1, .reply_check
    pop lr
    ret
.reply_check:
    ld r1, RX_BUF + PKT_HDR(r0)     ; reply qid
    ld r2, A_QID(r0)
    sub r2, r1
    beqz r2, .reply_merge
    pop lr
    ret
.reply_merge:
    ld r1, RX_BUF + PKT_HDR + 1(r0) ; value
    ld r2, RX_BUF + PKT_HDR + 2(r0) ; count
    jal agg_merge
    ld r1, A_REPLIES(r0)
    addi r1, 1
    st r1, A_REPLIES(r0)
    pop lr
    ret

; -------------------------------------------------- agg_window_handler
; TIMER0: the aggregation window closed -- send the aggregate upward
; (relay nodes) or publish the result (the sink, parent == 0xFFFF).
agg_window_handler:
    ld r1, A_ACTIVE(r0)
    bnez r1, .window_live
    done
.window_live:
    st r0, A_ACTIVE(r0)
    ld r1, A_PARENT(r0)
    movi r2, BCAST
    sub r2, r1
    bnez r2, .send_up
    ; the sink: publish
    ld r1, A_ACC(r0)
    st r1, A_RESULT(r0)
    ld r1, A_COUNT(r0)
    st r1, A_RESULT_COUNT(r0)
    ld r1, A_DONE(r0)
    addi r1, 1
    st r1, A_DONE(r0)
    done
.send_up:
    st r1, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    movi r2, TYPE_AGGR
    st r2, TX_BUF + PKT_TYPE(r0)
    ld r2, A_QID(r0)
    st r2, TX_BUF + PKT_SEQ(r0)
    movi r2, 3
    st r2, TX_BUF + PKT_LEN(r0)
    ld r2, A_QID(r0)
    st r2, TX_BUF + PKT_HDR(r0)
    ld r2, A_ACC(r0)
    st r2, TX_BUF + PKT_HDR + 1(r0)
    ld r2, A_COUNT(r0)
    st r2, TX_BUF + PKT_HDR + 2(r0)
    ; Siblings at the same depth share a reply window; CSMA/CA (short
    ; backoff slots + carrier sense on timer 2) serializes them.
    jal mac_send_csma_ca
    done

; -------------------------------------------------- agg_originate (sink)
; SOFT event: flood a new query with op A_NEXT_OP and open the sink's
; own (longest) window.  The sink's parent is BCAST, marking "publish".
agg_soft_handler:
    ld r1, A_NEXT_QID(r0)
    st r1, A_QID(r0)
    addi r1, 1
    st r1, A_NEXT_QID(r0)
    movi r1, BCAST
    st r1, A_PARENT(r0)
    ld r1, A_NEXT_OP(r0)
    st r1, A_OP(r0)
    ld r1, A_VALUE(r0)
    st r1, A_ACC(r0)
    movi r1, 1
    st r1, A_COUNT(r0)
    st r1, A_ACTIVE(r0)
    ; the query packet: [BCAST, me, AGGQ, qid, 3, qid, op, depth=1]
    movi r1, BCAST
    st r1, TX_BUF + PKT_DST(r0)
    ld r1, NODE_ID(r0)
    st r1, TX_BUF + PKT_SRC(r0)
    movi r1, TYPE_AGGQ
    st r1, TX_BUF + PKT_TYPE(r0)
    ld r1, A_QID(r0)
    st r1, TX_BUF + PKT_SEQ(r0)
    movi r1, 3
    st r1, TX_BUF + PKT_LEN(r0)
    ld r1, A_QID(r0)
    st r1, TX_BUF + PKT_HDR(r0)
    ld r1, A_OP(r0)
    st r1, TX_BUF + PKT_HDR + 1(r0)
    movi r1, 1
    st r1, TX_BUF + PKT_HDR + 2(r0)
    jal mac_send
    ; The sink's window is one DELTA longer than its depth-1 children's
    ; (BASE + DELTA exceeds 16 bits, hence the schedhi/schedlo pair).
    movi r1, 0
    movi r2, W_SINK_HI
    schedhi r1, r2
    movi r2, W_SINK_LO
    schedlo r1, r2
    done
"""


def build_aggregation_node(node_id):
    """An aggregation-capable node (any node can also be the sink: raise
    a SOFT event to originate a query)."""
    boot = boot_source(
        handlers={Event.RADIO_RX: "mac_rx_handler",
                  Event.TIMER0: "agg_window_handler",
                  Event.TIMER2: "mac_backoff_ca_expired",
                  Event.SOFT: "agg_soft_handler"},
        init_calls=("mac_rx_init", "agg_init"),
        node_id=node_id,
        start_rx=True,
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(aggregation_source(), name="agg")])
