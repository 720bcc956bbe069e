"""The simplified AODV-style routing layer, in SNAP assembly.

Packet conventions (see :mod:`repro.netstack.layout`): the header ``DST``
field is the MAC-level (one-hop) receiver; for DATA packets the *final*
destination travels in ``payload[0]``.  Packet types:

* ``TYPE_DATA`` -- deliver locally when ``payload[0]`` is this node,
  otherwise look up the next hop and forward (the paper's *AODV Packet
  Forward* handler).
* ``TYPE_RREQ`` -- a route-lookup request; when ``payload[0]`` names this
  node, answer with an RREP back toward the requester (the paper's *AODV
  Route Reply* handler).
* ``TYPE_RREP`` -- install a route: the reply's originator is reachable
  through the MAC-level sender.

The routing table is ``ROUTE_ENTRIES`` slots of (dest, next_hop, hops) in
DMEM; lookups scan linearly, as the paper's "lookup is then performed in
the node's routing table" suggests for a table of this size.

Exports ``mac_rx_dispatch`` (consumed by the MAC), ``rt_lookup``,
``rt_add``, ``rt_init``, ``aodv_forward``, ``aodv_send_rrep``.  Requires
the application layer to export ``app_deliver``.
"""

from repro.netstack.layout import (
    ADDR_BROADCAST,
    FWD_COUNT_ADDR,
    PKT_TYPE_DATA,
    PKT_TYPE_RREP,
    PKT_TYPE_RREQ,
    REBROADCAST_COUNT_ADDR,
    RREP_COUNT_ADDR,
    equates,
)

#: DMEM cells where the routing assembly keeps its counters, by metric
#: name.  :func:`read_aodv_counters` reads them for the ``aodv`` key of
#: ``SensorNode.metrics_snapshot``; the watchdog's ``aodv_legality``
#: check reads them too.
AODV_COUNTER_CELLS = {
    "forwards": FWD_COUNT_ADDR,
    "rreps_sent": RREP_COUNT_ADDR,
    "rreq_rebroadcasts": REBROADCAST_COUNT_ADDR,
}


def read_aodv_counters(dmem):
    """Harvest the routing layer's DMEM counters from data memory."""
    return {name: dmem.peek(address)
            for name, address in AODV_COUNTER_CELLS.items()}


#: Wire names of the routing layer's packet types, for trace rendering.
PACKET_KIND_NAMES = {
    PKT_TYPE_DATA: "data",
    PKT_TYPE_RREQ: "rreq",
    PKT_TYPE_RREP: "rrep",
}


def journey_key(packet):
    """The hop-invariant identity of an AODV packet, or ``None``.

    Every hop rewrites the MAC-level ``src``/``dst`` header words (and
    rebroadcast/relay hops bump the hop counter riding in the payload),
    so an end-to-end journey must be keyed on what *survives*
    forwarding:

    * DATA -- the sequence number, the final destination in
      ``payload[0]``, and the payload body (copied verbatim by
      ``aodv_forward``);
    * RREQ -- the flood's (origin, seq) pair, exactly the identity the
      guest's own duplicate-suppression table uses;
    * RREP -- the (replier, origin, seq) triple (``seq`` echoes the
      request's sequence number).

    Used by :class:`repro.obs.spans.JourneyTracker` to stitch the
    per-hop transmissions it reconstructs into one journey tree.
    """
    payload = packet["payload"]
    kind = packet["type"]
    if kind == PKT_TYPE_DATA and payload:
        return ("data", packet["seq"], payload[0], tuple(payload[1:]))
    if kind == PKT_TYPE_RREQ and len(payload) >= 2:
        return ("rreq", payload[1], packet["seq"])
    if kind == PKT_TYPE_RREP and len(payload) >= 3:
        return ("rrep", payload[0], payload[2], packet["seq"])
    return None


def journey_destination(packet):
    """The node id at which this packet's journey terminates, or ``None``.

    DATA travels to ``payload[0]``; an RREQ flood is answered by its
    target (``payload[0]``); an RREP is consumed by the RREQ origin it
    relays back to (``payload[2]``).
    """
    payload = packet["payload"]
    kind = packet["type"]
    if kind == PKT_TYPE_DATA and payload:
        return payload[0]
    if kind == PKT_TYPE_RREQ and payload:
        return payload[0]
    if kind == PKT_TYPE_RREP and len(payload) >= 3:
        return payload[2]
    return None


def is_no_route_forward(packet):
    """Does this transmission betray a failed route lookup?

    ``aodv_forward`` writes ``rt_lookup``'s result straight into the
    MAC destination; a miss returns 0xFFFF, so a *DATA* packet sent to
    the broadcast address means the sender had no route toward
    ``payload[0]`` (legitimate broadcasts are RREQ floods only).
    """
    return (packet["type"] == PKT_TYPE_DATA
            and packet["dst"] == ADDR_BROADCAST)


def aodv_source():
    """Assembly source of the routing module."""
    return equates() + r"""
; -------------------------------------------------------------- rt_init
rt_init:
    movi r1, ROUTE_TABLE
    movi r2, ROUTE_ENTRIES
.clear:
    st r0, 0(r1)            ; dest 0 marks a free slot
    st r0, 1(r1)
    st r0, 2(r1)
    addi r1, 3
    subi r2, 1
    bnez r2, .clear
    ; clear the RREQ duplicate-suppression ring and counters
    movi r1, SEEN_TABLE
    movi r2, SEEN_ENTRIES
.clear_seen:
    st r0, 0(r1)
    st r0, 1(r1)
    addi r1, 2
    subi r2, 1
    bnez r2, .clear_seen
    st r0, SEEN_IDX(r0)
    movi r1, 1
    st r1, RREQ_SEQ(r0)
    st r0, REBCAST_COUNT(r0)
    ret

; ------------------------------------------------------------- rt_lookup
; r1 = destination -> r1 = next hop (0xFFFF when no route).  Clobbers r2-r4.
rt_lookup:
    movi r2, ROUTE_TABLE
    movi r3, ROUTE_ENTRIES
.scan:
    ld r4, 0(r2)
    sub r4, r1              ; entry.dest - wanted
    beqz r4, .hit
    addi r2, 3
    subi r3, 1
    bnez r3, .scan
    movi r1, 0xFFFF
    ret
.hit:
    ld r1, 1(r2)
    ret

; ---------------------------------------------------------------- rt_add
; r1 = destination, r2 = next hop, r3 = hop count.  Takes a free slot,
; or updates an existing entry only when the new route is strictly
; shorter (AODV keeps the best-known route; without this check a
; duplicate RREQ arriving over a longer path would clobber the reverse
; route and the RREP would loop).  Silently drops when the table is
; full.  Clobbers r4-r6.
rt_add:
    movi r4, ROUTE_TABLE
    movi r5, ROUTE_ENTRIES
.find:
    ld r6, 0(r4)
    sub r6, r1
    beqz r6, .existing
    ld r6, 0(r4)
    beqz r6, .store         ; free slot
    addi r4, 3
    subi r5, 1
    bnez r5, .find
    ret                     ; table full
.existing:
    ld r6, 2(r4)            ; current hop count
    sub r6, r3              ; current - new : positive when new is shorter
    beqz r6, .keep
    bltz r6, .keep          ; current <= new: keep what we have
    jmp .store
.keep:
    ret
.store:
    st r1, 0(r4)
    st r2, 1(r4)
    st r3, 2(r4)
    ret

; -------------------------------------------------------- mac_rx_dispatch
; Called by the MAC with a verified packet in RX_BUF.
mac_rx_dispatch:
    push lr
    ; MAC-level address filter: accept frames for us or broadcast.
    ld r1, RX_BUF + PKT_DST(r0)
    movi r2, BCAST
    sub r2, r1
    beqz r2, .addr_ok
    ld r2, NODE_ID(r0)
    sub r2, r1
    beqz r2, .addr_ok
    pop lr                  ; overheard unicast for someone else
    ret
.addr_ok:
    ld r1, RX_BUF + PKT_TYPE(r0)
    movi r2, TYPE_DATA
    sub r2, r1
    bnez r2, .try_rreq
    jmp .is_data
.try_rreq:
    movi r2, TYPE_RREQ
    sub r2, r1
    bnez r2, .try_rrep
    jmp .is_rreq
.try_rrep:
    movi r2, TYPE_RREP
    sub r2, r1
    bnez r2, .drop
    jmp .is_rrep
.drop:
    pop lr                  ; unknown type: drop
    ret
.is_data:
    ld r1, RX_BUF + PKT_HDR(r0)   ; payload[0] = final destination
    ld r2, NODE_ID(r0)
    sub r2, r1
    beqz r2, .deliver
    jal aodv_forward
    pop lr
    ret
.deliver:
    jal app_deliver
    pop lr
    ret
.is_rreq:
    ; RREQ payload: [target, origin, hops-so-far].  First: is this our
    ; own flood echoing back?  Drop it.
    ld r1, RX_BUF + PKT_HDR + 1(r0)   ; origin
    ld r2, NODE_ID(r0)
    sub r2, r1
    bnez r2, .rreq_theirs
    pop lr
    ret
.rreq_theirs:
    ; Duplicate suppression first: one reverse route + one rebroadcast
    ; per (origin, seq).  The first copy to arrive travelled the
    ; fastest (shortest) path, so it defines the reverse route.
    jal aodv_rreq_seen
    beqz r1, .rreq_fresh
    pop lr
    ret
.rreq_fresh:
    ; Install the reverse route: origin via the node we heard this RREQ
    ; from, at hops-so-far + 1 (classic AODV reverse-path setup).
    ld r1, RX_BUF + PKT_HDR + 1(r0)
    ld r2, RX_BUF + PKT_SRC(r0)
    ld r3, RX_BUF + PKT_HDR + 2(r0)
    addi r3, 1
    jal rt_add
    ld r1, RX_BUF + PKT_HDR(r0)   ; target
    ld r2, NODE_ID(r0)
    sub r2, r1
    beqz r2, .answer
    jal aodv_rebroadcast          ; keep the flood moving
    pop lr
    ret
.answer:
    jal aodv_send_rrep
    pop lr
    ret
.is_rrep:
    ; RREP payload: [replier, hops, origin].  Install the forward route:
    ; the replier is reachable via the node that handed us this RREP.
    ld r1, RX_BUF + PKT_HDR(r0)
    ld r2, RX_BUF + PKT_SRC(r0)
    ld r3, RX_BUF + PKT_HDR + 1(r0)  ; hop count
    jal rt_add
    ; If we originated the RREQ, discovery is complete; otherwise relay
    ; the RREP along the reverse path toward the origin.
    ld r1, RX_BUF + PKT_HDR + 2(r0)
    ld r2, NODE_ID(r0)
    sub r2, r1
    bnez r2, .rrep_relay
    pop lr
    ret
.rrep_relay:
    jal aodv_forward_rrep
    pop lr
    ret

; ------------------------------------------------------------ aodv_forward
; Forward the DATA packet in RX_BUF toward payload[0].  Copies the body
; into TX_BUF, rewrites the MAC header, and transmits.
aodv_forward:
    push lr
    movi r2, RX_BUF
    movi r3, TX_BUF
    ld r4, RX_BUF + PKT_LEN(r0)
    addi r4, PKT_HDR
.copy:
    ld r5, 0(r2)
    st r5, 0(r3)
    addi r2, 1
    addi r3, 1
    subi r4, 1
    bnez r4, .copy
    ld r1, TX_BUF + PKT_HDR(r0)   ; final destination
    jal rt_lookup
    st r1, TX_BUF + PKT_DST(r0)   ; next hop becomes MAC receiver
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    jal mac_send
    ld r2, FWD_COUNT(r0)
    addi r2, 1
    st r2, FWD_COUNT(r0)
    pop lr
    ret

; ---------------------------------------------------------- aodv_send_rrep
; Answer the RREQ in RX_BUF: unicast an RREP back along the reverse path
; (one hop toward the node we heard the RREQ from).
aodv_send_rrep:
    push lr
    ld r1, RX_BUF + PKT_SRC(r0)
    st r1, TX_BUF + PKT_DST(r0)   ; first hop of the reverse path
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    movi r3, TYPE_RREP
    st r3, TX_BUF + PKT_TYPE(r0)
    ld r3, RX_BUF + PKT_SEQ(r0)
    st r3, TX_BUF + PKT_SEQ(r0)   ; echo the request sequence number
    movi r3, 3
    st r3, TX_BUF + PKT_LEN(r0)
    st r2, TX_BUF + PKT_HDR(r0)   ; payload[0] = replier (us)
    movi r3, 1
    st r3, TX_BUF + PKT_HDR + 1(r0)  ; payload[1] = hop count
    ld r3, RX_BUF + PKT_HDR + 1(r0)
    st r3, TX_BUF + PKT_HDR + 2(r0)  ; payload[2] = RREQ origin
    jal mac_send
    ld r2, RREP_COUNT(r0)
    addi r2, 1
    st r2, RREP_COUNT(r0)
    pop lr
    ret

; ---------------------------------------------------------- aodv_send_rreq
; Originate route discovery for the target in r1: broadcast an RREQ with
; payload [target, us] and a fresh sequence number.
aodv_send_rreq:
    push lr
    st r1, TX_BUF + PKT_HDR(r0)   ; payload[0] = target
    movi r2, BCAST
    st r2, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    st r2, TX_BUF + PKT_HDR + 1(r0)  ; payload[1] = origin (us)
    movi r3, TYPE_RREQ
    st r3, TX_BUF + PKT_TYPE(r0)
    ld r3, RREQ_SEQ(r0)
    st r3, TX_BUF + PKT_SEQ(r0)
    addi r3, 1
    st r3, RREQ_SEQ(r0)
    movi r3, 3
    st r3, TX_BUF + PKT_LEN(r0)
    st r0, TX_BUF + PKT_HDR + 2(r0)  ; payload[2] = hops so far (0)
    jal mac_send
    pop lr
    ret

; ---------------------------------------------------------- aodv_rreq_seen
; Duplicate suppression for the RREQ in RX_BUF.  Returns r1 = 1 when the
; (origin, seq) pair was already seen; otherwise records it and returns
; r1 = 0.  Clobbers r2-r5.
aodv_rreq_seen:
    ld r1, RX_BUF + PKT_HDR + 1(r0)   ; origin
    ld r2, RX_BUF + PKT_SEQ(r0)
    movi r3, SEEN_TABLE
    movi r4, SEEN_ENTRIES
.seen_scan:
    ld r5, 0(r3)
    sub r5, r1
    bnez r5, .seen_next
    ld r5, 1(r3)
    sub r5, r2
    bnez r5, .seen_next
    movi r1, 1
    ret
.seen_next:
    addi r3, 2
    subi r4, 1
    bnez r4, .seen_scan
    ; record in the ring
    ld r5, SEEN_IDX(r0)
    movi r3, SEEN_TABLE
    add r3, r5
    add r3, r5
    st r1, 0(r3)
    st r2, 1(r3)
    addi r5, 1
    andi r5, SEEN_ENTRIES - 1
    st r5, SEEN_IDX(r0)
    movi r1, 0
    ret

; -------------------------------------------------------- aodv_rebroadcast
; Re-flood the RREQ in RX_BUF with ourselves as the MAC sender.
aodv_rebroadcast:
    push lr
    movi r2, RX_BUF
    movi r3, TX_BUF
    ld r4, RX_BUF + PKT_LEN(r0)
    addi r4, PKT_HDR
.rb_copy:
    ld r5, 0(r2)
    st r5, 0(r3)
    addi r2, 1
    addi r3, 1
    subi r4, 1
    bnez r4, .rb_copy
    movi r2, BCAST
    st r2, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    ld r2, TX_BUF + PKT_HDR + 2(r0)
    addi r2, 1
    st r2, TX_BUF + PKT_HDR + 2(r0)   ; hops-so-far++
    jal mac_send
    ld r2, REBCAST_COUNT(r0)
    addi r2, 1
    st r2, REBCAST_COUNT(r0)
    pop lr
    ret

; ------------------------------------------------------- aodv_forward_rrep
; Relay the RREP in RX_BUF one hop along the reverse path toward the
; RREQ origin (payload[2]); drops the reply when no reverse route exists.
aodv_forward_rrep:
    push lr
    movi r2, RX_BUF
    movi r3, TX_BUF
    ld r4, RX_BUF + PKT_LEN(r0)
    addi r4, PKT_HDR
.fr_copy:
    ld r5, 0(r2)
    st r5, 0(r3)
    addi r2, 1
    addi r3, 1
    subi r4, 1
    bnez r4, .fr_copy
    ld r1, TX_BUF + PKT_HDR + 2(r0)   ; the RREQ origin
    jal rt_lookup
    movi r2, BCAST
    sub r2, r1
    bnez r2, .fr_route_ok
    pop lr                            ; no reverse route: drop
    ret
.fr_route_ok:
    st r1, TX_BUF + PKT_DST(r0)
    ld r2, NODE_ID(r0)
    st r2, TX_BUF + PKT_SRC(r0)
    ld r2, TX_BUF + PKT_HDR + 1(r0)
    addi r2, 1
    st r2, TX_BUF + PKT_HDR + 1(r0)   ; hop count++
    jal mac_send
    pop lr
    ret
"""
