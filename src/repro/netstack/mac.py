"""The MAC layer, in SNAP assembly (802.11-inspired, Section 4.2).

Exports:

* ``mac_send`` -- transmit the packet staged at ``TX_BUF``: computes the
  checksum on the fly and streams (TX command, data word) pairs through
  r15 to the message coprocessor, which paces the radio (the word-by-word
  scheme of Section 3.3).
* ``mac_send_csma`` -- ``mac_send`` preceded by a pseudo-random backoff
  scheduled on timer 2 (the 802.11 DIFS/backoff flavor); the caller's
  boot code must route ``TIMER2`` to ``mac_backoff_expired``.
* ``mac_rx_handler`` -- the ``RADIO_RX`` event handler: assembles
  incoming words into ``RX_BUF``, learns the packet length from the
  header, verifies the checksum, and calls the upper layer's
  ``mac_rx_dispatch`` on each complete, valid packet.
* ``mac_rx_init`` -- resets receive state (call from boot).

The upper layer (routing or application) must export ``mac_rx_dispatch``.
"""

from repro.netstack.layout import (
    PKT_HEADER_WORDS,
    PKT_LEN,
    RX_BAD_ADDR,
    RX_COUNT_ADDR,
    TX_COUNT_ADDR,
    equates,
)

#: The MAC's packet buffers are 32 words; ``mac_rx_handler`` treats any
#: frame claiming more as a desynchronized word stream and resets.
MAX_FRAME_WORDS = 32


def frame_total_words(words):
    """The MAC's framing rule, mirrored for Python-side observers.

    Given the words of a frame seen so far (in order), returns the total
    frame length in words (header + payload + checksum) once the
    header's LEN word has arrived, or ``None`` while the length is still
    unknown.  Implausible lengths (frames that would overflow the
    32-word packet buffers) return ``None`` as well -- exactly the
    condition under which ``mac_rx_handler`` resynchronizes.
    """
    if len(words) <= PKT_LEN:
        return None
    total = PKT_HEADER_WORDS + words[PKT_LEN] + 1
    if total > MAX_FRAME_WORDS:
        return None
    return total

#: DMEM cells where the MAC assembly keeps its packet counters, by
#: metric name.  :func:`read_mac_counters` reads them for the ``mac`` key
#: of ``SensorNode.metrics_snapshot``; the watchdog's ``mac_legality``
#: check reads them too.
MAC_COUNTER_CELLS = {
    "tx_packets": TX_COUNT_ADDR,
    "rx_packets": RX_COUNT_ADDR,
    "rx_bad": RX_BAD_ADDR,
}


def read_mac_counters(dmem):
    """Harvest the MAC's DMEM counters from a node's data memory."""
    return {name: dmem.peek(address)
            for name, address in MAC_COUNTER_CELLS.items()}


def mac_source():
    """Assembly source of the MAC module."""
    return equates() + r"""
; ---------------------------------------------------------------- mac_send
; Transmit the packet staged at TX_BUF (header + payload); appends the
; 16-bit additive checksum.  Clobbers r4-r7.
mac_send:
    movi r4, TX_BUF         ; word pointer
    ld r5, TX_BUF + PKT_LEN(r0)
    addi r5, PKT_HDR        ; body words = header + payload
    movi r6, 0              ; running checksum
.send_loop:
    ld r7, 0(r4)
    add r6, r7              ; checksum += word
    movi r15, CMD_TX
    mov r15, r7             ; hand the data word to the coprocessor
    addi r4, 1
    subi r5, 1
    bnez r5, .send_loop
    movi r15, CMD_TX
    mov r15, r6             ; trailing checksum word
    ld r7, TX_COUNT(r0)
    addi r7, 1
    st r7, TX_COUNT(r0)
    ret

; ----------------------------------------------------------- mac_send_csma
; 802.11-flavored transmit: draw a pseudo-random backoff and arm timer 2;
; the TIMER2 handler performs the actual send.  Without carrier sensing,
; two contenders only avoid each other when their slots differ by more
; than one packet's air time (~7.5ms for 9 words at 19.2kbps), so the
; slot width is 8192 ticks (~8.2ms).  Clobbers r1, r2.
mac_send_csma:
    rand r1
    andi r1, 0x0007         ; 0..7 backoff slots
    sll r1, 13              ; slots of 8192 ticks (~8.2ms)
    addi r1, 16             ; DIFS floor
    mov r2, r1
    movi r1, 2              ; timer register 2
    schedlo r1, r2
    ret

; The TIMER2 event handler for CSMA sends the staged packet.
mac_backoff_expired:
    jal mac_send
    done

; ------------------------------------------------------- mac_send_csma_ca
; CSMA/CA: short backoff slots plus clear-channel assessment through the
; message coprocessor's CCA command.  Because the channel is sensed at
; slot expiry, the slots can be ~32us instead of a full packet air time.
; Route TIMER2 to mac_backoff_ca_expired.  Clobbers r1, r2.
mac_send_csma_ca:
    rand r1
    andi r1, 0x001F         ; 0..31 slots
    sll r1, 5               ; 32-tick (~32us) slots
    addi r1, 16             ; DIFS floor
    mov r2, r1
    movi r1, 2
    schedlo r1, r2
    ret

mac_backoff_ca_expired:
    movi r15, CMD_CCA       ; synchronous carrier-detect read
    mov r1, r15
    beqz r1, .channel_clear
    jal mac_send_csma_ca    ; busy: draw a fresh backoff and retry
    done
.channel_clear:
    jal mac_send
    done

; ------------------------------------------------------------- mac_rx_init
; Receive state lives in dedicated registers -- with no operating system
; and atomic handlers, high registers can be owned by the MAC outright:
;   r10 = next write index into RX_BUF
;   r11 = expected total packet words (0 = header length not yet known)
;   r12 = write pointer (RX_BUF + r10)
mac_rx_init:
    movi r10, 0
    movi r11, 0
    movi r12, RX_BUF
    st r0, RX_READY(r0)
    ret

; ---------------------------------------------------------- mac_rx_handler
; RADIO_RX event handler: one 16-bit word is waiting in the r15 FIFO.
mac_rx_handler:
    mov r1, r15             ; pop the received word
    st r1, 0(r12)           ; RX_BUF[index] = word
    addi r12, 1
    addi r10, 1
    bnez r11, .check_done
    ; Total length is unknown until the header's LEN word has arrived.
    movi r5, PKT_LEN
    sub r5, r10             ; PKT_LEN - index : negative once LEN is in
    bltz r5, .learn_len
    done
.learn_len:
    ld r11, RX_BUF + PKT_LEN(r0)
    addi r11, PKT_HDR
    addi r11, 1             ; + checksum word
    ; Framing sanity: a plausible packet fits the 32-word buffer.  A
    ; wild length means the word stream lost alignment (e.g. a dropped
    ; word mid-packet); reset and wait for the next packet boundary.
    movi r4, 32
    sub r4, r11             ; 32 - expect : negative when oversized
    bgez r4, .check_done
    ld r7, RX_BAD(r0)
    addi r7, 1
    st r7, RX_BAD(r0)
    movi r10, 0
    movi r11, 0
    movi r12, RX_BUF
    done
.check_done:
    mov r4, r11
    sub r4, r10             ; remaining = expect - index
    beqz r4, .complete
    done
.complete:
    ; Verify the additive checksum over the body words.
    mov r5, r11
    subi r5, 1              ; body words
    movi r4, RX_BUF
    movi r6, 0
.sum_loop:
    ld r7, 0(r4)
    add r6, r7
    addi r4, 1
    subi r5, 1
    bnez r5, .sum_loop
    ld r7, 0(r4)            ; the received checksum word
    sub r6, r7
    movi r10, 0             ; rearm reception for the next packet
    movi r11, 0
    movi r12, RX_BUF
    beqz r6, .good
    ; Bad packet: count it and drop.
    ld r7, RX_BAD(r0)
    addi r7, 1
    st r7, RX_BAD(r0)
    done
.good:
    movi r7, 1
    st r7, RX_READY(r0)
    ld r7, RX_COUNT(r0)
    addi r7, 1
    st r7, RX_COUNT(r0)
    jal mac_rx_dispatch     ; upper layer consumes RX_BUF
    done
"""
