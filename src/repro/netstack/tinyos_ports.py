"""SNAP ports of the TinyOS comparison applications (Section 4.6).

* **Blink** -- "sets up a periodic timer interrupt that enqueues a
  function ... to blink an LED."  On SNAP this is a timer event handler
  that re-arms the timer and calls the blink task, which toggles the LED
  through the message coprocessor ("a write to the sensor port").

* **Sense** -- "periodically samples a data value from the ADC, computes
  a running average, and displays the high order bits on the LEDs."

* **Radio stack** -- the MICA high-speed communications stack port:
  SEC-DED error coding per byte plus a running packet CRC, transmitted
  through the radio coprocessor interface two bytes at a time (versus
  the mote's byte-by-byte SPI handling).  The SEC-DED code and CRC match
  the golden models in :mod:`repro.radio.secded` / :mod:`repro.radio.crc`
  bit for bit.
"""

from repro.asm import assemble_shared, link
from repro.isa.events import Event
from repro.netstack.layout import APP_BASE_ADDR, APP_DATA, equates
from repro.netstack.runtime import boot_source

# -- Blink ---------------------------------------------------------------------

BLINK_STATE = APP_BASE_ADDR + 0
BLINK_COUNT = APP_BASE_ADDR + 1
BLINK_PERIOD_LO = APP_BASE_ADDR + 2
BLINK_PERIOD_HI = APP_BASE_ADDR + 3

#: Default blink period: 500 ms at the 1 MHz timer tick (TinyOS Blink
#: toggles at 1 Hz; each toggle is one event).
BLINK_PERIOD_TICKS = 500_000


def blink_source(period_ticks=BLINK_PERIOD_TICKS):
    header = equates() + """
    .equ STATE, %d
    .equ COUNT, %d
    .equ PERIOD_LO, %d
    .equ PERIOD_HI, %d
""" % (BLINK_STATE, BLINK_COUNT, BLINK_PERIOD_LO, BLINK_PERIOD_HI)
    return header + ("""
blink_init:
    st r0, STATE(r0)
    st r0, COUNT(r0)
    movi r1, %d
    st r1, PERIOD_LO(r0)
    movi r1, %d
    st r1, PERIOD_HI(r0)
    ret
""" % (period_ticks & 0xFFFF, (period_ticks >> 16) & 0xFF)) + r"""
; Arm timer 0 with the 24-bit period stored in DMEM.
blink_arm:
    movi r1, 0
    ld r2, PERIOD_HI(r0)
    schedhi r1, r2
    ld r2, PERIOD_LO(r0)
    schedlo r1, r2
    ret

; TIMER0 event handler: re-arm the periodic timer, then run the blink
; task (the TinyOS flow: the timer event enqueues the blink function).
blink_timer_handler:
    jal blink_arm
    jal blink_task
    done

blink_task:
    ld r3, STATE(r0)
    xori r3, 1
    st r3, STATE(r0)
    movi r4, CMD_LED
    bfs r4, r3, 0x00FF      ; set the LED field of the command word
    mov r15, r4             ; write the sensor/LED port
    ld r5, COUNT(r0)
    addi r5, 1
    st r5, COUNT(r0)
    ret
"""


def build_blink_app(period_ticks=BLINK_PERIOD_TICKS):
    boot = boot_source(
        handlers={Event.TIMER0: "blink_timer_handler"},
        init_calls=("blink_init",),
        extra="    jal blink_arm",
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(blink_source(period_ticks), name="blink")])


# -- Sense ----------------------------------------------------------------------

SENSE_WINDOW = 32
SENSE_IDX = APP_BASE_ADDR + 0
SENSE_AVG = APP_BASE_ADDR + 1
SENSE_ITERS = APP_BASE_ADDR + 2
SENSE_PERIOD_LO = APP_BASE_ADDR + 3
SENSE_WINDOW_BASE = APP_DATA
#: Query id of the ADC-backed sensor (matches repro.node conventions).
SENSE_ADC_QUERY = 2
SENSE_PERIOD_TICKS = 10_000


def sense_source(period_ticks=SENSE_PERIOD_TICKS):
    header = equates() + """
    .equ S_IDX, %d
    .equ S_AVG, %d
    .equ S_ITERS, %d
    .equ S_PERIOD, %d
    .equ S_WINDOW, %d
    .equ S_WINSIZE, %d
""" % (SENSE_IDX, SENSE_AVG, SENSE_ITERS, period_ticks,
       SENSE_WINDOW_BASE, SENSE_WINDOW)
    return header + r"""
sense_init:
    st r0, S_IDX(r0)
    st r0, S_AVG(r0)
    st r0, S_ITERS(r0)
    movi r1, S_WINDOW
    movi r2, S_WINSIZE
.zero:
    st r0, 0(r1)
    addi r1, 1
    subi r2, 1
    bnez r2, .zero
    ret

sense_arm:
    movi r1, 0
    movi r2, S_PERIOD
    schedlo r1, r2
    ret

; TIMER0: start an ADC conversion (Query) and re-arm the sample timer.
sense_timer_handler:
    movi r15, CMD_QUERY + 2
    jal sense_arm
    done

; QUERY_DONE: fold the sample into the running average and display the
; high-order bits of the average on the LEDs.
sense_query_handler:
    mov r1, r15                 ; the ADC sample
    ld r2, S_IDX(r0)
    movi r3, S_WINDOW
    add r3, r2
    st r1, 0(r3)
    addi r2, 1
    andi r2, S_WINSIZE - 1
    st r2, S_IDX(r0)
    ; sum the window
    movi r3, S_WINDOW
    movi r4, S_WINSIZE
    movi r5, 0
.sum:
    ld r6, 0(r3)
    add r5, r6
    addi r3, 1
    subi r4, 1
    bnez r4, .sum
    srl r5, 5                   ; /32
    st r5, S_AVG(r0)
    ; display the high bits (10-bit sample -> top 3 bits on the LEDs)
    srl r5, 7
    andi r5, 0x0007
    movi r6, CMD_LED
    or r6, r5
    mov r15, r6
    ld r6, S_ITERS(r0)
    addi r6, 1
    st r6, S_ITERS(r0)
    done
"""


def build_sense_app(period_ticks=SENSE_PERIOD_TICKS):
    boot = boot_source(
        handlers={Event.TIMER0: "sense_timer_handler",
                  Event.QUERY_DONE: "sense_query_handler"},
        init_calls=("sense_init",),
        extra="    jal sense_arm",
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(sense_source(period_ticks), name="sense")])


# -- MICA high-speed radio stack port ---------------------------------------------

RS_CRC = APP_BASE_ADDR + 0        # running packet CRC
RS_BYTES = APP_BASE_ADDR + 1      # bytes sent
RS_NEXT = APP_BASE_ADDR + 2       # next byte value to send (driver state)
#: Receive-side state (decoder driver).
RS_RX_COUNT = APP_BASE_ADDR + 3   # codewords decoded
RS_RX_CORRECTED = APP_BASE_ADDR + 4
RS_RX_BAD = APP_BASE_ADDR + 5     # uncorrectable double errors
RS_RX_BUF = APP_DATA              # decoded byte ring (64 entries)
RS_RX_BUF_SIZE = 64


def radiostack_source():
    """Assembly source of the radio-stack port.

    ``rs_send_byte`` (r1 = data byte) updates the running CRC, SEC-DED
    encodes the byte into a 13-bit codeword, and hands the codeword to
    the radio through the message coprocessor.  ``rs_soft_handler`` is a
    driver: each SOFT event sends one byte taken from ``RS_NEXT``.

    The SEC-DED layout matches :mod:`repro.radio.secded`: data bits at
    Hamming positions 3,5,6,7,9,10,11,12; parity at 1,2,4,8; overall
    parity at word bit 12.
    """
    header = equates() + """
    .equ RS_CRC, %d
    .equ RS_BYTES, %d
    .equ RS_NEXT, %d
    .equ RS_RX_COUNT, %d
    .equ RS_RX_CORRECTED, %d
    .equ RS_RX_BAD, %d
    .equ RS_RX_BUF, %d
    .equ RS_RX_BUF_SIZE, %d
""" % (RS_CRC, RS_BYTES, RS_NEXT, RS_RX_COUNT, RS_RX_CORRECTED,
       RS_RX_BAD, RS_RX_BUF, RS_RX_BUF_SIZE)
    return header + r"""
rs_init:
    movi r1, 0xFFFF
    st r1, RS_CRC(r0)           ; CRC-16-CCITT init value
    st r0, RS_BYTES(r0)
    st r0, RS_NEXT(r0)
    st r0, RS_RX_COUNT(r0)
    st r0, RS_RX_CORRECTED(r0)
    st r0, RS_RX_BAD(r0)
    ret

; ---- parity helper: r5 -> r5 = XOR of all bits of r5.  Clobbers r6.
rs_parity:
    mov r6, r5
    srl r6, 8
    xor r5, r6
    mov r6, r5
    srl r6, 4
    xor r5, r6
    mov r6, r5
    srl r6, 2
    xor r5, r6
    mov r6, r5
    srl r6, 1
    xor r5, r6
    andi r5, 0x0001
    ret

; ---- SEC-DED encode: r1 = byte -> r1 = 13-bit codeword.
; Clobbers r4-r6; preserves nothing else.
rs_encode:
    push lr
    ; scatter the data bits to positions 3,5,6,7,9,10,11,12 (bits
    ; 2,4,5,6,8,9,10,11 of the word)
    mov r4, r1
    andi r4, 0x0001
    sll r4, 2
    mov r5, r1
    andi r5, 0x000E
    sll r5, 3
    or r4, r5
    mov r5, r1
    andi r5, 0x00F0
    sll r5, 4
    or r4, r5
    ; p1: parity over word bits 2,4,6,8,10
    mov r5, r4
    andi r5, 0x0554
    jal rs_parity
    or r4, r5
    ; p2: parity over word bits 2,5,6,9,10
    mov r5, r4
    andi r5, 0x0664
    jal rs_parity
    sll r5, 1
    or r4, r5
    ; p4: parity over word bits 4,5,6,11
    mov r5, r4
    andi r5, 0x0870
    jal rs_parity
    sll r5, 3
    or r4, r5
    ; p8: parity over word bits 8,9,10,11
    mov r5, r4
    andi r5, 0x0F00
    jal rs_parity
    sll r5, 7
    or r4, r5
    ; overall parity over the 12-bit Hamming word -> bit 12
    mov r5, r4
    andi r5, 0x0FFF
    jal rs_parity
    sll r5, 12
    or r4, r5
    mov r1, r4
    pop lr
    ret

; ---- CRC-16-CCITT update: r1 = data byte; updates RS_CRC in DMEM.
; Clobbers r4, r6, r7.
rs_crc_update:
    ld r4, RS_CRC(r0)
    mov r7, r1
    sll r7, 8
    xor r4, r7
    movi r6, 8
.crc_loop:
    mov r7, r4
    andi r7, 0x8000
    sll r4, 1
    beqz r7, .no_poly
    xori r4, 0x1021
.no_poly:
    subi r6, 1
    bnez r6, .crc_loop
    st r4, RS_CRC(r0)
    ret

; ---- send one byte: CRC update, SEC-DED encode, transmit codeword.
rs_send_byte:
    push lr
    push r1
    jal rs_crc_update
    pop r1
    jal rs_encode
    movi r15, CMD_TX
    mov r15, r1
    ld r4, RS_BYTES(r0)
    addi r4, 1
    st r4, RS_BYTES(r0)
    pop lr
    ret

; ---- driver: each SOFT event sends the next byte.
rs_soft_handler:
    ld r1, RS_NEXT(r0)
    andi r1, 0x00FF
    jal rs_send_byte
    ld r1, RS_NEXT(r0)
    addi r1, 1
    st r1, RS_NEXT(r0)
    done

; ---- SEC-DED decode: r1 = 13-bit codeword -> r1 = byte,
; r2 = status (0 ok, 1 corrected, 2 uncorrectable).  Clobbers r3-r7.
; Syndrome masks include the parity positions themselves:
;   s1 over positions {1,3,5,7,9,11}  = word bits 0,2,4,6,8,10  (0x0555)
;   s2 over positions {2,3,6,7,10,11} = word bits 1,2,5,6,9,10  (0x0666)
;   s4 over positions {4,5,6,7,12}    = word bits 3,4,5,6,11    (0x0878)
;   s8 over positions {8,9,10,11,12}  = word bits 7,8,9,10,11   (0x0F80)
rs_decode:
    push lr
    andi r1, 0x1FFF
    mov r3, r1              ; working codeword
    movi r4, 0              ; syndrome accumulator
    mov r5, r3
    andi r5, 0x0555
    jal rs_parity
    or r4, r5
    mov r5, r3
    andi r5, 0x0666
    jal rs_parity
    sll r5, 1
    or r4, r5
    mov r5, r3
    andi r5, 0x0878
    jal rs_parity
    sll r5, 2
    or r4, r5
    mov r5, r3
    andi r5, 0x0F80
    jal rs_parity
    sll r5, 3
    or r4, r5
    mov r5, r3
    jal rs_parity           ; overall parity of all 13 bits
    bnez r5, .dec_overall_odd
    bnez r4, .dec_double    ; nonzero syndrome, even overall: two errors
    movi r2, 0              ; clean codeword
    jmp .dec_extract
.dec_overall_odd:
    movi r2, 1              ; exactly one flipped bit: correct it
    beqz r4, .dec_extract   ; it was the overall parity bit itself
    movi r6, 1
    mov r7, r4
    subi r7, 1
    sllv r6, r7             ; 1 << (syndrome - 1)
    xor r3, r6
    jmp .dec_extract
.dec_double:
    movi r2, 2
    movi r1, 0
    pop lr
    ret
.dec_extract:
    ; byte = ((w>>2)&1) | ((w>>3)&0x0E) | ((w>>4)&0xF0)
    mov r1, r3
    srl r1, 2
    andi r1, 0x0001
    mov r5, r3
    srl r5, 3
    andi r5, 0x000E
    or r1, r5
    mov r5, r3
    srl r5, 4
    andi r5, 0x00F0
    or r1, r5
    pop lr
    ret

; ---- receive driver: decode each incoming codeword into the byte ring.
rs_rx_handler:
    mov r1, r15             ; the received (possibly corrupted) codeword
    jal rs_decode
    movi r3, 2
    sub r3, r2
    beqz r3, .rx_bad
    beqz r2, .rx_store
    ld r4, RS_RX_CORRECTED(r0)
    addi r4, 1
    st r4, RS_RX_CORRECTED(r0)
.rx_store:
    ld r4, RS_RX_COUNT(r0)
    mov r5, r4
    andi r5, RS_RX_BUF_SIZE - 1
    movi r6, RS_RX_BUF
    add r6, r5
    st r1, 0(r6)
    addi r4, 1
    st r4, RS_RX_COUNT(r0)
    done
.rx_bad:
    ld r4, RS_RX_BAD(r0)
    addi r4, 1
    st r4, RS_RX_BAD(r0)
    done
"""


def build_radiostack_app():
    boot = boot_source(
        handlers={Event.SOFT: "rs_soft_handler"},
        init_calls=("rs_init",),
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(radiostack_source(), name="radiostack")])


def build_radiostack_rx():
    """The receive side of the radio stack: each incoming radio word is
    a SEC-DED codeword; the handler decodes it (correcting single-bit
    channel errors) into a byte ring in DMEM."""
    boot = boot_source(
        handlers={Event.RADIO_RX: "rs_rx_handler"},
        init_calls=("rs_init",),
        start_rx=True,
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(radiostack_source(), name="radiostack")])
