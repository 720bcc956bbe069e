"""The paper's sensor applications (Section 4.2) and full-node builds.

* **Temperature Sense** -- "Simulates reading a sensor and computing a
  running average and logging the value."  A periodic timer polls the
  temperature sensor through the message coprocessor; the QUERY_DONE
  handler maintains an 8-sample window, computes the windowed average,
  tracks min/max, and appends the average to a log ring in DMEM.

* **Range Comparison (Threshold)** -- "Simulates receiving a packet,
  comparing two fields, and logging the larger of the two."  Runs on top
  of the MAC + AODV stack: DATA packets delivered to this node carry two
  sample fields; the handler compares them, logs the larger together
  with its source, and counts threshold exceedances.

``build_network_node`` assembles a complete relay/sink node image (MAC +
AODV + threshold app) for multi-hop experiments.
"""

from repro.asm import assemble_shared, link
from repro.isa.events import Event
from repro.netstack.aodv import aodv_source
from repro.netstack.layout import APP_DATA, APP_BASE_ADDR, equates
from repro.netstack.mac import mac_source
from repro.netstack.runtime import boot_source

# -- Temperature Sense ---------------------------------------------------------

#: App memory map (word offsets from APP_BASE / APP_DATA).
TEMP_WINDOW = 16
TEMP_SAMPLE_IDX = APP_BASE_ADDR + 0   # circular index into the window
TEMP_AVG = APP_BASE_ADDR + 1          # latest windowed average
TEMP_MIN = APP_BASE_ADDR + 2
TEMP_MAX = APP_BASE_ADDR + 3
TEMP_LOG_IDX = APP_BASE_ADDR + 4      # next log slot
TEMP_ITERATIONS = APP_BASE_ADDR + 5   # completed sample iterations
TEMP_ALARM_LIMIT = APP_BASE_ADDR + 6  # alarm threshold on the average
TEMP_ALARM_COUNT = APP_BASE_ADDR + 7  # alarm exceedances
TEMP_WINDOW_BASE = APP_BASE_ADDR + 8  # 16 window slots
TEMP_LOG_BASE = APP_DATA              # 64-entry average log ring
TEMP_LOG_SIZE = 64

#: Default sample period in timer ticks (1 ms at the 1 MHz tick).
TEMP_PERIOD_TICKS = 1000
#: Query identifier of the temperature sensor (matches repro.node).
TEMP_SENSOR_QUERY = 1


def temperature_source(period_ticks=TEMP_PERIOD_TICKS):
    """Assembly source of the Temperature Sense application."""
    header = equates() + """
    .equ SAMPLE_IDX, %d
    .equ AVG, %d
    .equ TMIN, %d
    .equ TMAX, %d
    .equ LOG_IDX, %d
    .equ ITERS, %d
    .equ WINDOW, %d
    .equ LOG_BASE, %d
    .equ LOG_SIZE, %d
    .equ PERIOD_LO, %d
    .equ PERIOD_HI, %d
    .equ ALARM_LIMIT, %d
    .equ ALARM_COUNT, %d
""" % (TEMP_SAMPLE_IDX, TEMP_AVG, TEMP_MIN, TEMP_MAX, TEMP_LOG_IDX,
       TEMP_ITERATIONS, TEMP_WINDOW_BASE, TEMP_LOG_BASE, TEMP_LOG_SIZE,
       period_ticks & 0xFFFF, (period_ticks >> 16) & 0xFF,
       TEMP_ALARM_LIMIT, TEMP_ALARM_COUNT)
    return header + r"""
; Initialize app state; call from boot.
temp_init:
    st r0, SAMPLE_IDX(r0)
    st r0, LOG_IDX(r0)
    st r0, ITERS(r0)
    movi r1, 0x7FFF             ; min sentinel (values are 10-bit codes,
    st r1, TMIN(r0)             ; so signed 16-bit compares stay valid)
    st r0, TMAX(r0)
    movi r1, 0x0300             ; default alarm threshold on the average
    st r1, ALARM_LIMIT(r0)
    st r0, ALARM_COUNT(r0)
    ; zero the sample window
    movi r1, WINDOW
    movi r2, 16
.zero:
    st r0, 0(r1)
    addi r1, 1
    subi r2, 1
    bnez r2, .zero
    ret

; Arm the sample timer (timer 0); 24-bit period via schedhi/schedlo.
temp_arm_timer:
    movi r1, 0
    movi r2, PERIOD_HI
    schedhi r1, r2
    movi r2, PERIOD_LO
    schedlo r1, r2
    ret

; TIMER0 handler: kick off a sensor query and re-arm the timer.
temp_timer_handler:
    movi r15, CMD_QUERY + 1     ; Query the temperature sensor
    jal temp_arm_timer
    done

; QUERY_DONE handler: the sensor value is in the r15 FIFO.
temp_query_handler:
    mov r1, r15                 ; new sample
    ; window[idx] = sample; idx = (idx + 1) mod 8
    ld r2, SAMPLE_IDX(r0)
    movi r3, WINDOW
    add r3, r2
    st r1, 0(r3)
    addi r2, 1
    andi r2, 0x000F
    st r2, SAMPLE_IDX(r0)
    ; sum the window
    movi r3, WINDOW
    movi r4, 16
    movi r5, 0
.sum:
    ld r6, 0(r3)
    add r5, r6
    addi r3, 1
    subi r4, 1
    bnez r4, .sum
    srl r5, 4                   ; average of 16
    st r5, AVG(r0)
    ; track extremes of the raw sample
    ld r6, TMIN(r0)
    sub r6, r1                  ; min - sample : borrow set when min < sample
    bltz r6, .check_max
    st r1, TMIN(r0)
.check_max:
    ld r6, TMAX(r0)
    sub r6, r1
    bgez r6, .log
    st r1, TMAX(r0)
.log:
    ; append the average to the log ring
    ld r6, LOG_IDX(r0)
    movi r7, LOG_BASE
    add r7, r6
    st r5, 0(r7)
    addi r6, 1
    andi r6, LOG_SIZE - 1
    st r6, LOG_IDX(r0)
    ; alarm check on the windowed average
    ld r6, ALARM_LIMIT(r0)
    sub r6, r5                  ; limit - avg : negative when avg > limit
    bgez r6, .no_alarm
    ld r6, ALARM_COUNT(r0)
    addi r6, 1
    st r6, ALARM_COUNT(r0)
.no_alarm:
    ld r6, ITERS(r0)
    addi r6, 1
    st r6, ITERS(r0)
    done
"""


def build_temperature_app(period_ticks=TEMP_PERIOD_TICKS):
    """Link the complete Temperature Sense node image."""
    boot = boot_source(
        handlers={Event.TIMER0: "temp_timer_handler",
                  Event.QUERY_DONE: "temp_query_handler"},
        init_calls=("temp_init",),
        extra="    jal temp_arm_timer",
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(temperature_source(period_ticks),
                                 name="temp")])


# -- Range Comparison / Threshold ------------------------------------------------

THRESH_LARGER_LOG = APP_DATA          # ring of (src, larger) pairs
THRESH_LOG_SIZE = 32                  # pairs
THRESH_LOG_IDX = APP_BASE_ADDR + 0
THRESH_COUNT = APP_BASE_ADDR + 1      # packets processed
THRESH_EXCEED = APP_BASE_ADDR + 2     # times the larger field crossed limit
THRESH_LIMIT = APP_BASE_ADDR + 3      # configurable threshold value


def threshold_source():
    """Assembly source of the Range Comparison application.

    Exports ``app_deliver`` (called by the AODV layer for local DATA
    packets).  Payload layout: ``[final_dst, field_a, field_b]``.
    """
    header = equates() + """
    .equ LOG_BASE, %d
    .equ LOG_SIZE, %d
    .equ LOG_IDX, %d
    .equ COUNT, %d
    .equ EXCEED, %d
    .equ LIMIT, %d
""" % (THRESH_LARGER_LOG, THRESH_LOG_SIZE, THRESH_LOG_IDX, THRESH_COUNT,
       THRESH_EXCEED, THRESH_LIMIT)
    return header + r"""
thresh_init:
    st r0, LOG_IDX(r0)
    st r0, COUNT(r0)
    st r0, EXCEED(r0)
    movi r1, 0x0200
    st r1, LIMIT(r0)            ; default threshold
    ret

; Called by the routing layer with a verified DATA packet in RX_BUF whose
; payload[0] named this node.  payload[1] and payload[2] are the fields.
app_deliver:
    ld r1, RX_BUF + PKT_HDR + 1(r0)   ; field a
    ld r2, RX_BUF + PKT_HDR + 2(r0)   ; field b
    ; r3 = larger of the two
    mov r3, r1
    mov r4, r2
    sub r4, r1                  ; b - a : borrow set when b < a
    bltz r4, .a_larger
    mov r3, r2
.a_larger:
    ; log (source, larger) into the ring
    ld r4, LOG_IDX(r0)
    movi r5, LOG_BASE
    add r5, r4
    add r5, r4                  ; pairs: base + 2*idx
    ld r6, RX_BUF + PKT_SRC(r0)
    st r6, 0(r5)
    st r3, 1(r5)
    addi r4, 1
    andi r4, LOG_SIZE - 1
    st r4, LOG_IDX(r0)
    ; threshold exceedance check
    ld r5, LIMIT(r0)
    sub r5, r3                  ; limit - larger : borrow when limit < larger
    bgez r5, .counted
    ld r6, EXCEED(r0)
    addi r6, 1
    st r6, EXCEED(r0)
.counted:
    ld r6, COUNT(r0)
    addi r6, 1
    st r6, COUNT(r0)
    ret
"""


def build_threshold_app(node_id=1):
    """Link a sink node: MAC + AODV + Range Comparison app."""
    boot = boot_source(
        handlers={Event.RADIO_RX: "mac_rx_handler"},
        init_calls=("mac_rx_init", "rt_init", "thresh_init"),
        node_id=node_id,
        start_rx=True,
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(aodv_source(), name="aodv"),
                 assemble_shared(threshold_source(), name="thresh")])


def build_network_node(node_id, csma=False):
    """A general relay/sink node image for multi-hop experiments."""
    handlers = {Event.RADIO_RX: "mac_rx_handler"}
    if csma:
        handlers[Event.TIMER2] = "mac_backoff_expired"
    boot = boot_source(
        handlers=handlers,
        init_calls=("mac_rx_init", "rt_init", "thresh_init"),
        node_id=node_id,
        start_rx=True,
    )
    return link([assemble_shared(boot, name="boot"),
                 assemble_shared(mac_source(), name="mac"),
                 assemble_shared(aodv_source(), name="aodv"),
                 assemble_shared(threshold_source(), name="thresh")])
