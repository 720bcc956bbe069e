"""An execution debugger for the simulated SNAP/LE core.

Supports breakpoints on IMEM addresses (or linked symbols), watchpoints
on DMEM words, single-stepping by instruction, and state inspection.
The debugger hooks the processor's trace callback and drives the
simulation kernel one event at a time, so coprocessors and devices keep
running between stops exactly as they would in a plain run.
"""

from dataclasses import dataclass
from typing import Optional


@dataclass
class StopInfo:
    """Why and where the debugger stopped."""

    reason: str          # 'breakpoint', 'watchpoint', 'step', 'done'
    pc: int
    time: float
    detail: Optional[str] = None


class Debugger:
    """Wraps a :class:`~repro.core.SnapProcessor` with debug control."""

    def __init__(self, processor, program=None):
        self.processor = processor
        #: The linked program, for symbol breakpoints and :meth:`where`;
        #: defaults to whatever the processor last loaded.
        self.program = program if program is not None \
            else getattr(processor, "program", None)
        self._breakpoints = set()
        self._watchpoints = {}
        self._instructions_seen = 0
        self._step_target = None
        self._stop = None
        self._installed_trace = processor.config.trace_fn
        self._attached = True
        processor.config.trace_fn = self._trace
        self.last_pc = None
        self.last_instruction = None

    def detach(self):
        """Stop debugging: restore the trace callback that was installed
        before this debugger hooked the processor.

        Idempotent.  Without this, a discarded debugger would keep
        intercepting (and paying for) every retired instruction and the
        original ``config.trace_fn`` would be lost for good.
        """
        if self._attached:
            self.processor.config.trace_fn = self._installed_trace
            self._attached = False

    # -- breakpoints and watchpoints ------------------------------------------

    def _resolve(self, location):
        if isinstance(location, str):
            if self.program is None:
                raise ValueError("symbol breakpoints need the linked program")
            return self.program.address_of(location)
        return int(location)

    def add_breakpoint(self, location):
        """Break before executing the instruction at an address/symbol."""
        self._breakpoints.add(self._resolve(location))

    def remove_breakpoint(self, location):
        self._breakpoints.discard(self._resolve(location))

    def add_watchpoint(self, address):
        """Break after any instruction that changes ``DMEM[address]``."""
        self._watchpoints[address] = self.processor.dmem.peek(address)

    def remove_watchpoint(self, address):
        self._watchpoints.pop(address, None)

    # -- execution control ---------------------------------------------------------

    def step(self, count=1, max_kernel_events=100000):
        """Execute *count* instructions (running through sleeps)."""
        self._step_target = self._instructions_seen + count
        return self._drive(max_kernel_events)

    def cont(self, max_kernel_events=1000000):
        """Run until a breakpoint/watchpoint or the simulation drains."""
        self._step_target = None
        return self._drive(max_kernel_events)

    def _drive(self, max_kernel_events):
        if self.processor.mode.value == "reset":
            self.processor.start()
        self._stop = None
        kernel = self.processor.kernel
        for _ in range(max_kernel_events):
            if not kernel.pending:  # only host work (observer ticks) left
                return StopInfo(reason="done", pc=self.processor.pc,
                                time=kernel.now)
            kernel.step()
            hit = self._check_watchpoints()
            if hit is not None:
                return hit
            if self._stop is not None:
                return self._stop
        raise RuntimeError("debugger exceeded its kernel-event budget")

    def _trace(self, processor, time, pc, instruction):
        self.last_pc = pc
        self.last_instruction = instruction
        self._instructions_seen += 1
        if self._installed_trace is not None:
            self._installed_trace(processor, time, pc, instruction)
        if pc in self._breakpoints:
            self._stop = StopInfo(reason="breakpoint", pc=pc, time=time,
                                  detail=instruction.text())
        elif (self._step_target is not None
              and self._instructions_seen >= self._step_target):
            self._stop = StopInfo(reason="step", pc=pc, time=time,
                                  detail=instruction.text())

    def _check_watchpoints(self):
        for address, old_value in list(self._watchpoints.items()):
            new_value = self.processor.dmem.peek(address)
            if new_value != old_value:
                self._watchpoints[address] = new_value
                return StopInfo(
                    reason="watchpoint", pc=self.processor.pc,
                    time=self.processor.kernel.now,
                    detail="dmem[0x%04x]: 0x%04x -> 0x%04x"
                           % (address, old_value, new_value))
        return None

    # -- inspection -------------------------------------------------------------------

    def registers(self):
        """Current register file contents (r0..r14) plus pc and carry."""
        state = {("r%d" % index): self.processor.regs.peek(index)
                 for index in range(15)}
        state["pc"] = self.processor.pc
        state["carry"] = self.processor.carry
        return state

    def where(self, pc=None):
        """Symbolicate *pc* (default: current) through the program's
        line table; ``None`` without a program."""
        if self.program is None:
            return None
        return self.program.lookup(self.processor.pc if pc is None else pc)

    def disassemble_at(self, address, count=8):
        """Disassemble *count* instructions starting at an IMEM address."""
        from repro.isa import disassemble_words
        words = self.processor.imem.dump(address,
                                         min(2 * count,
                                             self.processor.imem.size_words
                                             - address))
        return disassemble_words(words, base=address)[:count]
