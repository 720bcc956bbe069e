"""The cost table: instructions, energy and time per
(node, pc, handler, instruction class), layered on the trace bus.

The :class:`Profiler` is a trace-bus sink.  It consumes
``InstructionRetired`` and ``HandlerDispatch`` events -- live from the
bus, or recorded ``to_record()`` dicts via :meth:`Profiler.from_records`
-- into

* :attr:`~Profiler.rows`: one ``[count, energy, time, mnemonic]`` row
  per ``(node, pc, handler, instr_class)`` site, the mnemonic being the
  first one seen there.  The class is part of the key because
  self-modifying code can change what sits at a pc;
* :attr:`~Profiler.invocations`: dispatch counts per ``(node, handler)``;
* running ``instructions`` / ``energy`` / ``time`` totals.

The handler and hot-PC report below (``snap-run --profile``; the
software view of the paper's Table 1), the energy ledger's source-line
and layer views (``snap-energy``), and ``snap-diff``'s per-handler,
per-pc, per-class, per-layer, per-line and per-node deltas are all
:meth:`~Profiler.rollup` s of those rows.  Rows are keyed by node, so
nodes running one image never merge.

Because the table sums the same per-instruction energies the
:class:`~repro.energy.accounting.EnergyMeter` records, its totals
reconcile with the meter's instruction energy exactly (the meter's
*total* additionally includes wakeup, event-token, and idle leakage
energy, which are not per-instruction costs).
"""

from types import SimpleNamespace


class Profiler:
    """A trace-bus sink keeping the per-site cost table."""

    def __init__(self):
        #: (node, pc, handler, instr_class) -> [count, energy, time,
        #: mnemonic].
        self.rows = {}
        #: (node, handler) -> dispatches.
        self.invocations = {}
        self.instructions = 0
        self.energy = 0.0
        self.time = 0.0

    @classmethod
    def from_records(cls, records):
        """The table of a recorded trace (``instruction`` and
        ``dispatch`` records; every other type is skipped)."""
        table = cls()
        for record in records:
            if record.get("type") in ("instruction", "dispatch"):
                table(SimpleNamespace(**dict(record, kind=record["type"])))
        return table

    # -- the sink interface ---------------------------------------------------

    def __call__(self, event):
        kind = event.kind
        if kind == "instruction":
            energy = event.energy
            duration = event.duration
            self.instructions += 1
            self.energy += energy
            self.time += duration
            key = (event.node, event.pc, event.handler, event.instr_class)
            row = self.rows.get(key)
            if row is None:
                row = self.rows[key] = [0, 0.0, 0.0, event.mnemonic]
            row[0] += 1
            row[1] += energy
            row[2] += duration
        elif kind == "dispatch":
            key = (event.node, event.handler)
            self.invocations[key] = self.invocations.get(key, 0) + 1

    # -- roll-ups -------------------------------------------------------------

    def rollup(self, key):
        """Group the rows by ``key(node, pc, handler, instr_class)``.

        Returns ``{group: [count, energy, time, mnemonic]}`` in
        first-seen order; each group sums its rows in table order and
        keeps its first row's mnemonic.
        """
        groups = {}
        for site, (count, energy, time, mnemonic) in self.rows.items():
            group = key(*site)
            total = groups.get(group)
            if total is None:
                groups[group] = [count, energy, time, mnemonic]
            else:
                total[0] += count
                total[1] += energy
                total[2] += time
        return groups

    def handlers(self):
        """``{(node, handler): [instructions, energy, time, invocations]}``,
        handlers dispatched but not yet retiring included."""
        table = {group: totals[:3] + [0] for group, totals in self.rollup(
            lambda node, pc, handler, instr_class: (node, handler)).items()}
        for group, count in self.invocations.items():
            table.setdefault(group, [0, 0.0, 0.0, 0])[3] = count
        return table

    def reconcile(self, meter):
        """Compare this table against an :class:`EnergyMeter`.

        Returns ``(profiled_energy, meter_instruction_energy)`` -- the
        meter's total minus its non-instruction costs (wakeup, event
        tokens, idle leakage).  The two agree to float tolerance when the
        table observed the whole run of that meter's core alone.
        """
        meter_instruction_energy = (meter.total_energy
                                    - meter.wakeup_energy
                                    - meter.event_token_energy
                                    - meter.idle_energy)
        return self.energy, meter_instruction_energy

    # -- reporting ------------------------------------------------------------

    def report(self, top=10, programs=None):
        """A human-readable profile: handlers, then the *top* hot PCs,
        each row labelled with its node.

        With *programs* (node name -> linked :class:`~repro.asm.Program`
        carrying a line table), each hot PC is annotated with its source
        location.
        """
        lines = ["profile: %d instructions, %.3f nJ, %.6f s busy"
                 % (self.instructions, self.energy * 1e9, self.time)]
        lines.append("-- handlers (by energy) --")
        for (node, handler), (instructions, energy, time, runs) in sorted(
                self.handlers().items(), key=lambda item: -item[1][1]):
            lines.append("  %-10s %-12s %6d runs %8d ins %10.3f nJ %10.6f s"
                         % (node, handler, runs, instructions, energy * 1e9,
                            time))
        spots = sorted(self.rollup(
            lambda node, pc, handler, instr_class: (node, pc)).items(),
            key=lambda item: -item[1][1])[:top]
        if spots:
            lines.append("-- hot PCs (top %d by energy) --" % len(spots))
        for (node, pc), (count, energy, time, mnemonic) in spots:
            where = ""
            program = (programs or {}).get(node)
            if program is not None:
                loc = program.lookup(pc)
                if loc.file is not None or loc.function is not None:
                    where = "  %s" % loc
            lines.append("  %-10s %04x %-18s %8d hits %10.3f nJ %10.6f s%s"
                         % (node, pc, mnemonic, count, energy * 1e9, time,
                            where))
        return "\n".join(lines)
