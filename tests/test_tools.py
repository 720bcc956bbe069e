"""Tests for the CLI tools, hex image format, and the debugger."""

import pytest

from repro.asm import build
from repro.core import CoreConfig, SnapProcessor
from repro.tools import Debugger
from repro.tools.hexfile import dump_program, load_words
from repro.tools.snap_as import main as as_main
from repro.tools.snap_cc import main as cc_main
from repro.tools.snap_dis import main as dis_main
from repro.tools.snap_run import main as run_main

SAMPLE_ASM = """
boot:
    movi r1, 5
    movi r2, 0
.loop:
    add r2, r1
    subi r1, 1
    bnez r1, .loop
    st r2, 0(r0)
    halt
"""

SAMPLE_C = """
int result;
void init() {
    int i;
    result = 0;
    for (i = 1; i <= 4; i = i + 1) result = result + i;
}
"""


class TestHexFile:
    def test_round_trip(self):
        program = build(SAMPLE_ASM + "\n.data\n.word 7, 8\n")
        text = dump_program(program)
        imem, dmem = load_words(text)
        assert imem == program.imem
        assert dmem == program.dmem

    def test_comments_and_blanks_ignored(self):
        imem, dmem = load_words("# hi\n@text\n0001\n\n# x\n0002\n")
        assert imem == [1, 2]
        assert dmem == []


class TestCliTools:
    def test_assemble_run_roundtrip(self, tmp_path, capsys):
        source_path = tmp_path / "prog.s"
        source_path.write_text(SAMPLE_ASM)
        image_path = tmp_path / "prog.hex"
        assert as_main([str(source_path), "-o", str(image_path)]) == 0
        assert image_path.exists()
        assert run_main([str(image_path), "--dump-dmem", "1"]) == 0
        output = capsys.readouterr().out
        assert "000f" in output  # 5+4+3+2+1 = 15 in dmem[0]
        assert "halted" in output

    def test_run_directly_from_assembly(self, tmp_path, capsys):
        source_path = tmp_path / "prog.s"
        source_path.write_text(SAMPLE_ASM)
        assert run_main([str(source_path), "--trace", "--max-trace", "5"]) == 0
        output = capsys.readouterr().out
        assert "instructions : " in output
        assert "halt" in output  # the trace shows the final instruction

    def test_listing_mode(self, tmp_path, capsys):
        source_path = tmp_path / "prog.s"
        source_path.write_text(SAMPLE_ASM)
        assert as_main([str(source_path), "--listing"]) == 0
        assert "movi r1, 5" in capsys.readouterr().out

    def test_assembler_error_reported(self, tmp_path, capsys):
        source_path = tmp_path / "bad.s"
        source_path.write_text("bogus r1, r2\n")
        assert as_main([str(source_path)]) == 1
        assert "unknown mnemonic" in capsys.readouterr().err

    def test_cc_tool(self, tmp_path, capsys):
        source_path = tmp_path / "app.c"
        source_path.write_text(SAMPLE_C)
        out_path = tmp_path / "app.s"
        assert cc_main([str(source_path), "-o", str(out_path),
                        "--with-runtime"]) == 0
        text = out_path.read_text()
        assert "init:" in text
        assert "__mulu:" in text

    def test_cc_error_reported(self, tmp_path, capsys):
        source_path = tmp_path / "bad.c"
        source_path.write_text("void f() { undefined_thing = 1; }\n")
        assert cc_main([str(source_path)]) == 1
        assert "undefined" in capsys.readouterr().err

    def test_dis_tool(self, tmp_path, capsys):
        program = build(SAMPLE_ASM)
        image_path = tmp_path / "prog.hex"
        image_path.write_text(dump_program(program))
        assert dis_main([str(image_path)]) == 0
        assert "movi r1, 5" in capsys.readouterr().out

    def test_run_runaway_reports_error(self, tmp_path, capsys):
        source_path = tmp_path / "spin.s"
        source_path.write_text(".spin: jmp .spin\n")
        assert run_main([str(source_path),
                         "--max-instructions", "1000"]) == 1
        assert "budget" in capsys.readouterr().err


class TestSnapRunProfile:
    def _source(self, tmp_path):
        source_path = tmp_path / "prog.s"
        source_path.write_text(SAMPLE_ASM)
        return str(source_path)

    def test_profile_smoke(self, tmp_path, capsys):
        assert run_main([self._source(tmp_path), "--profile"]) == 0
        output = capsys.readouterr().out
        assert "attribution  :" in output
        assert "-- handlers (by energy) --" in output
        assert "boot" in output
        assert "-- hot PCs" in output
        # Linked .s inputs symbolicate their hot PCs to source lines.
        assert "prog.s:" in output

    def test_trace_exports(self, tmp_path, capsys):
        import json

        jsonl_path = tmp_path / "trace.jsonl"
        chrome_path = tmp_path / "trace.json"
        assert run_main([self._source(tmp_path),
                         "--jsonl", str(jsonl_path),
                         "--chrome", str(chrome_path),
                         "--metrics", "--top", "3"]) == 0
        output = capsys.readouterr().out
        assert "jsonl trace" in output and "chrome trace" in output

        lines = [json.loads(line)
                 for line in jsonl_path.read_text().splitlines()]
        assert lines, "jsonl trace must not be empty"
        assert lines[-1]["type"] == "energy"  # final cumulative sample
        assert any(record["type"] == "instruction" for record in lines)

        chrome = json.loads(chrome_path.read_text())
        assert len(chrome["traceEvents"]) == len(lines)
        assert any(entry["ph"] == "X" for entry in chrome["traceEvents"])

        # The metrics snapshot is printed as JSON and counts what ran.
        snapshot_text = output[output.index("{"):output.rindex("}") + 1]
        snapshot = json.loads(snapshot_text)
        instructions = sum(1 for record in lines
                           if record["type"] == "instruction")
        assert snapshot["node0.cpu.instructions"] == instructions

    def test_bad_input_reports_error(self, tmp_path, capsys):
        source_path = tmp_path / "bad.s"
        source_path.write_text("bogus r1, r2\n")
        assert run_main([str(source_path), "--profile"]) == 1
        assert "snap-run" in capsys.readouterr().err

    def test_trace_ends_with_energy_when_telemetry_is_armed(self, tmp_path,
                                                           capsys):
        import json

        jsonl_path = tmp_path / "trace.jsonl"
        assert run_main([self._source(tmp_path), "--jsonl", str(jsonl_path),
                         "--telemetry", str(tmp_path / "t.ndjson")]) == 0
        records = [json.loads(line)
                   for line in jsonl_path.read_text().splitlines()]
        assert any(record["type"] == "timeline" for record in records)
        assert records[-1]["type"] == "energy"

    def test_profile_is_not_for_resumed_runs(self):
        with pytest.raises(SystemExit):
            run_main(["--resume", "x.ckpt.json", "--profile"])


class TestDebugger:
    def _debugger(self, source=SAMPLE_ASM):
        program = build(source)
        processor = SnapProcessor(config=CoreConfig(voltage=1.8))
        processor.load(program)
        return Debugger(processor, program=program), processor, program

    def test_step(self):
        debugger, processor, _ = self._debugger()
        stop = debugger.step()
        assert stop.reason == "step"
        assert debugger.registers()["r1"] == 5
        stop = debugger.step(2)
        assert stop.reason == "step"
        assert debugger.registers()["r2"] == 5  # after first add

    def test_breakpoint_by_symbol(self):
        source = SAMPLE_ASM.replace(".loop", "loop_top")
        debugger, processor, _ = self._debugger(source)
        debugger.add_breakpoint("loop_top")
        stop = debugger.cont()
        assert stop.reason == "breakpoint"
        assert stop.pc == debugger.program.address_of("loop_top")
        # Continue: hits the breakpoint again on the next iteration.
        stop = debugger.cont()
        assert stop.reason == "breakpoint"
        assert debugger.registers()["r1"] == 4

    def test_watchpoint(self):
        debugger, processor, _ = self._debugger()
        debugger.add_watchpoint(0)
        stop = debugger.cont()
        assert stop.reason == "watchpoint"
        assert "0x000f" in stop.detail
        assert processor.dmem.peek(0) == 15

    def test_run_to_completion(self):
        debugger, processor, _ = self._debugger()
        stop = debugger.cont()
        assert stop.reason == "done"
        assert processor.halted

    def test_remove_breakpoint(self):
        debugger, processor, _ = self._debugger()
        debugger.add_breakpoint(0)
        debugger.remove_breakpoint(0)
        stop = debugger.cont()
        assert stop.reason == "done"

    def test_disassemble_at(self):
        debugger, _, _ = self._debugger()
        lines = debugger.disassemble_at(0, count=2)
        assert "movi r1, 5" in lines[0]

    def test_chained_user_trace_still_called(self):
        program = build(SAMPLE_ASM)
        seen = []
        processor = SnapProcessor(config=CoreConfig(
            voltage=1.8, trace_fn=lambda p, t, pc, ins: seen.append(pc)))
        processor.load(program)
        debugger = Debugger(processor, program=program)
        debugger.step(3)
        assert len(seen) == 3
