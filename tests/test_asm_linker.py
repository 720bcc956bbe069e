"""Linker tests: multi-module layout, relocation, errors, shared modules."""

import copy

import pytest

from repro.asm import LinkError, assemble, assemble_shared, link
from repro.asm.objectfile import (
    UNKNOWN_LOC,
    UNMAPPED_FILE,
    ObjectModule,
    Program,
)
from repro.asm.linker import DMEM_WORDS, IMEM_WORDS
from repro.isa import Opcode, decode_stream


class TestLayout:
    def test_modules_concatenate_in_order(self):
        first = assemble("nop\nnop\n", name="boot")
        second = assemble("entry: halt\n", name="app")
        program = link([first, second])
        assert program.symbols["entry"] == 2
        assert len(program.imem) == 3

    def test_data_sections_concatenate(self):
        first = assemble(".data\na: .word 1\n", name="m1")
        second = assemble(".data\nb: .word 2\n", name="m2")
        program = link([first, second])
        assert program.dmem == [1, 2]
        assert program.symbols["b"] == 1

    def test_code_size_properties(self):
        program = link([assemble("movi r1, 1\nhalt\n")])
        assert program.text_size_words == 3
        assert program.text_size_bytes == 6


class TestRelocation:
    def test_cross_module_jump(self):
        caller = assemble("jmp target\n", name="caller")
        callee = assemble("target: halt\n", name="callee")
        program = link([caller, callee])
        entries = decode_stream(program.imem)
        assert entries[0][1].imm == program.symbols["target"]

    def test_cross_module_branch(self):
        caller = assemble("bnez r1, target\n", name="caller")
        callee = assemble("target: halt\n", name="callee")
        program = link([caller, callee])
        assert decode_stream(program.imem)[0][1].imm == 0  # next word

    def test_cross_module_branch_out_of_range(self):
        caller = assemble("bnez r1, target\n", name="caller")
        filler = assemble("\n".join(["nop"] * 40), name="filler")
        callee = assemble("target: halt\n", name="callee")
        with pytest.raises(LinkError, match="out of range"):
            link([caller, filler, callee])

    def test_data_symbol_used_as_address(self):
        code = assemble("ld r1, counter(r0)\nhalt\n", name="code")
        data = assemble(".data\npad: .word 0\ncounter: .word 42\n", name="data")
        program = link([code, data])
        assert decode_stream(program.imem)[0][1].imm == 1

    def test_local_symbols_resolve_within_module(self):
        module = assemble("jmp .here\n.here: halt\n", name="m")
        program = link([module])
        assert decode_stream(program.imem)[0][1].imm == 2

    def test_local_symbols_do_not_leak(self):
        uses = assemble("jmp .private\n", name="user")
        defines = assemble(".private: halt\n", name="owner")
        with pytest.raises(LinkError, match="undefined"):
            link([uses, defines])

    def test_addend(self):
        code = assemble("movi r1, table + 2\nhalt\n", name="c")
        data = assemble(".data\ntable: .word 0, 0, 7\n", name="d")
        program = link([code, data])
        assert program.imem[1] == 2


class TestErrors:
    def test_undefined_symbol(self):
        with pytest.raises(LinkError, match="undefined symbol 'nowhere'"):
            link([assemble("jmp nowhere\n")])

    def test_duplicate_exported_symbols(self):
        with pytest.raises(LinkError, match="duplicate"):
            link([assemble("x: nop\n", name="a"),
                  assemble("x: nop\n", name="b")])

    def test_imem_overflow(self):
        big = assemble(".space 1\n" * 0)  # placeholder module
        big.text.extend([0] * (IMEM_WORDS + 1))
        with pytest.raises(LinkError, match="exceeds IMEM"):
            link([big])

    def test_dmem_overflow(self):
        module = assemble(".data\n.space %d\n" % (DMEM_WORDS + 1))
        with pytest.raises(LinkError, match="exceeds DMEM"):
            link([module])

    def test_imem_capacity_is_4kb(self):
        """Section 3.1: two on-chip 4KB banks."""
        assert IMEM_WORDS * 2 == 4096
        assert DMEM_WORDS * 2 == 4096


class TestProgramApi:
    def test_address_of(self):
        program = link([assemble("main: halt\n")])
        assert program.address_of("main") == 0
        with pytest.raises(KeyError):
            program.address_of("missing")

    def test_qualified_local_symbols(self):
        program = link([assemble(".loop: halt\n", name="mod")])
        assert program.symbols["mod:.loop"] == 0


class TestSymbolication:
    """``Program.lookup`` edge cases: out-of-range PCs and linker
    padding must return the typed unknown location, never the nearest
    preceding table entry."""

    def test_in_range_lookup(self):
        program = link([assemble("main:\n    movi r1, 1\n    halt\n",
                                 name="app")])
        loc = program.lookup(0)
        assert loc.function == "main"
        assert loc.file == "app"
        assert not loc.is_unknown

    def test_out_of_range_pcs_are_unknown(self):
        program = link([assemble("main: halt\n", name="app")])
        for pc in (-1, len(program.imem), len(program.imem) + 100, 10**9):
            loc = program.lookup(pc)
            assert loc is UNKNOWN_LOC
            assert loc.is_unknown
            assert str(loc) == "?"

    def test_non_integer_pc_is_unknown(self):
        program = link([assemble("main: halt\n", name="app")])
        assert program.lookup(None) is UNKNOWN_LOC
        assert program.lookup(0.0) is UNKNOWN_LOC
        assert program.lookup(True) is UNKNOWN_LOC

    def test_unmapped_module_words_do_not_inherit_previous_lines(self):
        """A module with text but no line info sits between two mapped
        modules; its words must not symbolicate to the first module's
        last source line."""
        mapped = assemble("first:\n    nop\n    nop\n", name="first")
        padding = ObjectModule(name="pad", text=[0x0000, 0x0000])
        tail = assemble("second: halt\n", name="second")
        program = link([mapped, padding, tail])

        assert program.lookup(1).file == "first"
        for pc in (2, 3):  # the unmapped module's words
            assert program.lookup(pc).is_unknown
            assert program.lookup(pc).file is None
        loc = program.lookup(4)
        assert loc.function == "second"
        assert loc.file == "second"

    def test_sentinel_not_emitted_for_mapped_modules(self):
        """Modules whose line entries start at offset 0 need no
        sentinel; every word symbolicates normally."""
        program = link([assemble("a:\n    nop\n", name="a"),
                        assemble("b:\n    halt\n", name="b")])
        assert all(entry[1] != UNMAPPED_FILE
                   for entry in program.line_table)
        assert program.lookup(0).file == "a"
        assert program.lookup(1).file == "b"

    def test_hex_image_with_no_tables_is_unknown(self):
        program = Program(imem=[0, 0, 0], dmem=[], symbols={})
        assert program.lookup(1).is_unknown
        assert program.lookup(5).is_unknown


#: A library that exercises everything ``link`` reads from a module:
#: exported and local text symbols, a data section, both relocation
#: kinds (local, cross-module and data targets) and a line table.
SHARED_LIBRARY = """
lib_entry:
    movi r1, table + 1
    ld r2, 0(r1)
    beqz r2, .skip
    jal lib_helper
.skip:
    ret
lib_helper:
    jmp boot_hook
.data
table: .word 1, 2, lib_entry
"""

#: Boot modules of different sizes, so the library links at two text
#: and two data bases.
BOOTS = ("boot_hook: halt\n",
         "nop\nnop\nnop\nboot_hook: halt\n.data\n.word 7, 8\n")


class TestSharedModules:
    def test_linking_leaves_a_shared_module_unchanged(self):
        shared = assemble_shared(SHARED_LIBRARY, name="lib")
        assert assemble_shared(SHARED_LIBRARY, name="lib") is shared
        before = copy.deepcopy(shared)
        programs = [link([assemble(boot, name="boot"), shared])
                    for boot in BOOTS]
        assert programs[0].symbols["lib_entry"] \
            != programs[1].symbols["lib_entry"]
        assert programs[0].symbols["table"] != programs[1].symbols["table"]
        for field in ("text", "data", "symbols", "relocations", "lines"):
            assert getattr(shared, field) == getattr(before, field), field
        for boot, program in zip(BOOTS, programs):
            assert program == link([assemble(boot, name="boot"),
                                    assemble(SHARED_LIBRARY, name="lib")])

    def test_assemble_returns_a_fresh_module_per_call(self):
        first = assemble(SHARED_LIBRARY, name="lib")
        second = assemble(SHARED_LIBRARY, name="lib")
        assert first == second
        assert first is not second
        assert first.text is not second.text
        assert first.symbols is not second.symbols
