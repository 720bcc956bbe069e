"""``snap-as``: assemble and link SNAP assembly sources.

Usage::

    python -m repro.tools.snap_as boot.s mac.s app.s -o image.hex
"""

import argparse
import sys

from repro.asm import AsmError, LinkError
from repro.tools.hexfile import dump_program, load_program


def build_parser():
    parser = argparse.ArgumentParser(
        prog="snap-as",
        description="Assemble and link SNAP assembly into a program image.")
    parser.add_argument("sources", nargs="+", help="assembly source files")
    parser.add_argument("-o", "--output", default=None,
                        help="output image (default: stdout)")
    parser.add_argument("--listing", action="store_true",
                        help="print a disassembly listing instead")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        program = load_program(args.sources)
    except (AsmError, LinkError, OSError) as error:
        print("snap-as: %s" % error, file=sys.stderr)
        return 1
    if args.listing:
        from repro.isa import disassemble_words
        output = "\n".join(disassemble_words(program.imem)) + "\n"
    else:
        output = dump_program(program)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(output)
        print("snap-as: wrote %s (%d text words, %d data words)"
              % (args.output, len(program.imem), len(program.dmem)))
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
