"""The tool-chain's program files: assembly sources and ``.hex`` images.

A ``.hex`` image is line-oriented text: a header line per section
(``@text`` / ``@data``), then one 4-digit hex word per line.  Comments
start with ``#``.  Human-diffable, trivially parseable.  Assembly
sources are read by :func:`load_program`, the loader ``snap-as`` and
``snap-run`` share.
"""

from repro.asm import assemble, link


def load_program(paths):
    """Assemble the sources at *paths* and link them, in order, into one
    :class:`~repro.asm.Program` (with its symbols and line table)."""
    modules = []
    for path in paths:
        with open(path) as handle:
            modules.append(assemble(handle.read(), name=path))
    return link(modules)


def dump_program(program):
    """Serialize a linked :class:`~repro.asm.Program` to hex text."""
    lines = ["# SNAP program image",
             "# text %d words, data %d words"
             % (len(program.imem), len(program.dmem))]
    lines.append("@text")
    lines.extend("%04x" % word for word in program.imem)
    if program.dmem:
        lines.append("@data")
        lines.extend("%04x" % word for word in program.dmem)
    for name in sorted(program.symbols):
        if not name.startswith(("module", ".")) and ":" not in name:
            lines.append("# sym %s = 0x%04x" % (name, program.symbols[name]))
    return "\n".join(lines) + "\n"


def load_words(text):
    """Parse hex text back to ``(imem_words, dmem_words)``."""
    imem, dmem = [], []
    target = imem
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "@text":
            target = imem
        elif line == "@data":
            target = dmem
        else:
            target.append(int(line, 16) & 0xFFFF)
    return imem, dmem
