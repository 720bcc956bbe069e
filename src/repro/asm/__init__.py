"""Assembler, linker, and object-file model for the SNAP ISA.

The paper's tool-chain was "a complete custom assembler/linker tool-chain"
(Section 4.2); this package is its reproduction.  The pipeline is::

    source text --(assemble)--> ObjectModule --(link)--> Program

``ObjectModule`` carries code/data words plus symbols and relocations, so
separately assembled modules (e.g. the MAC library and an application) can
be linked together exactly as the paper's handlers were linked against
their MAC/routing libraries.

The paper assembled those libraries once and linked every handler image
against them; :func:`assemble_shared` does the same here.  It is a
bounded per-process memo of assembled modules, keyed on ``(source,
name)``, that the netstack and C node builders and :func:`build` go
through, so a process assembles each library and each distinct boot
stub once.  Its modules are shared and must never be mutated;
:func:`assemble` still returns a fresh module on every call.
"""

import functools

from repro.asm.errors import AsmError, LinkError
from repro.asm.objectfile import (
    LineEntry,
    ObjectModule,
    Program,
    Relocation,
    SourceLoc,
    Symbol,
)
from repro.asm.assembler import assemble
from repro.asm.linker import link

__all__ = [
    "AsmError",
    "LinkError",
    "LineEntry",
    "ObjectModule",
    "Program",
    "Relocation",
    "SourceLoc",
    "Symbol",
    "assemble",
    "assemble_shared",
    "link",
]

#: Distinct ``(source, name)`` pairs :func:`assemble_shared` keeps.  A
#: module costs 8-64 KiB, so the memo stays within a few MiB.
SHARED_MODULES = 128


@functools.lru_cache(maxsize=SHARED_MODULES)
def assemble_shared(source, name="module"):
    """Like :func:`assemble`, but assembles each ``(source, name)`` pair
    once per process and returns that same module on every later call.

    The module is shared by every caller: pass it to :func:`link`, which
    only reads its modules, and never mutate it.  Call :func:`assemble`
    for a module of your own.
    """
    return assemble(source, name=name)


def build(*sources, **kwargs):
    """Assemble each source text through :func:`assemble_shared` and
    link them into a :class:`Program`.

    Convenience wrapper: ``build(boot_src, mac_src, app_src)``.
    """
    modules = [assemble_shared(source, name="module%d" % index)
               for index, source in enumerate(sources)]
    return link(modules, **kwargs)
