"""Compiler driver: C source to SNAP assembly, and full node builds."""

from repro.asm import assemble_shared, link
from repro.cc.codegen import CodeGenerator
from repro.cc.parser import parse
from repro.cc.runtime import runtime_source
from repro.isa.events import Event
from repro.netstack.runtime import boot_source


def compile_c(source, filename=None):
    """Compile C source text to SNAP assembly text.

    With *filename* set, the generated assembly carries ``.file``/
    ``.loc`` directives so the linked program can symbolicate every pc
    back to its C source line.
    """
    program = parse(source)
    return CodeGenerator(program, filename=filename).generate()


def build_c_node(source, handlers=None, node_id=0, start_rx=False,
                 extra_modules=(), source_name="app.c"):
    """Compile *source* and link a complete node image.

    *handlers* maps :class:`~repro.isa.events.Event` to the C function
    that handles it (functions declared ``__handler``).  If the C code
    defines ``init``, boot calls it before ``done``.  *extra_modules*
    are additional assembly module sources to link (e.g. the MAC).
    *source_name* labels the C source in the program's line table (used
    by crash-bundle symbolication).

    Returns the linked :class:`~repro.asm.Program`.
    """
    tree = parse(source)
    asm_text = CodeGenerator(tree, filename=source_name).generate()
    function_names = {f.name for f in tree.functions}
    handler_names = {f.name for f in tree.functions if f.is_handler}
    init_calls = []
    if "init" in function_names:
        init_calls.append("init")
    for event, name in (handlers or {}).items():
        if name not in function_names:
            raise ValueError("handler %r is not defined in the C source"
                             % (name,))
        if name not in handler_names:
            raise ValueError("handler %r must be declared __handler"
                             % (name,))
    boot = boot_source(
        handlers={Event(e): name for e, name in (handlers or {}).items()},
        init_calls=init_calls, node_id=node_id, start_rx=start_rx)
    # The runtime scratch words (NODE_ID, MAC counters, ...) occupy the
    # bottom of DMEM; keep C globals clear of them.
    reserved = assemble_shared(".data\n.space 16\n", name="lowmem")
    modules = [assemble_shared(boot, name="boot"),
               reserved,
               assemble_shared(asm_text, name="cprog"),
               assemble_shared(runtime_source(), name="crt")]
    for index, text in enumerate(extra_modules):
        modules.append(assemble_shared(text, name="extra%d" % index))
    return link(modules)
