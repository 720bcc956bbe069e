"""Developer tools: command-line front ends for the tool-chain and an
interactive debugger for programs running on the simulated core.

Command-line usage (module form)::

    python -m repro.tools.snap_as   program.s -o program.hex
    python -m repro.tools.snap_dis  program.hex
    python -m repro.tools.snap_cc   app.c -o app.s
    python -m repro.tools.snap_run  program.s --voltage 0.6 --until 1e-3
    python -m repro.tools.snap_run  program.s --profile --jsonl t.jsonl
"""

from repro.tools.debugger import Debugger

__all__ = ["Debugger"]
