"""``snap-diff``: localize and explain the difference between two runs.

Point it at any two of: a recorded JSONL trace stream, a saved
checkpoint file (``repro.sim.checkpoint/1``, replayed to ``--until``),
or a built-in differential scenario (``scenario:NAME[:fast|ref]``).
The tool aligns the two typed trace streams, localizes the first
divergent record (node, handler, symbolicated PC, flight-recorder tails
from both sides), and renders the structured cross-run comparison --
per-handler/per-PC energy and time deltas, packet-flow changes,
metrics-registry diffs -- as Markdown and/or a ``repro.obs.diff/1``
JSON report.

Exit codes follow ``diff(1)``: 0 when the runs are identical, 1 when
they diverge, 2 on trouble.

Examples::

    # the two engines must be bit-identical
    snap-diff scenario:convergecast:fast scenario:convergecast:ref

    # two recorded voltage runs: align structure, report energy deltas
    snap-diff run_1v8.jsonl run_0v6.jsonl --mode stable --markdown d.md

    # bisect a checkpointable pair down to the divergent time window
    snap-diff scenario:sti:fast scenario:sti:ref --bisect

    # prove the localization machinery end to end (CI gate)
    snap-diff --self-test
"""

import argparse
import json
import sys

from repro.obs.diff import (
    ALIGN_MODES,
    Bisector,
    DiffError,
    Divergence,
    capture_from_checkpoint,
    capture_run,
    compare,
    load_trace,
    render_markdown,
    self_test,
)
from repro.sim.checkpoint import CheckpointError

TRACE_SUFFIXES = (".jsonl", ".ndjson")


def _scenario_spec(spec):
    """Parse ``scenario:NAME[:fast|ref]``; returns ``(name, fast_path)``."""
    from repro.sim.differential import SCENARIOS

    fields = spec.split(":")
    if len(fields) not in (2, 3):
        raise DiffError("bad scenario spec %r (want scenario:NAME[:fast|ref])"
                        % spec)
    name = fields[1]
    if name not in SCENARIOS:
        raise DiffError("unknown scenario %r (have: %s)"
                        % (name, ", ".join(SCENARIOS)))
    engine = fields[2] if len(fields) == 3 else "fast"
    if engine not in ("fast", "ref"):
        raise DiffError("bad engine %r in %r (want fast or ref)"
                        % (engine, spec))
    return name, engine == "fast"


def _sniff_checkpoint(path):
    from repro.sim.checkpoint import SCHEMA

    try:
        with open(path) as handle:
            payload = json.load(handle)
    except OSError as error:
        raise DiffError(str(error))
    except ValueError:
        return False
    return isinstance(payload, dict) and payload.get("schema") == SCHEMA


class RunSpec:
    """One resolved CLI run argument.

    ``builder`` is set for checkpointable inputs (scenarios and saved
    checkpoints) and returns a fresh ``(sim, horizon)`` -- the handle
    :class:`~repro.obs.diff.Bisector` needs; trace streams only
    ``load``.
    """

    def __init__(self, spec, until=None):
        self.spec = spec
        self.until = until
        self.builder = None
        if spec.startswith("scenario:"):
            from repro.sim.differential import SCENARIOS

            name, fast_path = _scenario_spec(spec)
            builder = SCENARIOS[name]

            def make():
                sim, horizon = builder(fast_path)
                return sim, until if until is not None else horizon

            self.builder = make
        elif spec.endswith(TRACE_SUFFIXES):
            self.kind = "trace"
        elif _sniff_checkpoint(spec):
            from repro.sim.checkpoint import Checkpoint, restore

            if until is None:
                raise DiffError("checkpoint input %r needs --until to know "
                                "how far to replay" % spec)

            def make():
                return restore(Checkpoint.load(spec)), until

            self.builder = make
        else:
            raise DiffError("cannot identify %r: not a scenario spec, a "
                            "%s trace, or a checkpoint file"
                            % (spec, "/".join(TRACE_SUFFIXES)))

    def load(self):
        """Capture this run fully (from time zero / the file)."""
        if self.builder is None:
            return load_trace(self.spec)
        sim, horizon = self.builder()
        return capture_run(sim, horizon, label=self.spec)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="snap-diff",
        description="divergence localization and cross-run comparison "
                    "for two simulation runs",
        epilog="runs: a .jsonl/.ndjson trace stream, a checkpoint file "
               "(with --until), or scenario:NAME[:fast|ref]")
    parser.add_argument("run_a", nargs="?", help="first run (baseline)")
    parser.add_argument("run_b", nargs="?", help="second run (subject)")
    parser.add_argument("--mode", choices=ALIGN_MODES, default="full",
                        help="alignment: 'full' compares every field "
                             "(bit-identity), 'stable' only the float-free "
                             "projection (intentionally different runs)")
    parser.add_argument("--until", type=float,
                        help="horizon override; required for checkpoint "
                             "inputs (replay target time)")
    parser.add_argument("--bisect", action="store_true",
                        help="bisect checkpoint snapshots to pin the "
                             "divergence window first (both runs must be "
                             "scenarios or checkpoints)")
    parser.add_argument("--max-probes", type=int, default=20,
                        help="bisection probe budget (default 20)")
    parser.add_argument("--tail", type=int, default=16,
                        help="flight-recorder tail length per side")
    parser.add_argument("--top", type=int, default=20,
                        help="rows per delta table")
    parser.add_argument("--json", metavar="PATH",
                        help="write the repro.obs.diff/1 report here")
    parser.add_argument("--markdown", metavar="PATH",
                        help="write the rendered Markdown report here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the stdout report (exit code only)")
    parser.add_argument("--self-test", action="store_true",
                        help="perturb the energy calibration and verify the "
                             "divergence localizes to the perturbed handler "
                             "and symbolicated PC")
    args = parser.parse_args(argv)

    try:
        if args.self_test:
            return _run_self_test(args)
        if not (args.run_a and args.run_b):
            parser.error("two runs required (or --self-test)")
        return _run_diff(args)
    except (DiffError, CheckpointError) as error:
        print("snap-diff: error: %s" % error, file=sys.stderr)
        return 2


def _emit(args, report):
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
    rendered = render_markdown(report, top=args.top)
    if args.markdown:
        with open(args.markdown, "w") as handle:
            handle.write(rendered)
    if not args.quiet:
        print(rendered, end="")


def _run_self_test(args):
    ok, failures, report = self_test(bisect=args.bisect)
    if report is not None:
        _emit(args, report)
    if ok:
        print("self-test: PASS -- calibration perturbation localized to "
              "handler %r at the expected ld"
              % report["divergence"]["handler"])
        return 0
    print("self-test: FAIL", file=sys.stderr)
    for failure in failures:
        print("  - " + failure, file=sys.stderr)
    return 2


def _run_diff(args):
    spec_a = RunSpec(args.run_a, until=args.until)
    spec_b = RunSpec(args.run_b, until=args.until)

    if args.bisect:
        if spec_a.builder is None or spec_b.builder is None:
            raise DiffError("--bisect needs checkpointable runs on both "
                            "sides (scenarios or checkpoint files)")
        bisector = Bisector(spec_a.builder, spec_b.builder,
                            max_probes=args.max_probes)
        divergence, run_a, run_b = bisector.localize(
            mode=args.mode, tail=args.tail,
            label_a=args.run_a, label_b=args.run_b)
        if divergence is None:
            # No digest divergence: fall through to a plain full-run
            # comparison so the report still carries the aggregates.
            run_a, run_b = spec_a.load(), spec_b.load()
            report = compare(run_a, run_b, mode=args.mode,
                             tail=args.tail, top=args.top)
        else:
            report = compare(run_a, run_b, mode=args.mode,
                             tail=args.tail, top=args.top)
            report["divergence"] = divergence.to_dict()
            report["identical"] = False
    else:
        run_a, run_b = spec_a.load(), spec_b.load()
        report = compare(run_a, run_b, mode=args.mode,
                         tail=args.tail, top=args.top)

    _emit(args, report)
    if report["identical"]:
        return 0
    if not args.quiet:
        divergence = report["divergence"]
        print()
        print(Divergence(**divergence).describe())
    return 1


if __name__ == "__main__":
    sys.exit(main())
