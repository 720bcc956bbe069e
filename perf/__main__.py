"""``python -m perf``: the repository's benchmark.

Run from the repository root::

    python -m perf run [--seed N] [--quick]     # a full set, all workloads
    python -m perf compare A.json B.json        # verdict per metric
    python -m perf goldens [--write]            # oracle-checked digests
    python -m perf smoke                        # quick self-check
    python -m perf bench --workload W --seed N --seconds S --trace 0|1

``bench`` measures one workload and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The simulator is imported from ``src/`` next to this directory.
"""

import argparse
import json
import os
import sys

from perf import OUT_DIR, ROOT

SRC = os.path.join(ROOT, "src")


def _use_checkout_sources():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit("perf: no simulator sources at %s; run from a "
                         "checkout of the repository" % SRC)
    sys.path.insert(0, SRC)
    import repro

    if os.path.realpath(repro.__file__) != os.path.realpath(package):
        raise SystemExit("perf: imported repro from %s, not %s"
                         % (repro.__file__, package))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="python -m perf",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="a full set: every workload, "
                              "round-robin, plus one traced rep each")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--quick", action="store_true",
                     help="tiny sizes (smoke runs)")
    run.add_argument("--results-dir", metavar="DIR",
                     help="where BENCH_PERF.json goes (default: "
                          "$BENCH_RESULTS_DIR, else perf/out)")

    compare = commands.add_parser("compare", help="compare two sets")
    compare.add_argument("a", help="BENCH_PERF.json of the base set")
    compare.add_argument("b", help="BENCH_PERF.json of the new set")

    goldens = commands.add_parser("goldens", help="check the seed-0 "
                                  "digests against the reference engine")
    goldens.add_argument("--write", action="store_true",
                         help="rewrite perf/goldens when every check "
                              "passes")

    commands.add_parser("smoke", help="quick set with the benchmark's "
                        "invariants asserted")

    bench = commands.add_parser("bench", help="one workload, one seed, "
                                "JSON result on the last line")
    bench.add_argument("--workload", required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--seconds", type=float, required=True)
    bench.add_argument("--trace", type=int, choices=(0, 1), default=0)

    rep = commands.add_parser("rep", help="one rep in this process "
                              "(what the other commands spawn)")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--trace", action="store_true")
    rep.add_argument("--reference", action="store_true",
                     help="run the reference engine (fast_path=False)")

    args = parser.parse_args(argv)
    _use_checkout_sources()
    from perf import harness
    from perf.workloads import WORKLOADS

    if getattr(args, "workload", None) not in (None, *WORKLOADS):
        parser.error("unknown workload %r (have: %s)"
                     % (args.workload, ", ".join(WORKLOADS)))

    if args.command == "rep":
        from perf.rep import run_rep

        print(json.dumps(run_rep(args.workload, args.seed, quick=args.quick,
                                 fast_path=not args.reference,
                                 trace=args.trace)))
        return 0
    if args.command == "bench":
        return harness.bench(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    if args.command == "goldens":
        return harness.goldens(args.write)
    if args.command == "smoke":
        return harness.smoke()
    if args.command == "compare":
        text, verdicts = harness.compare(args.a, args.b, harness.spec())
        print(text)
        return 1 if "worse" in verdicts or "missing" in verdicts else 0

    from repro.bench.reporting import dump_results

    result = harness.run_set(seed=args.seed, quick=args.quick)
    print(harness.format_set(result, harness.spec()))
    directory = args.results_dir or os.environ.get("BENCH_RESULTS_DIR") \
        or OUT_DIR
    path = dump_results("PERF", harness.flat_results(result),
                        directory=directory, wall_time_s=result["wall_s"])
    print("results dumped : %s" % path)
    for problem in result["problems"]:
        print("FAILED: %s" % problem)
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
