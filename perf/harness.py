"""Spawns reps in child processes and turns them into metrics.

Every rep runs in a fresh ``python -m perf rep`` child, one at a time:
a closed loop with one client.  Untraced reps give the end-to-end
metrics; one traced rep per workload gives the per-layer table.  Each
rep's outcome digest must match the committed golden (seed 0, full
size) or, for other seeds, every other rep of the same workload.
"""

import json
import os
import statistics
import subprocess
import sys
import time

from repro.bench.reporting import format_table

from perf import PERF_DIR, ROOT
from perf.trace import layer_metrics
from perf.workloads import ORACLE_CHECKED, WORKLOADS

GOLDEN_DIR = os.path.join(PERF_DIR, "goldens")
GOLDEN_SEED = 0
#: Untraced reps per workload in a full set.
SET_REPS = 7

#: A rep that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150
#: A ``bench`` run stops starting reps once this much time has passed.
DEADLINE_S = 150
#: Untraced reps per ``bench`` run, however short ``--seconds`` is.
MIN_REPS = 3

#: ``fail_frac`` is reported by ``run`` but is not a BENCHMARK.json
#: metric (it is 0 on every healthy run); any increase is a regression.
FAIL_FRAC = {"name": "fail_frac", "unit": "frac", "better": "lower",
             "bound": 0.0}


def spec():
    """BENCHMARK.json: metric names, units, directions and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- reps --------------------------------------------------------------------


def spawn_rep(workload, seed, quick=False, trace=False, fast_path=True):
    """Run one rep in a fresh child process; returns its record with
    ``ok`` set (and ``error`` when it failed)."""
    command = [sys.executable, "-m", "perf", "rep", "--workload", workload,
               "--seed", str(seed)]
    if quick:
        command.append("--quick")
    if trace:
        command.append("--trace")
    if not fast_path:
        command.append("--reference")
    failed = {"workload": workload, "seed": seed, "traced": trace,
              "ok": False}
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return dict(failed, error="timed out after %ds" % REP_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return dict(failed, error="exit %d: %s" % (proc.returncode, tail[0]))
    record = json.loads(lines[-1])
    record["ok"] = True
    return record


def load_golden(workload):
    path = os.path.join(GOLDEN_DIR, "%s.json" % workload)
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        return json.load(handle)


def check_digests(workload, seed, quick, records):
    """Fail every rep whose digest disagrees with the golden (seed 0 at
    full size) or, without one, with the first successful rep."""
    golden = None if quick or seed != GOLDEN_SEED else load_golden(workload)
    expected = golden["digest"] if golden is not None else None
    for record in records:
        if not record["ok"]:
            continue
        if expected is None:
            expected = record["digest"]
        elif record["digest"] != expected:
            record["ok"] = False
            record["error"] = "digest %s... != expected %s..." % (
                record["digest"][:12], expected[:12])
    return expected


# -- statistics --------------------------------------------------------------


def median_iqr(values):
    """Median and interquartile range (0 for fewer than two values)."""
    if len(values) < 2:
        return statistics.median(values), 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q3 - q1


def end_to_end(records):
    """End-to-end samples and values of one workload's untraced reps.

    Returns ``{metric: {"value", "median", "iqr", "n", "samples"}}``;
    ``peak_rss_mb`` reports the maximum, the rest their median.
    """
    good = [record for record in records
            if record["ok"] and not record["traced"]]
    samples = {
        "sim_rate": [r["sim_s"] / r["run_s"] for r in good],
        "ins_per_s": [r["instructions"] / r["run_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["maxrss_mib"] for r in good],
    }
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        median, iqr = median_iqr(values)
        value = max(values) if name == "peak_rss_mb" else median
        metrics[name] = {"value": value, "median": median, "iqr": iqr,
                         "n": len(values), "samples": values}
    failed = sum(1 for record in records if not record["ok"])
    metrics["fail_frac"] = {"value": failed / len(records), "median": None,
                            "iqr": None, "n": len(records),
                            "samples": [0 if r["ok"] else 1
                                        for r in records]}
    return metrics


def per_layer(traced, untraced):
    """Per-layer metrics from a traced rep (``None`` when it failed)."""
    if not traced["ok"]:
        return None
    walls = [record["wall_s"] for record in untraced
             if record["ok"] and not record["traced"]]
    return layer_metrics(traced, statistics.median(walls) if walls else 0.0)


# -- bench: one workload, one seed ------------------------------------------


def bench(workload, seed, seconds, trace):
    """Measure one workload for about *seconds*; prints a summary and,
    last, the one-line JSON result.  Returns the exit status."""
    benchmark = spec()
    started = time.monotonic()
    records, durations = [], []
    traced = spawn_rep(workload, seed, trace=True) if trace else None
    min_reps = 1 if trace else MIN_REPS
    while True:
        rep_start = time.monotonic()
        records.append(spawn_rep(workload, seed))
        durations.append(time.monotonic() - rep_start)
        elapsed = time.monotonic() - started
        if elapsed + max(durations) > DEADLINE_S:
            break
        if len(records) >= min_reps \
                and elapsed + statistics.median(durations) > seconds:
            break
    every = records + ([traced] if traced is not None else [])
    check_digests(workload, seed, False, every)
    failed = [record for record in every if not record["ok"]]
    for record in failed:
        print("FAILED rep: %s" % record.get("error"), file=sys.stderr)

    if trace:
        values = per_layer(traced, records) or {}
        wanted = benchmark["per_layer"]
    else:
        values = {name: entry["value"]
                  for name, entry in end_to_end(records).items()}
        wanted = benchmark["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]],
                               "unit": entry["unit"]}
               for entry in wanted if entry["name"] in values}
    for name, metric in metrics.items():
        print("%-40s %16.6g %s" % (name, metric["value"], metric["unit"]))
    correct = not failed and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": len(every),
                      "failed": len(failed), "metrics": metrics}))
    return 0 if correct else 1


# -- a full set: every workload, round-robin ----------------------------------


def run_set(seed=0, quick=False, reps=SET_REPS):
    """Run *reps* untraced reps of every workload round-robin, then one
    traced rep each; returns the set as a dict."""
    load = os.getloadavg()
    nproc = os.cpu_count() or 1
    started = time.perf_counter()
    records = {workload: [] for workload in WORKLOADS}
    for _ in range(reps):
        for workload in WORKLOADS:
            records[workload].append(spawn_rep(workload, seed, quick))
    traced = {workload: spawn_rep(workload, seed, quick, trace=True)
              for workload in WORKLOADS}
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = check_digests(
            workload, seed, quick, records[workload] + [traced[workload]])
    problems = ["%s: %s" % (record["workload"], record.get("error"))
                for workload in WORKLOADS
                for record in records[workload] + [traced[workload]]
                if not record["ok"]]
    if digests["convergecast_obs"] != digests["convergecast"]:
        problems.append("convergecast_obs digest differs from convergecast")
    return {
        "seed": seed,
        "quick": quick,
        "reps": reps,
        "wall_s": time.perf_counter() - started,
        "host": {"nproc": nproc, "python": sys.version.split()[0],
                 "loadavg": list(load), "overloaded": load[0] > nproc},
        "end_to_end": {workload: end_to_end(records[workload]
                                            + [traced[workload]])
                       for workload in WORKLOADS},
        "per_layer": {workload: per_layer(traced[workload],
                                          records[workload])
                      for workload in WORKLOADS},
        "restored": all(record.get("restored", False)
                        for record in traced.values()),
        "problems": problems,
    }


def flat_results(result):
    """The set as ``dump_results`` input: flat ``<workload>.<metric>``
    numbers for the trajectory feed, plus the raw samples compare needs."""
    flat = {}
    for workload, metrics in result["end_to_end"].items():
        for name, entry in metrics.items():
            flat["%s.%s" % (workload, name)] = entry["value"]
    for workload, metrics in result["per_layer"].items():
        for name, value in (metrics or {}).items():
            flat["%s.%s" % (workload, name)] = value
    host = result["host"]
    flat.update({"host.nproc": host["nproc"],
                 "host.load1": host["loadavg"][0],
                 "host.overloaded": int(host["overloaded"]),
                 "seed": result["seed"], "reps": result["reps"]})
    flat["samples"] = {workload: {name: entry["samples"]
                                  for name, entry in metrics.items()}
                       for workload, metrics in result["end_to_end"].items()}
    flat["host_info"] = host
    return flat


def format_set(result, benchmark):
    """The end-to-end and per-layer tables as text."""
    units = {entry["name"]: entry["unit"]
             for entry in benchmark["end_to_end"] + [FAIL_FRAC]}
    rows = []
    for workload, metrics in result["end_to_end"].items():
        for name, entry in metrics.items():
            iqr = "-" if entry["iqr"] is None else "%.4g" % entry["iqr"]
            rows.append([workload, name, "%.6g" % entry["value"],
                         units[name], iqr, entry["n"]])
    text = [format_table(
        ["workload", "metric", "value", "unit", "iqr", "n"], rows,
        title="End to end (median over untraced reps; peak_rss_mb is the "
              "maximum)")]
    workloads = list(result["per_layer"])
    rows = []
    for entry in benchmark["per_layer"]:
        row = [entry["name"], entry["unit"]]
        for workload in workloads:
            metrics = result["per_layer"][workload]
            row.append("failed" if metrics is None
                       else "%.4g" % metrics[entry["name"]])
        rows.append(row)
    text.append(format_table(["metric", "unit"] + workloads, rows,
                             title="Per layer (one traced rep each)"))
    host = result["host"]
    text.append("host: nproc=%d python=%s load=%s%s; set wall %.1fs"
                % (host["nproc"], host["python"],
                   " ".join("%.2f" % value for value in host["loadavg"]),
                   " (OVERLOADED: 1-min load exceeds nproc)"
                   if host["overloaded"] else "", result["wall_s"]))
    return "\n\n".join(text)


# -- compare two sets ----------------------------------------------------------


def verdict(a, b, better, bound):
    """``better``/``worse``/``same``/``unresolved`` for B against A.

    Unresolved when either set's spread (IQR over median) exceeds the
    bound, unless every B sample beats every A sample.
    """
    sign = 1.0 if better == "higher" else -1.0
    if bound == 0.0:
        change = sign * (b["value"] - a["value"])
        return "better" if change > 0 else "worse" if change < 0 else "same"
    spread = max(a["iqr"] / a["median"], b["iqr"] / b["median"])
    if spread > bound:
        beats = (min(b["samples"]) > max(a["samples"]) if sign > 0
                 else max(b["samples"]) < min(a["samples"]))
        return "better" if beats else "unresolved"
    change = sign * (b["value"] - a["value"]) / a["value"]
    if change > bound:
        return "better"
    if change < -bound:
        return "worse"
    return "same"


def _entry(samples, name):
    if name == "fail_frac":
        return {"value": sum(samples) / len(samples), "samples": samples}
    median, iqr = median_iqr(samples)
    value = max(samples) if name == "peak_rss_mb" else median
    return {"value": value, "median": median, "iqr": iqr, "samples": samples}


def compare(path_a, path_b, benchmark):
    """One row per (workload, end-to-end metric); returns the table text
    and the verdicts."""
    sets = []
    for path in (path_a, path_b):
        with open(path) as handle:
            sets.append(json.load(handle)["results"]["samples"])
    rows, verdicts = [], []
    for workload in WORKLOADS:
        for metric in benchmark["end_to_end"] + [FAIL_FRAC]:
            name = metric["name"]
            try:
                a = _entry(sets[0][workload][name], name)
                b = _entry(sets[1][workload][name], name)
            except (KeyError, statistics.StatisticsError):
                rows.append([workload, name, "-", "-", "-", "-", "-",
                             "missing"])
                verdicts.append("missing")
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            verdicts.append(result)
            change = (b["value"] - a["value"]) / a["value"] \
                if a["value"] else 0.0
            rows.append([workload, name, "%.6g" % a["value"],
                         "%.3g" % a.get("iqr", 0.0),
                         "%.6g" % b["value"], "%.3g" % b.get("iqr", 0.0),
                         "%+.1f%% (bound %g%%)" % (change * 100,
                                                   metric["bound"] * 100),
                         result])
    text = format_table(["workload", "metric", "A", "A iqr", "B", "B iqr",
                         "change", "verdict"], rows,
                        title="perf compare: %s -> %s" % (path_a, path_b))
    return text, verdicts


# -- goldens -------------------------------------------------------------------


def goldens(write):
    """Check the seed-0 digests against the reference engine and the
    committed goldens; with *write*, (re)write the goldens when every
    oracle check passes.  Returns the exit status."""
    problems, fresh = [], {}
    for workload in WORKLOADS:
        record = spawn_rep(workload, GOLDEN_SEED)
        if not record["ok"]:
            problems.append("%s: %s" % (workload, record["error"]))
            continue
        fresh[workload] = record
        if workload in ORACLE_CHECKED:
            reference = spawn_rep(workload, GOLDEN_SEED, fast_path=False)
            if not reference["ok"]:
                problems.append("%s reference engine: %s"
                                % (workload, reference["error"]))
            elif reference["digest"] != record["digest"]:
                problems.append("%s: reference engine digest %s differs "
                                "from fast path %s" % (
                                    workload, reference["digest"],
                                    record["digest"]))
            else:
                print("%-17s fast path == reference engine" % workload)
    if "convergecast" in fresh and "convergecast_obs" in fresh \
            and fresh["convergecast"]["digest"] \
            != fresh["convergecast_obs"]["digest"]:
        problems.append("convergecast_obs digest differs from convergecast")
    for workload, record in fresh.items():
        committed = load_golden(workload)
        status = "missing" if committed is None else (
            "matches" if committed["digest"] == record["digest"]
            else "DIFFERS")
        print("%-17s %s  golden %s" % (workload, record["digest"], status))
        if status == "DIFFERS" and not write:
            problems.append("%s: digest differs from its golden" % workload)
    for problem in problems:
        print("PROBLEM: %s" % problem)
    if problems:
        if write:
            print("refusing to write goldens")
        return 1
    if write:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        for workload, record in fresh.items():
            golden = {"workload": workload, "seed": GOLDEN_SEED,
                      "digest": record["digest"],
                      "instructions": record["instructions"],
                      "sim_s": record["sim_s"],
                      "oracle": "reference engine" if workload
                      in ORACLE_CHECKED else (
                          "convergecast digest"
                          if workload == "convergecast_obs"
                          else "none: the sweep scenario has no engine "
                               "switch")}
            with open(os.path.join(GOLDEN_DIR, "%s.json" % workload),
                      "w") as handle:
                json.dump(golden, handle, indent=2)
                handle.write("\n")
        print("goldens written to %s" % GOLDEN_DIR)
    return 0


# -- smoke check ---------------------------------------------------------------


#: The smoke check's ceiling on a quick set's wall time.
SMOKE_BUDGET_S = 10.0
SMOKE_MIN_COVERAGE = 0.8


def smoke():
    """A quick set (tiny sizes, one rep plus the traced rep) with the
    benchmark's own invariants asserted.  Returns the exit status."""
    benchmark = spec()
    result = run_set(quick=True, reps=1)
    problems = list(result["problems"])
    wanted = [entry["name"] for entry in benchmark["end_to_end"]] \
        + [FAIL_FRAC["name"]]
    for workload, metrics in result["end_to_end"].items():
        problems.extend("%s: end-to-end metric %s missing" % (workload, name)
                        for name in wanted if name not in metrics)
        if metrics["fail_frac"]["value"] != 0:
            problems.append("%s: fail_frac %g" % (
                workload, metrics["fail_frac"]["value"]))
    for workload, metrics in result["per_layer"].items():
        if metrics is None:
            problems.append("%s: traced rep failed" % workload)
            continue
        problems.extend("%s: per-layer metric %s missing" % (workload, entry[
            "name"]) for entry in benchmark["per_layer"]
            if entry["name"] not in metrics)
        if metrics["trace.coverage"] < SMOKE_MIN_COVERAGE:
            problems.append("%s: trace.coverage %.3f < %.1f" % (
                workload, metrics["trace.coverage"], SMOKE_MIN_COVERAGE))
    if not all(entry.get("unit") for entry in benchmark["end_to_end"]
               + benchmark["per_layer"]):
        problems.append("a BENCHMARK.json metric has no unit")
    if not result["restored"]:
        problems.append("a traced rep left a patched attribute behind")
    if result["wall_s"] > SMOKE_BUDGET_S:
        problems.append("quick set took %.1fs (budget %.0fs)"
                        % (result["wall_s"], SMOKE_BUDGET_S))
    print(format_set(result, benchmark))
    for problem in problems:
        print("SMOKE FAIL: %s" % problem)
    if not problems:
        print("smoke ok")
    return 1 if problems else 0
