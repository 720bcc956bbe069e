"""Cross-run benchmark trajectories.

A single ``BENCH_RESULTS_DIR`` answers "what did this run measure"; a
*trajectory* answers "how have those measurements moved across runs" --
across CI builds, across commits, or across machines.  Point
:func:`trajectory` at any number of results directories (the current
one plus however many archived ones are kept around) and it flattens
each run's ``BENCH_*.json`` dumps into one comparable metric set:

* every numeric top-level field of each benchmark's ``results`` payload
  (``network_lifetime.sink_deliveries``, ...);
* each benchmark's host wall-clock cost (``<name>.wall_time_s``);
* the sim-speed scenarios' speedups and fast-path rates
  (``sim_speed.<scenario>.speedup`` / ``.fast_ips``) of archived
  ``BENCH_SIM_SPEED.json`` dumps (the benchmark in ``perf/`` writes
  ``BENCH_PERF.json``, whose flat keys fold in like any other);
* the fidelity scorecard's grade counts and gate verdict, when a
  ``BENCH_FIDELITY.json`` is present (``fidelity.match``,
  ``fidelity.gate_ok``, ...).

The result renders as a table (rows = metrics, columns = runs, oldest
first -- ``snap-report --trajectory``) or dumps as JSON
(``repro.report.trajectory/1``) for plotting.
"""

import glob
import json
import os
from collections import OrderedDict

from repro.bench.reporting import format_table

SCHEMA = "repro.report.trajectory/1"


def _flatten_benchmark(name, payload, metrics):
    """Fold one ``BENCH_<name>.json`` payload into *metrics*."""
    key = name.lower()
    results = payload.get("results")
    if key == "fidelity" or "claims" in (payload or {}):
        summary = payload.get("summary") or {}
        for grade, count in sorted(summary.items()):
            metrics["fidelity.%s" % grade] = count
        gate = payload.get("gate") or {}
        if "ok" in gate:
            metrics["fidelity.gate_ok"] = int(bool(gate["ok"]))
        return
    if isinstance(results, dict):
        if results.get("schema") == "repro.bench.sweep/1":
            _flatten_sweep(results, metrics)
        elif key == "sim_speed":
            for scenario, row in sorted(results.items()):
                if isinstance(row, dict):
                    for field in ("speedup", "fast_ips"):
                        value = row.get(field)
                        if isinstance(value, (int, float)):
                            metrics["sim_speed.%s.%s"
                                    % (scenario, field)] = value
        else:
            for field, value in results.items():
                if isinstance(value, (int, float)) \
                        and not isinstance(value, bool):
                    metrics["%s.%s" % (key, field)] = value
    host = payload.get("host") or {}
    wall = host.get("wall_time_s")
    if isinstance(wall, (int, float)):
        metrics["%s.wall_time_s" % key] = wall


def _flatten_sweep(results, metrics):
    """Fold a ``repro.bench.sweep/1`` payload into *metrics*: grid
    health counts plus every cell's replica-mean aggregates, keyed by
    the cell's parameter label (``sweep.chain_ber.voltage=0.6,
    bit_error_rate=0.02.total_energy``) so the same operating point is
    comparable across runs regardless of grid order."""
    scenario = results.get("scenario", "sweep")
    prefix = "sweep.%s" % scenario
    for field in ("cells_total", "cells_ok", "cells_failed"):
        value = results.get(field)
        if isinstance(value, (int, float)):
            metrics["%s.%s" % (prefix, field)] = value
    for cell in results.get("cells") or ():
        if not isinstance(cell, dict) or not cell.get("ok"):
            continue
        params = cell.get("params") or {}
        label = ",".join("%s=%s" % (name, params[name])
                         for name in sorted(params))
        for field, stats in sorted((cell.get("aggregates") or {}).items()):
            if field in params or not isinstance(stats, dict):
                continue
            mean = stats.get("mean")
            if isinstance(mean, (int, float)):
                metrics["%s.%s.%s" % (prefix, label, field)] = mean


def scan_run(directory, label=None):
    """Flatten one results directory into ``{"label", "path",
    "metrics"}``; returns ``None`` when it holds no benchmark dumps."""
    metrics = OrderedDict()
    paths = sorted(glob.glob(os.path.join(directory, "BENCH_*.json")))
    for path in paths:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            continue
        if not isinstance(payload, dict):
            continue
        name = payload.get("benchmark") \
            or os.path.basename(path)[len("BENCH_"):-len(".json")]
        _flatten_benchmark(str(name), payload, metrics)
    if not metrics:
        return None
    return {
        "label": label or os.path.basename(os.path.normpath(directory)),
        "path": directory,
        "metrics": metrics,
    }


def trajectory(directories):
    """Aggregate several results directories, oldest first, into the
    ``repro.report.trajectory/1`` payload.

    Directories with no readable ``BENCH_*.json`` are skipped (and
    listed under ``skipped``); the metric-name union preserves
    first-seen order so related metrics stay adjacent in the table.
    """
    runs, skipped = [], []
    for directory in directories:
        run = scan_run(directory)
        if run is None:
            skipped.append(directory)
        else:
            runs.append(run)
    names = OrderedDict()
    for run in runs:
        for name in run["metrics"]:
            names.setdefault(name, None)
    return {"schema": SCHEMA, "runs": runs, "metrics": list(names),
            "skipped": skipped}


def _format_value(value):
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    magnitude = abs(value)
    if magnitude != 0 and (magnitude >= 1e5 or magnitude < 1e-3):
        return "%.3e" % value
    return "%.4g" % value


def _format_delta(first, last):
    """Relative movement across the whole trajectory, when computable."""
    if not isinstance(first, (int, float)) \
            or not isinstance(last, (int, float)) or first == 0:
        return ""
    change = (last - first) / abs(first)
    if abs(change) < 0.0005:
        return "="
    return "%+.1f%%" % (change * 100.0)


def format_trajectory(payload):
    """Render the trajectory as a text table: one row per metric, one
    column per run, plus first-to-last relative movement."""
    runs = payload["runs"]
    if not runs:
        return "(no benchmark results found)"
    headers = ["metric"] + [run["label"] for run in runs] + ["trend"]
    rows = []
    for name in payload["metrics"]:
        values = [run["metrics"].get(name) for run in runs]
        present = [value for value in values if value is not None]
        trend = _format_delta(present[0], present[-1]) \
            if len(present) >= 2 else ""
        rows.append([name] + [_format_value(value) for value in values]
                    + [trend])
    title = "Benchmark trajectory over %d run%s" \
        % (len(runs), "" if len(runs) == 1 else "s")
    return format_table(headers, rows, title=title)


def write_trajectory_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return path
