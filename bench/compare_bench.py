#!/usr/bin/env python3
"""Compare two dirsim benchmark artifact files (BENCH_*.json).

Each input is a JSONL run-artifacts file as written by the repro
benches / perf_simulator via `--jsonl` (or DIRSIM_BENCH_JSON): one
record per line, with a `{"kind": "metrics", ...}` record carrying
the run's MetricRegistry. This script diffs the throughput metrics of
a baseline file against a candidate file and exits non-zero when the
candidate regresses by more than the threshold, so CI can gate on it:

    bench/compare_bench.py BENCH_3.json BENCH_4.json --threshold 0.10

Exit codes: 0 = within threshold, 1 = regression, 2 = usage/IO error
or records that are not comparable.

Only throughput (higher-is-better gauges, currently
`runner.grid.refs_per_second`) gates the exit code; wall-clock timers
are printed for context but never fail the run, because absolute wall
times on shared CI hosts are too noisy to gate on. Files holding
several grids (a bench that runs more than one experiment) are
compared grid-by-grid in file order. A grid pair whose
`runner.grid.jobs`, `runner.grid.hardware_threads` or
`runner.build.optimized` (an optimized vs. an unoptimized build)
differ measured different quantities, so it is refused (exit 2)
rather than compared.
A gauge only one record of the pair carries (an older baseline) does
not refuse the pair.
"""

import argparse
import json
import sys


def fail_usage(message):
    """IO/parse problems exit 2, distinct from a regression's 1."""
    print(message, file=sys.stderr)
    sys.exit(2)

# Higher-is-better gauges that gate the exit code.
THROUGHPUT_GAUGES = ("runner.grid.refs_per_second",)
# Must be equal in both records of a pair for the pair to compare.
LIKE_FOR_LIKE_GAUGES = ("runner.grid.jobs", "runner.grid.hardware_threads",
                        "runner.build.optimized")
# Context-only metrics, printed when present in both files.
CONTEXT_GAUGES = ("runner.grid.wall_seconds",)


def load_metrics_records(path):
    """Return the list of metrics objects in file order."""
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    fail_usage(f"error: {path}:{number}: not JSON: {error}")
                if record.get("kind") == "metrics":
                    records.append(record.get("metrics", {}))
    except OSError as error:
        fail_usage(f"error: cannot read {path}: {error}")
    if not records:
        fail_usage(f"error: {path}: no metrics record found")
    return records


def gauge(metrics, name, path):
    """The gauge's value, or None when absent. A present-but-malformed
    entry (wrong kind, no numeric value) is a file problem: exit 2
    with the offending file and metric named, never a traceback."""
    entry = metrics.get(name)
    if entry is None:
        return None
    if not isinstance(entry, dict) or entry.get("kind") != "gauge":
        fail_usage(f"error: {path}: metric {name} is not a gauge")
    if "value" not in entry:
        fail_usage(f"error: {path}: gauge {name} has no value field")
    try:
        return float(entry["value"])
    except (TypeError, ValueError):
        fail_usage(f"error: {path}: gauge {name} has non-numeric "
                   f"value {entry['value']!r}")


def compare(baseline, candidate, threshold, base_path, cand_path):
    """Print one grid's comparison; return (name, ratio, regressed)
    per compared throughput gauge (ratio = candidate / baseline)."""
    for name in LIKE_FOR_LIKE_GAUGES:
        base = gauge(baseline, name, base_path)
        cand = gauge(candidate, name, cand_path)
        if base is not None and cand is not None and base != cand:
            fail_usage(
                f"error: {name} differs: {base_path} has {base:g}, "
                f"{cand_path} has {cand:g} — the records measured "
                f"different quantities; rerun the candidate alike")
    compared = []
    for name in THROUGHPUT_GAUGES:
        base = gauge(baseline, name, base_path)
        cand = gauge(candidate, name, cand_path)
        if base is None and cand is not None:
            # A stale baseline silently "skipping" the gating metric
            # would pass every candidate; make it a hard usage error.
            fail_usage(
                f"error: {base_path}: baseline is missing {name}, "
                f"which {cand_path} has — regenerate the baseline "
                f"before comparing")
        if base is None or cand is None:
            print(f"  {name}: missing from "
                  f"{'baseline' if base is None else 'candidate'}, skipped")
            continue
        if base <= 0:
            print(f"  {name}: baseline is {base}, skipped")
            continue
        delta = (cand - base) / base
        verdict = "ok"
        regressed = delta < -threshold
        if regressed:
            verdict = "REGRESSION"
        compared.append((name, cand / base, regressed))
        print(f"  {name}: {base:,.0f} -> {cand:,.0f} "
              f"({delta:+.1%})  {verdict}")
    for name in CONTEXT_GAUGES:
        base = gauge(baseline, name, base_path)
        cand = gauge(candidate, name, cand_path)
        if base is None or cand is None:
            continue
        print(f"  {name}: {base:g} -> {cand:g}  (context only)")
    return compared


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json artifact files and fail on "
                    "throughput regressions.")
    parser.add_argument("baseline", help="baseline artifacts (JSONL)")
    parser.add_argument("candidate", help="candidate artifacts (JSONL)")
    parser.add_argument(
        "--threshold", type=float, default=0.10, metavar="FRACTION",
        help="allowed fractional throughput drop (default: 0.10)")
    args = parser.parse_args()
    if not 0.0 <= args.threshold < 1.0:
        parser.error("--threshold must be in [0, 1)")

    base_grids = load_metrics_records(args.baseline)
    cand_grids = load_metrics_records(args.candidate)
    if len(base_grids) != len(cand_grids):
        fail_usage(
            f"error: grid count mismatch: {args.baseline} has "
            f"{len(base_grids)}, {args.candidate} has {len(cand_grids)}")

    compared = []
    for index, (base, cand) in enumerate(zip(base_grids, cand_grids)):
        print(f"grid {index}:")
        compared += [(f"grid{index} {name}", ratio, regressed)
                     for name, ratio, regressed
                     in compare(base, cand, args.threshold,
                                args.baseline, args.candidate)]

    # The summary line carries every old -> new ratio so a one-line
    # CI log still names each benchmark and its factor.
    ratios = ", ".join(f"{name} {ratio:.2f}x"
                       for name, ratio, _ in compared)
    regressed = [name for name, _, flagged in compared if flagged]
    if regressed:
        print(f"FAIL: {', '.join(regressed)} regressed by more than "
              f"{args.threshold:.0%} ({ratios})")
        return 1
    print(f"OK: no throughput regression beyond "
          f"{args.threshold:.0%} ({ratios})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
