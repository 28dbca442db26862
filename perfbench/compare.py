#!/usr/bin/env python3
"""Compare two sets of benchmark records, like for like.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds record files that perfbench/run.py wrote under
.bench_out/records/ (one per run). Records pair up by workload and seed.
The comparison refuses (exit 2) when any record comes from an unoptimized
build or failed its correctness gate, or when records differ in build
type, compiler, hardware threads, jobs, input size (refs per trace, trace
pool), run length, trace mode or DIRSIM_* environment. The commit is
recorded but not compared, since two commits are what is being compared.
It prints, per workload and metric, each side's median, the change, the
metric's bound from BENCHMARK.json and the base's own spread, and exits 1
when a metric got worse by more than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LIKE_FOR_LIKE = ("build_type", "compiler", "nproc", "jobs", "size", "refs",
                 "pool", "seconds", "trace", "dirsim_env")


def load(directory):
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        record["path"] = str(path)
        records.append(record)
    if not records:
        raise SystemExit(f"error: no records in {directory}")
    return records


def refusal(records):
    """The reason these records cannot be compared, or None."""
    first = records[0]["provenance"]
    for record in records:
        prov = record["provenance"]
        if not prov.get("optimized") or prov.get("build_type") not in (
                "Release", "RelWithDebInfo"):
            return f"{record['path']}: unoptimized build ({prov.get('build_type')!r})"
        for field in LIKE_FOR_LIKE:
            if prov.get(field) != first.get(field):
                return (f"{record['path']}: {field} {prov.get(field)!r} "
                        f"differs from {first.get(field)!r}")
        if not record.get("correct"):
            return f"{record['path']}: failed its correctness gate"
    return None


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    reason = refusal(base + new)
    if reason:
        print(f"refused: {reason}", file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in specs["end_to_end"] + specs["per_layer"]}

    def key(record):
        prov = record["provenance"]
        return prov["workload"], prov["seed"]

    base_keys = sorted({key(r) for r in base})
    if base_keys != sorted({key(r) for r in new}):
        print("refused: the two sets cover different workloads or seeds",
              file=sys.stderr)
        return 2

    worse = False
    print(f"{'workload':12} {'metric':34} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6} {'spread':>7}  verdict")
    for workload in sorted({w for w, _ in base_keys}):
        rows = [r for r in base if r["provenance"]["workload"] == workload]
        for name in rows[0]["metrics"]:
            a = [r["metrics"][name]["value"] for r in rows]
            b = [r["metrics"][name]["value"] for r in new
                 if r["provenance"]["workload"] == workload]
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else float("nan")
            spec = bounds.get(name, {})
            sign = -1 if spec.get("better") == "higher" else 1
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                if spread(a) > bound:
                    verdict = "unresolved (base spread > bound)"
                elif sign * change > bound:
                    verdict, worse = "WORSE beyond bound", True
                else:
                    verdict = "within bound"
            print(f"{workload:12} {name:34} {ma:12.6g} {mb:12.6g} "
                  f"{change:+8.2%} {bound if bound is not None else '':>6} "
                  f"{spread(a):7.2%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
