#!/usr/bin/env python3
"""Write perfbench/digests.json: the committed per-workload, per-seed
digests of the grid workloads' cell records (timing fields excluded).

    python3 perfbench/make_digests.py [FIRST_SEED LAST_SEED]

run.py checks every grid run against these. Regenerate them only when a
workload's definition (its inputs or size) changes, never to make a
failing gate pass: a digest mismatch means the simulator's results
changed.
"""

import json
import os
import shutil
import sys

import run


def grid_digest(tools, workload, seed, work):
    size = run.SIZES["full"][workload]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "tools.log"
    gen = json.loads(run.checked(run.run_tool(
        [tools["perfbench_layers"], "gen", workload, seed, size["refs"],
         size["pool"], 1, work / "traces"], log), "gen").stdout)
    spec = work / "spec.json"
    spec.write_text(json.dumps(run.grid_spec(workload, gen["files"])))
    run.checked(run.run_tool([tools["dirsim_sweep"], "run", spec, "--out",
                              work / "sweep", "--jobs", os.cpu_count() or 1],
                             log), "dirsim_sweep")
    cells = run.canonical_cells((work / "sweep" / "results.jsonl").read_text())
    return run.digest(cells)


def main(argv):
    first, last = (int(argv[1]), int(argv[2])) if len(argv) == 3 else (0, 99)
    seeds = sorted(set(range(first, last + 1)) |
                   {run.DEV_SEED, run.HELD_OUT_SEED})
    tools = run.build(os.cpu_count() or 1)
    work = run.ROOT / ".bench_out" / "make_digests"
    out = {}
    for workload in ("paper_grid", "scale1024"):
        out[workload] = {
            "refs": run.SIZES["full"][workload]["refs"],
            "seeds": {str(seed): grid_digest(tools, workload, seed, work)
                      for seed in seeds}}
        print(f"{workload}: {len(seeds)} seeds", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "digests.json").write_text(
        json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
