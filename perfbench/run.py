#!/usr/bin/env python3
"""The dirsim benchmark: three seeded workloads through the shipped tools.

    python3 perfbench/run.py --workload paper_grid --seed 7 --seconds 15 --trace 0

Run from the repository root. The first run builds an optimized (Release)
copy of dirsim_sweep, dirsim_serve and the layer harness under
.bench_build/ (or $CARGO_TARGET_DIR); every run writes its inputs, outputs
and a provenance record under .bench_out/. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (BENCHMARK.json "end_to_end"); with
--trace 1 the run is the traced one and reports the per-layer ledger
("per_layer"), writes a Chrome trace and per-layer self times, and its
tracing overhead. perfbench/README.md explains the workloads and metrics.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import http.client
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

PAPER_SCHEMES = ["Dir1NB", "WTI", "Dir0B", "Dragon", "DirNNB", "Dir2B",
                 "Dir4NB", "Berkeley"]
# scalingSchemes() in src/sim/scaling.cc.
SCALING_SCHEMES = ["Dir0B", "Dir1NB", "Dir2NB", "Dir4NB", "Dir4B", "DirCV",
                   "DirCVr12", "DirNNB"]
SERVE_SCHEMES = ["Dir1NB", "WTI", "Dir0B", "Dragon"]

# The paper's Table 5 cumulative pipelined-bus cycles per reference.
TABLE5 = {"Dir1NB": 0.3210, "WTI": 0.1466, "Dir0B": 0.0491,
          "Dragon": 0.0336}

# Seeds: the development seed was used while the benchmark was written;
# the held-out seed was first run once the benchmark was final.
DEV_SEED = 7
HELD_OUT_SEED = 9001

# refs: references per generated trace; pool: serve_mixed trace files.
SIZES = {
    "full": {"paper_grid": {"refs": 500_000, "pool": 0},
             "scale1024": {"refs": 2_000_000, "pool": 0},
             "serve_mixed": {"refs": 400_000, "pool": 6}},
    "tiny": {"paper_grid": {"refs": 20_000, "pool": 0},
             "scale1024": {"refs": 20_000, "pool": 0},
             "serve_mixed": {"refs": 10_000, "pool": 3}},
}
WORKLOADS = list(SIZES["full"])

# Record fields that are host timings or locations, not results.
UNTIMED_EXCLUDE = ("wall_seconds", "refs_per_second", "phases_ns",
                   "trace_path")

SETUP_REPS = 5
TOOL_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure of the benchmark itself (build, tool crash, timeout)."""


# ---------------------------------------------------------------- stats

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, -(-pct * len(ordered) // 100)) - 1]


def samples_beyond(count, pct):
    """Samples strictly past the nearest-rank pct-percentile of count
    distinct samples."""
    return count - max(1, -(-pct * count // 100))


def supported(count, pct, beyond=10):
    """True when a pct-percentile over count samples leaves at least
    `beyond` samples past it (the rule for reporting a tail)."""
    return samples_beyond(count, pct) >= beyond


# -------------------------------------------------------------- records

def canonical_cells(results_text):
    """The cell records of a results.jsonl stream, timing excluded, as a
    list of canonical JSON strings in stream (plan) order."""
    cells = []
    for line in results_text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("kind") != "cell":
            continue
        for key in UNTIMED_EXCLUDE:
            record.pop(key, None)
        cells.append(json.dumps(record, sort_keys=True))
    return cells


def results_metrics(results_text):
    for line in results_text.splitlines():
        if line.strip():
            record = json.loads(line)
            if record.get("kind") == "metrics":
                return record["metrics"]
    return {}


def metric_value(metrics, name):
    return metrics.get(name, {}).get("value", 0)


def digest(cells):
    h = hashlib.sha256()
    for cell in cells:
        h.update(cell.encode())
        h.update(b"\n")
    return h.hexdigest()


def load_digests():
    path = BENCH / "digests.json"
    return json.loads(path.read_text()) if path.exists() else {}


def committed_digest(workload, refs, seed):
    entry = load_digests().get(workload)
    if not entry or entry.get("refs") != refs:
        return None
    return entry["seeds"].get(str(seed))


def table5_rel_err(cells):
    """Max relative error of the simulated Table 5 cumulative cycles/ref
    (pipelined bus, block 16, infinite caches, mean over the traces)."""
    totals = {scheme: [] for scheme in TABLE5}
    for text in cells:
        cell = json.loads(text)
        if cell["scheme"] in totals and cell["trace"].endswith("@b16@inf"):
            totals[cell["scheme"]].append(cell["costs"]["pipelined"]["total"])
    errors = []
    for scheme, paper in TABLE5.items():
        if not totals[scheme]:
            return None
        errors.append(abs(statistics.fmean(totals[scheme]) - paper) / paper)
    return max(errors)


def gate_grid(cells_nt, cells_1t, expected_cells, committed):
    """The grid correctness gate: a list of failed checks (empty = pass)."""
    problems = []
    if len(cells_nt) != expected_cells:
        problems.append(f"{len(cells_nt)} cells, expected {expected_cells}")
    if cells_nt != cells_1t:
        problems.append("cell records differ between jobs=1 and jobs=nproc")
    if committed is not None and digest(cells_nt) != committed:
        problems.append("cell records do not match the committed digest")
    return problems


# ---------------------------------------------------------------- spans

class Spans:
    """In-memory spans: name, layer, start, end, parent, lane."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.lock = threading.Lock()
        self.local = threading.local()

    def open(self, name, layer, tid=0):
        if not self.enabled:
            return None
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        span = {"name": name, "layer": layer, "start_ns": time.monotonic_ns(),
                "end_ns": 0, "parent": stack[-1] if stack else -1,
                "tid": tid, "src": "py"}
        with self.lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index):
        if index is None:
            return
        self.local.stack.pop()
        self.spans[index]["end_ns"] = time.monotonic_ns()

    @contextlib.contextmanager
    def span(self, name, layer, tid=0):
        index = self.open(name, layer, tid)
        try:
            yield
        finally:
            self.close(index)


def self_times(spans):
    """Per-layer self time: each span's duration minus the part of its
    interval its children cover, summed by layer."""
    children = {}
    for index, span in enumerate(spans):
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(span)
    totals = {}
    for index, span in enumerate(spans):
        covered = 0
        cursor = span["start_ns"]
        for child in sorted(children.get(index, []),
                            key=lambda c: c["start_ns"]):
            lo = max(child["start_ns"], cursor)
            hi = min(child["end_ns"], span["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        own = max(0, span["end_ns"] - span["start_ns"] - covered)
        totals[span["layer"]] = totals.get(span["layer"], 0) + own * 1e-9
    return totals


def write_chrome_trace(path, spans):
    origin = min(span["start_ns"] for span in spans)
    events = []
    for span in spans:
        events.append({
            "name": span["name"], "cat": span["layer"], "ph": "X",
            "pid": 1 if span["src"] == "py" else 2, "tid": span["tid"],
            "ts": (span["start_ns"] - origin) / 1000.0,
            "dur": max(0, span["end_ns"] - span["start_ns"]) / 1000.0})
    events.append({"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                   "args": {"name": "benchmark (run.py)"}})
    events.append({"name": "process_name", "ph": "M", "pid": 2, "tid": 0,
                   "args": {"name": "perfbench_layers"}})
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


# ---------------------------------------------------------------- tools

def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / \
        "perfbench"


def build(jobs):
    """Configure (once) and build the optimized tools; returns their paths."""
    bdir = build_dir()
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", str(jobs)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(step)}")
    return {name: bdir / name
            for name in ("dirsim_sweep", "dirsim_serve", "perfbench_layers")}


def clean_env():
    """The children's environment: every DIRSIM_* variable cleared, so a
    leaked cell cache, shard count, decode mode or job count cannot
    change what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("DIRSIM_")}


@dataclasses.dataclass
class ToolRun:
    code: int
    stdout: str
    wall: float
    rss_mb: float


def run_tool(argv, log_path, env=None):
    """Run a tool to completion: exit code, stdout, wall seconds and the
    child's own peak RSS (wait4), with a hard timeout."""
    start = time.monotonic()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT,
                                stdout=subprocess.PIPE, stderr=log,
                                env=env if env is not None else clean_env())
        timer = threading.Timer(TOOL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ToolRun(proc.returncode, out.decode(), time.monotonic() - start,
                   usage.ru_maxrss / 1024.0)


def checked(run, what):
    if run.code != 0:
        raise BenchError(f"{what} exited with {run.code}")
    return run


# ------------------------------------------------------------ workloads

def grid_spec(workload, files):
    traces = [{"file": str(f)} for f in files]
    if workload == "paper_grid":
        return {"name": workload, "schemes": PAPER_SCHEMES, "traces": traces,
                "block_bytes": [16, 64],
                "geometries": ["infinite",
                               {"capacity_bytes": 65536, "ways": 2}]}
    return {"name": workload, "schemes": SCALING_SCHEMES, "traces": traces}


def expected_cells(workload, files):
    if workload == "paper_grid":
        return len(PAPER_SCHEMES) * len(files) * 4
    return len(SCALING_SCHEMES) * len(files)


def serve_spec(k, files):
    """Spec k of serve_mixed: the 4 paper schemes on one pool trace. The
    warm-up count makes every k a distinct cell-cache key while the
    simulated work stays that of the whole trace."""
    return {"name": f"mix-{k}", "schemes": SERVE_SCHEMES,
            "traces": [{"file": str(files[k % len(files)])}],
            "warmup_refs": k // len(files)}


class Context:
    """One benchmark run: its options, tools, directories and checks."""

    def __init__(self, args):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = args.trace == 1
        self.size = args.size
        self.refs = SIZES[args.size][args.workload]["refs"]
        self.pool = SIZES[args.size][args.workload]["pool"]
        self.nproc = os.cpu_count() or 1
        self.out = ROOT / ".bench_out" / \
            f"{self.workload}-{self.size}-s{self.seed}-t{args.trace}"
        self.spans = Spans(self.traced)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.notes = {}

    def fail(self, count, problem):
        self.failed += count
        if problem not in self.problems:
            self.problems.append(problem)

    def log(self):
        return self.out / "tools.log"

    def setup_traces(self):
        """Generate and write the workload's traces SETUP_REPS times;
        returns the files and the median seconds of one set-up."""
        run = checked(run_tool(
            [self.tools["perfbench_layers"], "gen", self.workload, self.seed,
             self.refs, self.pool, SETUP_REPS, self.out / "traces"],
            self.log()), "trace generation")
        gen = json.loads(run.stdout)
        per_rep = [r["gen_s"] + r["write_s"] for r in gen["reps"]]
        return [Path(f) for f in gen["files"]], median(per_rep)


# --------------------------------------------------------------- grids

def grid_once(ctx, spec_path, jobs, tag):
    """One spec-in to tables-out pass: dirsim_sweep run on a fresh output
    directory (a cold cell cache), then dirsim_sweep report."""
    out = ctx.out / f"sweep-{tag}"
    shutil.rmtree(out, ignore_errors=True)
    sweep = ctx.tools["dirsim_sweep"]
    with ctx.spans.span(f"dirsim_sweep run jobs={jobs}", "sweep"):
        run = run_tool([sweep, "run", spec_path, "--out", out,
                        "--jobs", jobs], ctx.log())
    with ctx.spans.span("dirsim_sweep report", "obs"):
        report = run_tool([sweep, "report", out], ctx.log())
    if run.code != 0 or report.code != 0 or not report.stdout.strip():
        raise BenchError(f"dirsim_sweep failed (run {run.code}, "
                         f"report {report.code})")
    text = (out / "results.jsonl").read_text()
    metrics = results_metrics(text)
    return {"wall": run.wall + report.wall, "rss_mb": run.rss_mb,
            "cells": canonical_cells(text), "report": report.stdout,
            "refs": metric_value(metrics, "runner.grid.simulated_refs"),
            "hits": metric_value(metrics, "runner.cache.hits")}


def grid_rep(ctx, spec_path, expected, committed, tag):
    """jobs=nproc then jobs=1, with the correctness gate on the pair."""
    nt = grid_once(ctx, spec_path, ctx.nproc, f"{tag}-nt")
    one = grid_once(ctx, spec_path, 1, f"{tag}-1t")
    ctx.attempted += 2
    problems = gate_grid(nt["cells"], one["cells"], expected, committed)
    if nt["report"] != one["report"]:
        problems.append("reports differ between jobs=1 and jobs=nproc")
    if nt["hits"] or one["hits"]:
        problems.append("a cold-cache grid run replayed cached cells")
    if problems:
        ctx.fail(2, "; ".join(problems))
    return nt, one


def run_grid(ctx):
    files, setup_s = ctx.setup_traces()
    spec_path = ctx.out / "spec.json"
    spec_path.write_text(json.dumps(grid_spec(ctx.workload, files)))
    expected = expected_cells(ctx.workload, files)
    committed = committed_digest(ctx.workload, ctx.refs, ctx.seed)
    ctx.notes["digest"] = "committed" if committed else \
        "no committed digest for this seed and size"

    # One untimed pass first, so every measured pass finds the tools
    # and traces in the page cache.
    grid_once(ctx, spec_path, ctx.nproc, "warmup")
    if ctx.traced:
        return traced_grid(ctx, spec_path, expected, committed, files)

    reps = []
    start = time.monotonic()
    deadline = start + ctx.seconds
    while not reps or time.monotonic() < deadline:
        reps.append(grid_rep(ctx, spec_path, expected, committed,
                             f"r{len(reps)}"))
    loop_wall = time.monotonic() - start
    walls_nt = [nt["wall"] for nt, _ in reps]
    t5 = table5_rel_err(reps[0][0]["cells"]) \
        if ctx.workload == "paper_grid" else None
    if t5 is not None:
        ctx.notes["table5_rel_err"] = t5
    ctx.notes["samples"] = len(reps)
    ctx.notes["walls_nt"] = [round(nt["wall"], 4) for nt, _ in reps]
    ctx.notes["walls_1t"] = [round(one["wall"], 4) for _, one in reps]
    return {
        "setup_s": setup_s,
        "refs_per_s": median([nt["refs"] / nt["wall"] for nt, _ in reps]),
        "refs_per_s_1t": median([one["refs"] / one["wall"]
                                 for _, one in reps]),
        "peak_rss_mb": median([nt["rss_mb"] for nt, _ in reps]),
        "latency_p50_s": median(walls_nt),
        "latency_p90_s": percentile(walls_nt, 90),
        "runs_per_s": 2 * len(reps) / loop_wall,
    }


# --------------------------------------------------------------- daemon

class Daemon:
    """A fresh dirsim_serve on an ephemeral port with its own cache."""

    def __init__(self, ctx, tag):
        cache = ctx.out / f"cells-{tag}"
        shutil.rmtree(cache, ignore_errors=True)
        env = clean_env()
        env["DIRSIM_CACHE_DIR"] = str(cache)
        start = time.monotonic()
        self.log = open(ctx.log(), "ab")
        self.proc = subprocess.Popen(
            [str(ctx.tools["dirsim_serve"]), "--port", "0",
             "--jobs", str(ctx.nproc)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self.log)
        line = b""
        limit = start + 30
        while not line.endswith(b"\n"):
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, limit - time.monotonic()))
            chunk = os.read(self.proc.stdout.fileno(), 1) if ready else b""
            if not chunk:
                self.kill()
                raise BenchError("dirsim_serve did not report listening")
            line += chunk
        self.port = int(line.decode().strip().rsplit(":", 1)[1])
        self.start_s = time.monotonic() - start

    def proc_status(self):
        status = {}
        with open(f"/proc/{self.proc.pid}/status") as f:
            for row in f:
                key, _, value = row.partition(":")
                if key in ("VmHWM", "VmSize"):
                    status[key] = int(value.split()[0]) / 1024.0
        return status

    def stop(self):
        try:
            http_request(self.port, "POST", "/shutdown", timeout=10)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
        self.proc.stdout.close()
        self.log.close()

    def kill(self):
        self.proc.kill()
        self.proc.wait()


def http_request(port, method, path, body=None, client=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"X-Dirsim-Client": client} if client else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def serve_run(ctx, port, spec_text, client, tid, want_trace):
    """Submit one spec, wait on its event stream, fetch its artifacts."""
    res = {"ok": False, "connections": 0}
    t0 = time.monotonic()
    with ctx.spans.span("serve POST /runs", "serve", tid):
        status, body = http_request(port, "POST", "/runs", spec_text, client)
    res["connections"] += 1
    res["submit_s"] = time.monotonic() - t0
    if status != 202:
        res["error"] = f"POST /runs -> {status}"
        return res
    run_id = json.loads(body)["id"]
    with ctx.spans.span("serve GET events", "serve", tid):
        status, body = http_request(port, "GET", f"/runs/{run_id}/events")
    res["connections"] += 1
    states = [json.loads(line).get("state") for line in body.splitlines()
              if b'"kind":"state"' in line]
    if status != 200 or not states or states[-1] != "done":
        res["error"] = f"run {run_id} ended {states[-1:] or status}"
        return res
    t2 = time.monotonic()
    with ctx.spans.span("serve GET artifacts", "serve", tid):
        status, body = http_request(port, "GET",
                                    f"/runs/{run_id}/artifacts")
    res["connections"] += 1
    t3 = time.monotonic()
    if status != 200:
        res["error"] = f"GET artifacts -> {status}"
        return res
    res["fetch_s"] = t3 - t2
    res["latency_s"] = t3 - t0
    text = body.decode()
    metrics = results_metrics(text)
    res["cells"] = canonical_cells(text)
    res["refs"] = metric_value(metrics, "runner.grid.simulated_refs")
    res["hits"] = metric_value(metrics, "runner.cache.hits")
    res["misses"] = metric_value(metrics, "runner.cache.misses")
    if want_trace:
        with ctx.spans.span("serve GET trace", "serve", tid):
            status, body = http_request(port, "GET", f"/runs/{run_id}/trace")
        res["connections"] += 1
        if status != 200:
            res["error"] = f"GET trace -> {status}"
            return res
        for event in json.loads(body)["traceEvents"]:
            if event.get("name") == "queue-wait":
                res["queue_wait_s"] = event["dur"] * 1e-6
            elif event.get("cat") == "run":
                res["run_s"] = event["dur"] * 1e-6
    res["ok"] = True
    return res


def closed_loop(ctx, daemon, files, seconds, want_trace):
    """nproc client threads, one request in flight each, submitting back
    to back until the deadline: about half repeat a finished spec (cell
    cache hits), the rest are new specs."""
    lock = threading.Lock()
    done_specs = []
    counter = [0]
    runs = []
    start = time.monotonic()
    deadline = start + seconds

    def client(index):
        rng = random.Random(ctx.seed * 7919 + index)
        while time.monotonic() < deadline:
            with lock:
                if done_specs and rng.random() < 0.5:
                    k, hit = rng.choice(done_specs), True
                else:
                    k, hit = counter[0], False
                    counter[0] += 1
            spec = json.dumps(serve_spec(k, files))
            try:
                res = serve_run(ctx, daemon.port, spec, f"client{index}",
                                index + 1, want_trace)
            except (OSError, http.client.HTTPException, ValueError) as e:
                res = {"ok": False, "connections": 1, "error": repr(e)}
            res.update(k=k, hit=hit, end=time.monotonic())
            with lock:
                runs.append(res)
                if res["ok"] and not hit:
                    done_specs.append(k)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(ctx.nproc)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = max(r["end"] for r in runs) - start
    return runs, wall


def check_served(ctx, runs, files):
    """Run every served spec locally (dirsim_sweep, jobs=1) and gate the
    served runs against those records. Returns the local runs' simulated
    refs and seconds."""
    local = {}
    refs = 0
    seconds = 0.0
    for k in sorted({r["k"] for r in runs if r["ok"]}):
        spec_path = ctx.out / f"local-{k}.json"
        spec_path.write_text(json.dumps(serve_spec(k, files)))
        out = ctx.out / "local"
        shutil.rmtree(out, ignore_errors=True)
        with ctx.spans.span("dirsim_sweep run jobs=1 (reference)", "sweep"):
            run = checked(run_tool([ctx.tools["dirsim_sweep"], "run",
                                    spec_path, "--out", out, "--jobs", 1],
                                   ctx.log()), "local dirsim_sweep")
        text = (out / "results.jsonl").read_text()
        local[k] = canonical_cells(text)
        refs += metric_value(results_metrics(text),
                             "runner.grid.simulated_refs")
        seconds += run.wall
    gate_served(ctx, runs, local)
    return refs, seconds


def gate_served(ctx, runs, local):
    """Every served run reached done over 2xx responses, returned the
    records of the local run of its spec, and simulated nothing when it
    repeated a finished spec."""
    for r in runs:
        ctx.attempted += 1
        if not r["ok"]:
            ctx.fail(1, r.get("error", "request failed"))
        elif not r["cells"] or r["cells"] != local[r["k"]]:
            ctx.fail(1, "served records differ from the local run")
        elif r["hit"] and r["refs"] != 0:
            ctx.fail(1, "a cache-hit run simulated references")


def serve_setup(ctx):
    files, gen_s = ctx.setup_traces()
    starts = []
    for rep in range(SETUP_REPS - 1):
        daemon = Daemon(ctx, f"setup{rep}")
        starts.append(daemon.start_s)
        daemon.stop()
    daemon = Daemon(ctx, "load")
    starts.append(daemon.start_s)
    return files, gen_s + median(starts), daemon


def serve_load_metrics(runs, wall):
    good = [r for r in runs if r["ok"]]
    # A failed run misses every latency limit: it counts as taking the
    # whole load window.
    latencies = [r["latency_s"] for r in good] + \
        [wall] * (len(runs) - len(good))
    return {
        "refs_per_s": sum(r["refs"] for r in good) / wall,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "runs_per_s": len(good) / wall,
    }


def run_serve(ctx):
    files, setup_s, daemon = serve_setup(ctx)
    if ctx.traced:
        daemon.stop()
        return traced_serve(ctx, files)
    try:
        runs, wall = closed_loop(ctx, daemon, files, ctx.seconds, False)
        status = daemon.proc_status()
    finally:
        daemon.stop()
    refs_1t, seconds_1t = check_served(ctx, runs, files)
    metrics = {"setup_s": setup_s}
    metrics.update(serve_load_metrics(runs, wall))
    metrics["refs_per_s_1t"] = refs_1t / seconds_1t
    metrics["peak_rss_mb"] = status["VmHWM"]
    ctx.notes["samples"] = len(runs)
    ctx.notes["hits"] = sum(1 for r in runs if r["hit"])
    if not supported(len(runs), 90):
        ctx.notes["warning"] = (f"{len(runs)} runs leave fewer than 10 "
                                "samples above p90")
    return metrics


# -------------------------------------------------------------- traced

def serve_ledger(runs, status):
    good = [r for r in runs if r["ok"]]
    hits = sum(r["hits"] for r in good)
    misses = sum(r["misses"] for r in good)
    return {
        "serve.submit_s_p50": median([r["submit_s"] for r in good]),
        "serve.queue_wait_s_p50": percentile(
            [r["queue_wait_s"] for r in good], 50),
        "serve.queue_wait_s_p90": percentile(
            [r["queue_wait_s"] for r in good], 90),
        "serve.run_s_p50": percentile([r["run_s"] for r in good], 50),
        "serve.run_s_p90": percentile([r["run_s"] for r in good], 90),
        "serve.fetch_s_p50": median([r["fetch_s"] for r in good]),
        "serve.connections": sum(r["connections"] for r in runs),
        "serve.vsz_mb": status["VmSize"],
        "obs.cell_cache.hit_frac": hits / max(1, hits + misses),
    }


def layer_run(ctx, spec_path, files):
    """The harness's traced layer calls on this workload's inputs."""
    out_json = ctx.out / "layers.json"
    with ctx.spans.span("perfbench_layers", "bench"):
        checked(run_tool([ctx.tools["perfbench_layers"], "layers",
                          ctx.workload, ctx.seed, ctx.refs, ctx.pool,
                          ctx.out / "layers", spec_path, ctx.nproc,
                          out_json], ctx.log()), "perfbench_layers layers")
    data = json.loads(out_json.read_text())
    for span in data["spans"]:
        span["src"] = "cc"
    return data["metrics"], data["spans"]


def finish_trace(ctx, ledger, cc_spans):
    """Self times over every span, the Chrome trace, and the ledger."""
    offset = len(ctx.spans.spans)
    for span in cc_spans:
        if span["parent"] >= 0:
            span["parent"] += offset
    spans = ctx.spans.spans + cc_spans
    selfs = self_times(spans)
    for layer in ("tracegen", "trace", "sim", "protocols", "obs", "sweep",
                  "serve"):
        ledger[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    write_chrome_trace(ctx.out / "trace.json", spans)
    (ctx.out / "ledger.json").write_text(json.dumps(
        {"metrics": ledger, "self_s": selfs}, indent=1, sort_keys=True))
    return ledger


def traced_grid(ctx, spec_path, expected, committed, files):
    # Tracing overhead: one untraced and one traced jobs=nproc pass.
    ctx.spans.enabled = False
    plain = grid_once(ctx, spec_path, ctx.nproc, "plain")
    ctx.spans.enabled = True
    with ctx.spans.span("grid rep (traced)", "bench"):
        nt, _ = grid_rep(ctx, spec_path, expected, committed, "traced")
    ledger, cc_spans = layer_run(ctx, spec_path, files)
    ledger["bench.tracing_overhead_frac"] = nt["wall"] / plain["wall"] - 1

    # The daemon leg of a grid: its spec served twice by one client,
    # cold then from the daemon's cell cache.
    daemon = Daemon(ctx, "leg")
    try:
        spec_text = spec_path.read_text()
        runs = []
        for attempt in range(2):
            res = serve_run(ctx, daemon.port, spec_text, "grid", 1, True)
            res.update(k=0, hit=attempt == 1)
            runs.append(res)
        status = daemon.proc_status()
    finally:
        daemon.stop()
    gate_served(ctx, runs, {0: nt["cells"]})
    if all(r["ok"] for r in runs):
        ledger.update(serve_ledger(runs, status))
    return finish_trace(ctx, ledger, cc_spans)


def traced_serve(ctx, files):
    half = max(1.0, ctx.seconds / 2)
    ctx.spans.enabled = False
    daemon = Daemon(ctx, "plain")
    try:
        plain_runs, plain_wall = closed_loop(ctx, daemon, files, half, False)
    finally:
        daemon.stop()
    ctx.spans.enabled = True
    daemon = Daemon(ctx, "traced")
    try:
        with ctx.spans.span("closed loop (traced)", "bench"):
            runs, wall = closed_loop(ctx, daemon, files, half, True)
        status = daemon.proc_status()
    finally:
        daemon.stop()
    check_served(ctx, plain_runs + runs, files)
    spec_path = ctx.out / "spec.json"
    spec_path.write_text(json.dumps(
        {"name": "serve_pool", "schemes": SERVE_SCHEMES,
         "traces": [{"file": str(f)} for f in files]}))
    ledger, cc_spans = layer_run(ctx, spec_path, files)
    plain_rate = serve_load_metrics(plain_runs, plain_wall)["runs_per_s"]
    traced_rate = serve_load_metrics(runs, wall)["runs_per_s"]
    ledger["bench.tracing_overhead_frac"] = plain_rate / traced_rate - 1
    if all(r["ok"] for r in runs):
        ledger.update(serve_ledger(runs, status))
    return finish_trace(ctx, ledger, cc_spans)


# ---------------------------------------------------------------- main

def provenance(ctx):
    info = json.loads(run_tool([ctx.tools["perfbench_layers"], "info"],
                               ctx.log()).stdout)
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or "unknown"
    return {
        "build_type": info["build_type"], "compiler": info["compiler"],
        "optimized": info["optimized"], "nproc": ctx.nproc,
        "jobs": ctx.nproc, "commit": commit, "seed": ctx.seed,
        "workload": ctx.workload, "size": ctx.size, "refs": ctx.refs,
        "pool": ctx.pool,
        "seconds": ctx.seconds, "trace": int(ctx.traced),
        "dirsim_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith("DIRSIM_")},
    }


def metric_specs(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(SIZES), default="full",
                        help="input size; tiny is for the benchmark's tests")
    args = parser.parse_args(argv)

    ctx = Context(args)
    shutil.rmtree(ctx.out, ignore_errors=True)
    ctx.out.mkdir(parents=True)
    ctx.tools = build(ctx.nproc)
    record = {"provenance": provenance(ctx)}
    if not record["provenance"]["optimized"]:
        raise BenchError("refusing to measure an unoptimized build")

    if ctx.workload == "serve_mixed":
        values = run_serve(ctx)
    else:
        values = run_grid(ctx)

    specs = metric_specs(ctx.traced)
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        ctx.fail(0, "metrics not measured: " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in specs if m["name"] in values}
    correct = not ctx.problems and not missing
    record.update(correct=correct, attempted=ctx.attempted,
                  failed=ctx.failed, problems=ctx.problems,
                  notes=ctx.notes, metrics=metrics,
                  failed_frac=ctx.failed / max(1, ctx.attempted))
    records = ROOT / ".bench_out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{ctx.out.name}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    for name, metric in metrics.items():
        print(f"{ctx.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{ctx.workload} failed_frac = {record['failed_frac']:.6g} "
          f"({ctx.failed}/{ctx.attempted})")
    for key, value in ctx.notes.items():
        print(f"{ctx.workload} note {key}: {value}")
    for problem in ctx.problems:
        print(f"{ctx.workload} CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
