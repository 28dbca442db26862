"""Tests for the dirsim benchmark (perfbench/run.py).

    python3 -m unittest discover -s perfbench/tests -v

The end-to-end cases run every workload at the tiny input size through
the same code path the full benchmark takes (build, set-up, measurement,
correctness gate, result line), untraced and traced.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} exited {done.returncode}:\n"
                             f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile([5.0], 90), 5.0)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)
        self.assertEqual(run.percentile([4, 1, 3, 2], 90), 4)

    def test_unordered_input(self):
        self.assertEqual(run.percentile([9, 1, 5, 3, 7], 50), 5)

    def test_median(self):
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(run.median([]), 0.0)

    def test_ten_samples_beyond_rule(self):
        self.assertEqual(run.samples_beyond(100, 90), 10)
        self.assertTrue(run.supported(100, 90))
        self.assertFalse(run.supported(99, 90))
        self.assertTrue(run.supported(1000, 99))
        self.assertFalse(run.supported(999, 99))
        self.assertTrue(run.supported(20, 50))
        self.assertFalse(run.supported(19, 50))

    def test_empty(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"layer": "a", "start_ns": 0, "end_ns": 100, "parent": -1},
            {"layer": "b", "start_ns": 10, "end_ns": 40, "parent": 0},
            {"layer": "b", "start_ns": 30, "end_ns": 60, "parent": 0},
        ]
        selfs = run.self_times(spans)
        self.assertAlmostEqual(selfs["a"], 50e-9)
        self.assertAlmostEqual(selfs["b"], 60e-9)


class WorkloadTest(unittest.TestCase):
    """Every workload, tiny, end to end, untraced then traced."""

    def check(self, workload, trace, section):
        result = run_bench(workload, trace)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        names = [m["name"] for m in spec[section]]
        self.assertEqual(list(result["metrics"]), names)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_paper_grid(self):
        self.check("paper_grid", 0, "end_to_end")
        self.check("paper_grid", 1, "per_layer")

    def test_scale1024(self):
        self.check("scale1024", 0, "end_to_end")
        self.check("scale1024", 1, "per_layer")

    def test_serve_mixed(self):
        result = self.check("serve_mixed", 0, "end_to_end")
        self.assertGreater(result["metrics"]["runs_per_s"]["value"], 0)
        self.check("serve_mixed", 1, "per_layer")


class GateTest(unittest.TestCase):
    """A mutated cell counter must fail the grid correctness gate."""

    @classmethod
    def setUpClass(cls):
        run_bench("paper_grid", 0)
        out = run.ROOT / ".bench_out" / "paper_grid-tiny-s3-t0"
        cls.text = (out / "sweep-r0-nt" / "results.jsonl").read_text()

    def mutated(self):
        lines = self.text.splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("kind") == "cell":
                record["events"]["rd_miss"] += 1
                lines[i] = json.dumps(record)
                return "\n".join(lines)
        raise AssertionError("no cell record")

    def test_unmutated_passes(self):
        cells = run.canonical_cells(self.text)
        self.assertEqual(run.gate_grid(cells, cells, len(cells),
                                       run.digest(cells)), [])

    def test_mutation_fails_jobs_comparison(self):
        cells = run.canonical_cells(self.text)
        bad = run.canonical_cells(self.mutated())
        problems = run.gate_grid(bad, cells, len(cells), None)
        self.assertIn("cell records differ between jobs=1 and jobs=nproc",
                      problems)

    def test_mutation_fails_committed_digest(self):
        cells = run.canonical_cells(self.text)
        bad = run.canonical_cells(self.mutated())
        problems = run.gate_grid(bad, bad, len(bad), run.digest(cells))
        self.assertEqual(problems,
                         ["cell records do not match the committed digest"])

    def test_timing_fields_are_excluded(self):
        lines = self.text.splitlines()
        retimed = []
        for line in lines:
            record = json.loads(line)
            if record.get("kind") == "cell":
                record["wall_seconds"] += 1.0
                record["phases_ns"]["simulate"] += 5
            retimed.append(json.dumps(record))
        self.assertEqual(run.canonical_cells("\n".join(retimed)),
                         run.canonical_cells(self.text))


if __name__ == "__main__":
    unittest.main()
