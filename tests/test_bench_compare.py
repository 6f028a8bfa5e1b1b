"""Tests for tools/bench_compare.py on google-benchmark JSON.

A run recorded with --benchmark_repetitions is gated on its median rows
only, the --normalize-by reference included; mean, stddev and cv rows
are not times. A file of single readings is compared row by row.
Everything runs against synthetic files; no bench binaries needed.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"


def iteration(name, cpu_time):
    return {"name": name, "run_name": name, "run_type": "iteration",
            "cpu_time": cpu_time}


def aggregate(name, kind, cpu_time):
    return {"name": f"{name}_{kind}", "run_name": name,
            "run_type": "aggregate", "aggregate_name": kind,
            "cpu_time": cpu_time}


def repeated(times):
    """Aggregate rows for {name: (median, mean, stddev)}."""
    rows = []
    for name, (median, mean, stddev) in times.items():
        rows += [aggregate(name, "mean", mean),
                 aggregate(name, "median", median),
                 aggregate(name, "stddev", stddev),
                 aggregate(name, "cv", stddev / mean)]
    return {"benchmarks": rows}


class BenchCompareGoogleBenchmark(unittest.TestCase):
    def compare(self, base, cur):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for label, doc in (("base", base), ("cur", cur)):
                path = Path(tmp) / f"{label}.json"
                path.write_text(json.dumps(doc), encoding="utf-8")
                paths.append(str(path))
            proc = subprocess.run(
                [sys.executable, str(TOOL), *paths, "--normalize-by",
                 "BM_Ref", "--rel-tol", "0.30", "--min-time", "0"],
                capture_output=True, text=True)
        return proc.returncode, proc.stderr + proc.stdout

    def test_medians_within_tolerance_pass_despite_slow_means(self):
        base = repeated({"BM_Ref": (10.0, 10.0, 0.1),
                         "BM_Hot": (50.0, 50.0, 1.0)})
        cur = repeated({"BM_Ref": (10.0, 30.0, 9.0),
                        "BM_Hot": (55.0, 200.0, 90.0)})
        code, out = self.compare(base, cur)
        self.assertEqual(code, 0, out)
        self.assertIn("1 timing leaves compared", out)

    def test_slow_median_fails(self):
        base = repeated({"BM_Ref": (10.0, 10.0, 0.1),
                         "BM_Hot": (50.0, 50.0, 1.0)})
        cur = repeated({"BM_Ref": (10.0, 10.0, 0.1),
                        "BM_Hot": (70.0, 50.0, 1.0)})
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("benchmarks.BM_Hot.cpu_time: slowed", out)

    def test_normalizer_is_its_median(self):
        # Twice as slow a host: every median doubles, so the ratio holds.
        base = repeated({"BM_Ref": (10.0, 10.0, 0.1),
                         "BM_Hot": (50.0, 50.0, 1.0)})
        cur = repeated({"BM_Ref": (20.0, 5.0, 0.1),
                        "BM_Hot": (100.0, 100.0, 1.0)})
        code, out = self.compare(base, cur)
        self.assertEqual(code, 0, out)

    def test_single_readings_compare_row_by_row(self):
        base = {"benchmarks": [iteration("BM_Ref", 10.0),
                               iteration("BM_Hot", 50.0),
                               aggregate("BM_Ref", "BigO", 1.0)]}
        cur = {"benchmarks": [iteration("BM_Ref", 10.0),
                              iteration("BM_Hot", 80.0),
                              aggregate("BM_Ref", "BigO", 1.0)]}
        code, out = self.compare(base, cur)
        self.assertEqual(code, 1, out)
        self.assertIn("benchmarks.BM_Hot.cpu_time: slowed", out)


if __name__ == "__main__":
    unittest.main()
