"""Self-test of the benchmark itself (stdlib unittest, about a minute).

    python3 bench/selftest.py

Runs every workload at its tiny size and checks the result contract:
each end-to-end and per-layer metric is printed with the unit that
BENCHMARK.json declares, every job passes its correctness check, a
corrupted expectation and a job that raises each count as a failed job,
two traced runs repeat every work counter exactly, and the benchmark
refuses to run where the tripos sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
                          "--tiny"], capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class SelfTest(unittest.TestCase):
    def test_declared_metrics_match_the_code(self):
        self.assertEqual([w["name"] for w in DECLARED["workloads"]], list(workloads.WORKLOADS))
        for key, table in (("end_to_end", run.E2E), ("per_layer", run.PER_LAYER)):
            self.assertEqual([(m["name"], m["unit"]) for m in DECLARED[key]], table)

    def test_tiny_runs_emit_every_metric_and_no_errors(self):
        for workload in workloads.WORKLOADS:
            for trace, table in ((0, run.E2E), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)  # job_error_rate = 0
                    self.assertGreaterEqual(result["attempted"], 100)
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                                     dict(table))

    def test_corrupted_expectation_is_a_failed_job(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            work = Path(tmp)
            jobs = workloads.build("tp-minors", 3, work, tiny=True)
            run.write_jobs(jobs, work)
            passes = [run.run_pass(work, None)]
            self.assertEqual(run.verify(jobs, passes), (len(jobs), 0))
            cli = next(j for j in jobs if "argv" in j and j["expect"][0].get("verdict"))
            cli["code"] = 1 - cli["code"]
            lib = next(j for j in jobs if "call" in j)
            right = lib["ref"]
            lib["ref"] = lambda: [{**right()[0], "witness": {"rows": [0], "cols": [0], "minor": -1}}]
            self.assertEqual(run.verify(jobs, passes), (len(jobs), 2))
            raising = {"label": "raises", "call": "is_tp_r", "args": [[[1]], 0], "code": None,
                       "expect": [{"verdict": "holds"}], "ref": None, "files": []}
            run.write_jobs([raising], work)
            self.assertEqual(run.verify([raising], [run.run_pass(work, None)]), (1, 1))

    def test_traced_counters_repeat(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = bench(workload, 1), bench(workload, 1)
                counts = [m["name"] for m in DECLARED["per_layer"]
                          if m["unit"] in ("count", "bits", "bytes")]
                self.assertEqual({k: first["metrics"][k]["value"] for k in counts},
                                 {k: second["metrics"][k]["value"] for k in counts})

    def test_refuses_to_run_without_the_sources(self):
        run.WORK.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                  "cli-battery", "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=tmp, capture_output=True, text=True, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
