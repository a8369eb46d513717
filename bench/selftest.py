"""Self-test of the benchmark harness at small sizes.

Run from anywhere:  python3 bench/selftest.py

It runs every workload once untraced and once traced at the "small" sizes,
checks that the result carries exactly the metrics BENCHMARK.json declares,
that self times exclude the tracer's own cost, that the output checks catch
corrupted outputs, and that the harness refuses to run in a directory
without the sources.  Takes about a minute.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def setUpModule():
    os.chdir(ROOT)


def quiet_run(*args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        result = run.run(*args, size="small", **kwargs)
    return result, out.getvalue()


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.declared = json.load(fh)

    def names(self, key):
        return {m["name"] for m in self.declared[key]}

    def test_benchmark_json_names_the_workloads_the_harness_runs(self):
        self.assertEqual([w["name"] for w in self.declared["workloads"]],
                         list(workloads.SIZES["full"]))
        self.assertEqual(self.declared["command"], ["python3", "bench/run.py"])
        self.assertIn("setup_s", self.names("end_to_end"))

    def test_every_workload_reports_the_end_to_end_metrics(self):
        for name in workloads.SIZES["small"]:
            with self.subTest(workload=name):
                result, text = quiet_run(name, 3, 0, False)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], text)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), self.names("end_to_end"))
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertIn("error_rate          0 ", text)

    def test_traced_run_reports_every_layer_metric(self):
        result, text = quiet_run("campaign-narrow", 3, 0, True)
        self.assertTrue(result["correct"], text)
        self.assertEqual(set(result["metrics"]), self.names("per_layer"))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertGreater(metrics["exprs.calls"], 0)
        self.assertGreater(metrics["hybrid_sim.simulate_batch_s"],
                           metrics["hybrid_sim.simulate_batch_self_s"])
        self.assertEqual(metrics["resilience.candidates"], 0)

        result, text = quiet_run("certify", 3, 0, True)
        self.assertTrue(result["correct"], text)
        self.assertGreater(result["metrics"]["resilience.candidates"]["value"], 0)
        self.assertGreater(result["metrics"]["oracle.points"]["value"], 0)
        self.assertRegex(text, r"verdict S1 (PASS|FAIL)")

    def test_self_time_excludes_the_tracer_cost_per_child(self):
        tracer = tracing.Tracer()
        expr = tracer._wrap(tracing.EXPR_CALL, lambda: None)
        tracer._wrap("cli.main", lambda n: [expr() for _ in range(n)])(1000)
        cost = tracing.span_cost(calls=2000, rounds=3)
        self.assertGreater(cost, 0)
        plain, corrected = tracer.layer_metrics(0.0), tracer.layer_metrics(cost)
        self.assertAlmostEqual(plain["cli.self_s"] - corrected["cli.self_s"], 1000 * cost)
        self.assertEqual(plain["exprs.self_s"], corrected["exprs.self_s"])
        self.assertEqual(corrected["trace.span_cost_us"], cost * 1e6)

    def test_checks_catch_corrupted_campaign_outputs(self):
        wl = workloads.build("campaign-wide", 5, run.WORK_DIR, "small")
        shutil.rmtree(wl.out_dir, ignore_errors=True)
        os.makedirs(wl.out_dir)
        rep = run.run_child(run.child_spec(wl, [argv for _, argv in wl.commands]))
        self.assertEqual(workloads.check(wl, rep["commands"]), {})
        before = workloads.digest(wl, rep["commands"])

        summary_path = os.path.join(wl.out_dir, "sim", "summary.json")
        with open(summary_path) as fh:
            summary = json.load(fh)
        summary["safe_count"] -= 1
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
        self.assertIn("sim_run", workloads.check(wl, rep["commands"]))
        self.assertNotEqual(workloads.digest(wl, rep["commands"]), before)

        trace_path = os.path.join(wl.out_dir, "sim", "trace_000.csv")
        with open(trace_path) as fh:
            lines = fh.readlines()
        with open(trace_path, "w") as fh:
            fh.writelines(lines[:-1])
        problems = workloads.check(wl, rep["commands"])["sim_run"]
        self.assertTrue(any("rows" in p for p in problems), problems)
        shutil.rmtree(wl.out_dir)

    def test_usage_errors_count_as_failed_commands(self):
        wl = workloads.build("certify", 1, run.WORK_DIR, "small")
        commands = [{"argv": argv, "code": 2, "raised": None, "stdout": "",
                     "stderr": "error: model file not found"} for _, argv in wl.commands]
        self.assertEqual(set(workloads.check(wl, commands)),
                         {"index_compute", "net_propagate", "net_verify"})

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(ROOT, run.WORK_DIR, "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
