"""Self-tests of the benchmark, at one group per workload (about a minute).

    python3 perfbench/selftest.py

They check that every metric BENCHMARK.json names is emitted with its unit,
that an injected fault turns into failed verdicts without a crash, that the
operation counts repeat exactly, that the tracer and the unit timer restore
every binding, that host-speed rescaling takes the probes out and scales by
their speed, and that the benchmark refuses to run without the grouplie
sources.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from run import harrell_davis_median  # noqa: E402
from tracer import COUNTERS, Tracer, layer_metric_names  # noqa: E402
from workloads import WORKLOADS, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, seed: int = 1, cwd: Path = ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_per_layer_list_matches_the_tracer(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        self.assertEqual(names, layer_metric_names() + ["trace.overhead"])

    def test_bounds_and_setup_metric(self):
        e2e = {m["name"]: m for m in SPEC["end_to_end"]}
        self.assertEqual((e2e["setup_s"]["unit"], e2e["setup_s"]["better"]), ("s", "lower"))
        bounds = [m["bound"] for m in SPEC["end_to_end"]]
        self.assertTrue(all(0 < b <= 0.25 for b in bounds))
        self.assertEqual(e2e["setup_s"]["bound"], max(bounds))

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), WORKLOADS)


class Runs(unittest.TestCase):
    def check_metrics(self, result: dict, expected: list[dict]):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        got = result["metrics"]
        self.assertEqual(list(got), [m["name"] for m in expected])
        for m in expected:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench(workload, 0))
                self.check_metrics(result, SPEC["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_runs_emit_every_layer_metric_and_repeat_counts(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first = result_of(bench(workload, 1))
                second = result_of(bench(workload, 1))
                self.check_metrics(first, SPEC["per_layer"])
                self.assertTrue(first["correct"] and second["correct"])
                counts = [n for n in first["metrics"] if n.endswith(".calls")]
                self.assertGreaterEqual(len(counts), len(COUNTERS))
                for name in counts:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)
                self.assertGreater(first["metrics"]["cyclo.mul.calls"]["value"], 0)

    def test_spans_are_written_with_parent_links(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.json"
            result = result_of(bench("suite-small", 1, "--spans", str(path)))
            doc = json.loads(path.read_text())
        spans = doc["spans"]
        calls = sum(v["value"] for k, v in result["metrics"].items()
                    if k.endswith(".calls") and not k.startswith("cyclo."))
        self.assertEqual(len(spans), calls)
        for sid, (name, parent, start, dur) in enumerate(spans):
            self.assertLess(parent, sid)
            if parent >= 0:
                p_start, p_dur = spans[parent][2], spans[parent][3]
                self.assertGreaterEqual(start, p_start)
                self.assertLessEqual(start + dur, p_start + p_dur + 1.0)
        roots = {doc["names"][name] for name, parent, _, _ in spans if parent < 0}
        self.assertIn("verify.run_suite", roots)

    def test_injected_fault_fails_verdicts_without_crashing(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(bench(workload, 0, "--fault", "swap-table"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("tables", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


class Rescaling(unittest.TestCase):
    def test_probes_are_taken_out_and_time_is_scaled_by_their_speed(self):
        sampler = speed.SpeedSampler()
        ref = speed.REFERENCE_S
        # A host at half speed: every probe takes twice the reference time.
        sampler.start_s = [0.1 * i for i in range(40)]
        sampler.wall_s = [2 * ref] * 40
        sampler.cpu_s = [2 * ref] * 40
        wall, cpu = sampler.rescale(1.05, 1.25, 0.2, 0.2)
        self.assertAlmostEqual(wall, (0.2 - 4 * ref) / 2)
        self.assertAlmostEqual(cpu, (0.2 - 4 * ref) / 2)

    def test_sampler_restores_the_alarm_handler(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = speed.SpeedSampler()
        sampler.start()
        sampler.stop()
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertEqual(len(sampler.wall_s), 1)

    def test_harrell_davis_median(self):
        self.assertEqual(harrell_davis_median([5.0]), 5.0)
        self.assertAlmostEqual(harrell_davis_median([3.0, 1.0, 2.0]), 2.0)
        self.assertAlmostEqual(harrell_davis_median([4.0] * 7), 4.0)
        self.assertAlmostEqual(harrell_davis_median([5.0, 1.0, 4.0, 2.0, 3.0]), 3.0)
        # Two clusters with a gap at the middle: the estimate lands inside it.
        self.assertTrue(2.0 < harrell_davis_median([1.0, 1.5, 2.0, 9.0, 9.5, 10.0]) < 9.0)


class TracerBindings(unittest.TestCase):
    def test_suite_pass_times_every_theorem_and_restores_the_binding(self):
        sys.path.insert(0, str(ROOT / "src"))
        from grouplie import verify

        before = verify.verify_theorem
        result = run_pass("suite-small", 0, tiny=True)
        self.assertIs(verify.verify_theorem, before)
        self.assertEqual(len(result.units), len(result.reports))
        self.assertTrue(all(a < b for a, b in result.units))

    def test_install_wraps_every_importer_and_uninstall_restores(self):
        sys.path.insert(0, str(ROOT / "src"))
        import grouplie
        from grouplie import chartable, cyclo, linalg, verify

        before = (chartable.character_table, verify.character_table,
                  grouplie.character_table, linalg.RowSpace.contains,
                  vars(cyclo.CycloScalar)["__mul__"], vars(cyclo.CycloScalar)["__rmul__"])
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(verify.character_table, before[0])
            self.assertIs(verify.character_table, chartable.character_table)
            self.assertIs(grouplie.character_table, chartable.character_table)
            self.assertIsNot(linalg.RowSpace.contains, before[3])
            table = verify.character_table(grouplie.catalog("symmetric", 3))
            metrics = tracer.layer_metrics()
            self.assertEqual(metrics["chartable.character_table.calls"], 1)
            self.assertEqual(metrics["chartable.class_constants.calls"], 1)
            self.assertGreater(metrics["cyclo.mul.calls"], 0)
            self.assertEqual(table.num_irreps, 3)
        finally:
            tracer.uninstall()
        after = (chartable.character_table, verify.character_table,
                 grouplie.character_table, linalg.RowSpace.contains,
                 vars(cyclo.CycloScalar)["__mul__"], vars(cyclo.CycloScalar)["__rmul__"])
        for a, b in zip(before, after):
            self.assertIs(a, b)


if __name__ == "__main__":
    unittest.main(verbosity=2)
