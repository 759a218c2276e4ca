#!/usr/bin/env python3
"""Tests for the benchmark's own logic.

    python3 perfbench/test_benchlib.py            # unit tests only
    PERFBENCH_E2E=1 python3 perfbench/test_benchlib.py   # + builds and runs

The end-to-end test builds the harness (as run.py does) and checks that a
wrong digest reference fails the run.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def spans_of(*rows):
    """rows: (start, end[, parent[, layer[, units]]])."""
    spans = benchlib.Spans()
    for row in rows:
        start, end, parent, layer, units = (tuple(row) + (-1, "x", 0.0)[len(row) - 2:])
        spans.append(layer, start, end, parent, 0, units)
    return spans


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # pass [0,100) > a [10,50) > b [20,30); pass > c [60,90)
        spans = spans_of((0, 100), (10, 50, 0), (20, 30, 1), (60, 90, 0))
        self.assertEqual(benchlib.self_times(spans), [30, 30, 10, 30])

    def test_overlapping_children_count_once(self):
        spans = spans_of((0, 100), (10, 40, 0), (30, 60, 0), (35, 45, 0))
        self.assertEqual(benchlib.self_times(spans)[0], 50)

    def test_child_clipped_to_parent(self):
        spans = spans_of((0, 10), (-5, 2, 0), (5, 20, 0))
        self.assertEqual(benchlib.self_times(spans)[0], 3)

    def test_children_out_of_order_are_rejected(self):
        with self.assertRaises(ValueError):
            benchlib.self_times(spans_of((0, 100), (50, 60, 0), (10, 20, 0)))

    def test_per_layer_values_split_the_pass(self):
        # One traced pass of 1000 ns: scores 300 ns (100 samples) inside
        # frontend 500 ns; 200 ns not covered by any layer.
        spans = spans_of((0, 1000, -1, "pass"),
                         (100, 600, 0, "core.ident.frontend", 50),
                         (200, 500, 1, "core.ident.scores", 100))
        passes = [{"id": 0, "wall_s": 1000e-9, "counters": {}}]
        v, tracing = benchlib.per_layer_values(spans, passes, 900e-9, 500e-9)
        self.assertAlmostEqual(v["core.ident.frontend_s"], 200e-9)
        self.assertAlmostEqual(v["core.ident.scores_s"], 300e-9)
        self.assertAlmostEqual(v["core.ident.scores_ns_per_sample"], 3.0)
        self.assertEqual(v["core.ident.scores_calls"], 1)
        self.assertAlmostEqual(v["sim.runner.layer_coverage"], 0.5)
        self.assertAlmostEqual(v["sim.runner.overhead_s"], 500e-9)
        self.assertAlmostEqual(v["sim.runner.parallel_efficiency"], 0.9)
        self.assertAlmostEqual(tracing["trace_overhead_s"], 100e-9)
        self.assertNotIn("trace_overhead_s", " ".join(v))

    def test_calibration_search_excludes_replayed_collection(self):
        # Pass 1000 ns: collection replay 200 ns, then the calibration
        # call 700 ns (its own collection inside it also took ~200 ns).
        spans = spans_of((0, 1000, -1, "pass"),
                         (0, 200, 0, "sim.calibration.collect"),
                         (50, 150, 1, "core.ident.scores", 10),
                         (200, 900, 0, "sim.calibration.run"))
        passes = [{"id": 0, "wall_s": 1000e-9, "counters": {"tuple_evals": 10}}]
        v, _ = benchlib.per_layer_values(spans, passes, 800e-9, 400e-9)
        self.assertAlmostEqual(v["sim.calibration.search_s"], 500e-9)
        self.assertAlmostEqual(v["sim.calibration.collect_s"], 200e-9)
        self.assertAlmostEqual(v["sim.calibration.ns_per_tuple_eval"], 50.0)
        # Pass wall net of the replay is 800 ns; search is 500 of it.
        self.assertAlmostEqual(v["sim.calibration.search_share"], 500 / 800)
        self.assertAlmostEqual(v["sim.runner.layer_coverage"], 700 / 800)

    def test_unused_layers_read_zero(self):
        spans = spans_of((0, 1000, -1, "pass"),
                         (100, 600, 0, "core.tag.run_trace", 50))
        passes = [{"id": 0, "wall_s": 1000e-9, "counters": {}}]
        v, _ = benchlib.per_layer_values(spans, passes, 900e-9, 500e-9)
        self.assertEqual(set(v), {n for n, _ in benchlib.per_layer_metrics()})
        self.assertEqual((v["core.overlay.sync_calls"], v["core.overlay.sync_s"],
                          v["core.overlay.sync_ns_per_sample"],
                          v["sim.runner.cache_hit_ratio"]), (0, 0, 0, 0))
        self.assertAlmostEqual(v["core.tag.ns_per_slot"], 10.0)

    def test_parse_spans(self):
        lines = ["#layers\tsetup\tpass\n", "0\t1\t5\t9\t-1\t3\t2.5\n"]
        s = benchlib.parse_spans(lines)
        self.assertEqual((s.names[s.layer[0]], s.start[0], s.end[0], s.parent[0],
                          s.pass_id[0], s.units[0]), ("pass", 5, 9, -1, 3, 2.5))


class Statistics(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(benchlib.highest_percentile(3))
        self.assertIsNone(benchlib.highest_percentile(19))
        self.assertEqual(benchlib.highest_percentile(20), 50)
        self.assertEqual(benchlib.highest_percentile(100), 90)
        self.assertEqual(benchlib.highest_percentile(1000), 99)

    def test_summarize_reports_median_and_count(self):
        s = benchlib.summarize([3.0, 1.0, 2.0])
        self.assertEqual((s["median"], s["n"], s["percentile"]), (2.0, 3, None))
        s = benchlib.summarize(list(range(1, 101)))
        self.assertEqual((s["n"], s["percentile"], s["percentile_value"]), (100, 90, 90))


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for good in ("sweep_s", "core.overlay.decode_s.ble", "0x", "a-b"):
            self.assertTrue(benchlib.valid_metric_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65):
            self.assertFalse(benchlib.valid_metric_name(bad), bad)
        self.assertTrue(benchlib.valid_unit("ns/sample"))
        self.assertFalse(benchlib.valid_unit("ns per sample"))

    def test_every_reported_metric_is_valid_and_unique(self):
        metrics = benchlib.END_TO_END + benchlib.per_layer_metrics()
        names = [n for n, _ in metrics]
        self.assertEqual(len(names), len(set(names)))
        for name, unit in metrics:
            self.assertTrue(benchlib.valid_metric_name(name), name)
            self.assertTrue(benchlib.valid_unit(unit), unit)

    def test_benchmark_json_matches_the_reported_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         benchlib.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         benchlib.per_layer_metrics())

    def test_layer_table_matches_the_harness(self):
        text = (HERE / "trace.h").read_text()
        names = text.split("kLayerNames[] = {")[1].split("};")[0]
        recorded = [n.strip().strip('"') for n in names.split(",") if n.strip()]
        self.assertEqual(recorded, list(benchlib.FRAME_SPANS) + list(benchlib.LAYERS))


class DigestGate(unittest.TestCase):
    def passes(self):
        return [{"digest": "aa", "error": "", "units": 10, "failed_units": 0},
                {"digest": "aa", "error": "", "units": 10, "failed_units": 0}]

    def test_matching_reference(self):
        self.assertEqual(benchlib.check_passes(self.passes(), "aa"), (20, 0, "aa"))

    def test_wrong_reference_fails_every_unit(self):
        attempted, failed, _ = benchlib.check_passes(self.passes(), "bb")
        self.assertEqual(failed / attempted, 1.0)

    def test_without_reference_passes_must_agree(self):
        p = self.passes()
        p[1]["digest"] = "cc"
        self.assertEqual(benchlib.check_passes(p, None)[:2], (20, 10))

    def test_pass_that_threw(self):
        p = self.passes()
        p[0].update(error="boom", digest="00", failed_units=10)
        self.assertEqual(benchlib.check_passes(p, None), (20, 10, "aa"))


@unittest.skipUnless(os.environ.get("PERFBENCH_E2E"), "set PERFBENCH_E2E=1")
class EndToEnd(unittest.TestCase):
    def run_bench(self, *extra):
        return subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "link_survival",
             "--seed", "1", "--seconds", "1", "--trace", "0", *extra],
            capture_output=True, text=True, timeout=900)

    def test_wrong_digest_reference_fails_the_run(self):
        sys.path.insert(0, str(HERE))
        import run  # noqa: E402
        ref = run.build_dir() / "wrong_reference.json"
        ref.parent.mkdir(parents=True, exist_ok=True)
        ref.write_text(json.dumps({"link_survival": {"1": "0000000000000000"}}))
        r = self.run_bench("--reference", str(ref))
        self.assertNotEqual(r.returncode, 0)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        report = json.loads(r.stdout.strip().splitlines()[-2])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(report["failed_frac"], 1.0)

    def test_committed_reference_passes(self):
        r = self.run_bench()
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertTrue(json.loads(r.stdout.strip().splitlines()[-1])["correct"])


if __name__ == "__main__":
    unittest.main()
