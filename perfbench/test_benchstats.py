"""Tests of the benchmark's own arithmetic and output format.

Run from the repository root:  python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchstats

HERE = os.path.dirname(os.path.abspath(__file__))


def rep(seconds, units=100.0, warmup=False):
    return {"type": "rep", "phase": "run", "seconds": seconds, "units": units, "warmup": warmup}


class Estimators(unittest.TestCase):
    def test_fast_half_rate_is_best_of_two(self):
        reps = [rep(0.5, warmup=True), rep(2.0), rep(1.0)]
        # The 0.5 s warm-up is discarded even though it is the fastest.
        self.assertEqual(benchstats.fast_half_rate(reps), 100.0)

    def test_fast_half_rate_takes_median_of_faster_half(self):
        # Rates 100, 50, 25, 20, 10: the faster half is 100, 50, 25.
        reps = [rep(4.0), rep(1.0), rep(10.0), rep(2.0), rep(5.0)]
        self.assertEqual(benchstats.fast_half_rate(reps), 50.0)
        # Six repetitions: the fastest three, 100, 50 and 25.
        self.assertEqual(benchstats.fast_half_rate(reps + [rep(8.0)]), 50.0)
        # One repetition is its own estimate.
        self.assertEqual(benchstats.fast_half_rate([rep(4.0)]), 25.0)

    def test_fast_half_rate_needs_a_timed_repetition(self):
        with self.assertRaises(ValueError):
            benchstats.fast_half_rate([rep(1.0, warmup=True)])

    def test_quartiles_match_statistics_module(self):
        values = [10.0, 12.0, 11.0, 15.0, 9.0, 30.0, 10.5, 11.5, 12.5, 13.0]
        self.assertEqual(benchstats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / q2)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(benchstats.spread([3.0] * 10), 0.0)

    def test_median_setup(self):
        setups = [{"seconds": s} for s in (0.3, 0.1, 0.2, 0.9, 0.25)]
        self.assertEqual(benchstats.median_setup(setups), 0.25)
        with self.assertRaises(ValueError):
            benchstats.median_setup([])


class Attribution(unittest.TestCase):
    # root [0, 10] with children a [1, 4] and b [5, 6]; a has child c [2, 3].
    SPANS = [(0, -1, "root", 0.0, 10.0), (1, 0, "a", 1.0, 4.0), (2, 1, "c", 2.0, 3.0),
             (3, 0, "b", 5.0, 6.0), (4, -1, "other", 20.0, 21.0)]

    def test_self_time_subtracts_direct_children_only(self):
        table = benchstats.span_table(self.SPANS)
        self.assertAlmostEqual(table["root"]["self"], 10.0 - 3.0 - 1.0)
        self.assertAlmostEqual(table["a"]["self"], 2.0)
        self.assertAlmostEqual(table["c"]["self"], 1.0)
        self.assertEqual(table["root"]["calls"], 1)
        # Self times of a tree sum to its root's duration.
        tree = sum(table[n]["self"] for n in ("root", "a", "b", "c"))
        self.assertAlmostEqual(tree, table["root"]["total"])

    def test_span_table_under_a_root(self):
        table = benchstats.span_table(self.SPANS, under="root")
        self.assertEqual(sorted(table), ["a", "b", "c"])
        self.assertAlmostEqual(table["a"]["total"], 3.0)

    def test_residual_share(self):
        self.assertAlmostEqual(benchstats.residual_share(10.0, [4.0, 5.0]), 0.1)
        self.assertAlmostEqual(benchstats.residual_share(10.0, [6.0, 5.0]), -0.1)

    def test_overhead_share(self):
        self.assertAlmostEqual(benchstats.overhead_share(10.5, 10.0), 0.05)
        self.assertAlmostEqual(benchstats.overhead_share(9.0, 10.0), -0.1)

    def test_parse_output(self):
        text = "\n".join([
            '{"type": "rep", "phase": "run", "seconds": 1.5, "units": 3, "warmup": false}',
            "span 0 -1 fleet.run 0.000000001 2.500000000",
            "build noise that is neither",
            "span 1 0 core.price 0.5 1.0",
        ])
        records, spans = benchstats.parse_output(text)
        self.assertEqual(records[0]["seconds"], 1.5)
        self.assertEqual(spans, [(0, -1, "fleet.run", 1e-9, 2.5), (1, 0, "core.price", 0.5, 1.0)])


class Output(unittest.TestCase):
    def test_failed_share_accounting(self):
        checks = [{"name": "a", "ok": True}, {"name": "b", "ok": False},
                  {"name": "c", "ok": True}, {"name": "d", "ok": False}]
        self.assertEqual(benchstats.tally_checks(checks), (4, 2))
        self.assertEqual(benchstats.tally_checks([]), (0, 0))

    def test_result_line_shape(self):
        line = benchstats.result_line(True, 12, 0, {"setup_s": 0.5, "work_per_s": 7},
                                      {"setup_s": "s", "work_per_s": "1/s"})
        body = json.loads(line)
        self.assertEqual(sorted(body), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(body["metrics"]["setup_s"], {"value": 0.5, "unit": "s"})
        self.assertIsInstance(body["metrics"]["work_per_s"]["value"], float)

    def test_result_line_rejects_bad_names_and_empty_runs(self):
        with self.assertRaises(ValueError):
            benchstats.result_line(True, 1, 0, {"bad name": 1.0}, {"bad name": "s"})
        with self.assertRaises(ValueError):
            benchstats.result_line(True, 0, 0, {}, {})

    def test_metric_name_charset(self):
        for good in ("setup_s", "opt.gp_fit_s", "fleet-2tier", "3tier", "a" * 64):
            self.assertTrue(benchstats.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "x/y", "μs", "a" * 65, "x\n"):
            self.assertFalse(benchstats.valid_name(bad), bad)

    def test_benchmark_json_follows_the_contract(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual(sorted(spec), ["command", "end_to_end", "paths", "per_layer",
                                        "run_seconds", "workloads"])
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(benchstats.valid_name(name), name)
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertTrue(benchstats.valid_unit(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("lower", "higher"))
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))
        for w in spec["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])


if __name__ == "__main__":
    unittest.main()
