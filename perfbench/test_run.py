"""Tests of run.py's driver-output parsing, pin comparison and
steadiness statistics. Run from the repository root:

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import hashlib
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

REC_A = '{"latency_mean":132.106,"saturated":false}'
REC_B = '{"run":1,"latency_mean":40.5}'

SAMPLE = "\n".join([
    'HOST {"build_type":"Release","compiler":"GCC 12","threads":2,'
    '"workload":"w"}',
    "STATS 0 " + REC_A,
    'REP {"rep":0,"sim_seed":3,"setup_s":0.5,"run_s":2.0,"cpu_s":3.5,'
    '"cycles":100,"error":""}',
    "STATS 1 " + REC_A,
    "STATS 1 " + REC_B,
    'REP {"rep":1,"sim_seed":4,"setup_s":0.25,"run_s":4.0,"cpu_s":7.0,'
    '"cycles":0,"error":""}',
    "SPANS /tmp/spans.jsonl",
    "METRIC peak_rss_mb 19.25 MB",
    "METRIC routing.route_ns 91.5 ns",
    "",
])


def digest(*records):
    return hashlib.sha256("".join(r + "\n" for r in records)
                          .encode()).hexdigest()


def pins_for(**overrides):
    pins = {"w": {"3": {"sha256": digest(REC_A), "cycles": 100},
                  "4": {"sha256": digest(REC_A, REC_B), "cycles": 400}}}
    for seed, pin in overrides.items():
        pins["w"][seed].update(pin)
    return pins


class ParseDriverOutput(unittest.TestCase):
    def test_parses_every_record_kind(self):
        out = run.parse_driver_output(SAMPLE)
        self.assertEqual(out["host"]["build_type"], "Release")
        self.assertEqual(out["host"]["threads"], 2)
        self.assertEqual(out["stats"], {0: [REC_A], 1: [REC_A, REC_B]})
        self.assertEqual([r["sim_seed"] for r in out["reps"]], [3, 4])
        self.assertEqual(out["metrics"]["peak_rss_mb"], (19.25, "MB"))
        self.assertEqual(out["metrics"]["routing.route_ns"], (91.5, "ns"))
        self.assertEqual(out["spans"], "/tmp/spans.jsonl")

    def test_keeps_every_digit(self):
        out = run.parse_driver_output(
            "METRIC run_s 1.4730686034999998 s\n")
        self.assertEqual(out["metrics"]["run_s"][0], 1.4730686034999998)

    def test_rejects_unknown_kind(self):
        with self.assertRaisesRegex(ValueError, "line 1: unknown"):
            run.parse_driver_output("BOGUS 1\n")

    def test_rejects_malformed_metric(self):
        with self.assertRaisesRegex(ValueError, "line 2"):
            run.parse_driver_output("METRIC a 1 s\nMETRIC b 1\n")
        with self.assertRaises(ValueError):
            run.parse_driver_output("METRIC a x s\n")

    def test_rejects_duplicate_metric(self):
        with self.assertRaisesRegex(ValueError, "duplicate metric a"):
            run.parse_driver_output("METRIC a 1 s\nMETRIC a 2 s\n")

    def test_rejects_bad_json(self):
        with self.assertRaises(ValueError):
            run.parse_driver_output('REP {"rep":\n')


class CheckPins(unittest.TestCase):
    def setUp(self):
        self.parsed = run.parse_driver_output(SAMPLE)

    def test_matching_bytes_pass(self):
        self.assertEqual(run.check_pins("w", self.parsed, pins_for()),
                         (2, 0, []))

    def test_digest_is_of_newline_terminated_records(self):
        self.assertEqual(run.records_digest([REC_A, REC_B]),
                         (digest(REC_A, REC_B),
                          len(REC_A) + len(REC_B) + 2))

    def test_changed_bytes_fail(self):
        pins = pins_for(**{"4": {"sha256": digest(REC_B, REC_A)}})
        attempted, failed, problems = run.check_pins("w", self.parsed, pins)
        self.assertEqual((attempted, failed), (2, 1))
        self.assertIn("op 1 (seed 4)", problems[0])
        self.assertIn("differ from the pinned bytes", problems[0])

    def test_missing_pin_fails(self):
        pins = pins_for()
        del pins["w"]["3"]
        _, failed, problems = run.check_pins("w", self.parsed, pins)
        self.assertEqual(failed, 1)
        self.assertIn("no pinned statistics", problems[0])
        self.assertEqual(run.check_pins("other", self.parsed, pins)[1], 2)

    def test_raised_operation_fails(self):
        self.parsed["reps"][0]["error"] = "deadlock detected"
        _, failed, problems = run.check_pins("w", self.parsed, pins_for())
        self.assertEqual(failed, 1)
        self.assertIn("raised: deadlock detected", problems[0])

    def test_cycle_mismatch_fails_when_reported(self):
        # Op 0 reports its cycles; op 1 (a campaign) reports 0 = unknown.
        pins = pins_for(**{"3": {"cycles": 101}, "4": {"cycles": 1}})
        _, failed, problems = run.check_pins("w", self.parsed, pins)
        self.assertEqual(failed, 1)
        self.assertIn("simulated 100 cycles, pinned 101", problems[0])


class EndToEndMetrics(unittest.TestCase):
    def test_medians_over_passing_operations(self):
        parsed = run.parse_driver_output(SAMPLE)
        m = run.e2e_metrics("w", parsed, pins_for())
        self.assertEqual(set(m), set(run.E2E_UNITS))
        self.assertEqual(m["run_s"], {"value": 3.0, "unit": "s"})
        self.assertEqual(m["setup_s"]["value"], 0.375)
        self.assertEqual(m["cpu_s"]["value"], 5.25)
        # Pinned cycles over run_s: 100/2 and 400/4.
        self.assertEqual(m["sim_cycles_per_s"]["value"], 75.0)
        self.assertEqual(m["peak_rss_mb"], {"value": 19.25, "unit": "MB"})

    def test_failed_operations_are_left_out(self):
        parsed = run.parse_driver_output(SAMPLE)
        parsed["reps"][1]["error"] = "boom"
        m = run.e2e_metrics("w", parsed, pins_for())
        self.assertEqual(m["run_s"]["value"], 2.0)
        parsed["reps"][0]["error"] = "boom"
        with self.assertRaises(run.BenchError):
            run.e2e_metrics("w", parsed, pins_for())


class Steadiness(unittest.TestCase):
    SPEC = [
        {"name": "run_s", "better": "lower", "bound": 0.1},
        {"name": "sim_cycles_per_s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "better": "lower", "bound": 0.25},
    ]

    def test_summary_uses_statistics_quartiles(self):
        s = run.summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((s["q1"], s["median"], s["q3"]), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(s["spread"], 1.0)

    def test_worse_follows_direction(self):
        self.assertAlmostEqual(run.worse_by(10, 11, "lower"), 0.1)
        self.assertAlmostEqual(run.worse_by(10, 11, "higher"), -0.1)

    def rows(self, set2_run, set2_rate, set2_setup, set1_run=None):
        set1 = {"run_s": set1_run or [10.0] * 10,
                "sim_cycles_per_s": [100.0] * 10,
                "setup_s": [1e-5] * 10}
        set2 = {"run_s": set2_run, "sim_cycles_per_s": set2_rate,
                "setup_s": set2_setup}
        return {name: ok for name, _, _, _, ok
                in run.compare_sets(set1, set2, self.SPEC)}

    def test_sets_within_bounds_agree(self):
        ok = self.rows([10.5] * 10, [95.0] * 10, [1.2e-5] * 10)
        self.assertEqual(ok, {"run_s": True, "sim_cycles_per_s": True,
                              "setup_s": True})

    def test_slower_second_set_disagrees(self):
        ok = self.rows([11.5] * 10, [85.0] * 10, [1e-5] * 10)
        self.assertFalse(ok["run_s"])
        self.assertFalse(ok["sim_cycles_per_s"])

    def test_wide_spread_disagrees_even_with_equal_medians(self):
        noisy = [8, 8, 8, 9, 10, 10, 11, 12, 12, 12]
        ok = self.rows([10.0] * 10, [100.0] * 10, [1e-5] * 10,
                       set1_run=noisy)
        self.assertFalse(ok["run_s"])

    def test_tiny_setup_has_an_absolute_floor(self):
        # 3x slower but still far under a millisecond: noise, not a
        # regression. The spread of setup_s is never checked.
        ok = self.rows([10.0] * 10, [100.0] * 10, [3e-5] * 10)
        self.assertTrue(ok["setup_s"])


if __name__ == "__main__":
    unittest.main()
