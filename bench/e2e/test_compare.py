#!/usr/bin/env python3
"""Self-test of compare.py on synthetic reports: python3 bench/e2e/test_compare.py"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

SPEC = {
    "workloads": [{"name": "lane_sim", "why": "x"},
                  {"name": "serve_mixed", "why": "y"}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
}


def report(wall=1.0, qps=100.0, hit=0.1, setup=0.01, failed=0, digest="aa"):
    def workload(name):
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
        }
        if name == "serve_mixed":
            metrics["qps"] = {"value": qps, "unit": "1/s"}
            metrics["hit_p50_ms"] = {"value": hit, "unit": "ms"}
        return {
            "attempted": 100,
            "failed": failed,
            "digests": {"digest.x": digest},
            "metrics": metrics,
        }
    return {"schema": compare.SCHEMA, "trace": 0, "seed": 1,
            "workloads": {w: workload(w) for w in ("lane_sim", "serve_mixed")}}


def jitter(base, n, share=0.01):
    """n values spread evenly within +-share of base."""
    return [base * (1 + share * (2 * i / (n - 1) - 1)) for i in range(n)]


def run(a, b, same_code):
    out = io.StringIO()
    ok = compare.compare(a, b, SPEC, same_code, out=out)
    return ok, out.getvalue()


ROW = re.compile(r"(\S+)( \(\d+/\d+ pairs won\))?$")


def verdicts(text, metric):
    """Verdict of each workload's row for `metric`."""
    return [ROW.search(line).group(1)
            for line in text.splitlines() if f" {metric} " in line]


class SameCode(unittest.TestCase):
    def test_agreeing_sets_pass(self):
        a = [report(wall=v) for v in jitter(1.0, 5)]
        b = [report(wall=v) for v in jitter(1.01, 5)]
        ok, text = run(a, b, True)
        self.assertTrue(ok, text)
        self.assertEqual(verdicts(text, "wall_s"), ["agree", "agree"])

    def test_shifted_median_disagrees(self):
        a = [report(wall=v) for v in jitter(1.0, 5)]
        b = [report(wall=v) for v in jitter(1.2, 5)]
        ok, text = run(a, b, True)
        self.assertFalse(ok)
        self.assertIn("DISAGREE", text)

    def test_wide_spread_disagrees(self):
        a = [report(wall=v) for v in jitter(1.0, 5, 0.3)]
        ok, text = run(a, a, True)
        self.assertFalse(ok)
        self.assertEqual(verdicts(text, "wall_s"), ["DISAGREE", "DISAGREE"])

    def test_floor_allows_small_absolute_moves(self):
        # A 0.2 ms setup moving by half of itself, and a 0.06 ms cache
        # read moving by 30%, stay inside the 5 ms and 0.02 ms floors.
        a = [report(setup=s, hit=0.06) for s in jitter(0.0002, 5, 0.5)]
        b = [report(setup=s, hit=0.078) for s in jitter(0.0003, 5, 0.5)]
        ok, text = run(a, b, True)
        self.assertTrue(ok, text)
        self.assertEqual(verdicts(text, "setup_s"), ["agree", "agree"])
        self.assertEqual(verdicts(text, "hit_p50_ms"), ["agree"])
        # Above the floor the share applies again.
        b = [report(setup=s) for s in jitter(0.02, 5)]
        a = [report(setup=s) for s in jitter(0.01, 5)]
        ok, text = run(a, b, True)
        self.assertFalse(ok)
        self.assertEqual(verdicts(text, "setup_s"), ["DISAGREE", "DISAGREE"])


class ParentVsChange(unittest.TestCase):
    def test_regression_gates(self):
        a = [report(wall=v) for v in jitter(1.0, 10)]
        b = [report(wall=v) for v in jitter(1.15, 10)]
        ok, text = run(a, b, False)
        self.assertFalse(ok)
        self.assertIn("REGRESSION", text)

    def test_higher_is_better_direction(self):
        a = [report(qps=v) for v in jitter(100.0, 10)]
        b = [report(qps=v) for v in jitter(70.0, 10)]
        ok, text = run(a, b, False)
        self.assertFalse(ok)
        # qps is serve_mixed's alone: one row, none for lane_sim.
        self.assertEqual(verdicts(text, "qps"), ["REGRESSION"])

    def test_gain_needs_ten_pairs_nine_wins_and_gap_over_iqr(self):
        a = [report(wall=v) for v in jitter(1.0, 10)]
        b = [report(wall=v) for v in jitter(0.9, 10)]
        ok, text = run(a, b, False)
        self.assertTrue(ok)
        self.assertEqual(verdicts(text, "wall_s"), ["gain", "gain"])
        # The same shift over nine pairs is not enough to claim it.
        ok, text = run(a[:9], b[:9], False)
        self.assertEqual(verdicts(text, "wall_s"), ["same", "same"])

    def test_gap_inside_parent_iqr_is_no_gain(self):
        a = [report(wall=v) for v in jitter(1.0, 10, 0.04)]
        b = [report(wall=v * 0.99) for v in jitter(1.0, 10, 0.04)]
        _, text = run(a, b, False)
        self.assertEqual(verdicts(text, "wall_s"), ["same", "same"])

    def test_spread_wider_than_bound_is_unresolved(self):
        a = [report(wall=v) for v in jitter(1.0, 10, 0.3)]
        b = [report(wall=v) for v in jitter(1.0, 10, 0.3)]
        ok, text = run(a, b, False)
        self.assertTrue(ok)
        self.assertEqual(verdicts(text, "wall_s"),
                         ["unresolved", "unresolved"])

    def test_fail_ratio_rise_is_flagged(self):
        a = [report() for _ in range(10)]
        b = [report(failed=1) for _ in range(10)]
        ok, text = run(a, b, False)
        self.assertFalse(ok)
        self.assertIn("fail ratio rose", text)

    def test_digest_change_is_printed_not_gated(self):
        a = [report(digest="aa") for _ in range(10)]
        b = [report(digest="bb") for _ in range(10)]
        ok, text = run(a, b, False)
        self.assertTrue(ok)
        self.assertIn("digest.x differs", text)

    def test_one_workload_reports_form_a_set(self):
        def only(workload, wall):
            r = report(wall=wall)
            r["workloads"] = {workload: r["workloads"][workload]}
            return r
        a = [only(w, v) for w in ("lane_sim", "serve_mixed")
             for v in jitter(1.0, 5)]
        b = [only(w, v) for w in ("lane_sim", "serve_mixed")
             for v in jitter(1.2, 5)]
        ok, text = run(a, b, True)
        self.assertFalse(ok)
        self.assertEqual(verdicts(text, "wall_s"), ["DISAGREE", "DISAGREE"])
        self.assertEqual(text.count("digest.x identical"), 2)

    def test_digests_of_different_seeds_do_not_differ(self):
        a = [report(digest="aa"), report(digest="bb")]
        a[1]["seed"] = 2
        _, text = run(a, a, True)
        self.assertIn("digest.x identical across runs of 2 seed(s)", text)


class Cli(unittest.TestCase):
    def test_cli_reads_files_and_rejects_traced_reports(self):
        with tempfile.TemporaryDirectory() as d:
            spec = os.path.join(d, "BENCHMARK.json")
            with open(spec, "w") as f:
                json.dump(SPEC, f)
            paths = []
            for i, wall in enumerate(jitter(1.0, 4)):
                p = os.path.join(d, f"r{i}.json")
                with open(p, "w") as f:
                    json.dump(report(wall=wall), f)
                paths.append(p)
            argv = ["--a", *paths[:2], "--b", *paths[2:], "--same-code",
                    "--benchmark", spec]
            with contextlib.redirect_stdout(io.StringIO()):
                self.assertEqual(compare.main(argv), 0)
            traced = report()
            traced["trace"] = 1
            with open(paths[0], "w") as f:
                json.dump(traced, f)
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(compare.main(argv), 2)


if __name__ == "__main__":
    unittest.main()
