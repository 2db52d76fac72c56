"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Run from the root of the repository. Each test drives perfbench/run.py
end to end (the first one builds the binary), with a short --seconds.

- Counts repeat exactly under one seed: reuse, evaluation count and
  quality loss of every workload, untraced and traced.
- A corrupted reference fails the correctness gate of every workload
  kind: run.py exits non-zero and reports "correct": false.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
REPORTS = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["batch-ds2", "batch-imdb", "serve-ds2", "fleet-sessions"]


def run(workload, seed, trace=0, corrupt=False):
    args = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        args.append("--corrupt-reference")
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(REPORTS,
                           f"report-{workload}-{seed}-{trace}.json")) as f:
        report = json.load(f)
    return done.returncode, result, report


def counts(report, trace):
    if trace:
        layer = report["per_layer"]
        return {k: layer[k]["value"] for k in
                ("memo.reuse_pct", "memo.evals_total",
                 "memo.quality_loss_pts")}
    detail = report["detail"]
    return {k: detail[k]["value"] for k in
            ("reuse_pct", "evals_total", "quality_loss_pts")
            if k in detail}


class CountsRepeat(unittest.TestCase):
    def test_untraced_counts_repeat_under_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code1, result1, report1 = run(workload, 7)
                code2, result2, report2 = run(workload, 7)
                self.assertEqual((code1, code2), (0, 0))
                self.assertTrue(result1["correct"] and result2["correct"])
                first = counts(report1, 0)
                self.assertIn("reuse_pct", first)
                self.assertIn("evals_total", first)
                self.assertEqual(first, counts(report2, 0))

    def test_traced_counts_repeat_under_one_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code1, _, report1 = run(workload, 9, trace=1)
                code2, _, report2 = run(workload, 9, trace=1)
                self.assertEqual((code1, code2), (0, 0))
                self.assertEqual(counts(report1, 1), counts(report2, 1))

    def test_other_seed_gives_other_inputs(self):
        _, _, report1 = run("batch-imdb", 7)
        _, _, report2 = run("batch-imdb", 8)
        self.assertNotEqual(counts(report1, 0)["reuse_pct"],
                            counts(report2, 0)["reuse_pct"])


class CorruptReferenceFails(unittest.TestCase):
    def test_every_kind_rejects_a_corrupted_reference(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, report = run(workload, 5, corrupt=True)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertFalse(report["correct"])
                self.assertTrue(report["mismatches"])


if __name__ == "__main__":
    unittest.main()
