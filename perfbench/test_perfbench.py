#!/usr/bin/env python3
"""The benchmark's own test: seeds, digests and the result contract.

    python3 perfbench/test_perfbench.py

Run from the repository root (it builds through perfbench/run.py).
Checks, for every workload, that
  - the same seed gives the same inputs and the same deterministic
    counts, traced or not;
  - a different seed gives different inputs;
  - the last stdout line carries exactly the metrics BENCHMARK.json
    lists for the trace mode, with their units.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run(workload, seed, trace):
    p = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.2",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        raise AssertionError("%s seed %d trace %d: exit %d\n%s\n%s" % (
            workload, seed, trace, p.returncode, p.stdout, p.stderr))
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class Contract(unittest.TestCase):
    def check_workload(self, name):
        info, res = run(name, 5, 0)
        again, _ = run(name, 5, 0)
        traced, tres = run(name, 5, 1)
        other, _ = run(name, 6, 0)

        self.assertEqual(info["inputs_digest"], again["inputs_digest"])
        self.assertEqual(info["counts_digest"], again["counts_digest"])
        self.assertEqual(info["counts_digest"], traced["counts_digest"])
        self.assertNotEqual(info["inputs_digest"], other["inputs_digest"])

        for r, key in ((res, "end_to_end"), (tres, "per_layer")):
            self.assertEqual(set(r), {"correct", "attempted", "failed",
                                      "metrics"})
            self.assertTrue(r["correct"])
            self.assertEqual(r["failed"], 0)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            self.assertEqual(got, want)
        for m in SPEC["end_to_end"]:
            self.assertGreater(res["metrics"][m["name"]]["value"], 0)


for _w in SPEC["workloads"]:
    setattr(Contract, "test_" + _w["name"],
            lambda self, n=_w["name"]: self.check_workload(n))

if __name__ == "__main__":
    unittest.main()
