#!/usr/bin/env python3
"""Self-test of bench/perf_ab.py on canned runs: no build, no timing.

    python3 bench/test_perf_ab.py

bench/testdata/perf_ab_runs.jsonl holds perfbench result lines of four
made-up A/B comparisons in the log format perf_ab.py writes:
`video_3clk_farm` seed 1 over 10 pairs, with one metric for each
verdict; `sweep_fork` over 5 pairs, where no gain or loss can resolve;
and two where a sign test alone would read `gain` but the change wins
fewer than 9 of every 10 pairs: `video_1clk` (15 of 20) and
`video_3clk_farm` seed 7331 (6 wins and 4 ties of 10).
"""
import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_ab  # noqa: E402

RUNS = os.path.join(HERE, "testdata", "perf_ab_runs.jsonl")


def canned():
    with open(RUNS) as f:
        return [json.loads(line) for line in f if line.strip()]


def verdicts(runs):
    _, metrics = perf_ab.load_spec()
    _, groups = perf_ab.compare(runs, metrics)
    return {(g["workload"], g["seed"]): {n: r[1] for n, r in g["rows"].items()}
            for g in groups}, groups


class SignTest(unittest.TestCase):
    def test_nine_of_ten_passes_and_five_pairs_never_do(self):
        self.assertLess(perf_ab.sign_test_p(9, 1), 0.05)
        self.assertLess(perf_ab.sign_test_p(1, 9), 0.05)
        self.assertGreaterEqual(perf_ab.sign_test_p(8, 2), 0.05)
        self.assertGreaterEqual(perf_ab.sign_test_p(5, 0), 0.05)
        self.assertEqual(perf_ab.sign_test_p(0, 0), 1.0)

    def test_ties_count_for_neither_side(self):
        self.assertEqual(perf_ab.wins_losses([(1, 2), (2, 2), (3, 1)],
                                             "higher"), (1, 1))
        self.assertEqual(perf_ab.wins_losses([(1, 2), (2, 2), (3, 1)],
                                             "lower"), (1, 1))

    def test_the_winner_takes_nine_of_every_ten_pairs(self):
        # 10 of 12 pass the sign test (p 0.039) but are fewer than 9 of
        # every 10, so they read inside bound; 11 of 12 read gain.
        base = [100, 101, 99, 100, 102, 100, 101, 99, 100, 101, 100, 99]
        ten = [(b, b * 1.1) for b in base[:10]] + \
            [(b, b - 1) for b in base[10:]]
        self.assertLess(perf_ab.sign_test_p(10, 2), 0.05)
        self.assertEqual(perf_ab.verdict(ten, "higher", 0.2), "inside bound")
        self.assertEqual(perf_ab.verdict(ten[:11] + [(99, 109)], "higher",
                                         0.2), "gain")
        # The same rule holds for a loss.
        self.assertEqual(perf_ab.verdict(ten, "lower", 0.2), "inside bound")
        self.assertEqual(perf_ab.verdict(ten[:11] + [(99, 109)], "lower",
                                         0.2), "loss")

    def test_iqr_interpolates(self):
        self.assertEqual(perf_ab.iqr([1, 2, 3, 4, 5]), 2)
        self.assertEqual(perf_ab.iqr([1, 2, 3, 4]), 1.5)
        self.assertEqual(perf_ab.iqr([7]), 0)


class Verdicts(unittest.TestCase):
    def test_one_case_per_verdict(self):
        v, _ = verdicts(canned())
        self.assertEqual(v["video_3clk_farm", 1], {
            "jobs_per_s": "gain",          # 9 of 10, +10%
            "job_ms_p50": "loss",          # 10 of 10, +5% < 20%
            "job_ms_p90": "beyond bound",  # 10 of 10, +30% > 20%
            "setup_s": "unresolved",       # IQR ~40% of the median > 25%
            "peak_rss_mb": "inside bound",
        })
        # Five pairs never resolve a gain or a loss, but a median worse
        # by more than the bound is still beyond it.
        self.assertEqual(v["sweep_fork", 1]["jobs_per_s"], "inside bound")
        self.assertEqual(v["sweep_fork", 1]["job_ms_p90"], "beyond bound")

    def test_ties_and_a_short_majority_are_no_gain(self):
        v, groups = verdicts(canned())
        short, tied = groups[2], groups[3]
        # +10% in 15 of 20 pairs (p 0.041).
        self.assertEqual(perf_ab.wins_losses(short["rows"]["jobs_per_s"][0],
                                             "higher"), (15, 5))
        self.assertEqual(v["video_1clk", 1]["jobs_per_s"], "inside bound")
        # +22 in 6 pairs, 4 ties, no loss (p 0.031 over the 6).
        self.assertEqual(perf_ab.wins_losses(tied["rows"]["jobs_per_s"][0],
                                             "higher"), (6, 0))
        self.assertEqual(v["video_3clk_farm", 7331]["jobs_per_s"],
                         "inside bound")

    def test_counts_digest_and_failed_runs(self):
        runs = canned()
        _, groups = verdicts(runs)
        farm, sweep = groups[:2]
        self.assertNotEqual(farm["digests"]["base"],
                            farm["digests"]["change"])
        self.assertEqual(sweep["digests"]["base"], sweep["digests"]["change"])
        self.assertEqual(farm["failed"], [])
        # A run with a failed check is reported, and its pair is left out
        # (runs[2] is the change's run of pair 2, which it ran first).
        runs[2]["result"]["failed"] = 2
        _, groups = verdicts(runs)
        self.assertEqual(groups[0]["failed"], [(2, "change")])
        self.assertEqual(len(groups[0]["pairs"]), 9)

    def test_different_hosts_are_refused(self):
        runs = canned()
        runs[5]["info"]["host"] = dict(runs[5]["info"]["host"], nproc=8)
        _, metrics = perf_ab.load_spec()
        with self.assertRaises(perf_ab.Refused):
            perf_ab.compare(runs, metrics)

    def test_replay_prints_every_pair_and_exits_one_beyond_bound(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = perf_ab.main(["--replay", RUNS])
        self.assertEqual(status, 1)
        line = [l for l in out.getvalue().splitlines()
                if l.startswith("CHANGES.md: ")]
        self.assertEqual(len(line), 1)
        self.assertIn("200/221; 204/225*; 198/218;", line[0])
        self.assertIn("change won 9 of 10): gain", line[0])
        self.assertIn("counts_digest moved 00000000000000bb -> "
                      "00000000000000cc", line[0])


if __name__ == "__main__":
    unittest.main()
