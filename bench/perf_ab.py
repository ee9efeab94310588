#!/usr/bin/env python3
"""A speed verdict for two revisions: perfbench in alternating pairs.

    python3 bench/perf_ab.py BASE CHANGE [--workloads W1,W2] [--seeds 1,7331]
                             [--pairs N] [--trace 0|1] --work-dir DIR
    python3 bench/perf_ab.py --replay DIR/runs.jsonl

Run from the repository root.  BASE and CHANGE are git revisions (the
same one twice is an A/A run); --work-dir must be new or empty.  Each
side is extracted with `git archive` into its own directory under
--work-dir and built there through its own perfbench/run.py, with
CARGO_TARGET_DIR pointing at a build directory of its own.  Then, for
every workload and seed, N pairs run one after the other; each pair
runs both sides once for BENCHMARK.json's run_seconds, and the side
that runs first alternates (the change runs first in every second
pair).  --trace 1 runs perfbench traced, which adds the per-layer
metrics.  Every run is written to <work-dir>/runs.jsonl as it ends;
--replay prints the report of such a log again without running
anything.

The comparison is refused (exit 2) when the runs' host fingerprints
differ: numbers are only comparable on one host.  For each workload and
seed the report says whether `failed` was 0 in every run and whether
`counts_digest` moved, and for each metric it prints each side's median
and interquartile range (IQR), the ratio change/base, the change's wins
out of the pairs (ties count for neither side), and one verdict against
the metric's direction and bound in BENCHMARK.json:

  gain, loss    the change wins (loses) at least 9 of every 10 pairs,
                ties counting as neither, a two-sided sign test over
                the pairs passes at the 5% level (5 pairs never can),
                and the medians differ by more than the base side's
                IQR; a loss larger than the bound reads `beyond bound`;
  unresolved    otherwise, when either side's IQR is wider than the
                bound (as a fraction of the base median), or the metric
                has no bound (the per-layer metrics of --trace 1);
  inside bound, beyond bound
                otherwise, by whether the change's median is worse than
                the base's by more than the bound.

Last, it prints one line for CHANGES.md that lists every pair of the
headline metric (jobs_per_s).  Exit status: 0, or 1 when a run failed or
an end-to-end metric is `beyond bound`, or 2 when the comparison was
refused or a side did not build.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADLINE = "jobs_per_s"
SIDES = ("base", "change")


# ---------------------------------------------------------------- stats

def iqr(values):
    """Interquartile range, interpolating linearly between order
    statistics (numpy's default)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def sign_test_p(wins, losses):
    """Two-sided sign test: the chance of a split at least this uneven
    between two sides that are equally likely to win a pair."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = max(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k, n + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def wins_losses(pairs, better):
    """The change's wins and losses over (base, change) pairs."""
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    return wins, losses


def verdict(pairs, better, bound):
    """One verdict for a metric over (base, change) value pairs (see the
    file comment).  `bound` is a fraction, or None for no bound."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    mb, mc = statistics.median(base), statistics.median(change)
    iqr_b, iqr_c = iqr(base), iqr(change)
    wins, losses = wins_losses(pairs, better)
    diff = mc - mb if better == "higher" else mb - mc  # > 0: change better

    def rel(x):
        return x / abs(mb) if mb != 0 else (0.0 if x == 0 else math.inf)

    # The side the medians favour takes at least 9 of every 10 pairs.
    most = wins if diff > 0 else losses
    if (10 * most >= 9 * len(pairs) and sign_test_p(wins, losses) < 0.05
            and abs(diff) > iqr_b):
        if diff > 0:
            return "gain"
        return "beyond bound" if bound is not None and rel(-diff) > bound \
            else "loss"
    if bound is None or rel(max(iqr_b, iqr_c)) > bound:
        return "unresolved"
    return "beyond bound" if rel(-diff) > bound else "inside bound"


# ------------------------------------------------------------- the runs

def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m.get("bound"))
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return spec, metrics


def extract(rev, dest):
    """git archive the commit `rev` into the new directory `dest`."""
    sha = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        check=True, capture_output=True, text=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def run_once(tree, target, workload, seed, seconds, trace):
    """One perfbench run of the tree at `tree`; returns (exit code, info,
    result), info and result None when no result line came."""
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    p = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        return (p.returncode, json.loads(lines[-2])["perfbench"],
                json.loads(lines[-1]))
    except (IndexError, ValueError, KeyError):
        sys.stderr.write(p.stderr[-2000:])
        return p.returncode, None, None


def run_pairs(args, spec):
    work = os.path.abspath(args.work_dir)
    if os.path.exists(work) and os.listdir(work):
        print("perf_ab: %s is not empty" % work, file=sys.stderr)
        return None
    trees = {}
    for side, rev in zip(SIDES, (args.base, args.change)):
        trees[side] = os.path.join(work, side)
        extract(rev, trees[side])
    log_path = os.path.join(work, "runs.jsonl")
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    # A short run builds each side before any timed run.
    for side in SIDES:
        print("perf_ab: building %s (%s)" % (side, trees[side]),
              file=sys.stderr)
        code, _, _ = run_once(trees[side], trees[side] + "-target",
                              workloads[0], seeds[0], 0.2, args.trace)
        if code not in (0, 1):
            print("perf_ab: %s did not build" % side, file=sys.stderr)
            return None
    runs = []
    with open(log_path, "w") as log:
        for workload in workloads:
            for seed in seeds:
                for pair in range(args.pairs):
                    order = SIDES if pair % 2 == 0 else SIDES[::-1]
                    for i, side in enumerate(order):
                        code, info, result = run_once(
                            trees[side], trees[side] + "-target", workload,
                            seed, spec["run_seconds"], args.trace)
                        rec = {"workload": workload, "seed": seed,
                               "pair": pair, "side": side, "first": i == 0,
                               "exit": code, "info": info, "result": result}
                        runs.append(rec)
                        log.write(json.dumps(rec) + "\n")
                        log.flush()
                        print("perf_ab: %s seed %d pair %d %s: %s" % (
                            workload, seed, pair + 1, side,
                            "exit %d" % code if result is None else
                            "failed %d" % result["failed"]),
                            file=sys.stderr)
    print("perf_ab: runs logged to %s" % log_path, file=sys.stderr)
    return runs


# --------------------------------------------------------------- report

class Refused(Exception):
    """Runs that must not be compared."""


def fmt(x):
    return "%.0f" % x if abs(x) >= 1000 else "%.4g" % x


def host_of(rec):
    return json.dumps(rec["info"]["host"], sort_keys=True)


def value(rec, name):
    return rec["result"]["metrics"][name]["value"]


def compare(runs, metrics):
    """Groups the runs by workload and seed into complete pairs and
    judges each metric.  Returns (host, groups), one dict per group:
    workload, seed, pairs ({side: run}), failed ([(pair number, side)],
    whose pairs are left out of the statistics), digests ({side: sorted
    counts_digests}) and rows ({metric: (values, verdict)}, values the
    (base, change) pairs).  Raises Refused when the runs' host
    fingerprints differ."""
    hosts = {host_of(r) for r in runs if r["info"] is not None}
    if len(hosts) > 1:
        raise Refused("the runs come from %d different host fingerprints:"
                      "\n  %s" % (len(hosts), "\n  ".join(sorted(hosts))))
    by_group = {}
    for r in runs:
        by_group.setdefault((r["workload"], r["seed"]), {}).setdefault(
            r["pair"], {})[r["side"]] = r
    groups = []
    for (workload, seed), by_pair in by_group.items():
        pairs = [p for _, p in sorted(by_pair.items())
                 if all(s in p for s in SIDES)]
        failed = [(i + 1, s) for i, p in enumerate(pairs) for s in SIDES
                  if p[s]["result"] is None or p[s]["exit"] != 0
                  or p[s]["result"]["failed"] != 0]
        bad = {n for n, _ in failed}
        pairs = [p for i, p in enumerate(pairs) if i + 1 not in bad]
        digests = {s: sorted({p[s]["info"]["counts_digest"] for p in pairs})
                   for s in SIDES}
        rows = {}
        for name, (better, bound) in metrics.items():
            if not pairs or not all(name in p[s]["result"]["metrics"]
                                    for p in pairs for s in SIDES):
                continue
            vals = [(value(p["base"], name), value(p["change"], name))
                    for p in pairs]
            rows[name] = (vals, verdict(vals, better, bound))
        groups.append({"workload": workload, "seed": seed, "pairs": pairs,
                       "failed": failed, "digests": digests, "rows": rows})
    return next(iter(hosts), None), groups


def report(host, groups, metrics):
    """Returns (report lines, the CHANGES.md line, exit status)."""
    out, summary, status = ["host: %s" % host], [], 0
    for g in groups:
        out.append("")
        out.append("%s seed %d: %d pairs" % (g["workload"], g["seed"],
                                             len(g["pairs"])))
        if g["failed"]:
            status = 1
            out.append("  FAILED runs (pair, side), left out: " +
                       ", ".join("%d %s" % f for f in g["failed"]))
        else:
            out.append("  failed: 0 in all %d runs" % (2 * len(g["pairs"])))
        d = g["digests"]
        moved = ("unchanged (%s)" % ", ".join(d["base"])
                 if d["base"] == d["change"] else
                 "moved %s -> %s" % (", ".join(d["base"]),
                                     ", ".join(d["change"])))
        out.append("  counts_digest: " + moved)
        out.append("  %-28s %22s %22s %7s %6s  %s" % (
            "metric", "base median [IQR]", "change median [IQR]", "ratio",
            "wins", "verdict"))
        for name, (vals, v) in g["rows"].items():
            better = metrics[name][0]
            base = [b for b, _ in vals]
            change = [c for _, c in vals]
            mb, mc = statistics.median(base), statistics.median(change)
            if v == "beyond bound":
                status = 1
            out.append("  %-28s %22s %22s %7s %6s  %s" % (
                name, "%s [%s]" % (fmt(mb), fmt(iqr(base))),
                "%s [%s]" % (fmt(mc), fmt(iqr(change))),
                "%.3f" % (mc / mb) if mb != 0 else "-",
                "%d/%d" % (wins_losses(vals, better)[0], len(vals)), v))
        if HEADLINE not in g["rows"]:
            continue
        vals, v = g["rows"][HEADLINE]
        listed = "; ".join("%s/%s%s" % (fmt(b), fmt(c),
                                        "*" if p["change"]["first"] else "")
                           for (b, c), p in zip(vals, g["pairs"]))
        base = [b for b, _ in vals]
        mb = statistics.median(base)
        mc = statistics.median([c for _, c in vals])
        others = ", ".join("%s %s" % (n, r[1]) for n, r in g["rows"].items()
                           if n != HEADLINE)
        summary.append(
            "`%s` seed %d `%s` base/change (`*` = change ran first): %s; "
            "medians %s -> %s (x%.3f; base IQR %s; change won %d of %d): %s;"
            " %s; failed %s; counts_digest %s." % (
                g["workload"], g["seed"], HEADLINE, listed, fmt(mb), fmt(mc),
                mc / mb if mb else math.nan, fmt(iqr(base)),
                wins_losses(vals, metrics[HEADLINE][0])[0], len(vals), v,
                others, "in some runs" if g["failed"] else "0", moved))
    return out, " ".join(summary), status


def main(argv):
    ap = argparse.ArgumentParser(
        description="perfbench A/B in alternating pairs (see the file "
                    "comment)")
    ap.add_argument("base", nargs="?")
    ap.add_argument("change", nargs="?")
    ap.add_argument("--workloads", default="",
                    help="comma-separated (default: every workload)")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", default=None,
                    help="a new or empty directory where both sides are "
                         "extracted and built and the runs are logged")
    ap.add_argument("--replay", default=None,
                    help="report a runs.jsonl log instead of running")
    args = ap.parse_args(argv)
    spec, metrics = load_spec()
    if args.replay:
        with open(args.replay) as f:
            runs = [json.loads(line) for line in f if line.strip()]
    else:
        if not (args.base and args.change and args.work_dir):
            ap.error("BASE, CHANGE and --work-dir are required without "
                     "--replay")
        if args.pairs < 1:
            ap.error("--pairs must be at least 1")
        runs = run_pairs(args, spec)
        if runs is None:
            return 2
    try:
        host, groups = compare(runs, metrics)
    except Refused as e:
        print("perf_ab: refused: %s" % e)
        return 2
    lines, line, status = report(host, groups, metrics)
    print("\n".join(lines))
    if line:
        print("\nCHANGES.md: " + line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
