#!/usr/bin/env python3
"""Compares two sets of sa1d benchmark results.

    python3 benchmark/compare.py A.json... -- B.json... [--claim METRIC WORKLOAD]

A is the parent side, B the change. Each file is one results JSON written by
benchmark/run.sh (one untraced run of every workload). Run the two sides
alternately and pass the files of each side in run order, so that A[i] and
B[i] form a pair.

For every (metric, workload) the script prints each side's median and
quartiles and one verdict, judged against the metric's bound in
BENCHMARK.json (a share of A's median):

  regressed     B's median is worse than A's by more than the bound;
  unresolved    a side's interquartile spread exceeds the bound, and not
                every B run is better than every A run;
  improved      B's median is better by more than A's interquartile spread;
  within-bound  none of the above.

failed_frac (failed / attempted calls) has bound 0: any increase regresses.

--claim METRIC WORKLOAD applies the rule for claiming a gain on that pair:
B wins at least 9 of every 10 pairs (ties count for neither side) and the
medians differ by more than A's interquartile spread.

Exit status: 1 when any pair regressed or a named claim is not met.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    """Maps (metric, workload) to the values of the untraced runs, in file order."""
    vals = {}
    for p in paths:
        for rec in json.loads(Path(p).read_text())["runs"]:
            if rec["traced"]:
                continue
            w = rec["workload"]
            for m, v in rec["metrics"].items():
                vals.setdefault((m, w), []).append(v["value"])
            failed_frac = rec["failed"] / rec["attempted"] if rec["attempted"] else 1.0
            vals.setdefault(("failed_frac", w), []).append(failed_frac)
    return vals


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[2]


def verdict(a, b, bound, lower_better):
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if lower_better else -1.0
    gap = sign * (mb - ma)  # > 0: B is worse
    worse = gap / abs(ma) if ma else gap
    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[1] - qa[0]) / abs(ma) if ma else 0.0, (qb[1] - qb[0]) / abs(mb) if mb else 0.0)
    b_all_better = all(sign * (y - x) < 0 for x in a for y in b)
    if worse > bound:
        return "regressed"
    if spread > bound and not b_all_better:
        return "unresolved"
    if gap < 0 and -gap > qa[1] - qa[0]:
        return "improved"
    return "within-bound"


def claim(a, b, lower_better):
    """The gain rule: B wins >= 9/10 of the pairs and the median gap exceeds A's IQR."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    qa = quartiles(a)
    gap = sign * (statistics.median(a) - statistics.median(b))
    met = bool(pairs) and wins >= 0.9 * len(pairs) and gap > qa[1] - qa[0]
    return met, wins, len(pairs), gap, qa[1] - qa[0]


def main():
    argv = sys.argv[1:]
    if "--" not in argv:
        sys.exit(__doc__)
    cut = argv.index("--")
    parser = argparse.ArgumentParser()
    parser.add_argument("b", nargs="+")
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"))
    args = parser.parse_args(argv[cut + 1:])
    a_vals, b_vals = load(argv[:cut]), load(args.b)

    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    metrics["failed_frac"] = (0.0, True)
    workloads = [w["name"] for w in spec["workloads"]]

    regressed = False
    print(f"{'metric':14} {'workload':12} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} "
          f"{'B vs A':>8}  verdict")
    for m, (bound, lower) in metrics.items():
        for w in workloads:
            a, b = a_vals.get((m, w)), b_vals.get((m, w))
            if not a or not b:
                print(f"{m:14} {w:12} missing on one side")
                regressed = True
                continue
            v = verdict(a, b, bound, lower)
            regressed |= v == "regressed"
            ma, mb = statistics.median(a), statistics.median(b)
            qa, qb = quartiles(a), quartiles(b)
            rel = f"{100 * (mb - ma) / ma:+7.2f}%" if ma else f"{mb - ma:+8.3g}"
            print(f"{m:14} {w:12} {ma:11.5g} [{qa[0]:.5g}, {qa[1]:.5g}] "
                  f"{mb:11.5g} [{qb[0]:.5g}, {qb[1]:.5g}] {rel:>8}  {v}")

    claim_failed = False
    if args.claim:
        m, w = args.claim
        if m not in metrics or (m, w) not in a_vals or (m, w) not in b_vals:
            sys.exit(f"compare.py: no values for metric {m} on workload {w}")
        met, wins, n, gap, iqr = claim(a_vals[(m, w)], b_vals[(m, w)], metrics[m][1])
        print(f"\nclaim {m} on {w}: B wins {wins}/{n} pairs, median gain {gap:.5g} "
              f"vs A's IQR {iqr:.5g}: {'met' if met else 'NOT met'}")
        claim_failed = not met
    sys.exit(1 if regressed or claim_failed else 0)


if __name__ == "__main__":
    main()
