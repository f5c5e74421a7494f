#!/usr/bin/env python3
"""A/B compare two sets of fleet benchmark runs.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--benchmark FILE]

Each directory holds the captured stdout of runs of perfbench/run.py, one
file per run (any file name). A run's header line names its workload,
seed and trace mode; its last line is the JSON result. Runs that report
"correct": false are counted and left out.

For every workload and end-to-end metric of BENCHMARK.json this prints
each side's median and quartiles, the share of seed-matched pairs the
change won (ties count for neither side), how much worse the change's
median is (negative: better), and a verdict:

  improved    the change won at least 9 in 10 pairs and the medians differ
              by more than the parent's own quartile spread
  no worse    the change's median is within the metric's bound of the
              parent's, with both sides' spread within the bound; or every
              change run beats every parent run
  worse       the change's median is worse by more than the bound
  unresolved  a side's spread is wider than the bound, so neither holds

It then prints the median of every per-layer metric of the traced runs on
both sides, with the change's relative delta.
"""
import argparse
import json
import os
import re
import statistics
import sys

HEADER = re.compile(r"^perfbench: workload=(\S+) seed=(\d+) trace=([01])\b")


def load_runs(directory):
    """{(workload, trace): {seed: metrics}} plus a count of failed runs."""
    runs, failed = {}, 0
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
        header = next(filter(None, map(HEADER.match, lines)), None)
        if header is None:
            continue
        try:
            result = json.loads(lines[-1])
        except ValueError:
            failed += 1
            continue
        if not result.get("correct"):
            failed += 1
            continue
        workload, seed, trace = header.groups()
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault((workload, trace), {})[int(seed)] = metrics
    return runs, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, lower_is_better, bound):
    """(verdict, share of pairs won, relative worsening of the median)."""
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_q1, p_med, p_q3 = quartiles(p_vals)
    c_q1, c_med, c_q3 = quartiles(c_vals)

    def better(a, b):
        return a < b if lower_is_better else a > b

    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s]) for s in seeds)
    won = wins / len(seeds) if seeds else 0.0
    worse_by = ((c_med - p_med) if lower_is_better else (p_med - c_med)) / p_med
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    every_run_better = all(better(c, p) for c in c_vals for p in p_vals)

    if won >= 0.9 and worse_by < 0 and abs(c_med - p_med) > p_q3 - p_q1:
        return "improved", won, worse_by
    if every_run_better:
        return "no worse", won, worse_by
    if spread > bound:
        return "unresolved", won, worse_by
    if worse_by <= bound:
        return "no worse", won, worse_by
    return "worse", won, worse_by


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, p_failed = load_runs(args.parent)
    change, c_failed = load_runs(args.change)
    print("failed runs: parent %d, change %d" % (p_failed, c_failed))

    fmt = "%-16s %-16s %5s %28s %28s %6s %8s  %s"
    print(fmt % ("workload", "metric", "runs", "parent q1/median/q3",
                 "change q1/median/q3", "won", "worse", "verdict"))
    for w in bench["workloads"]:
        p_runs = parent.get((w["name"], "0"), {})
        c_runs = change.get((w["name"], "0"), {})
        for m in bench["end_to_end"]:
            p = {s: r[m["name"]] for s, r in p_runs.items() if m["name"] in r}
            c = {s: r[m["name"]] for s, r in c_runs.items() if m["name"] in r}
            if not p or not c:
                print(fmt % (w["name"], m["name"], "%d/%d" % (len(p), len(c)),
                             "-", "-", "-", "-", "no runs"))
                continue
            v, won, worse_by = verdict(p, c, m["better"] == "lower",
                                       m["bound"])
            print(fmt % (w["name"], m["name"], "%d/%d" % (len(p), len(c)),
                         "%.4g/%.4g/%.4g" % quartiles(list(p.values())),
                         "%.4g/%.4g/%.4g" % quartiles(list(c.values())),
                         "%.0f%%" % (100 * won), "%+.1f%%" % (100 * worse_by),
                         v))

    print()
    print("%-16s %-36s %14s %14s %9s" % ("workload", "per-layer metric",
                                         "parent median", "change median",
                                         "delta"))
    for w in bench["workloads"]:
        p_runs = list(parent.get((w["name"], "1"), {}).values())
        c_runs = list(change.get((w["name"], "1"), {}).values())
        for m in bench["per_layer"]:
            p = [r[m["name"]] for r in p_runs if m["name"] in r]
            c = [r[m["name"]] for r in c_runs if m["name"] in r]
            if not p or not c:
                continue
            p_med, c_med = statistics.median(p), statistics.median(c)
            delta = "%+.1f%%" % (100 * (c_med - p_med) / p_med) if p_med \
                else ("0" if c_med == 0 else "new")
            print("%-16s %-36s %14.6g %14.6g %9s" % (w["name"], m["name"],
                                                     p_med, c_med, delta))
    return 0


if __name__ == "__main__":
    sys.exit(main())
