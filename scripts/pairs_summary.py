"""Summary of alternating parent/change benchmark runs, as bench_pairs.sh
writes them:

    python3 scripts/pairs_summary.py <BENCHMARK.json> <dir> <pairs> <workload> <seed>

<dir> holds parent-<i>.json and change-<i>.json for i < pairs, each the
result line `perfbench/run.py` prints. For every end-to-end metric of
BENCHMARK.json it prints each side's median and quartiles, how many pairs
the change won (ties count for neither) and a verdict:

- gain: the change won at least 9 of 10 pairs and its median is better than
  the parent's by more than the parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (a fraction of the parent's median);
- unresolved: neither, and the parent's interquartile range is wider than
  the bound, so the runs cannot tell a change within the bound from none;
- same: none of these.
"""

import json
import statistics
import sys


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent, change, better, bound):
    """The verdict on one metric's paired runs; better is "higher" or "lower"."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - p_med)
    if 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1:
        return wins, "gain"
    if -gap > bound * abs(p_med):
        return wins, "worse"
    if p_q3 - p_q1 > bound * abs(p_med):
        return wins, "unresolved"
    return wins, "same"


def main(argv):
    bench, out, pairs, workload, seed = argv[0], argv[1], int(argv[2]), argv[3], argv[4]

    def load(side):
        runs = []
        for i in range(pairs):
            with open(f"{out}/{side}-{i}.json") as f:
                runs.append({k: m["value"] for k, m in json.load(f)["metrics"].items()})
        return runs

    def show(values):
        q1, med, q3 = quartiles(values)
        return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"

    parent, change = load("parent"), load("change")
    with open(bench) as f:
        metrics = json.load(f)["end_to_end"]
    print(f"{workload} seed {seed}, {pairs} pairs; median [q1, q3] per side")
    print(f"{'metric':22} {'better':6} {'parent':36} {'change':36} wins  verdict")
    for metric in metrics:
        name = metric["name"]
        p = [r[name] for r in parent]
        c = [r[name] for r in change]
        wins, word = verdict(p, c, metric["better"], metric["bound"])
        print(f"{name:22} {metric['better']:6} {show(p):36} {show(c):36} "
              f"{f'{wins}/{pairs}':5} {word}")


if __name__ == "__main__":
    main(sys.argv[1:])
