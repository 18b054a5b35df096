#!/usr/bin/env python3
"""Record the deterministic losses that the benchmark checks its runs against.

    python3 perfbench/make_reference.py --seeds 0-19

For each workload and seed, runs the workload once (a one-second window)
without the loss check and stores its train_best_mse and extract_l1_final in
perfbench/reference.json. A seed with its own entry must match it within
rtol_seeded. Any other seed is checked against the workload's band: the
median over the recorded seeds, with a relative tolerance of twice the
largest deviation seen, and at least 5%.
"""

from __future__ import annotations

import argparse
import json
import statistics

import run

RTOL_SEEDED = 0.02
METRICS = ("train_best_mse", "extract_l1_final")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="0-19", help="inclusive range lo-hi")
    args = p.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    ref = {"rtol_seeded": RTOL_SEEDED, "workloads": {}}
    for name in ("desk", "train", "extract-wide"):
        seeds = {}
        for seed in range(lo, hi + 1):
            record = run.run(name, seed, 1.0, False, reference=False)
            if record["failures"]:
                raise SystemExit(f"{name} seed {seed}: {record['failures']}")
            seeds[str(seed)] = {m: record["end_to_end"][m] for m in METRICS}
            print(name, seed, seeds[str(seed)], flush=True)
        band = {m: statistics.median(v[m] for v in seeds.values()) for m in METRICS}
        band_rtol = {m: max(0.05, 2 * max(abs(v[m] / band[m] - 1) for v in seeds.values()))
                     for m in METRICS}
        ref["workloads"][name] = {"band": band, "band_rtol": band_rtol, "seeds": seeds}
    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
