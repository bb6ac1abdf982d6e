#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py

Runs the benchmark 10 times on each workload of BENCHMARK.json, with
seeds 1000 to 1009, and prints for every end-to-end metric the median, the
quartiles (as `statistics.quantiles(values, n=4)` gives them), their
distance as a share of the median, and that share over the metric's
bound from BENCHMARK.json. A benchmark is steady when every share,
`setup_s` aside, is well under its bound.
"""

import json
import statistics
import subprocess
import sys

RUNS = 10
SEED_BASE = 1000


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for wl in names:
        values = {}
        for i in range(RUNS):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(SEED_BASE + i),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True).stdout.decode()
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{wl}: outputs disagreed with the reference")
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{wl} ({RUNS} runs)")
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            share = (q3 - q1) / med
            of_bound = share / bounds[k]
            if k != "setup_s":
                worst = max(worst, of_bound)
            print(f"  {k:<18} median {med:14.4f}  q1 {q1:14.4f}  q3 {q3:14.4f}  "
                  f"spread {share:7.4f}  of bound {of_bound:5.2f}")
        sys.stdout.flush()
    print(f"largest spread over bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()
