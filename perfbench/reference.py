#!/usr/bin/env python3
"""Measures the benchmark's reference figures.

Runs every workload of BENCHMARK.json once for each seed 1 to 10,
untraced, and prints for each end-to-end metric the median of the runs
and the spread: the distance between the first and third quartile as a
share of the median.
It also prints the share of failed operations, which must be the same
in every run. Run it from the repository root:

    python3 perfbench/reference.py
"""

import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for wl in [w["name"] for w in spec["workloads"]]:
        values, shares = {}, set()
        for seed in SEEDS:
            cmd = spec["command"] + ["--workload", wl, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{wl} seed {seed} failed:\n{out.stderr}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                print(f"{wl} seed {seed}: outputs incorrect", file=sys.stderr)
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{wl}: failed share {sorted(shares)}")
        for m in spec["end_to_end"]:
            vs = values.get(m["name"], [])
            if len(vs) < 2:
                print(f"  {m['name']:18s} only {len(vs)} values")
                continue
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            print(f"  {m['name']:18s} median {med:10.4g} {m['unit']:5s} spread {(q[2] - q[0]) / med:.3f}"
                  f" (bound {m['bound']})")


if __name__ == "__main__":
    main()
