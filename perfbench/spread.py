#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload <name> --seconds <s> --seeds 1 2 3 [--trace 0|1]

For every metric it prints the median over the runs and the distance between
the first and third quartiles as a share of the median, next to the bound
BENCHMARK.json gives the metric. Each run's output is kept under
.bench_build/spread/. Run from the root of a source checkout.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    a = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in a.seeds:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", a.workload,
                              "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
        log = HERE.parent / ".bench_build" / "spread" / f"{a.workload}-trace{a.trace}-seed{seed}.txt"
        log.parent.mkdir(parents=True, exist_ok=True)
        log.write_text(out)
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':30} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, vs in values.items():
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:30} {med:14.4f} {spread:8.3f} {bound if bound is not None else '':>6}  "
              + " ".join(f"{v:.4g}" for v in vs))


if __name__ == "__main__":
    main()
