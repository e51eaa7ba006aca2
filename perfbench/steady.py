"""Steadiness check: run one workload N times and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/steady.py --workload islands-zen --runs 10
    python3 perfbench/steady.py --workload serve-zipf --runs 10 --sets 2

Each run is untraced, lasts ``run_seconds`` from ``BENCHMARK.json`` and
uses another seed, counting from 1.  For every end-to-end metric it prints
the bound and, per set, the median and the interquartile range as a share
of the median (the spread the bound must cover).  With ``--sets 2`` the runs
alternate between two sets and the change of each metric's median from the
first set to the second is printed as well, which is how two benchmarks of
the same code are compared.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One untraced run's result object and its wall time in seconds."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run with seed {seed} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def iqr_share(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: list[list[dict]] = [[] for _ in range(args.sets)]
    for i in range(args.runs * args.sets):
        seed = 1 + i
        result, wall = run_once(args.workload, seed, seconds)
        results[i % args.sets].append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: wall={wall:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}: {args.sets} x {args.runs} runs, {seconds} s each")
    header = f"{'metric':14} {'bound':>6}"
    for k in range(args.sets):
        header += f" {f'median{k + 1}':>11} {f'IQR/med{k + 1}':>9}"
    print(header + ("  set2/set1" if args.sets == 2 else "") + "  worst")
    for name, bound in bounds.items():
        line = f"{name:14} {bound:6.2f}"
        medians, spreads = [], []
        for group in results:
            values = [r["metrics"][name]["value"] for r in group]
            medians.append(statistics.median(values))
            spreads.append(iqr_share(values))
            line += f" {medians[-1]:11.4f} {spreads[-1]:9.3f}"
        if args.sets == 2:
            line += f"  {medians[1] / medians[0] - 1:+9.3f}"
        worst = max(spreads)
        line += f"  {worst:.3f}" + ("  ABOVE A THIRD OF THE BOUND" if worst > bound / 3 else "")
        print(line)
    everything = [r for group in results for r in group]
    shares = {r["failed"] / r["attempted"] for r in everything}
    print(f"failed share per run: {sorted(shares)}; "
          f"all correct: {all(r['correct'] for r in everything)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
