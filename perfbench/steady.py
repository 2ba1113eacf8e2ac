"""Steadiness check: run each workload repeatedly and print every
end-to-end metric's spread against its bound.

    python3 perfbench/steady.py                      # every workload, 10 seeds
    python3 perfbench/steady.py --workloads cold-analyze --runs 5

Each run is ``run.py --trace 0`` with its own ``--seed`` (1..N unless
``--first-seed`` moves the range).  The spread of a metric is the
distance between the first and third quartile of its values
(``statistics.quantiles(n=4)``), as a share of their median; a metric
is steady when the spread is within a third of its bound.  Every
metric, ``setup_s`` included, is held to its bound.  The failed share
must be the same in every run.  Drift within a run shows
as the ratio of the second half's p50 to the first half's, which
``run.py`` prints on standard error.

Exits 1 when a metric's spread exceeds its bound, a run fails, reports
``correct: false``, or the failed share differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def one_run(workload: str, seed: int, seconds: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stderr[-2000:]}"
        )
    drift = [float(line.split()[-1]) for line in proc.stderr.splitlines()
             if line.startswith("drift ")]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: outputs failed their checks:\n"
              f"{proc.stderr[-2000:]}")
    return result, drift


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2, q2


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)

    bad = False
    for workload in args.workloads.split(","):
        results, drifts = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, drift = one_run(workload, seed, args.seconds)
            results.append(result)
            drifts += drift
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{name}={m['value']:.4g}"
                for name, m in result["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        if drifts:
            print(f"  drift (2nd-half p50 / 1st-half p50): median "
                  f"{statistics.median(drifts):.3f}, "
                  f"range {min(drifts):.3f}..{max(drifts):.3f}")
        bad |= len(shares) != 1 or not all(r["correct"] for r in results)
        for entry in bench["end_to_end"]:
            values = [r["metrics"][entry["name"]]["value"] for r in results]
            share, median = spread(values)
            bound = entry["bound"]
            verdict = ("steady" if share <= bound / 3 else
                       "within bound" if share <= bound else "TOO WIDE")
            print(f"  {entry['name']:12s} median {median:10.4f} "
                  f"{entry['unit']:4s} spread {share:6.3f} "
                  f"bound {bound:.2f}  {verdict}")
            bad |= share > bound
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
