"""Steadiness report: repeat the benchmark and show how much each metric moves.

Usage (from the repository root):
  python3 bench/steady.py [--first-seed 1]

Reads BENCHMARK.json for the command, run_seconds, workloads and bounds.
Each of SETS sets runs every workload RUNS times, one seed per round of
runs, alternating the workload order between rounds. Set k uses seeds
first-seed + k*RUNS onwards, so no two runs share a seed. For each
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median against the
metric's bound, and how far the second set's median moved against the
first set's in the metric's worse direction. It exits 0 when every
spread and every move is within its metric's bound, setup_s included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(spec: dict, workload: str, seed: int) -> dict:
    argv = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    failed, attempted = result["failed"], result["attempted"]
    print(
        f"  {workload} seed {seed}: "
        + ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
        + f", error_rate={failed / attempted:.4g} ratio ({failed}/{attempted} failed)",
        flush=True,
    )
    return result


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description="Repeat the benchmark and report spreads.")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    sets = []
    for k in range(SETS):
        print(f"set {k + 1}")
        values = {w: {m["name"]: [] for m in metrics} for w in names}
        for i in range(RUNS):
            seed = args.first_seed + k * RUNS + i
            order = names if i % 2 == 0 else names[::-1]
            for workload in order:
                result = run_once(spec, workload, seed)
                for m in metrics:
                    values[workload][m["name"]].append(result["metrics"][m["name"]]["value"])
        sets.append(values)

    ok = True
    for workload in names:
        print(f"\n{workload}")
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  {'moved':>8}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first_median = None
            for k, values in enumerate(sets):
                series = values[workload][name]
                q1, median, q3 = statistics.quantiles(series, n=4)
                spread = (q3 - q1) / median
                moved = ""
                if first_median is None:
                    first_median = median
                else:
                    drift = worse_by(first_median, median, m["better"])
                    moved = f"{drift:+8.3f}"
                    ok &= drift <= bound
                ok &= spread <= bound
                flag = "" if spread <= bound / 3 else "  > bound/3"
                print(f"  {name:<18} {k + 1:>3} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.3f} {bound:>6.3f}  {moved:>8}{flag}")
    print("\nwithin bounds" if ok else "\nOUTSIDE BOUNDS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
