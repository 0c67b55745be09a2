"""Paired comparison of two checkouts on the benchmark's end-to-end metrics.

    python3 bench/compare.py BASE_CHECKOUT HEAD_CHECKOUT [--pairs 10] [--seed 1] [--workload NAME]

This copy of bench/run.py runs from the root of each checkout in turn, so
both sides use identical benchmark code, run length (``run_seconds`` of
BENCHMARK.json) and seed; pair i uses seed + i, and the side that runs first
alternates.  For each workload and end-to-end metric one row is printed:
each side's median and quartiles, the pairs the head won, and a verdict:

* improved:   at least ten pairs ran, the head wins at least nine tenths of
              them (ties count for neither) and the medians differ by more
              than the base's quartile distance;
* unresolved: the base's quartile distance exceeds the metric's bound and
              not every head run reads better than every base run;
* worse:      the head's median is worse than the base's by more than the bound;
* no worse:   otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from measure import quartiles  # noqa: E402

RUN_TIMEOUT_S = 600
MIN_PAIRS_FOR_GAIN = 10


def verdict(base: list[float], head: list[float], better: str, bound: float) -> tuple[int, str]:
    """Pairs won by the head, and the verdict under the rules in the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    gain = sign * (head_median - base_median)
    if len(base) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(base) and gain > q3 - q1:
        return wins, "improved"
    every_run_better = min(sign * h for h in head) > max(sign * b for b in base)
    if q3 - q1 > bound * abs(base_median) and not every_run_better:
        return wins, "unresolved"
    if gain < -bound * abs(base_median):
        return wins, "worse"
    return wins, "no worse"


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{checkout} {workload} seed {seed}: incorrect output or failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", type=Path, help="root of the parent checkout")
    parser.add_argument("head", type=Path, help="root of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="workload to run (default: all)")
    args = parser.parse_args(argv)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<14} {'metric':<15} {'unit':<5} {'base median [q1, q3]':>30} "
          f"{'head median [q1, q3]':>30} {'wins':>6}  verdict")
    for workload in workloads:
        runs = {"base": [], "head": []}
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                checkout = args.base if side == "base" else args.head
                runs[side].append(run_once(checkout, workload, args.seed + i, spec["run_seconds"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r[name] for r in runs["base"]]
            head = [r[name] for r in runs["head"]]
            wins, word = verdict(base, head, metric["better"], metric["bound"])
            b1, bm, b3 = quartiles(base)
            h1, hm, h3 = quartiles(head)
            print(f"{workload:<14} {name:<15} {metric['unit']:<5} "
                  f"{f'{bm:.4g} [{b1:.4g}, {b3:.4g}]':>30} {f'{hm:.4g} [{h1:.4g}, {h3:.4g}]':>30} "
                  f"{f'{wins}/{args.pairs}':>6}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
