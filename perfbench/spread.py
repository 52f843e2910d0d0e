"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1] [--seconds S]

For every metric prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median over the runs, which is the figure
the bounds in BENCHMARK.json are compared against.  Each run's last stdout
line is kept in .perfbench_work/spread/<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=None, help="default: run_seconds from BENCHMARK.json")
    args = ap.parse_args()
    seconds = args.seconds or str(json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])

    log = HERE.parent / ".perfbench_work" / "spread" / f"{args.workload}.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    results = []
    with open(log, "a") as fh:
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
                 "--seconds", seconds, "--trace", args.trace],
                capture_output=True, text=True, check=True,
            ).stdout
            last = json.loads(out.strip().splitlines()[-1])
            fh.write(json.dumps({"seed": seed, **last}) + "\n")
            results.append(last)
            vals = {k: round(v["value"], 4) for k, v in last["metrics"].items() if v["value"]}
            print(f"seed {seed}: correct={last['correct']} {vals}", flush=True)

    print(f"{args.workload}: {len(results)} runs, all correct: {all(r['correct'] for r in results)}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:32s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
