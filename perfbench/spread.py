#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload tune-tpch --seeds 1-10

The spread is the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), the figure
a benchmark must keep within each metric's bound (``setup_s`` excepted)
to be steady enough to gate on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from benchlib import quartile_spread

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args()
    values: dict[str, list[float]] = {}
    status = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(SPEC["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=HERE.parent,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        status |= proc.returncode
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result['correct']} failed {result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}"
                  for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) >= 2:
        for spec in SPEC["end_to_end"]:
            vals = values[spec["name"]]
            spread = quartile_spread(vals)
            print(f"{spec['name']:>14}: median {statistics.median(vals):.6g}"
                  f" {spec['unit']}  spread {spread:.4f}  bound "
                  f"{spec['bound']} ({spread / spec['bound']:.2f} of it)")
    return status


if __name__ == "__main__":
    sys.exit(main())
