"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload certify --seeds 0-9 [--out runs.json]

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric its median and its spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
With ``--compare runs.json`` it also prints how far this set's median lies
from the stored set's, as a share of the stored median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", type=Path, help="store every run's result here")
    parser.add_argument("--compare", type=Path, help="a file written by --out")
    args = parser.parse_args()
    results = []
    for seed in args.seeds:
        argv = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, correct={result['correct']}")
            return 1
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(results))
    base = json.loads(args.compare.read_text()) if args.compare else None
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        line = f"{name:14s} median {statistics.median(values):12.6g}  spread {spread(values):7.2%}"
        if base:
            old = statistics.median(r["metrics"][name]["value"] for r in base)
            line += f"  vs stored median {statistics.median(values) / old - 1:+7.2%}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
