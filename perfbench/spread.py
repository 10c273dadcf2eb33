"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload grid-beta --seeds 0-9 [--seconds 20]

For every end-to-end metric it prints the median of the runs, the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, and that share against the metric's
bound in BENCHMARK.json. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        line = [f"seed={seed}", f"exit={proc.returncode}", f"correct={result['correct']}",
                f"failed={result['failed']}/{result['attempted']}"]
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
            line.append(f"{name}={metric['value']:.6g}")
        print(" ".join(line), flush=True)

    for metric in spec["end_to_end"]:
        runs = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(runs, n=4)
        share = (q3 - q1) / median
        print(f"{args.workload} {metric['name']}: median={median:.6g} "
              f"iqr/median={share:.4f} bound={metric['bound']} "
              f"({share / metric['bound']:.2f} of the bound)")


if __name__ == "__main__":
    main()
