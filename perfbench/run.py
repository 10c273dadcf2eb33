"""Benchmark of hybridssl: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload grid-beta --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The program is imported from src/ of
that checkout. Set-up runs SETUP_REPEATS times in fresh processes; the
program work then runs in one more process, so its peak memory holds no
input generation. The last line of standard output is the result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. The
exit code is 0 only when every correctness check passed. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_REPEATS = 5
# Every run ends well inside the 180 s a run may take.
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 120


def wall_seconds(passes):
    """One pass of the workload: the median over the run's timed passes.
    The machine's speed drifts by tens of percent over tens of seconds and
    fast stretches are the exception, so a median over a run's passes
    repeats better from run to run than the fastest pass (README.md,
    Steadiness)."""
    return statistics.median(p["seconds"] for p in passes)


def worker_env():
    """The process environment with numeric libraries held to nproc threads."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def start_worker(command, args, workdir, timeout):
    argv = [sys.executable, str(WORKER), command, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", str(workdir)]
    proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), stdout=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker {command} exited with {proc.returncode}")


def run_checks(args, result, workdir):
    passes = result["passes"]
    failures = checks.check_identical([p["digest"] for p in passes], args.workload)
    outputs = result["outputs"]
    if args.workload.startswith("grid"):
        failures += checks.check_grid(outputs["rows"])
    else:
        _, test = inputs.text_corpus(args.seed)
        predictions = (workdir / outputs["predictions"]).read_text()
        failures += checks.check_text(test, outputs["model"], predictions,
                                      outputs["predict_stderr"])
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description="hybridssl benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("grid-beta", "grid-gauss", "text-cli"))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="length of the timed window (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # BENCHMARK.json names every metric with its unit and direction.
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if not (ROOT / "src" / "hybridssl" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'hybridssl'}", file=sys.stderr)
        return 2
    workdir = BENCH / "work" / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "result.json").unlink(missing_ok=True)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        start_worker("setup", args, workdir, SETUP_TIMEOUT_S)
        setup_s.append(time.perf_counter() - start)
    start_worker("run", args, workdir, RUN_TIMEOUT_S)
    with open(workdir / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)

    failures = run_checks(args, result, workdir)
    for failure in failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values = {name: statistics.median(layers[name] for layers in result["layers"])
                  for name in result["layers"][0]}
        values["trace.overhead_s"] = wall_seconds(traced) - wall_seconds(untraced)
    else:
        values = {"setup_s": statistics.median(setup_s),
                  "wall_s": wall_seconds(untraced),
                  "peak_rss_mb": result["peak_rss_mb"],
                  "accuracy": passes[-1]["accuracy"]}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": not failures,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": sum(p["failed"] for p in passes),
                      "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
