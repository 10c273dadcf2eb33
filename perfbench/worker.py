"""The program work of one workload, in a process of its own.

    python3 perfbench/worker.py setup --workload W --seed N --workdir DIR
    python3 perfbench/worker.py run --workload W --seed N --seconds T --trace 0|1 --workdir DIR

``setup`` imports the program and writes the workload's input files to
DIR. ``run`` makes one warm-up pass, then timed passes for about T
seconds, and writes what it measured to DIR/result.json. With --trace 1
the window is split: untraced passes first, then traced ones. run.py
starts both commands and checks the outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import hybridssl from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hybridssl
    from hybridssl import cli, harness  # noqa: F401  (tracing needs every module loaded)
    where = Path(hybridssl.__file__).resolve().parent
    if where != (src / "hybridssl").resolve():
        raise SystemExit(f"hybridssl was imported from {where}, not from {src}")
    return hybridssl


def sha256_text(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
    return h.hexdigest()


class GridWorkload:
    """A lambda x unlabeled x seed sweep through harness.run_sweep(jobs=1)."""

    def __init__(self, program, name, seed, workdir):
        self.harness = program.harness
        coupling = program.model.CouplingKind(inputs.GRID_COUPLING[name])
        synthetic = program.harness.SyntheticSpec(
            inputs.GRID_K, inputs.GRID_M, inputs.GRID_SEPARATION,
            inputs.GRID_DOCS_PER_CLASS, seed=seed)
        seeds = inputs.grid_seeds(name, seed)
        common = dict(lambdas=inputs.GRID_LAMBDAS[name],
                      unlabeled_counts=inputs.GRID_UNLABELED,
                      labeled_per_class=inputs.GRID_LABELED_PER_CLASS,
                      coupling_kind=coupling, synthetic=synthetic)
        self.spec = program.harness.SweepSpec(seeds=seeds, **common)
        # every code path of the grid, on one seed
        self.warmup_spec = program.harness.SweepSpec(seeds=seeds[:1], **common)
        self.rows = []

    def setup(self):
        pass

    def warmup(self):
        self.harness.run_sweep(self.warmup_spec, jobs=1)

    def run_pass(self):
        start = time.perf_counter()
        rows = self.harness.run_sweep(self.spec, jobs=1)
        seconds = time.perf_counter() - start
        self.rows = [dataclasses.asdict(r) for r in rows]
        usable = [r["accuracy"] for r in self.rows if not r["failed"]]
        return dict(seconds=seconds,
                    digest=sha256_text(json.dumps(self.rows, sort_keys=True)),
                    attempted=len(rows), failed=len(rows) - len(usable),
                    accuracy=statistics.fmean(usable) if usable else math.nan)

    def outputs(self):
        return {"rows": self.rows}

    def extra(self):
        return {}


class TextWorkload:
    """`hybridssl train` then `hybridssl predict`, through cli.main."""

    def __init__(self, program, name, seed, workdir):
        self.cli = program.cli
        self.seed = seed
        self.train_path = workdir / "train.txt"
        self.test_path = workdir / "test.txt"
        self.model_path = workdir / "model.txt"
        self.predict_argv = ["predict", "--model", str(self.model_path),
                             "--corpus", str(self.test_path)]
        self.last = None

    def setup(self):
        train, test = inputs.text_corpus(self.seed)
        n_labeled = inputs.TEXT_K * inputs.TEXT_LABELED_PER_CLASS
        inputs.write_corpus_file(self.train_path, train, inputs.TEXT_K, inputs.TEXT_M,
                                 np.arange(len(train)) < n_labeled)
        inputs.write_corpus_file(self.test_path, test, inputs.TEXT_K, inputs.TEXT_M,
                                 np.ones(len(test), dtype=bool))

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def warmup(self):
        """Every code path of a pass, in about half its time."""
        self.run_pass(max_iters=1)

    def run_pass(self, max_iters=inputs.TEXT_MAX_ITERS):
        train_argv = ["train", "--corpus", str(self.train_path),
                      "--lambda", str(inputs.TEXT_LAMBDA), "--max-iters", str(max_iters),
                      "--seed", str(self.seed), "--out", str(self.model_path)]
        self.model_path.unlink(missing_ok=True)
        start = time.perf_counter()
        train_code, _, train_err = self._cli(train_argv)
        predict_code, predictions, predict_err = self._cli(self.predict_argv)
        seconds = time.perf_counter() - start
        model_digest = hashlib.sha256()
        if self.model_path.exists():
            with open(self.model_path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    model_digest.update(chunk)
        self.last = (predictions, predict_err)
        match = checks.ACCURACY_RE.search(predict_err)
        accuracy = int(match.group(1)) / int(match.group(2)) if match else math.nan
        digest = sha256_text(model_digest.hexdigest(), predictions, train_err, predict_err)
        return dict(seconds=seconds, digest=digest, attempted=2,
                    failed=int(train_code != 0) + int(predict_code != 0), accuracy=accuracy)

    def outputs(self):
        predictions, predict_err = self.last
        (self.model_path.parent / "predictions.txt").write_text(predictions)
        return {"model": str(self.model_path), "predictions": "predictions.txt",
                "predict_stderr": predict_err}

    def extra(self):
        return {"model_file_mb": self.model_path.stat().st_size / 1e6,
                "predicted_docs": self.last[0].count("\n")}


WORKLOADS = {"grid-beta": GridWorkload, "grid-gauss": GridWorkload,
             "text-cli": TextWorkload}


def timed_passes(workload, seconds, tracer=None):
    """Passes until the next one would end after ``seconds``, and at least
    two. With a tracer, passes alternate untraced and traced, so that a
    drift in the machine's speed falls on both kinds alike."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start + passes[-1]["seconds"] <= seconds:
        traced = tracer is not None and len(passes) % 2 == 1
        undo = []
        if traced:
            tracer.pass_index = len(passes)
            undo = tracing.install(tracer)
        try:
            passes.append(dict(workload.run_pass(), traced=traced))
        finally:
            tracing.uninstall(undo)
    return passes


def run(args, workload):
    workload.warmup()
    tracer = tracing.Tracer() if args.trace else None
    result = {"passes": timed_passes(workload, args.seconds, tracer),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        extra = workload.extra()
        result["layers"] = [tracing.pass_layers(tracer, i, extra)
                            for i, p in enumerate(result["passes"]) if p["traced"]]
        tracing.write_spans(tracer, args.workdir / "spans.tsv")
    result["outputs"] = workload.outputs()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)
    program = import_program()
    workload = WORKLOADS[args.workload](program, args.workload, args.seed, args.workdir)
    if args.command == "setup":
        workload.setup()
        return 0
    result = run(args, workload)
    with open(args.workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
