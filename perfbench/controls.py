"""Negative controls: every correctness check of the benchmark must reject
a corrupted output and accept the clean one it was made from.

    python3 perfbench/controls.py

Runs the program once per workload kind at reduced size (one sweep seed;
one outer iteration of `hybridssl train`), then feeds each check the
clean output and a corrupted copy. Prints one line per control and exits
non-zero if any check accepts a corrupted output or rejects a clean one.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import checks
import inputs
import worker


def corrupt_model(path, out):
    """Copy a model file with the w rows of classes 0 and 1 swapped."""
    lines = Path(path).read_text().split("\n")
    w_at = lines.index("w")
    lines[w_at + 1], lines[w_at + 2] = lines[w_at + 2], lines[w_at + 1]
    Path(out).write_text("\n".join(lines))
    return out


def main():
    program = worker.import_program()
    workdir = Path(__file__).resolve().parent / "work" / "controls"
    workdir.mkdir(parents=True, exist_ok=True)

    grid = worker.GridWorkload(program, "grid-beta", inputs.DEFAULT_SEED, workdir)
    rows = [dataclasses.asdict(r) for r in program.harness.run_sweep(grid.warmup_spec)]
    failed_cell = [dict(rows[0], failed=True, error="numeric error: injected")] + rows[1:]
    swapped = [dict(r, accuracy=1.0 - r["accuracy"]) for r in rows]

    text = worker.TextWorkload(program, "text-cli", inputs.DEFAULT_SEED, workdir)
    text.setup()
    text.run_pass(max_iters=1)
    predictions, stderr = text.last
    _, test = inputs.text_corpus(inputs.DEFAULT_SEED)
    first = predictions.split("\n", 1)
    cls = first[0].split("\t")
    moved = "\t".join([cls[0], str((int(cls[1]) + 1) % inputs.TEXT_K), cls[2]])
    count = checks.ACCURACY_RE.search(stderr).group(1)
    miscounted = stderr.replace(f"accuracy={count}/", f"accuracy={int(count) + 1}/", 1)
    swapped_model = corrupt_model(text.model_path, workdir / "swapped.model")

    controls = [
        ("grid: no failed cells", lambda r: checks.check_grid(r), rows, failed_cell),
        ("grid: mean accuracy near the Bayes-optimal accuracy",
         lambda r: checks.check_grid(r), rows, swapped),
        ("all: passes give identical outputs",
         lambda d: checks.check_identical(d, "control"), ["a", "a", "a"], ["a", "b", "a"]),
        ("text-cli: predict's classes equal the model file's argmax",
         lambda p: checks.check_text(test, text.model_path, p, stderr),
         predictions, moved + "\n" + first[1]),
        ("text-cli: predict scores with the model it saved",
         lambda m: checks.check_text(test, m, predictions, stderr),
         text.model_path, swapped_model),
        ("text-cli: reported accuracy equals the count against the generated labels",
         lambda e: checks.check_text(test, text.model_path, predictions, e),
         stderr, miscounted),
    ]
    ok = True
    for name, check, clean, corrupted in controls:
        clean_failures, corrupt_failures = check(clean), check(corrupted)
        good = not clean_failures and bool(corrupt_failures)
        ok &= good
        detail = corrupt_failures[0] if corrupt_failures else "corruption NOT detected"
        if clean_failures:
            detail = f"clean output rejected: {clean_failures[0]}"
        print(f"{'PASS' if good else 'FAIL'} control {name}: {detail}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
