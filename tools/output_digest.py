"""Print sha256 digests of the trainer's outputs, to check that a change
leaves them byte-identical.

Run it against each checkout's sources and compare the printed lines:

    PYTHONPATH=<checkout>/src python tools/output_digest.py

Each line is "<name> <sha256>". Sweep rows are digested as repr(rows);
the "-json" lines digest the two benchmark grids' rows as the benchmark
does, json.dumps of their dicts with sorted keys (48e8d7101c4c7d83... for
the criterion-7 grid, 9ebc493139330ce1... for grid-gauss at seed 0).
A fit is digested as pi and theta_tilde where it has a generative half
(every fit but lam = 1), then b and w (dtype, shape and raw bytes, since
an array's repr elides its middle), then repr(report).
The "-model-file" line digests the bytes save_model writes for the
compressed beta fit, so a change of the model file format shows too.
The "prior-curves-" lines digest the beta_density and normal_density
columns of prior_curve_rows() at its default arguments, one line each.
The script uses only names every recent version of the package exports,
and takes under ten seconds on a 2-core x86 machine.

tools/output_digests.txt holds the lines of the current outputs.

    PYTHONPATH=src python tools/output_digest.py --check tools/output_digests.txt

compares against it: it prints every line that moved, is missing or is
new, and exits 1 on any difference, 0 when all lines match. A change
that moves outputs on purpose updates that file in the same commit.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from hybridssl import model
from hybridssl.data import SplitSpec, generate_synthetic, sample_split
from hybridssl.harness import SweepSpec, SyntheticSpec, prior_curve_rows, run_sweep
from hybridssl.model import CouplingConfig, CouplingKind, Dataset
from hybridssl.trainer import TrainConfig, train

LAMBDAS = (0.0, 0.5, 1.0)


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def json_digest(rows) -> str:
    text = json.dumps([dataclasses.asdict(r) for r in rows], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def grid(kind: CouplingKind, lambdas, seeds) -> SweepSpec:
    """The criterion-7 grid shape: K=2, M=50, 500 documents per class."""
    return SweepSpec(lambdas=lambdas, unlabeled_counts=(0, 500), labeled_per_class=10,
                     seeds=seeds, coupling_kind=kind,
                     synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=0))


def dense_split() -> Dataset:
    """K=4, M=3,000: small enough that X is cached densely."""
    full = generate_synthetic(4, 3000, 100, 0.5, seed=5)
    train_set, _ = sample_split(full, SplitSpec(labeled_per_class=10, unlabeled_total=200,
                                                seed=5))
    return train_set


def compressed_corpus(k: int = 3, n_labeled: int = 30) -> Dataset:
    """K classes, M=50,000, 420 documents of 40 present features each, the
    first n_labeled of them labeled: at 0.08% density X stays in
    compressed rows."""
    m, n, nnz = 50_000, 420, 40
    rng = np.random.default_rng(11)
    labels = np.where(np.arange(n) < n_labeled, np.arange(n) % k, -1)
    topic = rng.integers(0, k, n)
    topic[:n_labeled] = labels[:n_labeled]
    rows = []
    for i in range(n):
        words = rng.integers(0, m // 2, nnz) + topic[i] * (m // (2 * k))
        words[nnz // 2:] = rng.integers(0, m, nnz - nnz // 2)
        rows.append(np.unique(words))
    indptr = np.concatenate(([0], np.cumsum([r.size for r in rows])))
    data = Dataset(indptr, np.concatenate(rows), labels, k, m)
    assert data._dense_matrix is None
    return data


def model_file_digest(disc) -> str:
    """sha256 of the bytes save_model writes for the fit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.txt")
        model.save_model(disc, path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def fits(name: str, data: Dataset, lambdas, max_outer_iters: int, kinds=tuple(CouplingKind),
         model_files=()):
    """A line per fit; the fits of the kinds in model_files are followed by
    their "-model-file" line."""
    for kind in kinds:
        for lam in lambdas:
            gen, disc, report = train(data, CouplingConfig.from_lambda(lam, kind),
                                      TrainConfig(max_outer_iters=max_outer_iters))
            fit = f"{name}-{kind.value}-lam{lam}"
            halves = (disc.b, disc.w) if gen is None else (gen.pi, gen.theta_tilde,
                                                           disc.b, disc.w)
            yield fit, digest(*halves, report)
            if kind in model_files:
                yield fit + "-model-file", model_file_digest(disc)


def digest_lines():
    """(name, sha256) of every output, in print order."""
    rows = run_sweep(grid(CouplingKind.BETA, (0.0, 0.25, 0.5, 0.75, 1.0), (1, 2, 3, 4, 5)))
    yield "criterion-7-rows", digest(rows)
    yield "criterion-7-rows-json", json_digest(rows)
    rows = run_sweep(grid(CouplingKind.GAUSSIAN, (0.25, 0.5), tuple(range(1, 11))))
    yield "grid-gauss-seed0-rows", digest(rows)
    yield "grid-gauss-seed0-rows-json", json_digest(rows)
    yield from fits("dense-fit", dense_split(), LAMBDAS, 4)
    # lam = 0 pins the naive Bayes EM on compressed rows
    compressed = compressed_corpus()
    yield from fits("compressed-fit", compressed, (0.0,), 3)
    yield from fits("compressed-fit", compressed, (0.5,), 3, model_files=(CouplingKind.BETA,))
    # K=20, the text-cli class count: numpy sums 8 or more contiguous values
    # pairwise, so only these fits' softmax normalizers are not sequential
    # sums. At lam = 1 the labeled documents restricted to their features
    # are a 60 x 2,342 set at 1.7% density, which the storage rule decides.
    yield from fits("compressed-k20-fit", compressed_corpus(20, 60), (0.0, 0.5, 1.0), 3,
                    (CouplingKind.BETA,))
    rows = prior_curve_rows()
    yield "prior-curves-beta", digest(np.array([r[3] for r in rows]))
    yield "prior-curves-normal", digest(np.array([r[4] for r in rows]))


def check(path) -> int:
    """Compare the outputs with the "<name> <sha256>" lines of path; print
    each difference and return the exit status."""
    with open(path, encoding="ascii") as fh:
        expected = dict(line.split() for line in fh if line.strip())
    differences = 0
    for name, value in digest_lines():
        want = expected.pop(name, None)
        if want != value:
            differences += 1
            print(f"new {name} {value}" if want is None else f"moved {name} {want} -> {value}",
                  flush=True)
    for name, want in expected.items():
        differences += 1
        print(f"missing {name} {want}")
    print(f"{differences} difference(s) from {path}")
    return 1 if differences else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with the digest lines in FILE instead of printing them")
    args = parser.parse_args()
    if args.check:
        sys.exit(check(args.check))
    for name, value in digest_lines():
        print(name, value, flush=True)


if __name__ == "__main__":
    main()
