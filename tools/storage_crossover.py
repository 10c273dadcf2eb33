"""Time Dataset's two products both ways, dense and in compressed rows, on
the shapes the workloads reach, to place the storage rule's crossover.

    PYTHONPATH=src python tools/storage_crossover.py

Each line is one shape (N documents, M features, K rows of t) at one
density: its cells per present entry (N * M / nnz), then the best of 7
times in microseconds of scores (X @ t.T) and counts (r.T @ X), dense and
in compressed rows, and the sum of each pair. A Dataset stores X densely
up to model._DENSE_CELLS_PER_ENTRY cells per entry. Takes a few seconds.
"""

from __future__ import annotations

import timeit

import numpy as np

from hybridssl import model

# the criterion-7 split, a K=20 set, the offline grid's corpus, text-cli's
# labeled documents restricted to their features, and the digest corpus's
SHAPES = ((520, 50, 2), (200, 2000, 20), (1000, 2000, 4), (200, 10_263, 20), (60, 2342, 20))
DENSITIES = (0.01, 0.02, 0.03, 0.05, 0.1, 0.5)


def best_us(fn) -> float:
    return min(timeit.repeat(fn, number=1, repeat=7)) * 1e6


def main():
    print(f"{'N x M':>12s} {'K':>3s} {'density':>7s} {'cells/nnz':>9s} "
          f"{'dense scores':>12s} {'counts':>7s} {'sum':>7s} "
          f"{'csr scores':>10s} {'counts':>7s} {'sum':>7s}")
    for n, m, k in SHAPES:
        for density in DENSITIES:
            rng = np.random.default_rng(0)
            present = rng.random((n, m)) < density
            rows, indices = np.divmod(np.flatnonzero(present), m)
            indptr = np.searchsorted(rows, np.arange(n + 1))
            x = present.astype(float)
            t = rng.normal(size=(k, m))
            r = rng.random((n, k))
            times = (best_us(lambda: x @ t.T), best_us(lambda: r.T @ x),
                     best_us(lambda: model._csr_scores(indptr, indices, t)),
                     best_us(lambda: model._csr_counts(indptr, indices, r, m)))
            print(f"{n:>5d} x {m:<6d} {k:>3d} {density:>7.2f} {n * m / indices.size:>9.1f} "
                  f"{times[0]:>12.0f} {times[1]:>7.0f} {times[0] + times[1]:>7.0f} "
                  f"{times[2]:>10.0f} {times[3]:>7.0f} {times[2] + times[3]:>7.0f}",
                  flush=True)


if __name__ == "__main__":
    main()
