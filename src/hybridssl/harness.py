"""Experiment harness: lambda/unlabeled sweeps, aggregation, CSV export,
and coupling-prior curve export.

A sweep evaluates every (lambda, unlabeled count, seed) cell of a grid.
Each cell draws its own protocol split and trains one hybrid model; the
split's seed mixes the sweep seed with the lambda index and count index
through rng.derive_seed, so cells are decoupled but reproducible; the
training itself reads no seed. Failed cells (numeric errors) are flagged
and the sweep carries on.

wall_ms is 0.0 unless timing is requested: output files are meant to be
byte-identical across reruns of the same configuration, and wall-clock
noise would break that. Pass measure_time=True for real timings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .data import SplitSpec, generate_synthetic, load_corpus, sample_split, split_test_size
from .errors import ConfigError, NumericError, QueryError
from .expfam import _check_gamma, beta_prior_log_density, beta_prior_moments, logit
from .model import (_DISC_PRIOR_SIGMA2, CouplingConfig, CouplingKind, Dataset, lr_scores_matrix,
                    nb_scores_matrix)
from .rng import check_seed, derive_seed
from .trainer import TrainConfig, train

RESULTS_HEADER = "lambda,unlabeled,seed,accuracy,gen_accuracy,outer_iters,converged,wall_ms"
AGGREGATE_HEADER = "lambda,unlabeled,mean_acc,std_acc,n_seeds"
CURVES_HEADER = "gamma,axis_space,x,beta_density,normal_density"

DEFAULT_CURVE_THETA_MEAN = 0.2
DEFAULT_CURVE_GAMMAS = (0.1, 1.0, 10.0, 100.0)
DEFAULT_CURVE_GRID_POINTS = 2001


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for an on-the-fly synthetic corpus."""

    num_classes: int
    num_features: int
    separation: float
    docs_per_class: int
    seed: int = 0

    def build(self) -> Dataset:
        return generate_synthetic(self.num_classes, self.num_features,
                                  self.docs_per_class, self.separation, self.seed)


def _grid(values, what: str, cast, check, sort: bool = True) -> tuple:
    """The tuple of cast(value) for values, sorted ascending if sort. An
    empty grid raises ConfigError, then check(value) raises for a bad
    value, then a grid with duplicates raises ConfigError."""
    values = tuple(cast(v) for v in values)
    if not values:
        raise ConfigError(f"{what} is empty")
    for value in values:
        check(value)
    if len(set(values)) != len(values):
        raise ConfigError(f"{what} contains duplicates")
    return tuple(sorted(values)) if sort else values


@dataclass(frozen=True)
class SweepSpec:
    """Full description of one sweep.

    Exactly one of corpus_path / synthetic supplies the corpus. The
    lambda grid and unlabeled counts are sorted ascending; seeds keep
    their given order but rows are emitted sorted. Every cell draws its
    protocol split from its sweep seed and grid position and runs
    ``train`` with train_config as given.

    Construction refuses a bad input before any corpus is read or built:
    no grid may be empty or repeat a value, each lambda must build its
    CouplingConfig, each count a SplitSpec, and each seed pass check_seed.
    """

    lambdas: tuple
    unlabeled_counts: tuple
    labeled_per_class: int
    seeds: tuple = (1, 2, 3, 4, 5)
    coupling_kind: CouplingKind = CouplingKind.BETA
    disc_prior_sigma2: float = _DISC_PRIOR_SIGMA2
    corpus_path: Optional[str] = None
    synthetic: Optional[SyntheticSpec] = None
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        object.__setattr__(self, "lambdas", _grid(
            self.lambdas, "lambda grid", float,
            lambda lam: CouplingConfig.from_lambda(lam, self.coupling_kind,
                                                   self.disc_prior_sigma2)))
        object.__setattr__(self, "unlabeled_counts", _grid(
            self.unlabeled_counts, "unlabeled count grid", int,
            lambda count: SplitSpec(self.labeled_per_class, count, seed=0)))
        object.__setattr__(self, "seeds", _grid(self.seeds, "seed list", int, check_seed,
                                                sort=False))
        if (self.corpus_path is None) == (self.synthetic is None):
            raise ConfigError("exactly one of corpus_path / synthetic must be given")

    def load_corpus(self) -> Dataset:
        if self.corpus_path is not None:
            return load_corpus(self.corpus_path)
        return self.synthetic.build()


@dataclass(frozen=True)
class ResultRow:
    """One sweep cell. gen_accuracy is NaN at the lam = 1 endpoint, which
    fits no generative half. failed=True marks a numeric failure; its
    accuracy fields are NaN and ``error`` carries the message."""

    lam: float
    unlabeled: int
    seed: int
    accuracy: float
    gen_accuracy: float
    outer_iters: int
    converged: bool
    wall_ms: float
    failed: bool = False
    error: str = ""


@dataclass(frozen=True)
class AggregateRow:
    """Per (lambda, unlabeled) cell: mean and sample stddev of accuracy
    over the seeds that succeeded."""

    lam: float
    unlabeled: int
    mean_acc: float
    std_acc: float
    n_seeds: int


def _accuracy(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def _run_cell(corpus: Dataset, spec: SweepSpec, lambda_index: int, count_index: int,
              base_seed: int, measure_time: bool) -> ResultRow:
    lam = spec.lambdas[lambda_index]
    count = spec.unlabeled_counts[count_index]
    try:
        split = SplitSpec(labeled_per_class=spec.labeled_per_class, unlabeled_total=count,
                          seed=derive_seed(base_seed, lambda_index, count_index))
        train_set, test_set = sample_split(corpus, split)
        coupling = CouplingConfig.from_lambda(lam, spec.coupling_kind,
                                              spec.disc_prior_sigma2)
        t0 = time.perf_counter()
        gen, disc, report = train(train_set, coupling, spec.train_config)
        wall_ms = (time.perf_counter() - t0) * 1000.0 if measure_time else 0.0
        labels = test_set.labels
        return ResultRow(
            lam=lam, unlabeled=count, seed=base_seed,
            accuracy=_accuracy(lr_scores_matrix(disc, test_set), labels),
            gen_accuracy=(math.nan if gen is None
                          else _accuracy(nb_scores_matrix(gen, test_set), labels)),
            outer_iters=report.outer_iters_run, converged=report.converged,
            wall_ms=wall_ms)
    except NumericError as exc:
        return ResultRow(lam=lam, unlabeled=count, seed=base_seed,
                         accuracy=math.nan, gen_accuracy=math.nan, outer_iters=0,
                         converged=False, wall_ms=0.0, failed=True, error=str(exc))


# The corpus of a sweep worker process, set once by the pool initializer so
# that it is not pickled into every cell's task.
_worker_corpus: Optional[Dataset] = None


def _set_worker_corpus(corpus: Dataset) -> None:
    global _worker_corpus
    _worker_corpus = corpus


def _run_worker_cell(cell) -> ResultRow:
    return _run_cell(_worker_corpus, *cell)


def run_sweep(spec: SweepSpec, jobs: int = 1, measure_time: bool = False) -> list:
    """Evaluate every grid cell; rows come back sorted by
    (lambda, unlabeled, seed). jobs > 1 fans cells out over
    min(jobs, cells) processes; results are identical either way."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    corpus = spec.load_corpus()
    for count in spec.unlabeled_counts:
        if split_test_size(corpus, spec.labeled_per_class, count) == 0:
            raise ConfigError(f"the split leaves no test document: {count} unlabeled and "
                              f"{spec.labeled_per_class} labeled per class take every "
                              f"labeled document of the corpus")
    cells = [(spec, li, ci, seed, measure_time)
             for li in range(len(spec.lambdas))
             for ci in range(len(spec.unlabeled_counts))
             for seed in sorted(spec.seeds)]
    if jobs == 1 or len(cells) == 1:
        return [_run_cell(corpus, *cell) for cell in cells]
    # imported here: multiprocessing adds about 2 MB to every process that loads it
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(jobs, len(cells)), initializer=_set_worker_corpus,
                             initargs=(corpus,)) as pool:
        return list(pool.map(_run_worker_cell, cells))


def aggregate(rows) -> list:
    """Group rows by (lambda, unlabeled); mean and sample stddev (ddof 1,
    0.0 for a single seed) of accuracy over non-failed rows. Groups whose
    every seed failed keep NaN statistics with n_seeds = 0."""
    groups = {}
    for row in rows:
        groups.setdefault((row.lam, row.unlabeled), []).append(row)
    out = []
    for (lam, count) in sorted(groups):
        accs = [r.accuracy for r in groups[(lam, count)] if not r.failed]
        if not accs:
            out.append(AggregateRow(lam, count, math.nan, math.nan, 0))
            continue
        mean = float(np.mean(accs))
        std = float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0
        out.append(AggregateRow(lam, count, mean, std, len(accs)))
    return out


def best_lambda(rows, unlabeled: int):
    """(lambda, mean accuracy) with the highest mean over seeds at the
    given unlabeled count; ties go to the smaller lambda. Needs at least
    two distinct lambda values to be a meaningful comparison."""
    means = {}
    for agg in aggregate(rows):
        if agg.unlabeled == unlabeled and agg.n_seeds > 0:
            means[agg.lam] = agg.mean_acc
    if len(means) < 2:
        raise QueryError(f"best-lambda query needs >= 2 lambda values with results at "
                         f"unlabeled={unlabeled}, got {len(means)}")
    best = max(sorted(means), key=lambda lam: means[lam])
    return best, means[best]


def write_results_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for r in rows:
            fh.write(f"{r.lam:.6f},{r.unlabeled},{r.seed},{r.accuracy:.6f},"
                     f"{r.gen_accuracy:.6f},{r.outer_iters},"
                     f"{str(r.converged).lower()},{r.wall_ms:.6f}\n")


def write_aggregate_csv(aggregates, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(AGGREGATE_HEADER + "\n")
        for a in aggregates:
            fh.write(f"{a.lam:.6f},{a.unlabeled},{a.mean_acc:.6f},"
                     f"{a.std_acc:.6f},{a.n_seeds}\n")


def prior_curve_rows(theta_mean: float = DEFAULT_CURVE_THETA_MEAN, gammas=DEFAULT_CURVE_GAMMAS,
                     grid_points: int = DEFAULT_CURVE_GRID_POINTS) -> list:
    """Tabulate the coupling prior against its matched normal.

    For each coupling strength gamma the prior is centered at the natural
    parameter logit(theta_mean). Both axis_space views carry the same
    mean-space density values (the coupling prior and the logistic-normal
    sharing its mode and variance); they differ only in the x coordinate:
    the mean axis samples v in (0, 1) directly, the natural axis samples
    theta_tilde over [center - 50, center + 50] and reports the densities
    at v = sigmoid(theta_tilde). Trapezoid integration therefore recovers
    1 on the mean axis directly and on the natural axis after multiplying
    by the Jacobian dv/dt = v (1 - v).
    Rows are (gamma, axis_space, x, beta_density, normal_density), the
    gammas in their given order, which may not repeat one; a density that
    is not finite raises NumericError.
    """
    if grid_points < 2:
        raise ConfigError(f"grid_points must be >= 2, got {grid_points}")
    gammas = _grid(gammas, "gamma list", float, _check_gamma, sort=False)
    theta = logit(theta_mean)
    mean_grid = np.linspace(1e-6, 1.0 - 1e-6, grid_points)
    nat_from_mean = logit(mean_grid)
    nat_grid = np.linspace(theta - 50.0, theta + 50.0, grid_points)
    rows = []
    for gamma in gammas:
        var = beta_prior_moments(theta, gamma)[1]
        norm = 1.0 / math.sqrt(2.0 * math.pi * var)
        # an overflow is caught below as a non-finite density, not warned about
        with np.errstate(over="ignore"):
            beta_mean = np.exp(beta_prior_log_density(nat_from_mean, theta, gamma))
            normal_nat_at_mean = norm * np.exp(-0.5 * (nat_from_mean - theta) ** 2 / var)
            normal_mean = normal_nat_at_mean / (mean_grid * (1.0 - mean_grid))
            beta_nat = np.exp(beta_prior_log_density(nat_grid, theta, gamma))
            # log(1 / (v(1-v))) = A(t) + A(-t); assembled in log space because
            # 1 - sigmoid(t) underflows at the window edges.
            normal_nat = np.exp(math.log(norm)
                                - 0.5 * (nat_grid - theta) ** 2 / var
                                + np.logaddexp(0.0, nat_grid)
                                + np.logaddexp(0.0, -nat_grid))
        if not np.isfinite((beta_mean, normal_mean, beta_nat, normal_nat)).all():
            raise NumericError(f"coupling prior density is not finite (theta_mean={theta_mean}, "
                               f"gamma={gamma})", snapshot={"theta": theta, "gamma": gamma})
        rows.extend((gamma, "mean", x, bd, nd)
                    for x, bd, nd in zip(mean_grid, beta_mean, normal_mean))
        rows.extend((gamma, "natural", x, bd, nd)
                    for x, bd, nd in zip(nat_grid, beta_nat, normal_nat))
    return rows


def export_prior_curves(path, **curve_args) -> int:
    """Write prior_curve_rows(**curve_args) as CSV; returns the number of
    data rows."""
    rows = prior_curve_rows(**curve_args)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CURVES_HEADER + "\n")
        for gamma, space, x, bd, nd in rows:
            fh.write(f"{gamma:.6f},{space},{x:.6f},{bd:.6f},{nd:.6f}\n")
    return len(rows)
