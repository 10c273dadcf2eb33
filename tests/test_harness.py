"""Experiment harness: sweep execution, aggregation, best-lambda queries,
CSV formats, and the prior-curve export."""

import concurrent.futures
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridssl import harness, trainer
from hybridssl.data import SplitSpec, generate_synthetic, sample_split
from hybridssl.errors import ConfigError, QueryError
from hybridssl.harness import (AGGREGATE_HEADER, CURVES_HEADER,
                               DEFAULT_CURVE_GAMMAS, RESULTS_HEADER,
                               AggregateRow, ResultRow, SweepSpec,
                               SyntheticSpec, aggregate, best_lambda,
                               export_prior_curves,
                               prior_curve_rows, run_sweep,
                               write_aggregate_csv, write_results_csv)
from hybridssl.model import CouplingConfig, lr_scores_matrix, nb_scores_matrix
from hybridssl.rng import derive_seed
from hybridssl.trainer import TrainConfig, train


def quick_spec(**overrides):
    base = dict(
        lambdas=(0.0, 0.5, 1.0),
        unlabeled_counts=(0, 20),
        labeled_per_class=5,
        seeds=(1, 2),
        synthetic=SyntheticSpec(num_classes=2, num_features=10,
                                separation=0.6, docs_per_class=40, seed=0),
        train_config=TrainConfig(max_outer_iters=15),
    )
    base.update(overrides)
    return SweepSpec(**base)


def row(lam, unlabeled, seed, acc, failed=False):
    return ResultRow(lam=lam, unlabeled=unlabeled, seed=seed, accuracy=acc,
                     gen_accuracy=acc, outer_iters=3, converged=True,
                     wall_ms=0.0, failed=failed,
                     error="boom" if failed else "")


# ---------------------------------------------------------------------------
# spec validation

def test_sweep_spec_validation():
    for bad, message in (
            (dict(lambdas=()), "lambda grid is empty"),
            (dict(lambdas=(0.0, 1.5)), r"lambda must lie in \[0, 1\], got 1.5"),
            (dict(lambdas=(0.5, 0.5)), "lambda grid contains duplicates"),
            (dict(disc_prior_sigma2=0.0), "disc_prior_sigma2 must be > 0"),
            (dict(unlabeled_counts=()), "unlabeled count grid is empty"),
            (dict(unlabeled_counts=(0, 0)), "unlabeled count grid contains duplicates"),
            (dict(unlabeled_counts=(-1,)), "unlabeled_total must be >= 0, got -1"),
            (dict(seeds=()), "seed list is empty"),
            (dict(seeds=(1, 1)), "seed list contains duplicates"),
            # -1 gives the same cells as seed 2**64 - 1, and 2**64 as seed 0
            (dict(seeds=(-1,)), r"seed must lie in \[0, 2\*\*64\), got -1"),
            (dict(seeds=(2 ** 64,)),
             r"seed must lie in \[0, 2\*\*64\), got 18446744073709551616"),
            (dict(labeled_per_class=0), "labeled_per_class must be >= 1"),
            (dict(corpus_path="also.txt"), "exactly one"),  # two corpus sources
            (dict(synthetic=None), "exactly one")):  # no corpus source
        with pytest.raises(ConfigError, match=message):
            quick_spec(**bad)


def test_sweep_spec_refuses_a_bad_prior_variance_before_building_the_corpus(monkeypatch):
    # each lambda builds its CouplingConfig when the spec is made
    built = []
    monkeypatch.setattr(harness, "generate_synthetic",
                        lambda *args: built.append(args) or generate_synthetic(*args))
    with pytest.raises(ConfigError, match="disc_prior_sigma2 must be > 0"):
        run_sweep(quick_spec(disc_prior_sigma2=0.0))
    assert built == []


def test_sweep_spec_sorts_grids():
    spec = quick_spec(lambdas=(1.0, 0.0, 0.5), unlabeled_counts=(20, 0))
    assert spec.lambdas == (0.0, 0.5, 1.0)
    assert spec.unlabeled_counts == (0, 20)


def test_cell_seeds_of_a_grid_are_distinct():
    seeds = {derive_seed(1, i, j) for i in range(3) for j in range(3)}
    assert len(seeds) == 9


# ---------------------------------------------------------------------------
# sweep execution

def test_run_sweep_row_order_and_determinism():
    spec = quick_spec()
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    assert rows1 == rows2
    keys = [(r.lam, r.unlabeled, r.seed) for r in rows1]
    assert keys == sorted(keys)
    assert len(rows1) == 3 * 2 * 2
    assert all(not r.failed for r in rows1)
    assert all(r.wall_ms == 0.0 for r in rows1)


def test_run_sweep_jobs_parity():
    # repr, not ==: a lam = 1 row's NaN gen_accuracy comes back from a
    # worker as another float object, and NaN != NaN. Float repr round-trips,
    # so this stays bit-exact and also tells -0.0 from +0.0.
    spec = quick_spec()
    assert repr(run_sweep(spec, jobs=2)) == repr(run_sweep(spec, jobs=1))
    with pytest.raises(ConfigError):
        run_sweep(spec, jobs=0)


def test_run_sweep_starts_no_more_workers_than_cells(monkeypatch):
    # the spy runs the cells in this process, so no worker is ever started
    requested = []

    class SpyPool:
        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "_worker_corpus", None)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    spec = quick_spec(lambdas=(0.5,), unlabeled_counts=(0,))
    assert run_sweep(spec, jobs=6) == run_sweep(spec, jobs=1)
    assert requested == [2]


def test_run_sweep_measure_time_populates_wall_ms():
    spec = quick_spec(lambdas=(0.5,), unlabeled_counts=(0,), seeds=(1,))
    rows = run_sweep(spec, measure_time=True)
    assert rows[0].wall_ms > 0.0


def _direct_cell(spec, corpus, lam, count, seed):
    """(gen, disc, report, test_set) of the cell trained outside the sweep:
    the protocol split of its sweep seed and grid position, then train
    with spec.train_config as given."""
    split = SplitSpec(labeled_per_class=spec.labeled_per_class, unlabeled_total=count,
                      seed=derive_seed(seed, spec.lambdas.index(lam),
                                       spec.unlabeled_counts.index(count)))
    train_set, test_set = sample_split(corpus, split)
    return (*train(train_set, CouplingConfig.from_lambda(lam), spec.train_config), test_set)


def _accuracy(scores, labels):
    return float(np.mean(np.argmax(scores, axis=1) == labels))


def test_sweep_endpoint_cells_match_direct_training(tmp_path):
    # A lambda = 1 sweep cell must reproduce the standalone run with the
    # same protocol split. It fits no generative half, so its gen_accuracy
    # is NaN.
    spec = quick_spec(lambdas=(0.0, 1.0))
    rows = run_sweep(spec)
    gen, disc, report, test_set = _direct_cell(spec, spec.synthetic.build(), 1.0, 0, 1)
    assert gen is None
    want = _accuracy(lr_scores_matrix(disc, test_set), test_set.labels)

    got = [r for r in rows if r.lam == 1.0 and r.unlabeled == 0 and r.seed == 1]
    assert len(got) == 1
    assert got[0].accuracy == want
    assert got[0].outer_iters == report.outer_iters_run
    assert got[0].converged == report.converged
    assert math.isnan(got[0].gen_accuracy)
    path = tmp_path / "r.csv"
    write_results_csv(got, path)
    assert path.read_text().splitlines()[1].split(",")[4] == "nan"

    # So must a BETA hybrid cell, trained with spec.train_config as given:
    # the sweep seed picks the split and nothing else. This is the
    # criterion-7 grid's lambda = 0.25, u = 0 cell at sweep seed 1, whose SGD
    # order shows in its accuracy.
    spec = SweepSpec(lambdas=(0.0, 0.25), unlabeled_counts=(0,), labeled_per_class=10,
                     seeds=(1,), synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=0))
    row = run_sweep(spec)[1]
    gen, disc, report, test_set = _direct_cell(spec, spec.synthetic.build(), 0.25, 0, 1)
    assert row.accuracy == _accuracy(lr_scores_matrix(disc, test_set), test_set.labels)
    assert row.gen_accuracy == _accuracy(nb_scores_matrix(gen, test_set), test_set.labels)
    assert (row.outer_iters, row.converged) == (report.outer_iters_run, report.converged)


def test_run_sweep_flags_failed_cells_and_continues(monkeypatch):
    monkeypatch.setattr(trainer, "_LEARNING_RATE0", 1e300)
    spec = quick_spec(lambdas=(0.5,), unlabeled_counts=(0,), seeds=(1, 2),
                      train_config=TrainConfig(max_outer_iters=3))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = run_sweep(spec)
    assert len(rows) == 2
    assert all(r.failed for r in rows)
    assert all(math.isnan(r.accuracy) for r in rows)
    assert all(r.error for r in rows)
    aggs = aggregate(rows)
    assert len(aggs) == 1
    assert aggs[0].n_seeds == 0
    assert math.isnan(aggs[0].mean_acc)


# ---------------------------------------------------------------------------
# aggregation and queries

def test_aggregate_mean_and_sample_std():
    rows = [row(0.5, 0, 1, 0.6), row(0.5, 0, 2, 0.7), row(0.5, 0, 3, 0.8),
            row(0.0, 0, 1, 0.9)]
    aggs = {(a.lam, a.unlabeled): a for a in aggregate(rows)}
    a = aggs[(0.5, 0)]
    assert_allclose(a.mean_acc, 0.7, rtol=1e-15)
    assert_allclose(a.std_acc, np.std([0.6, 0.7, 0.8], ddof=1), rtol=1e-12)
    assert a.n_seeds == 3
    b = aggs[(0.0, 0)]
    assert b.std_acc == 0.0 and b.n_seeds == 1


def test_aggregate_skips_failed_rows():
    rows = [row(0.5, 0, 1, 0.6), row(0.5, 0, 2, math.nan, failed=True)]
    (a,) = aggregate(rows)
    assert a.mean_acc == 0.6 and a.n_seeds == 1


def test_best_lambda_hand_examples():
    rows = []
    for lam, acc in [(0.2, 0.6), (0.5, 0.7), (0.8, 0.65)]:
        rows.append(row(lam, 0, 1, acc))
    assert best_lambda(rows, 0) == (0.5, 0.7)

    tie = [row(0.3, 10, 1, 0.8), row(0.6, 10, 1, 0.8)]
    assert best_lambda(tie, 10) == (0.3, 0.8)  # ties -> smaller lambda

    with pytest.raises(QueryError):
        best_lambda([row(0.5, 0, 1, 0.9)], 0)
    with pytest.raises(QueryError):
        best_lambda(rows, 99)  # no rows at that count


# ---------------------------------------------------------------------------
# CSV formats

def test_results_csv_format(tmp_path):
    rows = [row(0.5, 20, 3, 0.875)]
    path = tmp_path / "r.csv"
    write_results_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == RESULTS_HEADER
    assert lines[1] == "0.500000,20,3,0.875000,0.875000,3,true,0.000000"


def test_aggregate_csv_format(tmp_path):
    aggs = [AggregateRow(lam=1.0, unlabeled=0, mean_acc=0.9, std_acc=0.01, n_seeds=5)]
    path = tmp_path / "a.csv"
    write_aggregate_csv(aggs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == AGGREGATE_HEADER
    assert lines[1] == "1.000000,0,0.900000,0.010000,5"


def test_csv_export_byte_identical(tmp_path):
    spec = quick_spec(lambdas=(0.0, 1.0), seeds=(1,))
    rows = run_sweep(spec)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(rows, p1)
    write_results_csv(run_sweep(spec), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# prior curves

def test_prior_curve_rows_shape_and_axes():
    rows = prior_curve_rows(grid_points=101)
    assert len(rows) == len(DEFAULT_CURVE_GAMMAS) * 2 * 101
    gammas = sorted({r[0] for r in rows})
    assert gammas == sorted(DEFAULT_CURVE_GAMMAS)
    spaces = {r[1] for r in rows}
    assert spaces == {"mean", "natural"}
    mean_x = [r[2] for r in rows if r[0] == 1.0 and r[1] == "mean"]
    assert mean_x[0] == 1e-6 and mean_x[-1] == 1.0 - 1e-6
    from hybridssl.expfam import logit
    nat_x = [r[2] for r in rows if r[0] == 1.0 and r[1] == "natural"]
    assert_allclose(nat_x[0], logit(0.2) - 50.0, rtol=1e-12)
    assert_allclose(nat_x[-1], logit(0.2) + 50.0, rtol=1e-12)
    with pytest.raises(ConfigError):
        prior_curve_rows(grid_points=1)
    with pytest.raises(ConfigError, match="gamma list is empty"):
        prior_curve_rows(gammas=())
    with pytest.raises(ConfigError, match="gamma list contains duplicates"):
        prior_curve_rows(gammas=(1.0, 10.0, 1.0))


def test_prior_curves_integrate_to_one_on_both_axes():
    # Both axes carry mean-space density values, so the mean axis
    # integrates directly and the natural axis needs the Jacobian
    # dv/dt = v(1-v) at v = sigmoid(x).
    from hybridssl.expfam import sigmoid
    rows = prior_curve_rows(grid_points=2001)
    for gamma in DEFAULT_CURVE_GAMMAS:
        for space in ("mean", "natural"):
            got = [(r[2], r[3]) for r in rows if r[0] == gamma and r[1] == space]
            x = np.array([g[0] for g in got])
            dens = np.array([g[1] for g in got])
            if space == "natural":
                v = sigmoid(x)
                dens = dens * v * (1.0 - v)
            integral = np.trapezoid(dens, x)
            assert abs(integral - 1.0) < 1e-3, (gamma, space, integral)


def test_tighter_coupling_approaches_matched_normal():
    # max |beta - normal| on the mean axis must shrink as gamma grows,
    # and be smallest at the largest gamma.
    rows = prior_curve_rows(grid_points=2001)
    gaps = {}
    for gamma in DEFAULT_CURVE_GAMMAS:
        pairs = [(r[3], r[4]) for r in rows if r[0] == gamma and r[1] == "mean"]
        gaps[gamma] = max(abs(b - n) for b, n in pairs)
    ordered = [gaps[g] for g in sorted(DEFAULT_CURVE_GAMMAS)]
    assert ordered[-1] == min(ordered)
    assert ordered[-1] < ordered[-2] < ordered[0]


def test_export_prior_curves_csv(tmp_path):
    path = tmp_path / "curves.csv"
    n = export_prior_curves(path, grid_points=51)
    lines = path.read_text().splitlines()
    assert lines[0] == CURVES_HEADER
    assert len(lines) == n + 1
    assert n == len(DEFAULT_CURVE_GAMMAS) * 2 * 51
    first = lines[1].split(",")
    assert len(first) == 5
    assert first[1] == "mean"
    # byte-identical re-export
    path2 = tmp_path / "curves2.csv"
    export_prior_curves(path2, grid_points=51)
    assert path.read_bytes() == path2.read_bytes()
