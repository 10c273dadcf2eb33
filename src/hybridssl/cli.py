"""Command-line interface.

Subcommands:
  train         fit one model (any lambda / coupling) and save it
  predict       score a corpus with a saved model
  sweep         run a lambda x unlabeled-count x seed grid, export CSVs
  synth         generate a synthetic corpus file
  prior-curves  tabulate the coupling prior vs its matched normal

Exit codes: 0 success, 2 usage/configuration/parse errors, 3 numeric
failures. All diagnostics go to stderr; stdout carries only data
(predictions, sweep summary lines).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .data import load_corpus, write_corpus
from .errors import ConfigError, NumericError, QueryError
from .harness import (DEFAULT_CURVE_GAMMAS, DEFAULT_CURVE_GRID_POINTS, DEFAULT_CURVE_THETA_MEAN,
                      SweepSpec, SyntheticSpec, aggregate, best_lambda, export_prior_curves,
                      run_sweep, write_aggregate_csv, write_results_csv)
from .model import (_DISC_PRIOR_SIGMA2, CouplingConfig, CouplingKind, _normalize, load_model,
                    lr_scores_matrix, save_model)
from .rng import check_seed
from .trainer import TrainConfig, train


def _parse_list(text: str, cast, kind: str) -> tuple:
    try:
        return tuple(cast(tok) for tok in text.split(","))
    except ValueError:
        raise ConfigError(f"expected comma-separated {kind}, got {text!r}") from None


def _parse_synthetic(text: str, seed: int) -> SyntheticSpec:
    try:
        k, m, sep, docs = text.split(",")
        return SyntheticSpec(num_classes=int(k), num_features=int(m), separation=float(sep),
                             docs_per_class=int(docs), seed=seed)
    except ValueError:
        raise ConfigError(f"--synthetic takes K,M,SEP,DOCS_PER_CLASS, got {text!r}") from None


def _parse_seeds(text: str) -> tuple:
    """'N' means seeds 1..N; 'a,b,c' is an explicit list."""
    values = _parse_list(text, int, "integers")
    if len(values) == 1:
        n = values[0]
        if n < 1:
            raise ConfigError(f"seed count must be >= 1, got {n}")
        check_seed(n)
        return tuple(range(1, n + 1))
    return values


def _corpus_source(args, seed: int):
    """The SyntheticSpec of --synthetic, or None when --corpus names the
    corpus file; refuses both or neither, and a seed out of range."""
    if (args.corpus is None) == (args.synthetic is None):
        raise ConfigError("exactly one of --corpus / --synthetic must be given")
    check_seed(seed)
    return None if args.synthetic is None else _parse_synthetic(args.synthetic, seed)


def _build_coupling(args) -> CouplingConfig:
    """--lambda or --gamma sets the strength."""
    kind = CouplingKind(args.coupling)
    if args.lam is not None:
        if args.gamma is not None:
            raise ConfigError("--lambda and --gamma are mutually exclusive")
        return CouplingConfig.from_lambda(args.lam, kind, args.disc_sigma2)
    if args.gamma is None:
        raise ConfigError("provide --lambda or --gamma to set the coupling strength")
    return CouplingConfig(kind=kind, gamma=args.gamma, disc_prior_sigma2=args.disc_sigma2)


def cmd_train(args) -> int:
    """Fit one model and save its classifier (b, w): at every lambda the
    trained (b, w) is what predict scores with, so the generative half is
    not written."""
    synthetic = _corpus_source(args, args.seed)
    coupling = _build_coupling(args)
    cfg = TrainConfig(max_outer_iters=args.max_iters, tol=args.tol)
    data = load_corpus(args.corpus) if synthetic is None else synthetic.build()
    disc, report = train(data, coupling, cfg)[1:]  # theta_tilde is freed here
    save_model(disc, args.out)
    print(f"mode={report.endpoint_mode.value} outer_iters={report.outer_iters_run} "
          f"converged={str(report.converged).lower()} "
          f"objective={report.log_joint_trace[-1]:.6f} model={args.out}",
          file=sys.stderr)
    return 0


def cmd_predict(args) -> int:
    """Score a corpus with the classifier (b, w) of a saved model file."""
    disc = load_model(args.model)
    corpus = load_corpus(args.corpus)
    if corpus.num_features != disc.num_features:
        raise ConfigError(f"corpus has M={corpus.num_features} features, model "
                          f"expects M={disc.num_features}")
    if corpus.num_classes != disc.num_classes:
        raise ConfigError(f"corpus declares K={corpus.num_classes} classes, model "
                          f"has K={disc.num_classes}")
    scores = lr_scores_matrix(disc, corpus)
    probs = _normalize(scores)[1]
    preds = np.argmax(scores, axis=1)
    out = sys.stdout
    for i, (pred, row) in enumerate(zip(preds, probs)):
        out.write(f"{i}\t{int(pred)}\t{row[pred]:.6f}\n")
    if corpus.n_labeled > 0:
        correct = int(np.sum(preds[corpus.labeled_positions] == corpus.labels))
        n = corpus.n_labeled
        print(f"accuracy={correct}/{n}={correct / n:.6f}", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    synthetic = _corpus_source(args, args.corpus_seed)
    spec = SweepSpec(
        lambdas=_parse_list(args.lambdas, float, "floats"),
        unlabeled_counts=_parse_list(args.unlabeled, int, "integers"),
        labeled_per_class=args.labeled_per_class,
        seeds=_parse_seeds(args.seeds),
        coupling_kind=CouplingKind(args.coupling),
        disc_prior_sigma2=args.disc_sigma2,
        corpus_path=args.corpus,
        synthetic=synthetic,
        train_config=TrainConfig(max_outer_iters=args.max_iters, tol=args.tol))
    rows = run_sweep(spec, jobs=args.jobs, measure_time=args.measure_time)
    aggregates = aggregate(rows)
    write_results_csv(rows, args.out + ".results.csv")
    write_aggregate_csv(aggregates, args.out + ".aggregate.csv")
    print(f"wrote {args.out}.results.csv and {args.out}.aggregate.csv", file=sys.stderr)

    for count in spec.unlabeled_counts:
        try:
            lam, acc = best_lambda(rows, count)
            print(f"unlabeled={count} best_lambda={lam:.6f} mean_acc={acc:.6f}")
        except QueryError:  # fewer than two lambdas with results: list the one there is
            for agg in aggregates:
                if agg.unlabeled == count and agg.n_seeds > 0:
                    print(f"unlabeled={count} lambda={agg.lam:.6f} mean_acc={agg.mean_acc:.6f}")
    failures = [r for r in rows if r.failed]
    for r in failures:
        print(f"cell lambda={r.lam:.6f} unlabeled={r.unlabeled} seed={r.seed} "
              f"failed: {r.error}", file=sys.stderr)
    return 3 if failures else 0


def cmd_synth(args) -> int:
    spec = _parse_synthetic(args.synthetic, args.seed)
    data = spec.build()
    write_corpus(data, args.out)
    print(f"wrote {len(data)} documents (K={data.num_classes}, "
          f"M={data.num_features}) to {args.out}", file=sys.stderr)
    return 0


def cmd_prior_curves(args) -> int:
    n = export_prior_curves(args.out, theta_mean=args.theta_mean,
                            gammas=_parse_list(args.gammas, float, "floats"), grid_points=args.grid)
    print(f"wrote {n} curve rows to {args.out}", file=sys.stderr)
    return 0


def _add_corpus_args(sub, seed_flag, seed_help):
    sub.add_argument("--corpus", metavar="PATH", default=None,
                     help="corpus file to load")
    sub.add_argument("--synthetic", metavar="K,M,SEP,DOCS_PER_CLASS", default=None,
                     help="generate a synthetic corpus instead of loading one")
    sub.add_argument(seed_flag, type=int, default=0, help=seed_help)


def _add_coupling_family_args(sub):
    sub.add_argument("--coupling", choices=[k.value for k in CouplingKind],
                     default=CouplingKind.BETA.value, help="coupling prior family")
    sub.add_argument("--disc-sigma2", dest="disc_sigma2", type=float, default=_DISC_PRIOR_SIGMA2,
                     help="gaussian prior variance on the discriminative weights")


def _add_trainer_args(sub):
    sub.add_argument("--max-iters", type=int, default=TrainConfig.max_outer_iters,
                     help="outer iteration cap")
    sub.add_argument("--tol", type=float, default=TrainConfig.tol,
                     help="relative objective change declaring convergence")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridssl",
        description="Semi-supervised text classification with a coupled "
                    "generative/discriminative model.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    train_p = subs.add_parser(
        "train", help="fit a model and save it",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_corpus_args(train_p, "--seed", "seeds --synthetic; training reads no seed")
    train_p.add_argument("--lambda", dest="lam", type=float, default=None,
                         help="interpolation knob in [0, 1]; 0 = generative only, "
                              "1 = discriminative only")
    train_p.add_argument("--gamma", type=float, default=None,
                         help="explicit coupling strength: the beta concentration or "
                              "the gauss precision (mutually exclusive with --lambda)")
    _add_coupling_family_args(train_p)
    _add_trainer_args(train_p)
    train_p.add_argument("--out", required=True, metavar="PATH",
                         help="where to save the trained model")
    train_p.set_defaults(func=cmd_train)

    predict_p = subs.add_parser(
        "predict", help="score a corpus with a saved model",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    predict_p.add_argument("--model", required=True, metavar="PATH",
                           help="model file produced by train")
    predict_p.add_argument("--corpus", required=True, metavar="PATH",
                           help="corpus file to score")
    predict_p.set_defaults(func=cmd_predict)

    sweep_p = subs.add_parser(
        "sweep", help="lambda x unlabeled-count x seed experiment grid",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    _add_corpus_args(sweep_p, "--corpus-seed", "seed for --synthetic corpus generation")
    sweep_p.add_argument("--lambdas", required=True, metavar="F[,F...]",
                         help="lambda grid")
    sweep_p.add_argument("--unlabeled", required=True, metavar="N[,N...]",
                         help="unlabeled pool sizes")
    sweep_p.add_argument("--labeled-per-class", dest="labeled_per_class", type=int,
                         default=10, help="labeled documents kept per class")
    sweep_p.add_argument("--seeds", default="5",
                         help="seed count N (runs seeds 1..N) or explicit list a,b,c")
    _add_coupling_family_args(sweep_p)
    _add_trainer_args(sweep_p)
    sweep_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes for sweep cells")
    sweep_p.add_argument("--measure-time", action="store_true",
                         help="record real wall-clock per cell (breaks byte-identical "
                              "reruns)")
    sweep_p.add_argument("--out", required=True, metavar="PREFIX",
                         help="output prefix for .results.csv / .aggregate.csv")
    sweep_p.set_defaults(func=cmd_sweep)

    synth_p = subs.add_parser(
        "synth", help="write a synthetic corpus file",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    synth_p.add_argument("--synthetic", required=True, metavar="K,M,SEP,DOCS_PER_CLASS",
                         help="corpus recipe")
    synth_p.add_argument("--seed", type=int, default=0, help="generator seed")
    synth_p.add_argument("--out", required=True, metavar="PATH",
                         help="corpus file to write")
    synth_p.set_defaults(func=cmd_synth)

    curves_p = subs.add_parser(
        "prior-curves", help="export coupling prior / matched normal curves",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    curves_p.add_argument("--theta-mean", dest="theta_mean", type=float,
                          default=DEFAULT_CURVE_THETA_MEAN,
                          help="prior center on the mean axis, in (0, 1)")
    curves_p.add_argument("--gammas", default=",".join(str(g) for g in DEFAULT_CURVE_GAMMAS),
                          help="comma-separated coupling concentrations")
    curves_p.add_argument("--grid", type=int, default=DEFAULT_CURVE_GRID_POINTS,
                          help="points per curve per axis")
    curves_p.add_argument("--out", required=True, metavar="PATH",
                          help="CSV file to write")
    curves_p.set_defaults(func=cmd_prior_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package's input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
