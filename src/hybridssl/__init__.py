"""Semi-supervised classification with a coupled generative/discriminative
model over binary features.

The library trains a naive Bayes generative model and a logistic
regression discriminative model jointly, tied together by a conjugate
coupling prior on the generative natural parameters whose strength
interpolates between the two pure models. See the README for the math
and the experiment protocol; the ``hybridssl`` console script exposes
training, prediction, sweeps, corpus synthesis, and prior curve export.
"""

from .errors import (BoundsError, ConfigError, DomainError, HybridSslError,
                     NumericError, OracleError, ParseError, QueryError)
from .expfam import (beta_prior_log_density, beta_prior_moments, digamma,
                     log_partition, logit, natural_from_mean, sigmoid)
from .model import (CouplingConfig, CouplingKind, Dataset, DiscriminativeParams,
                    GenerativeParams, Instance, LogJointBlocks, load_model, log_joint,
                    log_joint_blocks, lr_scores_matrix, nb_scores_matrix, save_model,
                    uniform_generative_params)
from .trainer import (EndpointMode, TrainConfig, TrainReport, coupling_gradient_w,
                      discriminative_gradient, generative_update_beta,
                      generative_update_gauss, train, train_logreg, train_nb_em)
from .data import (SplitSpec, generate_synthetic, load_corpus, sample_split,
                   synthetic_true_params, write_corpus)
from .harness import (AggregateRow, ResultRow, SweepSpec, SyntheticSpec, aggregate,
                      best_lambda, cell_seed, export_prior_curves, prior_curve_rows,
                      run_sweep, write_aggregate_csv, write_results_csv)
from .rng import SplitMix64, derive_seed

__version__ = "1.0.0"

__all__ = [
    "AggregateRow", "BoundsError", "ConfigError", "CouplingConfig", "CouplingKind",
    "Dataset", "DiscriminativeParams", "DomainError", "EndpointMode",
    "GenerativeParams", "HybridSslError", "Instance", "LogJointBlocks",
    "NumericError", "OracleError", "ParseError", "QueryError", "ResultRow",
    "SplitMix64", "SplitSpec", "SweepSpec", "SyntheticSpec",
    "TrainConfig", "TrainReport", "aggregate", "best_lambda",
    "beta_prior_log_density", "beta_prior_moments", "cell_seed",
    "coupling_gradient_w", "derive_seed", "digamma", "discriminative_gradient",
    "export_prior_curves", "generate_synthetic", "generative_update_beta",
    "generative_update_gauss", "load_corpus", "load_model", "log_joint",
    "log_joint_blocks", "log_partition", "logit", "lr_scores_matrix",
    "natural_from_mean", "nb_scores_matrix", "prior_curve_rows", "run_sweep",
    "sample_split", "save_model", "sigmoid", "synthetic_true_params", "train",
    "train_logreg", "train_nb_em", "uniform_generative_params",
    "write_aggregate_csv", "write_corpus", "write_results_csv",
]
