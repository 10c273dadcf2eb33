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
from .expfam import beta_prior_log_density, beta_prior_moments, logit
from .model import (CouplingConfig, CouplingKind, Dataset, DiscriminativeParams,
                    EndpointMode, GenerativeParams, Instance, load_model,
                    lr_scores_matrix, nb_scores_matrix, save_model)
from .trainer import TrainConfig, TrainReport, train
from .data import SplitSpec, generate_synthetic, load_corpus, sample_split, write_corpus
from .harness import (AggregateRow, ResultRow, SweepSpec, SyntheticSpec, aggregate,
                      best_lambda, export_prior_curves, run_sweep, write_aggregate_csv,
                      write_results_csv)

__version__ = "1.0.0"

__all__ = [
    "AggregateRow", "BoundsError", "ConfigError", "CouplingConfig", "CouplingKind",
    "Dataset", "DiscriminativeParams", "DomainError", "EndpointMode",
    "GenerativeParams", "HybridSslError", "Instance", "NumericError", "OracleError",
    "ParseError", "QueryError", "ResultRow", "SplitSpec", "SweepSpec", "SyntheticSpec",
    "TrainConfig", "TrainReport", "aggregate", "best_lambda",
    "beta_prior_log_density", "beta_prior_moments", "export_prior_curves",
    "generate_synthetic", "load_corpus", "load_model", "logit", "lr_scores_matrix",
    "nb_scores_matrix", "run_sweep", "sample_split", "save_model", "train",
    "write_aggregate_csv", "write_corpus", "write_results_csv",
]
