"""The public API, pinned: a change to it must show up as a diff here."""

import dataclasses

import hybridssl
from hybridssl import expfam, model

PUBLIC = [
    "AggregateRow", "BoundsError", "ConfigError", "CouplingConfig", "CouplingKind",
    "Dataset", "DiscriminativeParams", "DomainError", "EndpointMode", "GenerativeParams",
    "HybridSslError", "Instance", "LogJointBlocks", "NumericError", "OracleError",
    "ParseError", "QueryError", "ResultRow", "SplitMix64", "SplitSpec", "SweepSpec",
    "SyntheticSpec", "TrainConfig", "TrainReport", "aggregate", "best_lambda",
    "beta_prior_log_density", "beta_prior_moments", "cell_seed", "coupling_gradient_w",
    "derive_seed", "digamma", "discriminative_gradient", "export_prior_curves",
    "generate_synthetic", "generative_update_beta", "generative_update_gauss",
    "load_corpus", "load_model", "log_joint", "log_joint_blocks", "log_partition",
    "logit", "lr_scores_matrix", "natural_from_mean", "nb_scores_matrix", "prior_curve_rows",
    "run_sweep", "sample_split", "save_model", "sigmoid", "synthetic_true_params",
    "train", "train_logreg", "train_nb_em", "uniform_generative_params",
    "write_aggregate_csv", "write_corpus", "write_results_csv",
]

# A second row format, per-document scorers and a string copy of the model
# file API; Dataset, the matrix scorers and save_model/load_model replace them.
# The prior's mode is theta itself, and beta_prior_moments gives its variance.
DELETED = ["SparseBinaryVector", "nb_class_scores", "nb_posterior", "lr_scores",
           "dump_model", "loads_model", "beta_prior_mode", "beta_prior_variance",
           "matched_normal_params"]


def test_public_api_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert hybridssl.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(hybridssl, name) is not None, name


def test_deleted_names_are_gone():
    for name in DELETED:
        assert not hasattr(hybridssl, name), name
        assert not hasattr(model, name), name
        assert not hasattr(expfam, name), name
    assert not hasattr(model.Dataset, "from_instances")
    assert model.Instance._fields == ("features", "label")


def test_train_config_holds_only_the_outer_loop_knobs():
    # the SGD schedule is a set of trainer constants, not configuration
    assert tuple(f.name for f in dataclasses.fields(hybridssl.TrainConfig)) == (
        "max_outer_iters", "tol", "seed")
    assert not hasattr(hybridssl.TrainConfig, "learning_rate")


def test_coupling_config_holds_one_strength():
    # gamma is the BETA concentration and the GAUSSIAN precision; the
    # gaussian variance is derived from it, not stored
    assert tuple(f.name for f in dataclasses.fields(hybridssl.CouplingConfig)) == (
        "kind", "lam", "gamma", "disc_prior_sigma2")
    assert hybridssl.CouplingConfig(hybridssl.CouplingKind.GAUSSIAN, gamma=4.0).sigma_c2 == 0.25


def test_coupling_families_are_beta_and_gauss():
    assert [k.value for k in hybridssl.CouplingKind] == ["beta", "gauss"]
