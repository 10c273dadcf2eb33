"""The public API, pinned: a change to it must show up as a diff here."""

import dataclasses

import hybridssl
from hybridssl import data, expfam, harness, model, rng, trainer

PUBLIC = [
    "AggregateRow", "BoundsError", "ConfigError", "CouplingConfig", "CouplingKind",
    "Dataset", "DiscriminativeParams", "DomainError", "EndpointMode", "GenerativeParams",
    "HybridSslError", "Instance", "NumericError", "OracleError", "ParseError",
    "QueryError", "ResultRow", "SplitSpec", "SweepSpec", "SyntheticSpec", "TrainConfig",
    "TrainReport", "aggregate", "best_lambda", "beta_prior_log_density",
    "beta_prior_moments", "export_prior_curves", "generate_synthetic", "load_corpus",
    "load_model", "logit", "lr_scores_matrix", "nb_scores_matrix", "run_sweep",
    "sample_split", "save_model", "train", "write_aggregate_csv", "write_corpus",
    "write_results_csv",
]

# Public in their own modules, where the tests and tools/ import them and
# perfbench's tracer wraps them, but not read from the package root by the
# CLI, the sweep or the oracles.
MODULE_ONLY = {
    expfam: ["digamma", "log_partition", "natural_from_mean", "sigmoid"],
    model: ["LogJointBlocks", "log_joint_blocks", "uniform_generative_params"],
    trainer: ["generative_update_beta", "train_logreg", "train_nb_em"],
    data: ["synthetic_true_params"],
    harness: ["prior_curve_rows"],
    rng: ["SplitMix64", "derive_seed"],
}

# A second row format, per-document scorers and a string copy of the model
# file API; Dataset, the matrix scorers and save_model/load_model replace them.
# The prior's mode is theta itself, and beta_prior_moments gives its variance.
# discriminative_gradient and coupling_gradient_w summed model._disc_terms'
# and model._coupling_gradient's terms for tests alone, log_joint is
# log_joint_blocks(...).total(), and cell_seed was derive_seed. The GAUSSIAN
# hybrid's one M-step replaced generative_update_gauss.
DELETED = ["SparseBinaryVector", "nb_class_scores", "nb_posterior", "lr_scores",
           "dump_model", "loads_model", "beta_prior_mode", "beta_prior_variance",
           "matched_normal_params", "discriminative_gradient", "coupling_gradient_w",
           "log_joint", "cell_seed", "_softmax", "_logsumexp_rows", "_label_log_likelihood",
           "_responsibilities", "generative_update_gauss", "_coupling_stiffness"]


def test_public_api_is_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert hybridssl.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(hybridssl, name) is not None, name


def test_module_only_names_resolve_in_their_modules_alone():
    assert sum(map(len, MODULE_ONLY.values())) == 14
    for module, names in MODULE_ONLY.items():
        for name in names:
            assert not hasattr(hybridssl, name), name
            assert getattr(module, name) is not None, name


def test_deleted_names_are_gone():
    for name in DELETED:
        for module in (hybridssl, model, expfam, trainer, harness):
            assert not hasattr(module, name), (module.__name__, name)
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
