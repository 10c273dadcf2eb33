"""Self-checks for the independent numerical oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridssl.errors import DomainError, OracleError
from hybridssl.model import GenerativeParams, _normalize, nb_scores_matrix
from hybridssl.testkit import (brute_force_theta_tilde, coupling_prior_moments,
                               enumerate_data_log_likelihood, enumerate_joint,
                               enumerate_posterior, fd_gradient)

from helpers import make_dataset


def random_params(num_classes, num_features, seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(0.0, 1.0, num_classes)
    pi = np.exp(raw) / np.exp(raw).sum()
    theta_tilde = rng.normal(0.0, 1.5, (num_classes, num_features))
    return GenerativeParams(pi=pi, theta_tilde=theta_tilde)


# ---------------------------------------------------------------------------
# finite differences

def test_fd_gradient_on_quadratic():
    point = np.array([0.3, -1.7, 2.5])
    grad = fd_gradient(lambda p: -0.5 * float(p @ p), point)
    assert_allclose(grad, -point, atol=1e-9)


def test_fd_gradient_keeps_matrix_shape():
    rng = np.random.default_rng(5)
    point = rng.normal(0.0, 1.0, (2, 3))
    a = rng.normal(0.0, 1.0, (2, 3))
    grad = fd_gradient(lambda p: float((a * p).sum()), point)
    assert grad.shape == (2, 3)
    assert_allclose(grad, a, atol=1e-9)


def test_fd_gradient_names_bad_coordinate():
    def objective(p):
        return math.nan if p[1] > 0.5 else float(p.sum())

    with pytest.raises(OracleError, match=r"coordinate \(1,\)"):
        fd_gradient(objective, np.array([0.0, 0.5, 0.0]))


# ---------------------------------------------------------------------------
# golden-section search

def test_golden_section_finds_bernoulli_surrogate_max():
    # (c + alpha) t - (N + gamma) A(t) with c+alpha = 1, N+gamma = 2 peaks
    # where sigmoid(t) = 1/2, i.e. at t = 0
    best = brute_force_theta_tilde(
        lambda t: t - 2.0 * math.log1p(math.exp(t)), -23.0, 23.0)
    assert abs(best) < 1e-6


def test_golden_section_finds_parabola_peak():
    best = brute_force_theta_tilde(lambda t: -(t - 2.0) ** 2, -10.0, 10.0)
    assert abs(best - 2.0) < 1e-6


def test_golden_section_rejects_edge_maximum():
    with pytest.raises(OracleError, match="bracket"):
        brute_force_theta_tilde(lambda t: t, 0.0, 1.0)


def test_golden_section_rejects_empty_bracket():
    with pytest.raises(OracleError):
        brute_force_theta_tilde(lambda t: -t * t, 2.0, 2.0)


# ---------------------------------------------------------------------------
# exhaustive enumeration

def test_enumerate_joint_mass_is_one():
    for seed in range(5):
        gen = random_params(3, 8, seed)
        assert abs(enumerate_joint(gen) - 1.0) < 1e-10


def test_enumerate_joint_flags_corrupted_prior():
    gen = random_params(2, 6, 0)
    mass = enumerate_joint((gen.pi * 1.1, gen.theta_tilde))
    assert abs(mass - 1.1) < 1e-10


def test_enumerate_joint_rejects_wide_vocabulary():
    with pytest.raises(DomainError, match="M <= 12"):
        enumerate_joint(random_params(2, 13, 0))


def test_enumerate_posterior_matches_production_scoring():
    rng = np.random.default_rng(11)
    for seed in range(5):
        gen = random_params(3, 7, seed)
        ids = np.flatnonzero(rng.random(7) < 0.4)
        want = _normalize(nb_scores_matrix(gen, make_dataset([(ids, None)], 3, 7))[0])[1]
        got = enumerate_posterior(gen, ids)
        assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_enumerate_posterior_rejects_bad_feature_id():
    gen = random_params(2, 5, 0)
    with pytest.raises(DomainError):
        enumerate_posterior(gen, [5])


def test_enumerate_posterior_flags_degenerate_mass():
    tt = np.zeros((2, 3))
    with pytest.raises(OracleError, match="degenerate"):
        enumerate_posterior((np.zeros(2), tt), [0])


def test_enumerate_data_log_likelihood_matches_production():
    gen = random_params(2, 6, 3)
    data = make_dataset([([0, 2], 0), ([1], 1), ([3, 4, 5], None), ([], None)],
                        num_classes=2, num_features=6)
    want = 0.0
    for inst, scores in zip(data, nb_scores_matrix(gen, data)):
        if inst.label is None:
            shift = scores.max()
            want += shift + math.log(np.exp(scores - shift).sum())
        else:
            want += scores[inst.label]
    got = enumerate_data_log_likelihood(gen, data)
    assert_allclose(got, want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# coupling-prior moments by quadrature

def test_coupling_prior_moments_of_a_flat_prior():
    # gamma -> 0 leaves v ~ Beta(1, 1), so t = logit(v) is standard
    # logistic: mean 0, variance pi^2 / 3
    mean, var = coupling_prior_moments(0.7, 1e-12)
    assert abs(mean) < 1e-11
    assert_allclose(var, math.pi ** 2 / 3.0, rtol=1e-10)


def test_coupling_prior_moments_symmetry():
    # theta -> -theta mirrors the density, so the mean flips sign
    mean, var = coupling_prior_moments(1.3, 4.0)
    mirrored_mean, mirrored_var = coupling_prior_moments(-1.3, 4.0)
    assert_allclose(mirrored_mean, -mean, rtol=1e-12)
    assert_allclose(mirrored_var, var, rtol=1e-12)


def test_coupling_prior_moments_refuses_a_truncated_window_or_coarse_grid():
    with pytest.raises(OracleError, match="mass"):
        coupling_prior_moments(0.0, 1.0, half_width=5.0)
    with pytest.raises(OracleError, match="mass"):
        coupling_prior_moments(0.0, 1e6)
