"""Exponential-family primitives: link functions, log-partition, the
coupling prior's density/mode/moments, and the special functions."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special

from hybridssl import expfam
from hybridssl.errors import DomainError, NumericError
from hybridssl.harness import prior_curve_rows


# ---------------------------------------------------------------------------
# sigmoid / logit / log-partition

def test_sigmoid_basic_values():
    assert expfam.sigmoid(0.0) == 0.5
    assert_allclose(expfam.sigmoid(expfam.logit(0.2)), 0.2, rtol=1e-14)
    assert_allclose(expfam.sigmoid(5.0), 0.9933071490757151, rtol=1e-14)
    assert_allclose(expfam.sigmoid(1.0), 0.7310585786300049, rtol=1e-14)


def test_sigmoid_tail_matches_series():
    # sigmoid(40) = 1 - e^-40 + O(e^-80)
    assert_allclose(expfam.sigmoid(40.0), 1.0 - math.exp(-40.0), rtol=1e-12)


def test_sigmoid_stable_at_extremes():
    xs = np.array([-800.0, -700.0, 700.0, 800.0])
    out = expfam.sigmoid(xs)
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[-1] == 1.0


def test_logit_round_trip_and_domain():
    grid = np.linspace(0.01, 0.99, 99)
    assert_allclose(expfam.sigmoid(expfam.logit(grid)), grid, rtol=1e-12)
    for bad in (0.0, 1.0, -0.5, 2.0, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(DomainError):
            expfam.logit(bad)


def test_natural_from_mean_clamps():
    theta = expfam.natural_from_mean(np.array([0.0, 0.5, 1.0]))
    assert np.all(np.isfinite(theta))
    assert theta[1] == 0.0
    assert_allclose(theta[2], expfam.logit(1.0 - 1e-10), rtol=1e-12)


def test_log_partition_values():
    assert_allclose(expfam.log_partition(0.0), math.log(2.0), rtol=1e-15)
    assert expfam.log_partition(1000.0) == 1000.0
    assert_allclose(expfam.log_partition(-3.0), 0.04858735157374206, rtol=1e-14)


def test_log_partition_deriv_matches_finite_difference():
    h = 1e-6
    for theta in (-4.0, -1.0, 0.0, 0.3, 2.5):
        fd = (expfam.log_partition(theta + h) - expfam.log_partition(theta - h)) / (2 * h)
        assert abs(expfam.sigmoid(theta) - fd) < 1e-6


# ---------------------------------------------------------------------------
# digamma

def test_digamma_euler_mascheroni():
    assert_allclose(expfam.digamma(1.0), -0.5772156649015329, atol=1e-10)


def test_digamma_recurrence_identity():
    for x in (0.5, 2.0, 7.0):
        assert abs(expfam.digamma(x + 1.0) - expfam.digamma(x) - 1.0 / x) < 1e-10


def test_digamma_matches_lgamma_finite_difference():
    h = 1e-6
    fd = (math.lgamma(6.0 + h) - math.lgamma(6.0 - h)) / (2 * h)
    assert abs(expfam.digamma(6.0) - fd) < 1e-6


def test_digamma_matches_scipy_on_grid():
    grid = np.concatenate([np.linspace(0.05, 2.0, 40), np.linspace(2.0, 60.0, 59)])
    assert_allclose(expfam.digamma(grid), special.digamma(grid), atol=1e-10)


def test_digamma_domain_errors():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            expfam.digamma(bad)


def test_lgamma_matches_math_lgamma():
    """Over the prior's arguments, x >= 1: within 2e-14 of math.lgamma,
    relative where |lgamma| > 1, absolute near its roots at 1 and 2."""
    grid = np.concatenate([np.linspace(1.0, 3.0, 2001), np.geomspace(1.0, 1e12, 4001)])
    want = np.array([math.lgamma(x) for x in grid])
    got = expfam._lgamma(grid)
    assert np.all(np.abs(got - want) <= 2e-14 * np.maximum(1.0, np.abs(want)))
    huge = expfam._lgamma(np.array([1e200]))
    assert np.isfinite(huge[0])
    assert_allclose(huge[0], math.lgamma(1e200), rtol=1e-14)
    assert np.all(np.isfinite(expfam.beta_prior_log_density(
        np.array([-1.0, 0.0, 2.0]), np.array([0.5, 0.0, -3.0]), 1e200)))


def test_trigamma_matches_polygamma():
    grid = np.geomspace(1e-8, 1e6, 2001)
    assert_allclose(expfam._trigamma(grid), special.polygamma(1, grid), rtol=1e-13)


# ---------------------------------------------------------------------------
# coupling prior density

def test_beta_prior_density_normalizer_matches_betaln():
    # log m = -log B(alpha+1, gamma-alpha+1); compare the assembled density
    # against an independent scipy construction.
    rng = np.random.default_rng(11)
    for _ in range(20):
        theta = rng.normal(0.0, 2.0)
        gamma = float(rng.uniform(0.2, 30.0))
        tt = rng.normal(0.0, 2.0)
        alpha = gamma * special.expit(theta)
        expected = (-special.betaln(alpha + 1.0, gamma - alpha + 1.0)
                    + tt * alpha - gamma * np.logaddexp(0.0, tt))
        assert_allclose(expfam.beta_prior_log_density(tt, theta, gamma),
                        expected, rtol=1e-12, atol=1e-12)


def test_beta_prior_density_derivative_is_alpha_minus_gamma_sigmoid():
    h = 1e-6
    rng = np.random.default_rng(3)
    for _ in range(25):
        theta = rng.normal(0.0, 2.0)
        gamma = float(rng.uniform(0.1, 50.0))
        tt = rng.normal(0.0, 2.0)
        fd = (expfam.beta_prior_log_density(tt + h, theta, gamma)
              - expfam.beta_prior_log_density(tt - h, theta, gamma)) / (2 * h)
        analytic = gamma * expfam.sigmoid(theta) - gamma * expfam.sigmoid(tt)
        assert abs(fd - analytic) < 1e-6


def test_beta_prior_density_stationary_at_mode():
    h = 1e-7
    for theta, gamma in [(0.7, 5.0), (-1.5, 0.3), (2.0, 40.0)]:
        fd = (expfam.beta_prior_log_density(theta + h, theta, gamma)
              - expfam.beta_prior_log_density(theta - h, theta, gamma)) / (2 * h)
        assert abs(fd) < 1e-6


def test_beta_prior_mode_newton_refinement():
    # grid argmax then Newton on the stationarity condition alpha = gamma*sigmoid,
    # independent of the analytic shortcut.
    for theta, gamma in [(0.7, 5.0), (0.0, 1.0), (expfam.logit(0.2), 10.0)]:
        grid = np.linspace(theta - 5.0, theta + 5.0, 2001)
        dens = expfam.beta_prior_log_density(grid, theta, gamma)
        t = grid[np.argmax(dens)]
        alpha = gamma * expfam.sigmoid(theta)
        for _ in range(60):
            s = expfam.sigmoid(t)
            t = t + (alpha - gamma * s) / (gamma * s * (1.0 - s))
        assert abs(t - theta) < 1e-8


def test_beta_prior_mode_grid_argmax():
    for gamma in (0.1, 1.0, 10.0, 100.0):
        theta = -1.3862943611198906
        grid = np.arange(theta - 0.01, theta + 0.01, 1e-4)
        dens = expfam.beta_prior_log_density(grid, theta, gamma)
        assert abs(grid[np.argmax(dens)] - theta) <= 1e-4


def test_beta_prior_mean_axis_density_integrates_to_one():
    # gamma=3, theta=0 per the stated quadrature example, plus a skewed case.
    for theta, gamma in [(0.0, 3.0), (expfam.logit(0.2), 7.0)]:
        val, err = integrate.quad(
            lambda v: math.exp(expfam.beta_prior_log_density(expfam.logit(v), theta, gamma)),
            0.0, 1.0, limit=200)
        assert abs(val - 1.0) < 1e-6


def test_beta_prior_natural_axis_density_integrates_to_one():
    # over theta_tilde the density picks up the Jacobian dv/dt = v (1 - v),
    # whose log is -A(t) - A(-t)
    for theta, gamma in [(0.0, 3.0), (expfam.logit(0.2), 0.5)]:
        val, err = integrate.quad(
            lambda t: math.exp(expfam.beta_prior_log_density(t, theta, gamma)
                               - expfam.log_partition(t) - expfam.log_partition(-t)),
            -np.inf, np.inf, limit=400)
        assert abs(val - 1.0) < 1e-6


def test_beta_prior_domain_errors():
    for bad_gamma in (0.0, -2.0, math.inf):
        with pytest.raises(DomainError):
            expfam.beta_prior_log_density(0.1, 0.0, bad_gamma)


# ---------------------------------------------------------------------------
# prior moments and the matched normal

def test_beta_prior_variance_frozen_value():
    assert_allclose(expfam.beta_prior_moments(0.0, 10.0)[1],
                    0.44264591147423065, rtol=1e-9)


def test_beta_prior_moments_match_polygamma_identities():
    # Under the natural-axis density, theta_tilde = logit(V) with
    # V ~ Beta(alpha, gamma - alpha): mean psi(a)-psi(b), variance
    # psi'(a)+psi'(b). Independent special-function route.
    for theta, gamma in [(0.0, 10.0), (expfam.logit(0.2), 7.0), (1.5, 2.5),
                         (expfam.logit(0.2), 0.1), (expfam.logit(0.2), 1.0), (0.0, 0.1)]:
        alpha = gamma * special.expit(theta)
        mean, var = expfam.beta_prior_moments(theta, gamma)
        assert_allclose(mean, special.digamma(alpha) - special.digamma(gamma - alpha),
                        rtol=1e-12, atol=1e-9)
        assert_allclose(var, special.polygamma(1, alpha) + special.polygamma(1, gamma - alpha),
                        rtol=1e-12)


def test_beta_prior_mean_zero_by_symmetry():
    mean, _ = expfam.beta_prior_moments(0.0, 4.0)
    assert abs(mean) < 1e-9


def test_beta_prior_variance_monotone_in_gamma():
    for theta in (-2.0, 0.0, 2.0, expfam.logit(0.2), expfam.logit(0.8)):
        variances = [expfam.beta_prior_moments(theta, g)[1] for g in (0.1, 1.0, 10.0, 100.0)]
        assert variances[0] > variances[1] > variances[2] > variances[3]


def test_matched_normal_curve_grid_exports_without_error():
    # the exported matched-normal curves stay finite over the whole window,
    # on both axes, for every default gamma
    rows = prior_curve_rows(theta_mean=0.2, grid_points=501)
    assert {r[0] for r in rows} == {0.1, 1.0, 10.0, 100.0}
    assert all(math.isfinite(r[4]) for r in rows)


def test_prior_moments_stay_finite_at_extreme_parameters():
    # Very diffuse and very concentrated settings must either return
    # finite moments or raise NumericError with a snapshot, never return
    # NaN or hang.
    for theta, gamma in [(50.0, 1e-4), (0.0, 1e6), (-30.0, 0.01), (0.0, 1e-200)]:
        try:
            mean, var = expfam.beta_prior_moments(theta, gamma)
        except NumericError as exc:
            assert exc.snapshot is not None
        else:
            assert math.isfinite(mean) and math.isfinite(var) and var >= 0.0
    # psi'(5e-201) ~ 4e400 overflows: the variance has no float value
    with pytest.raises(NumericError) as info:
        expfam.beta_prior_moments(0.0, 1e-200)
    assert info.value.snapshot == {"theta": 0.0, "gamma": 1e-200, "a": 5e-201, "b": 5e-201}
