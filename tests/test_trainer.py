"""Training loops: the closed-form BETA generative step, SGD
discriminative updates and their shuffle, the GAUSSIAN M-step and its
Newton, the lam = 1 L-BFGS ascent, endpoint dispatch, and determinism."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import minimize
from scipy.special import logsumexp

from hybridssl import expfam, model, rng, testkit, trainer
from hybridssl.data import SplitSpec, generate_synthetic, sample_split
from hybridssl.errors import ConfigError, DomainError, NumericError
from hybridssl.harness import SweepSpec, SyntheticSpec, run_sweep
from hybridssl.model import (CouplingConfig, CouplingKind, DiscriminativeParams,
                             GenerativeParams, log_joint_blocks, lr_scores_matrix,
                             nb_scores_matrix)
from hybridssl.rng import SplitMix64, derive_seed, mix64
from hybridssl.trainer import (EndpointMode, TrainConfig, generative_update_beta, train,
                               train_logreg, train_nb_em)
from hybridssl.trainer import _mixing_weights, _sgd_cells, _sgd_epochs

from helpers import make_dataset, oracle_corpus, responsibilities, uniform_params


def small_corpus(seed=3):
    full = generate_synthetic(2, 10, 30, 0.6, seed=seed)
    train_set, test_set = sample_split(
        full, SplitSpec(labeled_per_class=5, unlabeled_total=20, seed=seed))
    return train_set, test_set


# ---------------------------------------------------------------------------
# configuration

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(max_outer_iters=0)
    with pytest.raises(ConfigError):
        TrainConfig(tol=0.0)


def test_learning_rate_decay():
    assert trainer._learning_rate(0) == 0.1
    assert_allclose(trainer._learning_rate(1000), 0.05, rtol=1e-15)
    assert_allclose(trainer._learning_rate(3000), 0.025, rtol=1e-15)


def test_from_lambda_gamma_frozen_values():
    assert CouplingConfig.from_lambda(0.1).gamma == 81.0
    assert_allclose(CouplingConfig.from_lambda(0.9).gamma, 0.012345679012345679, rtol=1e-15)
    assert CouplingConfig.from_lambda(0.5).gamma == 1.0
    for endpoint in (0.0, 1.0):
        assert CouplingConfig.from_lambda(endpoint).gamma is None
    for bad in (-0.1, 1.1):
        with pytest.raises(ConfigError):
            CouplingConfig.from_lambda(bad)


def test_mixing_weights_floor_only_in_degenerate_case():
    healthy = _mixing_weights(np.array([1.0, 3.0]))
    assert np.array_equal(healthy, np.array([0.25, 0.75]))
    floored = _mixing_weights(np.array([0.0, 2.0]))
    assert np.all(floored > 0.0)
    assert abs(floored.sum() - 1.0) < 1e-15
    assert floored[0] < 1e-11


# ---------------------------------------------------------------------------
# coupled generative step, closed form

def test_generative_update_beta_worked_example():
    # Two unlabeled docs over one feature: [1] and [0]. Uniform start makes
    # both responsibilities exactly 1/2, so the expected count is 0.5 per
    # class. With gamma=2 and w=0 the pseudo-count is 1, and
    # v = (0.5 + 1) / (2 + 2) = 0.375 for every (class, feature).
    toy = make_dataset([([0], None), ([], None)], num_classes=2, num_features=1)
    gen0 = uniform_params(2, 1)
    disc0 = DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 1)))
    gen1 = generative_update_beta(toy, responsibilities(gen0, toy), disc0, 2.0)
    assert_allclose(expfam.sigmoid(gen1.theta_tilde), 0.375, rtol=1e-12)
    assert np.array_equal(gen1.pi, np.array([0.5, 0.5]))


def test_generative_update_beta_matches_closed_form():
    train_set, _ = small_corpus()
    rng = np.random.default_rng(1)
    gen0 = GenerativeParams(pi=np.array([0.3, 0.7]),
                            theta_tilde=rng.normal(0.0, 1.0, (2, 10)))
    disc = DiscriminativeParams(b=rng.normal(size=2), w=rng.normal(size=(2, 10)))
    gamma = 3.5
    resp = responsibilities(gen0, train_set)
    gen1 = generative_update_beta(train_set, resp, disc, gamma)

    counts = train_set.counts(resp)
    v = (counts + gamma * expfam.sigmoid(disc.w)) / (len(train_set) + gamma)
    assert_allclose(expfam.sigmoid(gen1.theta_tilde), v, rtol=1e-12)
    mass = resp.sum(axis=0)
    assert_allclose(gen1.pi, mass / mass.sum(), rtol=1e-15)

    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            generative_update_beta(train_set, resp, disc, bad)


def test_generative_update_beta_coordinate_maximizes_surrogate():
    # One coordinate of the coupled M-step must be the argmax of
    # s(t) = (c + alpha) t - (N + gamma) A(t); cross-check against the
    # derivative-free bracketing oracle.
    train_set, _ = small_corpus()
    gen0 = uniform_params(2, 10)
    disc = DiscriminativeParams(b=np.zeros(2), w=np.full((2, 10), 0.4))
    gamma = 2.0
    resp = responsibilities(gen0, train_set)
    gen1 = generative_update_beta(train_set, resp, disc, gamma)
    counts = train_set.counts(resp)
    n = len(train_set)
    alpha = gamma * expfam.sigmoid(0.4)
    c = counts[1, 4]

    def surrogate(t):
        return (c + alpha) * t - (n + gamma) * math.log1p(math.exp(t))

    best = testkit.brute_force_theta_tilde(surrogate, -23.0, 23.0)
    assert abs(best - gen1.theta_tilde[1, 4]) < 1e-6


def _newton_problem(seed=0):
    """Expected counts and class masses of small_corpus() under random
    responsibilities, as the untouched-column Newton takes them."""
    train_set, _ = small_corpus()
    rng = np.random.default_rng(seed)
    gen = GenerativeParams(pi=np.array([0.4, 0.6]), theta_tilde=rng.normal(0.0, 1.0, (2, 10)))
    resp = responsibilities(gen, train_set)
    return train_set.counts(resp), resp.sum(axis=0)


def test_generative_update_gauss_reaches_stationarity():
    # The generative update of a column no labeled document holds is the
    # Newton. g(t) = v c - v n_y sigmoid(t) - t is v times the derivative of
    # c t - n_y A(t) - t^2 / (2 v); g' <= -1, so |t - root| <= |g(t)|. Its
    # rounding error is about 2.2e-16 v n_y.
    counts, mass = _newton_problem()
    counts[0, 0], counts[1, 1] = 0.0, mass[1]  # the bracket's open ends
    for v in (1e-8, 0.5, 100.0, 109.0, 1e8):
        t = trainer._gauss_newton(counts, mass, v, np.zeros_like(counts))
        g = v * (counts - mass[:, None] * expfam.sigmoid(t)) - t
        assert np.all(np.abs(g) <= 1e-9 * (1.0 + np.abs(t)) + 1e-14 * v * mass[:, None]), v


def test_generative_update_gauss_extremes():
    # Near-rigid coupling pins the generative means to the weights, and
    # near-absent coupling and prior recover the expected-count ratio c / n_y,
    # both in the M-step and in the Newton of the untouched columns.
    docs = [([0, 1], 0), ([0, 2], 0), ([1, 4], 1), ([2, 4], 1), ([0, 4], 1),
            ([3, 5], None), ([1, 3], None), ([0, 3, 5], None)]
    data = make_dataset(docs, num_classes=2, num_features=6)
    features, restricted = trainer._labeled_columns(data)
    gen = GenerativeParams(pi=np.array([0.3, 0.7]),
                           theta_tilde=np.random.default_rng(2).normal(0.0, 1.0, (2, 6)))
    resp = responsibilities(gen, data)
    counts, mass = data.counts(resp), resp.sum(axis=0)

    def m_step(gamma):
        theta_tilde, w, z = np.zeros((2, 6)), np.zeros((2, 6)), np.zeros(2 * 2 * 4 + 2)
        coupling = CouplingConfig(kind=CouplingKind.GAUSSIAN, gamma=gamma)
        trainer._gauss_m_step(data, resp, restricted, features, np.array([3, 5]), z,
                              theta_tilde, w, coupling, 1e-12)
        return theta_tilde, w

    theta_tilde, w = m_step(1e8)
    assert np.abs(expfam.sigmoid(theta_tilde) - expfam.sigmoid(w)).max() < 1e-3
    theta_tilde, _ = m_step(1e-8)
    inner = (counts > 0.0) & (counts < mass[:, None])
    assert_allclose(expfam.sigmoid(theta_tilde)[inner], (counts / mass[:, None])[inner],
                    atol=1e-4)

    counts, mass = _newton_problem()
    t = trainer._gauss_newton(counts, mass, 1e8, np.zeros_like(counts))
    inner = (counts > 0.0) & (counts < mass[:, None])
    assert_allclose(expfam.sigmoid(t)[inner], (counts / mass[:, None])[inner], atol=1e-5)


def test_gauss_newton_matches_brute_force_maximizer():
    # feature 3 holds no document of class 1: at v = 1e50 and 1e300 its root
    # lies near -log(v n_y), about -690 at 1e300, and Newton alone moves
    # about 1 per step there
    counts, mass = _newton_problem(4)
    counts[1, 3] = 0.0
    start = np.random.default_rng(4).normal(0.0, 5.0, counts.shape)
    for v in (9.0 + 100.0, 1.0 / 9.0 + 100.0, 0.5, 1e50, 1e300):
        t = trainer._gauss_newton(counts, mass, v, start.copy())
        for y, d in [(0, 0), (1, 3), (1, 4), (1, 9)]:
            c, n = counts[y, d], mass[y]

            def surrogate(x):
                return c * x - n * math.log1p(math.exp(x)) - x * x / (2.0 * v)
            best = testkit.brute_force_theta_tilde(surrogate, -800.0, 30.0)
            assert abs(best - t[y, d]) < 1e-6, (v, y, d)


def _exhaust_the_newton_budget(monkeypatch):
    # one step reaches no root of _newton_problem's counts from 0
    monkeypatch.setattr(trainer, "_GAUSS_MAX_STEPS", 1)
    counts, mass = _newton_problem()
    with pytest.raises(NumericError) as exc:
        trainer._gauss_newton(counts, mass, 1e300, np.zeros_like(counts))
    return counts, exc.value


def test_generative_update_gauss_step_budget_error(monkeypatch):
    counts, err = _exhaust_the_newton_budget(monkeypatch)
    assert "within 1 steps" in str(err)
    assert err.snapshot["theta_tilde"].shape == counts.shape
    assert np.all(np.isfinite(err.snapshot["theta_tilde"]))


def test_generative_update_gauss_step_budget_error_names_the_coupling_variance(monkeypatch):
    _, err = _exhaust_the_newton_budget(monkeypatch)
    assert re.search(r"at sigma\^2 \+ sigma_c2 = 1e\+300$", str(err))
    assert err.snapshot["v"] == 1e300


def test_gauss_m_step_is_stationary():
    """One M-step from fixed responsibilities, its inner ascent run to a
    relative change of 1e-12, ends where every partial derivative of
    Q(theta_tilde, w, b) vanishes: in the columns the labeled documents
    hold, solved by L-BFGS, and in the others, solved by the Newton and
    w = theta_tilde sigma^2 / (sigma^2 + sigma_c2)."""
    # features 3 and 5 occur only in unlabeled documents, 6 and 7 nowhere
    docs = [([0, 1], 0), ([0, 2], 0), ([1, 4], 1), ([2, 4], 1), ([0, 4], 1),
            ([3, 5], None), ([1, 3], None), ([0, 3, 5], None)]
    data = make_dataset(docs, num_classes=2, num_features=8)
    features, restricted = trainer._labeled_columns(data)
    assert features.tolist() == [0, 1, 2, 4]
    gen = GenerativeParams(pi=np.array([0.3, 0.7]),
                           theta_tilde=np.random.default_rng(2).normal(0.0, 1.0, (2, 8)))
    resp = responsibilities(gen, data)
    for gamma in (4.0, 0.25):
        coupling = CouplingConfig(kind=CouplingKind.GAUSSIAN, gamma=gamma)
        theta_tilde, w, z = np.zeros((2, 8)), np.zeros((2, 8)), np.zeros(2 * 2 * 4 + 2)
        new = trainer._gauss_m_step(data, resp, restricted, features, np.array([3, 5, 6, 7]), z,
                                    theta_tilde, w, coupling, 1e-12)
        assert new.theta_tilde is theta_tilde
        mass = resp.sum(axis=0)
        assert_allclose(new.pi, mass / mass.sum(), rtol=1e-15)
        pull = gamma * (theta_tilde - w)
        grad_w, grad_b = model._disc_terms(data.labeled, w, z[-2:], 100.0)[2:]
        grad_w += pull
        grad_theta_tilde = data.counts(resp) - mass[:, None] * expfam.sigmoid(theta_tilde) - pull
        for grad in (grad_w, grad_theta_tilde, grad_b):
            assert np.abs(grad).max() < 1e-5, gamma
        assert np.abs(grad_w[:, [3, 5, 6, 7]]).max() < 1e-12


def test_gauss_sweep_cell_reaches_the_step_tolerance():
    """Weakly coupled gaussian cells (sigma_c2 up to 9, N up to 520) fit,
    and neither half is label-switched: the lam = 0.75, u = 500 cell is the
    one where an M-step with delta scaled by sigma_c = 3 stopped at
    accuracy 0.7417 and gen_accuracy 0.0. Cell seeds depend on the grid
    position, so the grid is kept whole."""
    rows = run_sweep(SweepSpec(
        lambdas=(0.25, 0.5, 0.75), unlabeled_counts=(0, 500), labeled_per_class=10,
        seeds=(20,), coupling_kind=CouplingKind.GAUSSIAN,
        synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=3)))
    assert [r.error for r in rows if r.failed] == []
    assert all(r.converged and r.accuracy >= 0.99 and r.gen_accuracy >= 0.99 for r in rows)


# ---------------------------------------------------------------------------
# discriminative gradient

def fd_tolerance(fd):
    return 1e-8 + 1e-4 * np.abs(fd)


def test_coupling_gradient_zero_weight_drops_digamma_term():
    # At w = 0 the digamma difference psi(g/2+1) - psi(g/2+1) vanishes and
    # the gradient reduces to (gamma/4) * theta_tilde.
    gamma = 2.8
    gen = GenerativeParams(pi=np.array([0.5, 0.5]),
                           theta_tilde=np.array([[0.7, -1.2], [0.1, 2.0]]))
    disc = DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 2)))
    cfg = CouplingConfig(kind=CouplingKind.BETA, lam=0.5, gamma=gamma)
    assert_allclose(expfam._blockwise(model._coupling_gradient(cfg), gen.theta_tilde, disc.w),
                    gamma / 4.0 * gen.theta_tilde, rtol=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("gamma", [1e6, 1.0, 1e-3])
def test_blocked_kernels_match_the_unblocked_formulas_bit_for_bit(gamma):
    """K * M = 150,003 spans two full blocks and a ragged tail."""
    k, m = 3, 50_001
    assert k * m > 2 * expfam._BLOCK and (k * m) % expfam._BLOCK
    rng = np.random.default_rng(17)
    w = rng.normal(0.0, 4.0, (k, m))
    w[:, :3] = [700.0, -700.0, 0.0]
    w[:, -1] = -700.0
    theta_tilde = rng.normal(0.0, 3.0, (k, m))
    data = make_dataset([(np.flatnonzero(rng.random(m) < p), label)
                         for p, label in ((0.3, 0), (0.5, 1), (0.1, None), (0.7, 2))], k, m)
    resp = rng.dirichlet(np.ones(k), size=len(data))

    step = expfam.natural_from_mean(
        (data.counts(resp) + gamma * expfam.sigmoid(w)) / (len(data) + gamma))
    disc = DiscriminativeParams(b=np.zeros(k), w=w)
    assert _same_bits(generative_update_beta(data, resp, disc, gamma).theta_tilde, step)

    s = expfam.sigmoid(w)
    alpha = gamma * s
    grad = gamma * s * (1.0 - s) * (
        theta_tilde - (expfam.digamma(alpha + 1.0) - expfam.digamma(gamma - alpha + 1.0)))
    coupling = CouplingConfig(kind=CouplingKind.BETA, gamma=gamma)
    gen = GenerativeParams(pi=np.full(k, 1.0 / k), theta_tilde=theta_tilde)
    assert _same_bits(expfam._blockwise(model._coupling_gradient(coupling), theta_tilde, w), grad)

    block = float(np.sum(expfam.beta_prior_log_density(theta_tilde, w, gamma)))
    assert _same_bits(np.array(model._coupling_block(gen, disc, coupling)), np.array(block))


@pytest.mark.parametrize("k, m", [(2, 50), (3, 8200)], ids=["grid", "ragged-blocks"])
@pytest.mark.parametrize("gamma", [1.0, 9.0, 1e6])
def test_stacked_beta_kernels_equal_the_per_shape_formulas_bit_for_bit(k, m, gamma):
    """The BETA coupling gradient and block stack both Beta shapes into one
    digamma or _lgamma call; their values are those of one call per shape.
    K * M = 100 is the criterion-7 grid's; 3 * 8200 spans three full
    blocks and a ragged fourth."""
    assert k * m == 100 or (k * m > 3 * expfam._BLOCK and (k * m) % expfam._BLOCK)
    rng = np.random.default_rng(k * m)
    w = rng.normal(0.0, 4.0, (k, m))
    theta_tilde = rng.normal(0.0, 3.0, (k, m))
    gen = GenerativeParams(pi=np.full(k, 1.0 / k), theta_tilde=theta_tilde)
    disc = DiscriminativeParams(b=np.zeros(k), w=w)
    coupling = CouplingConfig(kind=CouplingKind.BETA, gamma=gamma)

    s = expfam.sigmoid(w)
    alpha = gamma * s
    a, b = alpha + 1.0, gamma - alpha + 1.0
    grad = gamma * s * (1.0 - s) * (theta_tilde - (expfam.digamma(a) - expfam.digamma(b)))
    assert _same_bits(expfam._blockwise(model._coupling_gradient(coupling), theta_tilde, w), grad)

    logm = math.lgamma(gamma + 2.0) - expfam._lgamma(a) - expfam._lgamma(b)
    density = logm + theta_tilde * alpha - gamma * np.logaddexp(0.0, theta_tilde)
    assert _same_bits(np.array(model._coupling_block(gen, disc, coupling)),
                      np.array(float(np.sum(density))))


@pytest.mark.parametrize("kind", [CouplingKind.GAUSSIAN])
def test_other_coupling_kernels_match_their_formulas_bit_for_bit(kind):
    """The GAUSSIAN branch of model._coupling_block, on the arrays of the
    BETA test above."""
    k, m = 3, 50_001
    rng = np.random.default_rng(17)
    w = rng.normal(0.0, 4.0, (k, m))
    w[:, :3] = [700.0, -700.0, 0.0]
    w[:, -1] = -700.0
    theta_tilde = rng.normal(0.0, 3.0, (k, m))
    gen = GenerativeParams(pi=np.full(k, 1.0 / k), theta_tilde=theta_tilde)
    disc = DiscriminativeParams(b=np.zeros(k), w=w)
    coupling = CouplingConfig(kind=kind, gamma=0.3)
    diff = theta_tilde - w
    block = float(-0.5 / (1.0 / 0.3) * np.sum(diff * diff))
    assert _same_bits(np.array(model._coupling_block(gen, disc, coupling)), np.array(block))


def test_beta_coupling_gradient_at_huge_gamma_does_not_warn():
    # digamma's arguments reach 1e200 here; the suite turns any
    # RuntimeWarning into a failure
    gamma = 1e200
    w = np.array([[-1.0, 0.5], [2.0, 0.0]])
    theta_tilde = np.array([[0.3, 0.4], [1.0, -0.2]])
    grad = expfam._blockwise(
        model._coupling_gradient(CouplingConfig(kind=CouplingKind.BETA, gamma=gamma)),
        theta_tilde, w)
    # psi(a + 1) - psi(b + 1) tends to log(a / b) = w as gamma grows
    s = expfam.sigmoid(w)
    assert_allclose(grad, gamma * s * (1.0 - s) * (theta_tilde - w), rtol=1e-12)


def make_fd_instance(seed):
    rng = np.random.default_rng(seed)
    m = 3
    docs = []
    for i in range(4):
        nnz = np.flatnonzero(rng.random(m) < 0.6)
        label = int(rng.integers(0, 2)) if i < 3 else None
        docs.append((nnz, label))
    data = make_dataset(docs, num_classes=2, num_features=m)
    gen = GenerativeParams(pi=rng.dirichlet(np.ones(2)),
                           theta_tilde=rng.normal(0.0, 1.0, (2, m)))
    disc = DiscriminativeParams(b=rng.normal(size=2), w=rng.normal(size=(2, m)))
    return data, gen, disc


def test_disc_terms_and_coupling_gradient_match_finite_differences():
    # the (w, b) gradient of the log joint is _disc_terms' plus the coupling
    # block's, since the generative block does not involve (w, b)
    data, gen, disc = make_fd_instance(17)
    for gamma in (2.0, 1.0 / 0.7):
        cfg = CouplingConfig(kind=CouplingKind.BETA, lam=0.5, disc_prior_sigma2=5.0, gamma=gamma)
        grad_w, grad_b = model._disc_terms(data.labeled, disc.w, disc.b, 5.0)[2:]
        grad_w += expfam._blockwise(model._coupling_gradient(cfg), gen.theta_tilde, disc.w)

        fd_w = testkit.fd_gradient(lambda w: log_joint_blocks(
            gen, DiscriminativeParams(b=disc.b, w=w), cfg, data).total(), disc.w)
        fd_b = testkit.fd_gradient(lambda b: log_joint_blocks(
            gen, DiscriminativeParams(b=b, w=disc.w), cfg, data).total(), disc.b)
        assert np.all(np.abs(grad_w - fd_w) <= fd_tolerance(fd_w))
        assert np.all(np.abs(grad_b - fd_b) <= fd_tolerance(fd_b))

    # the uncoupled prior and label blocks, the lam = 1 objective
    grad_w, grad_b = model._disc_terms(data.labeled, disc.w, disc.b, 5.0)[2:]
    fd_w = testkit.fd_gradient(
        lambda w: sum(model._disc_values(data.labeled, w, disc.b, 5.0)[:2]), disc.w)
    fd_b = testkit.fd_gradient(
        lambda b: sum(model._disc_values(data.labeled, disc.w, b, 5.0)[:2]), disc.b)
    assert np.all(np.abs(grad_w - fd_w) <= fd_tolerance(fd_w))
    assert np.all(np.abs(grad_b - fd_b) <= fd_tolerance(fd_b))


def test_decoupled_flat_prior_approaches_pure_data_gradient():
    # model._disc_terms with no coupling term and a nearly flat prior
    data, gen, disc = make_fd_instance(23)
    grad_w, grad_b = model._disc_terms(data.labeled, disc.w, disc.b, 1e12)[2:]

    # hand-rolled multinomial logistic data gradient
    ref_w = np.zeros_like(disc.w)
    ref_b = np.zeros_like(disc.b)
    for pos, label in zip(data.labeled_positions, data.labels):
        idx = data.indices[data.indptr[pos]:data.indptr[pos + 1]]
        scores = disc.b + disc.w[:, idx].sum(axis=1)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        resid = -p
        resid[label] += 1.0
        ref_b += resid
        ref_w[:, idx] += resid[:, None]
    assert_allclose(grad_b, ref_b, atol=1e-10)
    assert_allclose(grad_w, ref_w, atol=1e-10)


@pytest.mark.parametrize("storage", ["dense", "compressed"])
@pytest.mark.parametrize("k", [2, 20])
def test_prior_and_label_blocks_and_their_gradient_have_one_source(monkeypatch, storage, k):
    """model._disc_terms is the one source of the prior and discriminative
    blocks and their gradient: log_joint_blocks reports its blocks bit for
    bit, and train_logreg's trace ends at those blocks' value at the fit it
    returns."""
    if storage == "compressed":
        monkeypatch.setattr(model, "_DENSE_CELLS_PER_ENTRY", 0)
    rng = np.random.default_rng(k)
    for _ in range(4):
        m = int(rng.integers(5, 40))
        docs = [(np.flatnonzero(rng.random(m) < 0.3),
                 int(rng.integers(k)) if i == 0 or rng.random() < 0.6 else None)
                for i in range(int(rng.integers(2 * k, 4 * k)))]
        data = make_dataset(docs, k, m)
        assert (data._dense_matrix is None) == (storage == "compressed")
        gen = GenerativeParams(pi=rng.dirichlet(np.ones(k)),
                               theta_tilde=rng.normal(0.0, 1.0, (k, m)))
        disc = DiscriminativeParams(b=rng.normal(size=k), w=rng.normal(size=(k, m)))
        sigma2 = float(rng.uniform(0.5, 50.0))
        prior, disc_block, _, _ = model._disc_terms(data.labeled, disc.w, disc.b, sigma2)
        for kind in CouplingKind:
            coupling = CouplingConfig(kind=kind, disc_prior_sigma2=sigma2, gamma=2.0)
            blocks = model.log_joint_blocks(gen, disc, coupling, data)
            assert _same_bits(np.array([blocks.prior, blocks.discriminative]),
                              np.array([prior, disc_block]))

        fit, report = train_logreg(data, TrainConfig(max_outer_iters=3), sigma2)
        fit_prior, fit_disc, _ = model._disc_values(data.labeled, fit.w, fit.b, sigma2)
        assert_allclose(report.log_joint_trace[-1], fit_prior + fit_disc,
                        rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# endpoint trainers

def test_nb_em_trace_is_nondecreasing_and_converges():
    train_set, test_set = small_corpus()
    gen, report = train_nb_em(train_set, TrainConfig())
    assert report.converged
    assert report.endpoint_mode is EndpointMode.PURE_GENERATIVE
    assert report.outer_iters_run == len(report.log_joint_trace)
    diffs = np.diff(report.log_joint_trace)
    assert np.all(diffs >= -1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_nb_em_trace_scores_the_fit_it_returns(seed):
    # the trace's last value is the marginal log likelihood of the returned
    # fit, as the exhaustive oracle scores it by plain products, whether the
    # run stops on its cap or converges
    data = oracle_corpus(seed)
    for cfg in (TrainConfig(max_outer_iters=1), TrainConfig(max_outer_iters=2),
                TrainConfig(max_outer_iters=3), TrainConfig()):
        gen, report = train_nb_em(data, cfg)
        assert_allclose(report.log_joint_trace[-1],
                        testkit.enumerate_data_log_likelihood(gen, data), rtol=1e-9)


def test_logreg_endpoint_fits_separable_data():
    train_set, test_set = small_corpus()
    disc, report = train_logreg(train_set, TrainConfig())
    assert report.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    correct = np.sum(lr_scores_matrix(disc, test_set).argmax(axis=1) == test_set.row_labels)
    assert correct / len(test_set) > 0.9


def _lbfgsb_logreg_optimum(data, sigma2=100.0):
    """The lam = 1 objective's maximum, by scipy's L-BFGS-B run far past
    the trainer's stopping rule. The value is scipy's log-sum-exp, not the
    package's normalization."""
    k, m = data.num_classes, data.num_features

    def negated(x):
        disc = DiscriminativeParams(b=x[k * m:], w=x[:k * m].reshape(k, m))
        scores = disc.b + data.labeled.scores(disc.w)
        picked = scores[np.arange(data.n_labeled), data.labels]
        f = np.sum(picked - logsumexp(scores, axis=1)) - 0.5 / sigma2 * np.sum(disc.w ** 2)
        grad_w, grad_b = model._disc_terms(data.labeled, disc.w, disc.b, sigma2)[2:]
        return -f, -np.concatenate([grad_w.ravel(), grad_b])

    result = minimize(negated, np.zeros(k * m + k), jac=True, method="L-BFGS-B",
                      options=dict(ftol=1e-16, gtol=1e-12, maxiter=10_000, maxcor=30))
    return -result.fun


@pytest.mark.parametrize("k, m, docs_per_class, separation, labeled_per_class, seed", [
    (2, 20, 40, 0.5, 6, 1), (2, 20, 40, 0.5, 6, 2), (2, 20, 40, 0.5, 6, 3),
    (3, 20, 40, 0.5, 6, 1), (3, 20, 40, 0.5, 6, 2), (3, 20, 40, 0.5, 6, 3),
    # nearly separable sets where one L-BFGS iteration per outer iteration
    # stopped 1.2e-4 and 2.4e-5 (relative) short of the optimum
    (2, 10, 60, 0.3, 8, 102), (3, 10, 60, 0.3, 4, 9)])
def test_logreg_ascent_reaches_the_lbfgsb_optimum(k, m, docs_per_class, separation,
                                                  labeled_per_class, seed):
    full = generate_synthetic(k, m, docs_per_class, separation, seed=seed)
    data, _ = sample_split(full, SplitSpec(labeled_per_class=labeled_per_class,
                                           unlabeled_total=0, seed=seed))
    best = _lbfgsb_logreg_optimum(data)
    _, report = train_logreg(data, TrainConfig())
    assert report.converged
    assert best - report.log_joint_trace[-1] <= 1e-5 * max(1.0, abs(best))
    # run on, the same ascent closes the gap to rounding
    _, report = train_logreg(data, TrainConfig(tol=1e-12, max_outer_iters=1000))
    assert report.converged
    assert abs(best - report.log_joint_trace[-1]) <= 1e-10 * max(1.0, abs(best))


def test_logreg_ascent_runs_over_the_labeled_documents_features():
    # features 3 and 5 occur only in unlabeled documents, 6 and 7 nowhere
    docs = [([0, 1], 0), ([0, 2], 0), ([1, 4], 1), ([2, 4], 1), ([0, 4], 1),
            ([3, 5], None), ([1, 3], None)]
    data = make_dataset(docs, num_classes=2, num_features=8)
    disc, report = train_logreg(data, TrainConfig(tol=1e-12, max_outer_iters=1000))
    assert disc.w.shape == (2, 8)
    assert np.all(disc.w[:, [3, 5, 6, 7]] == 0.0)
    # the oracle ascends over all 8 columns
    best = _lbfgsb_logreg_optimum(data)
    assert abs(best - report.log_joint_trace[-1]) <= 1e-10 * max(1.0, abs(best))
    # no labeled document holds a feature: b alone fits the class frequencies
    empty = make_dataset([([], 0), ([], 0), ([], 1), ([2], None)], num_classes=2,
                         num_features=3)
    disc, report = train_logreg(empty, TrainConfig(tol=1e-12, max_outer_iters=1000))
    assert report.converged
    assert np.all(disc.w == 0.0)
    assert_allclose(disc.b[0] - disc.b[1], math.log(2.0), rtol=1e-8)


def test_logreg_ascent_is_monotone_and_deterministic():
    for seed in (1, 2, 3):
        train_set, _ = small_corpus(seed)
        disc, report = train_logreg(train_set, TrainConfig())
        assert np.all(np.diff(report.log_joint_trace) >= 0.0)
        assert report.outer_iters_run == len(report.log_joint_trace)
        disc2, report2 = train_logreg(train_set, TrainConfig())
        assert np.array_equal(disc.b, disc2.b)
        assert np.array_equal(disc.w, disc2.w)
        assert report.log_joint_trace == report2.log_joint_trace


def test_logreg_converges_on_every_criterion_7_cell():
    # the lam = 1 cells of the criterion-7 grid, built as run_sweep builds
    # them; with one L-BFGS iteration per outer iteration the seed-3, u=0
    # cell stopped 1.3e-5 short of the optimum
    spec = SweepSpec(lambdas=(0.0, 0.25, 0.5, 0.75, 1.0), unlabeled_counts=(0, 500),
                     labeled_per_class=10, seeds=(1, 2, 3, 4, 5),
                     coupling_kind=CouplingKind.BETA,
                     synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=0))
    corpus = spec.load_corpus()
    for seed in spec.seeds:
        for count_index, count in enumerate(spec.unlabeled_counts):
            split = SplitSpec(labeled_per_class=spec.labeled_per_class, unlabeled_total=count,
                              seed=derive_seed(seed, spec.lambdas.index(1.0), count_index))
            train_set, _ = sample_split(corpus, split)
            _, _, report = train(train_set, CouplingConfig.from_lambda(1.0), spec.train_config)
            assert report.converged, (seed, count)
            assert np.all(np.diff(report.log_joint_trace) >= 0.0)
            best = _lbfgsb_logreg_optimum(train_set)
            assert best - report.log_joint_trace[-1] <= 1e-5 * max(1.0, abs(best)), (seed, count)


def test_train_requires_labeled_data():
    unlabeled = make_dataset([([0], None)] * 4, num_classes=2, num_features=2)
    with pytest.raises(ConfigError):
        train(unlabeled, CouplingConfig.from_lambda(0.5), TrainConfig())
    with pytest.raises(ConfigError):
        train_logreg(unlabeled, TrainConfig())


def test_lambda_zero_equals_nb_em_with_score_exact_linear_form():
    train_set, test_set = small_corpus()
    cfg = TrainConfig()
    gen_ref, report_ref = train_nb_em(train_set, cfg)
    gen, disc, report = train(train_set, CouplingConfig.from_lambda(0.0), cfg)

    assert report.endpoint_mode is EndpointMode.PURE_GENERATIVE
    assert np.array_equal(gen.pi, gen_ref.pi)
    assert np.array_equal(gen.theta_tilde, gen_ref.theta_tilde)
    assert report.log_joint_trace == report_ref.log_joint_trace

    # the discriminative slot reproduces naive Bayes scores exactly, with
    # theta_tilde itself as w
    assert disc.w is gen.theta_tilde
    assert np.array_equal(disc.w, gen.theta_tilde)
    assert np.array_equal(disc.b, gen.log_pi + gen.absence_base)
    assert_allclose(lr_scores_matrix(disc, test_set), nb_scores_matrix(gen, test_set),
                    atol=1e-12)


def test_lambda_one_equals_standalone_logreg():
    train_set, _ = small_corpus()
    cfg = TrainConfig()
    disc_ref, report_ref = train_logreg(train_set, cfg, disc_prior_sigma2=100.0)
    gen, disc, report = train(train_set, CouplingConfig.from_lambda(1.0), cfg)
    assert report.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    assert np.array_equal(disc.b, disc_ref.b)
    assert np.array_equal(disc.w, disc_ref.w)
    assert report.log_joint_trace == report_ref.log_joint_trace


def test_lambda_one_fits_no_generative_half(monkeypatch):
    m_steps = []

    def spy(data, resp):
        m_steps.append(len(data))
        return smoothed_m_step(data, resp)

    smoothed_m_step = trainer._smoothed_m_step
    monkeypatch.setattr(trainer, "_smoothed_m_step", spy)
    train_set, _ = small_corpus()
    gen, disc, report = train(train_set, CouplingConfig.from_lambda(1.0), TrainConfig())
    assert gen is None and m_steps == []
    assert report.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    # naive Bayes EM runs it for the start, on the labeled documents alone,
    # and then for every M-step, on all of them
    _, _, report = train(train_set, CouplingConfig.from_lambda(0.0),
                         TrainConfig(max_outer_iters=2))
    assert m_steps == [train_set.n_labeled] + [len(train_set)] * report.outer_iters_run


@pytest.mark.parametrize("kind", [CouplingKind.BETA, CouplingKind.GAUSSIAN])
def test_hybrid_starts_from_the_labeled_documents_naive_bayes_m_step(monkeypatch, kind):
    # the start is naive Bayes EM's first M-step on the labeled documents
    # alone, whose responsibilities are their one-hot labels
    starts = []

    def spy(data, resp):
        gen = smoothed_m_step(data, resp)
        starts.append((gen.pi.copy(), gen.theta_tilde.copy()))
        return gen

    smoothed_m_step = trainer._smoothed_m_step
    monkeypatch.setattr(trainer, "_smoothed_m_step", spy)
    train_set, _ = small_corpus()
    train(train_set, CouplingConfig.from_lambda(0.5, kind), TrainConfig(max_outer_iters=2))
    monkeypatch.undo()
    ref, _ = train_nb_em(train_set.labeled, TrainConfig(max_outer_iters=1))
    assert len(starts) == 1
    pi, theta_tilde = starts[0]
    assert pi.tobytes() == ref.pi.tobytes()
    assert theta_tilde.tobytes() == ref.theta_tilde.tobytes()


def test_lambda_clamp_dispatches_endpoints():
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=5)
    _, _, rep_lo = train(train_set, CouplingConfig.from_lambda(0.0005), cfg)
    assert rep_lo.endpoint_mode is EndpointMode.PURE_GENERATIVE
    _, _, rep_hi = train(train_set, CouplingConfig.from_lambda(0.9995), cfg)
    assert rep_hi.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    _, _, rep_mid = train(train_set, CouplingConfig.from_lambda(0.5), cfg)
    assert rep_mid.endpoint_mode is EndpointMode.HYBRID


@pytest.mark.parametrize("kind", [CouplingKind.BETA, CouplingKind.GAUSSIAN])
def test_near_endpoint_lambdas_predict_like_the_standalone_trainers(kind):
    # the data and the instance-exact check of acceptance criterion 5, at
    # lambdas inside _LAMBDA_CLAMP of the endpoints
    full = generate_synthetic(2, 12, 40, 0.6, seed=11)
    data, test_set = sample_split(full, SplitSpec(labeled_per_class=6,
                                                  unlabeled_total=30, seed=11))
    cfg = TrainConfig()

    _, disc_hi, report = train(data, CouplingConfig.from_lambda(0.9995, kind), cfg)
    assert report.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    disc_ref, _ = train_logreg(data, cfg)
    assert np.array_equal(lr_scores_matrix(disc_hi, test_set).argmax(axis=1),
                          lr_scores_matrix(disc_ref, test_set).argmax(axis=1))

    _, disc_lo, report = train(data, CouplingConfig.from_lambda(5e-4, kind), cfg)
    assert report.endpoint_mode is EndpointMode.PURE_GENERATIVE
    gen_ref, _ = train_nb_em(data, cfg)
    assert np.array_equal(lr_scores_matrix(disc_lo, test_set).argmax(axis=1),
                          nb_scores_matrix(gen_ref, test_set).argmax(axis=1))


# ---------------------------------------------------------------------------
# the hybrid loop

def test_hybrid_training_is_deterministic():
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=25)
    cpl = CouplingConfig.from_lambda(0.5)
    gen1, disc1, rep1 = train(train_set, cpl, cfg)
    gen2, disc2, rep2 = train(train_set, cpl, cfg)
    assert rep1.log_joint_trace == rep2.log_joint_trace
    assert np.array_equal(gen1.pi, gen2.pi)
    assert np.array_equal(gen1.theta_tilde, gen2.theta_tilde)
    assert np.array_equal(disc1.b, disc2.b)
    assert np.array_equal(disc1.w, disc2.w)


def test_from_lambda_equals_explicit_gamma():
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=15)
    via_lambda = CouplingConfig.from_lambda(0.5)
    explicit = CouplingConfig(kind=CouplingKind.BETA, lam=0.5, gamma=1.0)
    assert via_lambda.gamma == 1.0
    _, _, rep_a = train(train_set, via_lambda, cfg)
    _, _, rep_b = train(train_set, explicit, cfg)
    assert rep_a.log_joint_trace == rep_b.log_joint_trace


def test_hybrid_runs_all_coupling_kinds():
    train_set, test_set = small_corpus()
    cfg = TrainConfig(max_outer_iters=40)
    for kind in CouplingKind:
        gen, disc, report = train(train_set, CouplingConfig.from_lambda(0.5, kind), cfg)
        assert report.endpoint_mode is EndpointMode.HYBRID
        assert len(report.log_joint_trace) == report.outer_iters_run
        correct = np.sum(lr_scores_matrix(disc, test_set).argmax(axis=1)
                         == test_set.row_labels)
        assert correct / len(test_set) > 0.9
        if report.converged:
            a, b = report.log_joint_trace[-2:]
            assert abs(b - a) / max(1.0, abs(a), abs(b)) < cfg.tol


@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
def test_every_trainer_stops_on_the_same_rule(lam):
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=30, tol=1e-4)
    _, _, report = train(train_set, CouplingConfig.from_lambda(lam), cfg)
    trace = report.log_joint_trace
    assert report.outer_iters_run == len(trace)
    changes = [abs(b - a) / max(1.0, abs(a), abs(b)) for a, b in zip(trace, trace[1:])]
    assert all(c >= cfg.tol for c in changes[:-1])
    assert report.converged == (bool(changes) and changes[-1] < cfg.tol)
    if not report.converged:
        assert report.outer_iters_run == cfg.max_outer_iters


def test_hybrid_scores_the_documents_once_per_outer_iteration(monkeypatch):
    # one scoring for the start state's E-step, then one per iteration that
    # serves both the objective and the next E-step
    calls = []

    def counted(gen, data):
        calls.append(1)
        return nb_scores_matrix(gen, data)

    monkeypatch.setattr(model, "nb_scores_matrix", counted)
    monkeypatch.setattr(trainer, "nb_scores_matrix", counted)
    train_set, _ = small_corpus()
    for kind in CouplingKind:
        calls.clear()
        _, _, report = train(train_set, CouplingConfig.from_lambda(0.5, kind),
                             TrainConfig(max_outer_iters=6))
        assert len(calls) == report.outer_iters_run + 1


def test_hybrid_evaluates_the_public_objective_once_per_outer_iteration(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return model.log_joint_blocks(*args, **kwargs)

    monkeypatch.setattr(trainer, "log_joint_blocks", counted)
    train_set, _ = small_corpus()
    for kind in CouplingKind:
        calls.clear()
        _, _, report = train(train_set, CouplingConfig.from_lambda(0.5, kind),
                             TrainConfig(max_outer_iters=6))
        assert len(calls) == report.outer_iters_run


def test_each_score_matrix_is_normalized_once(monkeypatch):
    # the hybrid normalizes its naive Bayes scores once for the start state's
    # E-step and then once per iteration, for both the objective's
    # generative block and the next E-step; its labeled documents' scores
    # once per objective, for the discriminative block, and under GAUSSIAN
    # coupling once more per evaluation of the M-step's value and gradient.
    # The lam = 1 ascent normalizes once per objective evaluation, for the
    # value and gradient.
    normalize = model._normalize
    nb_calls, disc_calls, m_step_evaluations = [], [], []
    m_step_terms = trainer._gauss_m_step_terms

    def counted_m_step_terms(*args):
        m_step_evaluations.append(1)
        return m_step_terms(*args)

    def counted(calls):
        def wrapper(scores):
            calls.append(scores.shape)
            return normalize(scores)
        return wrapper

    monkeypatch.setattr(trainer, "_normalize", counted(nb_calls))
    monkeypatch.setattr(model, "_normalize", counted(disc_calls))
    monkeypatch.setattr(trainer, "_gauss_m_step_terms", counted_m_step_terms)
    train_set, _ = small_corpus()
    shape, labeled_shape = (len(train_set), 2), (train_set.n_labeled, 2)
    for kind in CouplingKind:
        nb_calls.clear()
        disc_calls.clear()
        m_step_evaluations.clear()
        _, _, report = train(train_set, CouplingConfig.from_lambda(0.5, kind),
                             TrainConfig(max_outer_iters=6))
        assert nb_calls == [shape] * (report.outer_iters_run + 1)
        assert (len(m_step_evaluations) >= 3 * report.outer_iters_run
                if kind is CouplingKind.GAUSSIAN else m_step_evaluations == [])
        assert disc_calls == [labeled_shape] * (report.outer_iters_run
                                                + len(m_step_evaluations))

    disc_terms, evaluations = trainer._disc_terms, []

    def counted_terms(*args):
        evaluations.append(1)
        return disc_terms(*args)

    monkeypatch.setattr(trainer, "_disc_terms", counted_terms)
    disc_calls.clear()
    train(train_set, CouplingConfig.from_lambda(1.0), TrainConfig(max_outer_iters=6))
    assert len(evaluations) > 0 and len(disc_calls) == len(evaluations)


def _gauss_grid():
    return SweepSpec(lambdas=(0.25, 0.5, 0.75), unlabeled_counts=(0, 500),
                     labeled_per_class=10, seeds=tuple(range(1, 11)),
                     coupling_kind=CouplingKind.GAUSSIAN,
                     synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=0))


def test_gauss_grid_traces_ascend_and_stop_on_tol():
    """Every GAUSSIAN hybrid trace of perfbench's seed-0 grid-gauss cells,
    with lam = 0.75 added (60 cells, built as run_sweep builds them), rises
    within 1e-12 max(1, |L|) at every step, and every cell stops on tol:
    each outer iteration is an EM step, which cannot lower the log joint."""
    spec = _gauss_grid()
    corpus = spec.load_corpus()
    for seed in spec.seeds:
        for lam_index, lam in enumerate(spec.lambdas):
            for count_index, count in enumerate(spec.unlabeled_counts):
                split = SplitSpec(labeled_per_class=spec.labeled_per_class,
                                  unlabeled_total=count,
                                  seed=derive_seed(seed, lam_index, count_index))
                train_set, _ = sample_split(corpus, split)
                coupling = CouplingConfig.from_lambda(lam, CouplingKind.GAUSSIAN)
                _, _, report = train(train_set, coupling, spec.train_config)
                cell = (seed, lam, count)
                assert report.converged, cell
                trace = report.log_joint_trace
                for before, after in zip(trace, trace[1:]):
                    assert after >= before - 1e-12 * max(1.0, abs(before)), cell


def test_stiff_gauss_couplings_fit():
    """The coupling block is -||delta||^2 / 2 in the M-step's variables, so
    no term scales with gamma: the stiffest couplings still fit, and the
    two halves weld together as gamma grows."""
    corpus = SyntheticSpec(2, 50, 0.5, 500, seed=0).build()
    train_set, test_set = sample_split(corpus, SplitSpec(10, 500, seed=5))
    gaps = []
    for gamma in (1e4, 1e6, 1e306):
        gen, disc, report = train(train_set, CouplingConfig(CouplingKind.GAUSSIAN, gamma=gamma),
                                  TrainConfig())
        assert report.converged, gamma
        correct = lr_scores_matrix(disc, test_set).argmax(axis=1) == test_set.labels
        assert correct.mean() >= 0.99, gamma
        gaps.append(np.abs(expfam.sigmoid(gen.theta_tilde) - expfam.sigmoid(disc.w)).max())
    assert gaps == sorted(gaps, reverse=True)


def test_loose_gauss_couplings_fit():
    """Above sigma_c = 1 the M-step's delta is w - theta_tilde, so no term
    grows with sigma_c: the loosest couplings fit, and agree with one
    another in the decoupled limit."""
    corpus = SyntheticSpec(2, 50, 0.5, 500, seed=0).build()
    train_set, test_set = sample_split(corpus, SplitSpec(10, 500, seed=5))
    predictions = []
    for gamma in (1e-8, 1e-16, 1e-300):
        _, disc, report = train(train_set, CouplingConfig(CouplingKind.GAUSSIAN, gamma=gamma),
                                TrainConfig())
        assert report.converged, gamma
        predictions.append(lr_scores_matrix(disc, test_set).argmax(axis=1))
        assert (predictions[-1] == test_set.labels).mean() >= 0.95, gamma
    assert all(np.array_equal(p, predictions[0]) for p in predictions)
    # a subnormal gamma leaves no finite coupling variance
    with pytest.raises(DomainError, match="sigma_c2 must be finite"):
        train(train_set, CouplingConfig(CouplingKind.GAUSSIAN, gamma=5e-324), TrainConfig())


def test_hybrid_mid_lambda_requires_strength():
    train_set, _ = small_corpus()
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=0.5)


@pytest.mark.parametrize("lam, mode", [(0.5, EndpointMode.HYBRID),
                                       (1.0, EndpointMode.PURE_DISCRIMINATIVE)])
def test_runaway_learning_rate_raises_numeric_error(monkeypatch, lam, mode):
    if mode is EndpointMode.HYBRID:
        monkeypatch.setattr(trainer, "_LEARNING_RATE0", 1e300)
    else:
        # the lam = 1 L-BFGS ascent has no learning rate, so its objective
        # is made non-finite instead, through the log-sum-exps of its scores
        normalize = model._normalize

        def nan_lse(scores):
            lse, probs = normalize(scores)
            return lse + math.nan, probs

        monkeypatch.setattr(model, "_normalize", nan_lse)
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as exc:
            train(train_set, CouplingConfig.from_lambda(lam), cfg)
    assert exc.value.snapshot is not None
    assert "outer_iter" in exc.value.snapshot
    assert exc.value.snapshot["mode"] == mode.value


# ---------------------------------------------------------------------------
# the SGD kernel, which BETA coupling runs, against the per-example loop it
# replaced

_MASK64 = 2 ** 64 - 1


def _reference_shuffle(rng, seq):
    """Fisher-Yates driven by randbelow, one call per draw."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def _reference_sgd_epochs(data, gen, disc, coupling, outer_iter):
    """_sgd_epochs as first written: per example, two fancy-index gathers,
    an out-of-place softmax and a fancy-index scatter-add, visiting the
    documents of each epoch in the order derive_seed(0, outer_iter, epoch)
    keys."""
    b, w = disc.b, disc.w
    positions = data.labeled_positions
    labels = data.labels
    feats = [data.indices[data.indptr[p]:data.indptr[p + 1]] for p in positions]
    order = list(range(len(positions)))
    sigma2 = coupling.disc_prior_sigma2
    grad = np.empty_like(w)
    step = outer_iter * trainer._SGD_EPOCHS * len(positions)
    for epoch in range(trainer._SGD_EPOCHS):
        _reference_shuffle(SplitMix64(derive_seed(0, outer_iter, epoch)), order)
        for i in order:
            idx = feats[i]
            scores = b + w[:, idx].sum(axis=1)
            scores -= scores.max()
            p = np.exp(scores)
            p /= p.sum()
            p = -p
            p[labels[i]] += 1.0
            eta = trainer._learning_rate(step)
            b += eta * p
            w[:, idx] += eta * p[:, None]
            step += 1
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            return
        eta = min(trainer._learning_rate(step),
                  1.0 / (1.0 + 1.0 / sigma2 + coupling.gamma / 4.0))
        np.divide(w, -sigma2, out=grad)
        grad += expfam._blockwise(model._coupling_gradient(coupling), gen.theta_tilde, w)
        grad *= eta
        w += grad


def _kernel_corpora():
    full = generate_synthetic(2, 2, 4, 0.5, seed=7)
    toy, _ = sample_split(full, SplitSpec(labeled_per_class=1, unlabeled_total=6, seed=7))
    full = generate_synthetic(2, 50, 500, 0.5, seed=0)
    grid_split, _ = sample_split(full, SplitSpec(labeled_per_class=10, unlabeled_total=500,
                                                 seed=1))
    # K=20: numpy sums the 20 class scores pairwise, not one after another
    rng = np.random.default_rng(8)
    rows = [(np.unique(rng.integers(0, 5000, 40)), i % 20 if i < 60 else None)
            for i in range(120)]
    twenty = make_dataset(rows, 20, 5000)
    empty_doc = make_dataset([([], 0), ([0, 2], 1), ([1], None), ([0, 1, 2], 0), ([], 1)],
                             2, 3)
    return {"toy": toy, "grid": grid_split, "k20": twenty, "empty-doc": empty_doc}


def _assert_kernel_matches_reference(data, kind, start, outer_iters, w0=None):
    """Run both loops from the same (b, w), comparing the two states after
    every outer iteration; b starts small and random (numpy seed start), and
    w at w0 if given, else small and random too.

    Finite states must agree in their raw bytes: np.array_equal takes -0.0
    and +0.0 as equal, and the kernel's onehot - p and the loop's -p; p[y]
    += 1 differ in sign only where a probability underflows to 0. Once the
    kernel's state is not finite both loops have stopped on the blow-up
    check, and NaNs are compared by position only."""
    k, m = data.num_classes, data.num_features
    coupling = CouplingConfig.from_lambda(0.5, kind)
    rng = np.random.default_rng(start)
    b0 = rng.normal(0.0, 0.1, k)
    w0 = rng.normal(0.0, 0.1, (k, m)) if w0 is None else w0
    x = np.concatenate([w0.ravel(), b0])
    disc = DiscriminativeParams(b=x[k * m:], w=x[:k * m].reshape(k, m))
    ref = DiscriminativeParams(b=b0.copy(), w=w0.copy())
    docs = _sgd_cells(data)
    gen = uniform_params(k, m)
    for it in range(outer_iters):
        gen = generative_update_beta(data, responsibilities(gen, data), disc, 1.0)
        _sgd_epochs(x, docs, gen, coupling, it)
        _reference_sgd_epochs(data, gen, ref, coupling, it)
        if not np.isfinite(x).all():
            assert np.array_equal(disc.b, ref.b, equal_nan=True)
            assert np.array_equal(disc.w, ref.w, equal_nan=True)
            break  # both stopped on the blow-up check
        assert disc.b.tobytes() == ref.b.tobytes()
        assert disc.w.tobytes() == ref.w.tobytes()
    return disc


@pytest.mark.parametrize("kind", [CouplingKind.BETA])
def test_sgd_kernel_matches_the_per_example_loop_bit_for_bit(kind):
    for name, data in _kernel_corpora().items():
        for start in (0, 615):
            disc = _assert_kernel_matches_reference(data, kind, start, outer_iters=4)
            assert np.all(np.isfinite(disc.w)), name


@pytest.mark.parametrize("kind", [CouplingKind.BETA])
def test_sgd_kernel_blows_up_like_the_per_example_loop(monkeypatch, kind):
    # steps of 1e300 alone leave the weights finite (the softmax saturates),
    # so start from weights whose sums over a document's features overflow
    monkeypatch.setattr(trainer, "_LEARNING_RATE0", 1e300)
    data = _kernel_corpora()["grid"]
    w0 = np.full((data.num_classes, data.num_features), 1e307)
    with np.errstate(over="ignore", invalid="ignore"):
        disc = _assert_kernel_matches_reference(data, kind, 3, outer_iters=5, w0=w0)
    assert not (np.all(np.isfinite(disc.w)) and np.all(np.isfinite(disc.b)))


def test_sgd_cells_gather_each_labeled_document_then_b_and_are_built_once(monkeypatch):
    # the first and the last document hold no feature, so their cells are
    # b's row alone
    data = make_dataset([([], 1), ([0, 3, 4], 0), ([2], None), ([1, 2, 4], 2), ([], 0)],
                        3, 5)
    k, m = data.num_classes, data.num_features
    x = np.random.default_rng(5).normal(size=k * m + k)
    w, b = x[:k * m].reshape(k, m), x[k * m:]
    docs = _sgd_cells(data)
    assert len(docs) == data.n_labeled
    for (cells, onehot), (ids, y) in zip(docs, data.labeled):
        assert cells.shape == (ids.size + 1, k)
        assert x.take(cells).tobytes() == np.vstack([w[:, ids].T, b]).tobytes()
        assert onehot.tolist() == np.eye(k)[y].tolist()

    built = []
    monkeypatch.setattr(trainer, "_sgd_cells",
                        lambda data: built.append(data) or _sgd_cells(data))
    coupling = CouplingConfig.from_lambda(0.5)
    _, disc, report = train(data, coupling, TrainConfig(max_outer_iters=4, tol=1e-300))
    assert report.outer_iters_run == 4 and built == [data]
    # one buffer: disc.w and disc.b are views of the x the kernel updates
    assert disc.w.base is disc.b.base and disc.w.base.shape == (k * m + k,)


def test_learning_rate_of_an_array_equals_the_scalar_calls():
    steps = np.arange(0, 20_000, 7)
    assert trainer._learning_rate(steps).tolist() == [trainer._learning_rate(t)
                                                      for t in steps.tolist()]


def _unmix64(z):
    """Inverse of rng.mix64: undo each xor-shift and odd multiply in turn."""
    z ^= (z >> 31) ^ (z >> 62)
    z = (z * pow(0x94D049BB133111EB, -1, 2 ** 64)) & _MASK64
    z ^= (z >> 27) ^ (z >> 54)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64)) & _MASK64
    return z ^ (z >> 30) ^ (z >> 60)


# a state whose first draw is 2**64 - 1, which randbelow(3) rejects
_REJECTING_SEED = (_unmix64(_MASK64) - 0x9E3779B97F4A7C15) & _MASK64


def test_rejecting_seed_rejects_the_first_draw_of_a_three_element_shuffle():
    assert mix64(_unmix64(_MASK64)) == _MASK64
    assert SplitMix64(_REJECTING_SEED).next_u64() == _MASK64
    assert _MASK64 > _MASK64 - (_MASK64 + 1) % 3  # above randbelow(3)'s limit


# a state whose draw at step 100 of a 1,000-element shuffle, below n = 900,
# is 2**64 - 1, which randbelow(900) rejects
_MID_REJECTING_SEED = (_unmix64(_MASK64) - 101 * 0x9E3779B97F4A7C15) & _MASK64


def test_mid_rejecting_seed_rejects_step_100_of_a_thousand_element_shuffle():
    rng = SplitMix64(_MID_REJECTING_SEED)
    assert [rng.next_u64() for _ in range(101)][-1] == _MASK64
    assert _MASK64 > _MASK64 - (_MASK64 + 1) % 900  # above randbelow(900)'s limit


@pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, 2 ** 64 - 1, _REJECTING_SEED,
                                  _MID_REJECTING_SEED])
def test_shuffle_equals_randbelow_fisher_yates(seed):
    for n in [*range(65), 500, 1000]:
        got, want = list(range(n)), list(range(n))
        inlined, reference = SplitMix64(seed), SplitMix64(seed)
        inlined.shuffle(got)
        _reference_shuffle(reference, want)
        assert got == want, n
        assert inlined.next_u64() == reference.next_u64(), n


@pytest.mark.parametrize("seed, length, rejected_n", [(_REJECTING_SEED, 3, 3),
                                                      (_MID_REJECTING_SEED, 1000, 900)])
def test_a_rejected_draw_hands_the_shuffle_to_randbelow(monkeypatch, seed, length, rejected_n):
    want, reference = list(range(length)), SplitMix64(seed)
    _reference_shuffle(reference, want)
    calls, randbelow = [], SplitMix64.randbelow

    def spy(self, n):
        calls.append(n)
        return randbelow(self, n)

    monkeypatch.setattr(SplitMix64, "randbelow", spy)
    got, inlined = list(range(length)), SplitMix64(seed)
    inlined.shuffle(got)
    assert rejected_n in calls
    assert got == want
    assert inlined.next_u64() == reference.next_u64()


@pytest.mark.parametrize("seed", [0, 1, 0xDEADBEEF, 2 ** 64 - 1])
def test_a_shuffle_without_a_rejected_draw_never_calls_randbelow(monkeypatch, seed):
    # the array path: a 500-item shuffle takes about 35 us, and calling
    # randbelow per draw about 510 us (timeit minima, 2-vCPU x86 machine)
    def refuse(self, n):
        raise AssertionError(f"randbelow({n}) called")

    monkeypatch.setattr(SplitMix64, "randbelow", refuse)
    for n in [*range(65), 500, 1000]:
        SplitMix64(seed).shuffle(list(range(n)))


@pytest.mark.parametrize("length", [0, 1, 2, 3, 20, 500, 1000, 4097])
def test_shuffle_tables_equal_the_tables_built_in_python_ints(length):
    sizes = list(range(length, 1, -1))
    offsets = [(p + 1) * 0x9E3779B97F4A7C15 & _MASK64 for p in range(len(sizes))]
    limits = [_MASK64 - (_MASK64 + 1) % n for n in sizes]
    tables = rng._shuffle_tables(length)
    assert rng._shuffle_tables(length) is tables
    for table, want in zip(tables, (offsets, sizes, limits)):
        assert table.dtype == np.uint64 and table.tolist() == want
        assert not table.flags.writeable
