"""Training loops: closed-form coupled generative steps, the Newton
gaussian step, SGD discriminative updates, endpoint dispatch, and determinism."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridssl import expfam, model, testkit, trainer
from hybridssl.data import SplitSpec, generate_synthetic, sample_split
from hybridssl.errors import ConfigError, DomainError, NumericError
from hybridssl.harness import SweepSpec, SyntheticSpec, run_sweep
from hybridssl.model import (CouplingConfig, CouplingKind, DiscriminativeParams,
                             GenerativeParams, log_joint, lr_scores_matrix,
                             nb_scores_matrix, uniform_generative_params)
from hybridssl.trainer import (EndpointMode, TrainConfig,
                               discriminative_gradient, coupling_gradient_w,
                               generative_update_beta, generative_update_gauss,
                               train, train_logreg, train_nb_em)
from hybridssl.trainer import _mixing_weights, _responsibilities

from helpers import make_dataset


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
    with pytest.raises(ConfigError):
        TrainConfig(seed=-1)
    with pytest.raises(ConfigError):
        TrainConfig(seed=2 ** 64)  # the same SGD order as seed 0
    assert TrainConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1


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
    gen0 = uniform_generative_params(2, 1)
    disc0 = DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 1)))
    gen1 = generative_update_beta(toy, gen0, disc0, 2.0)
    assert_allclose(expfam.sigmoid(gen1.theta_tilde), 0.375, rtol=1e-12)
    assert np.array_equal(gen1.pi, np.array([0.5, 0.5]))


def test_generative_update_beta_matches_closed_form():
    train_set, _ = small_corpus()
    rng = np.random.default_rng(1)
    gen0 = GenerativeParams(pi=np.array([0.3, 0.7]),
                            theta_tilde=rng.normal(0.0, 1.0, (2, 10)))
    disc = DiscriminativeParams(b=rng.normal(size=2), w=rng.normal(size=(2, 10)))
    gamma = 3.5
    gen1 = generative_update_beta(train_set, gen0, disc, gamma)

    resp = _responsibilities(gen0, train_set)
    counts = train_set.counts(resp)
    v = (counts + gamma * expfam.sigmoid(disc.w)) / (len(train_set) + gamma)
    assert_allclose(expfam.sigmoid(gen1.theta_tilde), v, rtol=1e-12)
    mass = resp.sum(axis=0)
    assert_allclose(gen1.pi, mass / mass.sum(), rtol=1e-15)

    with pytest.raises(DomainError):
        generative_update_beta(train_set, gen0, disc, 0.0)


def test_generative_update_beta_coordinate_maximizes_surrogate():
    # One coordinate of the coupled M-step must be the argmax of
    # s(t) = (c + alpha) t - (N + gamma) A(t); cross-check against the
    # derivative-free bracketing oracle.
    train_set, _ = small_corpus()
    gen0 = uniform_generative_params(2, 10)
    disc = DiscriminativeParams(b=np.zeros(2), w=np.full((2, 10), 0.4))
    gamma = 2.0
    gen1 = generative_update_beta(train_set, gen0, disc, gamma)
    counts = train_set.counts(_responsibilities(gen0, train_set))
    n = len(train_set)
    alpha = gamma * expfam.sigmoid(0.4)
    c = counts[1, 4]

    def surrogate(t):
        return (c + alpha) * t - (n + gamma) * math.log1p(math.exp(t))

    best = testkit.brute_force_theta_tilde(surrogate, -23.0, 23.0)
    assert abs(best - gen1.theta_tilde[1, 4]) < 1e-6


def test_generative_update_gauss_extremes():
    train_set, _ = small_corpus()
    gen0 = uniform_generative_params(2, 10)
    rng = np.random.default_rng(0)
    disc = DiscriminativeParams(b=np.zeros(2), w=rng.normal(0.0, 1.0, (2, 10)))

    # near-rigid coupling pins the generative means to the weights
    tight = generative_update_gauss(train_set, gen0, disc, 1e-8)
    assert np.abs(expfam.sigmoid(tight.theta_tilde)
                  - expfam.sigmoid(disc.w)).max() < 1e-3

    # near-absent coupling recovers the pure expected-count ratio
    loose = generative_update_gauss(train_set, gen0, disc, 1e8)
    counts = train_set.counts(_responsibilities(gen0, train_set))
    assert np.abs(expfam.sigmoid(loose.theta_tilde)
                  - counts / len(train_set)).max() < 1e-4


def test_generative_update_gauss_reaches_stationarity():
    train_set, _ = small_corpus()
    gen0 = uniform_generative_params(2, 10)
    rng = np.random.default_rng(0)
    disc = DiscriminativeParams(b=np.zeros(2), w=rng.normal(0.0, 1.0, (2, 10)))
    sigma_c2 = 0.5
    gen1 = generative_update_gauss(train_set, gen0, disc, sigma_c2)
    counts = train_set.counts(_responsibilities(gen0, train_set))
    grad = (-(gen1.theta_tilde - disc.w) / sigma_c2
            + counts - len(train_set) * expfam.sigmoid(gen1.theta_tilde))
    assert np.abs(grad).max() <= 1e-6

    with pytest.raises(DomainError):
        generative_update_gauss(train_set, gen0, disc, -1.0)


def test_generative_update_gauss_step_budget_error():
    # with sigma_c2 = 1e-300 the bracket around w = 1 has no float inside
    # it, and there the gradient stays at counts - N sigmoid(1), far above
    # the tolerance: the step budget runs out
    train_set, _ = small_corpus()
    gen0 = uniform_generative_params(2, 10)
    disc = DiscriminativeParams(b=np.zeros(2), w=np.ones((2, 10)))
    with pytest.raises(NumericError) as exc:
        generative_update_gauss(train_set, gen0, disc, 1e-300)
    snap = exc.value.snapshot
    assert snap is not None and "theta_tilde" in snap and "grad_inf_norm" in snap


def test_generative_update_gauss_matches_brute_force_maximizer():
    train_set, _ = small_corpus()
    gen0 = uniform_generative_params(2, 10)
    rng = np.random.default_rng(4)
    disc = DiscriminativeParams(b=np.zeros(2), w=rng.normal(0.0, 2.0, (2, 10)))
    sigma_c2 = 9.0
    gen1 = generative_update_gauss(train_set, gen0, disc, sigma_c2)
    counts = train_set.counts(_responsibilities(gen0, train_set))
    n = len(train_set)
    for y, d in [(0, 0), (1, 4), (1, 9)]:
        def surrogate(t):
            return (-(t - disc.w[y, d]) ** 2 / (2.0 * sigma_c2) + counts[y, d] * t
                    - n * math.log1p(math.exp(t)))
        best = testkit.brute_force_theta_tilde(surrogate, -23.0, 23.0)
        assert abs(best - gen1.theta_tilde[y, d]) < 1e-6


def test_gauss_sweep_cell_reaches_the_step_tolerance():
    """A weakly coupled gaussian cell (sigma_c2 = 9, N = 520), where plain
    gradient ascent needs over a thousand steps to reach the tolerance.
    Cell seeds depend on the grid position, so the grid is kept whole."""
    rows = run_sweep(SweepSpec(
        lambdas=(0.25, 0.5, 0.75), unlabeled_counts=(0, 500), labeled_per_class=10,
        seeds=(20,), coupling_kind=CouplingKind.GAUSSIAN,
        synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=3)))
    assert [r.error for r in rows if r.failed] == []


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
    assert_allclose(coupling_gradient_w(gen, disc, cfg),
                    gamma / 4.0 * gen.theta_tilde, rtol=1e-12)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("gamma", [1e6, 1.0, 1e-3, 0.0])
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

    pseudo = gamma * expfam.sigmoid(w) if gamma > 0.0 else 0.0
    step = expfam.natural_from_mean(
        (data.counts(resp) + pseudo) / (len(data) + gamma))
    assert _same_bits(trainer._coupled_generative_step(data, resp, w, gamma).theta_tilde, step)
    if gamma == 0.0:
        return

    s = expfam.sigmoid(w)
    alpha = gamma * s
    grad = gamma * s * (1.0 - s) * (
        theta_tilde - (expfam.digamma(alpha + 1.0) - expfam.digamma(gamma - alpha + 1.0)))
    coupling = CouplingConfig(kind=CouplingKind.BETA, gamma=gamma)
    gen = GenerativeParams(pi=np.full(k, 1.0 / k), theta_tilde=theta_tilde)
    disc = DiscriminativeParams(b=np.zeros(k), w=w)
    assert _same_bits(coupling_gradient_w(gen, disc, coupling), grad)

    block = float(np.sum(expfam.beta_prior_log_density(theta_tilde, w, gamma)))
    assert _same_bits(np.array(model._coupling_block(gen, disc, coupling)), np.array(block))


def test_coupling_gradient_decoupled_is_zero():
    gen = uniform_generative_params(2, 3)
    disc = DiscriminativeParams(b=np.zeros(2), w=np.ones((2, 3)))
    cfg = CouplingConfig(kind=CouplingKind.DECOUPLED)
    assert np.array_equal(coupling_gradient_w(gen, disc, cfg), np.zeros((2, 3)))


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


def test_discriminative_gradient_matches_finite_differences():
    for kind, kwargs in [(CouplingKind.BETA, {"gamma": 2.0}),
                         (CouplingKind.GAUSSIAN, {"sigma_c2": 0.7}),
                         (CouplingKind.DECOUPLED, {})]:
        cfg = CouplingConfig(kind=kind, lam=0.5, disc_prior_sigma2=5.0, **kwargs)
        data, gen, disc = make_fd_instance(17)
        grad_w, grad_b = discriminative_gradient(data, gen, disc, cfg)

        fd_w = testkit.fd_gradient(
            lambda w: log_joint(gen, DiscriminativeParams(b=disc.b, w=w), cfg, data),
            disc.w)
        fd_b = testkit.fd_gradient(
            lambda b: log_joint(gen, DiscriminativeParams(b=b, w=disc.w), cfg, data),
            disc.b)
        assert np.all(np.abs(grad_w - fd_w) <= fd_tolerance(fd_w))
        assert np.all(np.abs(grad_b - fd_b) <= fd_tolerance(fd_b))


def test_decoupled_flat_prior_approaches_pure_data_gradient():
    data, gen, disc = make_fd_instance(23)
    flat = CouplingConfig(kind=CouplingKind.DECOUPLED, disc_prior_sigma2=1e12)
    grad_w, grad_b = discriminative_gradient(data, gen, disc, flat)

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


def test_logreg_endpoint_fits_separable_data():
    train_set, test_set = small_corpus()
    disc, report = train_logreg(train_set, TrainConfig())
    assert report.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    correct = np.sum(lr_scores_matrix(disc, test_set).argmax(axis=1) == test_set.row_labels)
    assert correct / len(test_set) > 0.9


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

    # the discriminative slot reproduces naive Bayes scores exactly
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


def test_lambda_clamp_dispatches_endpoints():
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=5)
    _, _, rep_lo = train(train_set, CouplingConfig.from_lambda(0.0005), cfg)
    assert rep_lo.endpoint_mode is EndpointMode.PURE_GENERATIVE
    _, _, rep_hi = train(train_set, CouplingConfig.from_lambda(0.9995), cfg)
    assert rep_hi.endpoint_mode is EndpointMode.PURE_DISCRIMINATIVE
    _, _, rep_mid = train(train_set, CouplingConfig.from_lambda(0.5), cfg)
    assert rep_mid.endpoint_mode is EndpointMode.HYBRID


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
    for cpl in (CouplingConfig.from_lambda(0.5, CouplingKind.BETA),
                CouplingConfig.from_lambda(0.5, CouplingKind.GAUSSIAN),
                CouplingConfig.from_lambda(0.5, CouplingKind.DECOUPLED)):
        gen, disc, report = train(train_set, cpl, cfg)
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


def test_hybrid_mid_lambda_requires_strength():
    train_set, _ = small_corpus()
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=0.5)


@pytest.mark.parametrize("lam, mode", [(0.5, EndpointMode.HYBRID),
                                       (1.0, EndpointMode.PURE_DISCRIMINATIVE)])
def test_runaway_learning_rate_raises_numeric_error(monkeypatch, lam, mode):
    monkeypatch.setattr(trainer, "_LEARNING_RATE0", 1e300)
    train_set, _ = small_corpus()
    cfg = TrainConfig(max_outer_iters=5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError) as exc:
            train(train_set, CouplingConfig.from_lambda(lam), cfg)
    assert exc.value.snapshot is not None
    assert "outer_iter" in exc.value.snapshot
    assert exc.value.snapshot["mode"] == mode.value
