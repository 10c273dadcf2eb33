"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line (visible with -s or -v) summarizing
the measured quantity it froze.
"""

import math
import time

import numpy as np
from numpy.testing import assert_allclose

from hybridssl import cli, expfam, model, testkit, trainer
from hybridssl.data import (SplitSpec, generate_synthetic, sample_split,
                            write_corpus)
from hybridssl.harness import (SweepSpec, SyntheticSpec, aggregate,
                               best_lambda, prior_curve_rows, run_sweep)
from hybridssl.model import (CouplingConfig, CouplingKind, DiscriminativeParams,
                             GenerativeParams, _normalize, load_model, log_joint_blocks,
                             lr_scores_matrix, nb_scores_matrix, save_model)
from hybridssl.trainer import (TrainConfig, _sgd_cells, _sgd_epochs,
                               generative_update_beta, train, train_logreg, train_nb_em)

from helpers import make_dataset, responsibilities

GOLDEN_TRACE = "tests/golden/toy_trace.txt"


def random_instance(seed):
    """A small random problem: dataset, generative and discriminative params."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    m = int(rng.integers(4, 13))
    n = int(rng.integers(6, 21))
    docs = []
    for i in range(n):
        nnz = np.flatnonzero(rng.random(m) < 0.5)
        label = int(rng.integers(0, k)) if (i == 0 or rng.random() < 0.7) else None
        docs.append((nnz, label))
    data = make_dataset(docs, num_classes=k, num_features=m)
    raw = rng.normal(0.0, 1.0, k)
    gen = GenerativeParams(pi=np.exp(raw) / np.exp(raw).sum(),
                           theta_tilde=rng.normal(0.0, 1.5, (k, m)))
    disc = DiscriminativeParams(b=rng.normal(0.0, 1.0, k),
                                w=rng.normal(0.0, 1.0, (k, m)))
    return data, gen, disc


def toy_corpus():
    full = generate_synthetic(2, 2, 4, 0.5, seed=7)
    toy, _ = sample_split(full, SplitSpec(labeled_per_class=1, unlabeled_total=6, seed=7))
    return toy


# ---------------------------------------------------------------------------

def test_criterion_1_user_corpus_protocol(tmp_path):
    # Any corpus in the documented text format runs the full comparison
    # protocol: 10 and 25 labeled per class, 5 seeds, both coupling
    # families on the binary-presence model, every cell completing.
    path = tmp_path / "corpus.txt"
    write_corpus(generate_synthetic(2, 10, 60, 0.6, seed=2), path)
    for kind in (CouplingKind.BETA, CouplingKind.GAUSSIAN):
        for labeled_per_class in (10, 25):
            spec = SweepSpec(lambdas=(0.0, 0.5, 1.0), unlabeled_counts=(0, 40),
                             labeled_per_class=labeled_per_class,
                             seeds=(1, 2, 3, 4, 5), coupling_kind=kind,
                             corpus_path=str(path),
                             train_config=TrainConfig(max_outer_iters=10))
            rows = run_sweep(spec)
            assert len(rows) == 3 * 2 * 5
            assert not any(r.failed for r in rows), (kind, labeled_per_class)
            aggs = aggregate(rows)
            assert len(aggs) == 3 * 2
            for agg in aggs:
                assert agg.n_seeds == 5
                assert 0.0 < agg.mean_acc <= 1.0
    print("PASS criterion 1: corpus-file protocol ran 120 cells, "
          "2 couplings x {10,25} labeled/class x 5 seeds, zero failures")


def _gauss_m_step_check(data, gen, disc, sigma_c2):
    """model._gauss_m_step_terms at z = [theta_tilde, delta, b] taken from
    the instance (its w as delta), against finite differences of the same
    objective assembled from log_joint_blocks' prior, coupling and
    discriminative blocks plus the expected complete-data term. Returns
    the number of coordinates checked."""
    features, restricted = trainer._labeled_columns(data)
    resp = responsibilities(gen, data)
    counts, mass = data.counts(resp)[:, features], resp.sum(axis=0)
    coupling = CouplingConfig(kind=CouplingKind.GAUSSIAN, gamma=1.0 / sigma_c2)
    scale = model._gauss_delta_scale(coupling.gamma)
    k, m = counts.shape

    def objective(z):
        theta_tilde, delta = z[:k * m].reshape(k, m), z[k * m:2 * k * m].reshape(k, m)
        full_theta_tilde, w = np.zeros(gen.theta_tilde.shape), np.zeros(disc.w.shape)
        full_theta_tilde[:, features] = theta_tilde
        w[:, features] = theta_tilde + scale * delta
        blocks = log_joint_blocks(GenerativeParams(pi=gen.pi, theta_tilde=full_theta_tilde),
                                  DiscriminativeParams(b=z[2 * k * m:], w=w), coupling, data)
        return (blocks.prior + blocks.coupling + blocks.discriminative
                + float(np.sum(counts * theta_tilde - mass[:, None] * np.logaddexp(0.0, theta_tilde))))

    z = np.concatenate([gen.theta_tilde[:, features].ravel(), disc.w[:, features].ravel(),
                        disc.b])
    value, grad = model._gauss_m_step_terms(restricted, z, counts, mass, 100.0, coupling.gamma)
    assert_allclose(value, objective(z), rtol=1e-10)
    fd = testkit.fd_gradient(objective, z)
    assert np.all(np.abs(grad - fd) <= 1e-8 + 1e-4 * np.abs(fd)), sigma_c2
    return z.size


def test_criterion_2_gradient_matches_finite_differences():
    settings = [CouplingConfig(kind=CouplingKind.BETA, gamma=g) for g in (0.1, 1.0, 10.0)]
    # None stands for the uncoupled prior and label blocks, the lam = 1
    # objective: model._disc_values' value and model._disc_terms' gradient
    settings += [None]
    # the GAUSSIAN M-step's (theta_tilde, delta, b) gradient, down to a
    # coupling variance of 1e-12
    gauss_variances = (0.5, 10.0, 1e-12)
    t0 = time.perf_counter()
    checked = 0
    for seed in range(10):
        data, gen, disc = random_instance(seed)
        for coupling in settings:
            if coupling is None:
                grad_w, grad_b = model._disc_terms(data.labeled, disc.w, disc.b, 100.0)[2:]

                def objective(w, b):
                    return sum(model._disc_values(data.labeled, w, b, 100.0)[:2])
            else:
                # _disc_terms' gradient plus the coupling block's; the
                # generative block does not involve (w, b)
                grad_w, grad_b = model._disc_terms(data.labeled, disc.w, disc.b,
                                                   coupling.disc_prior_sigma2)[2:]
                grad_w += expfam._blockwise(model._coupling_gradient(coupling),
                                            gen.theta_tilde, disc.w)

                def objective(w, b):
                    return log_joint_blocks(gen, DiscriminativeParams(b=b, w=w),
                                            coupling, data).total()
            fd_w = testkit.fd_gradient(lambda w: objective(w, disc.b), disc.w)
            fd_b = testkit.fd_gradient(lambda b: objective(disc.w, b), disc.b)
            assert np.all(np.abs(grad_w - fd_w) <= 1e-8 + 1e-4 * np.abs(fd_w))
            assert np.all(np.abs(grad_b - fd_b) <= 1e-8 + 1e-4 * np.abs(fd_b))
            checked += grad_w.size + grad_b.size
        for sigma_c2 in gauss_variances:
            checked += _gauss_m_step_check(data, gen, disc, sigma_c2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"PASS criterion 2: {checked} gradient coordinates matched finite "
          f"differences across 3 BETA couplings, the uncoupled lam = 1 objective "
          f"and 3 GAUSSIAN M-step variances in {elapsed:.2f}s")


def test_criterion_3_closed_form_update_is_the_surrogate_argmax():
    t0 = time.perf_counter()
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        data, gen_old, _ = random_instance(seed)
        disc = DiscriminativeParams(
            b=np.zeros(data.num_classes),
            w=rng.uniform(-3.0, 3.0, (data.num_classes, data.num_features)))
        n = len(data)
        resp = responsibilities(gen_old, data)
        counts = data.counts(resp)
        for gamma in (0.5, 2.0, 50.0):
            gen_new = generative_update_beta(data, resp, disc, gamma)
            alpha = gamma * expfam.sigmoid(disc.w)
            for y in range(data.num_classes):
                for d in range(data.num_features):
                    c, a = counts[y, d], alpha[y, d]
                    best = testkit.brute_force_theta_tilde(
                        lambda t: (c + a) * t - (n + gamma) * np.logaddexp(0.0, t),
                        -23.0, 23.0)
                    assert abs(gen_new.theta_tilde[y, d] - best) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 3: closed-form generative step equals the 1-D "
          f"numeric argmax coordinate-wise, 10 instances x 3 strengths, {elapsed:.2f}s")


def test_criterion_4_coupling_prior_geometry():
    gammas = (0.1, 1.0, 10.0, 100.0)
    means = (0.2, 0.5, 0.8)
    for mean in means:
        w = expfam.logit(mean)
        variances = []
        for gamma in gammas:
            # independent grid + Newton refinement of the density peak
            alpha = gamma * expfam.sigmoid(w)
            grid = np.linspace(-30.0, 30.0, 2001)
            t = grid[np.argmax(expfam.beta_prior_log_density(grid, w, gamma))]
            for _ in range(60):
                s = expfam.sigmoid(t)
                step = (alpha - gamma * s) / (gamma * s * (1.0 - s))
                t += step
                if abs(step) < 1e-14:
                    break
            assert abs(t - w) <= 1e-8
            variances.append(expfam.beta_prior_moments(w, gamma)[1])
        assert all(a > b for a, b in zip(variances, variances[1:]))

    # exported coupling-prior curves carry unit mass under each axis's
    # measure, and the stiffest panel hugs its matched normal most closely
    rows = prior_curve_rows(theta_mean=0.2, gammas=gammas, grid_points=2001)
    gaps = {}
    for gamma in gammas:
        for axis in ("mean", "natural"):
            sub = [r for r in rows if r[0] == gamma and r[1] == axis]
            x = np.array([r[2] for r in sub])
            beta = np.array([r[3] for r in sub])
            normal = np.array([r[4] for r in sub])
            if axis == "natural":
                jac = expfam.sigmoid(x) * (1.0 - expfam.sigmoid(x))
                mass_b = np.trapezoid(beta * jac, x)
            else:
                mass_b = np.trapezoid(beta, x)
            assert abs(mass_b - 1.0) < 1e-3, (gamma, axis, mass_b)
            gaps[gamma, axis] = np.abs(beta - normal).max()
    for axis in ("mean", "natural"):
        assert gaps[100.0, axis] == min(gaps[g, axis] for g in gammas)
    print("PASS criterion 4: prior peaks at the coupled weight (1e-8), "
          "variance strictly shrinks with strength, exported curves "
          "integrate to 1 within 1e-3 and the strongest coupling is "
          "closest to its matched normal")


def test_criterion_5_interpolation_endpoints_and_tight_coupling():
    full = generate_synthetic(2, 12, 40, 0.6, seed=11)
    data, test_set = sample_split(full, SplitSpec(labeled_per_class=6,
                                                  unlabeled_total=30, seed=11))
    cfg = TrainConfig()

    # lambda = 1 predicts identically to the standalone discriminative path
    gen1, disc1, _ = train(data, CouplingConfig.from_lambda(1.0), cfg)
    disc_ref, _ = train_logreg(data, cfg)
    assert np.array_equal(lr_scores_matrix(disc1, test_set).argmax(axis=1),
                          lr_scores_matrix(disc_ref, test_set).argmax(axis=1))

    # lambda = 0 predicts identically to the standalone generative path
    gen0, disc0, _ = train(data, CouplingConfig.from_lambda(0.0), cfg)
    gen_ref, _ = train_nb_em(data, cfg)
    assert np.array_equal(lr_scores_matrix(disc0, test_set).argmax(axis=1),
                          nb_scores_matrix(gen_ref, test_set).argmax(axis=1))

    # very stiff coupling welds the two parameter sets together
    gen, disc, report = train(
        data, CouplingConfig(kind=CouplingKind.BETA, lam=0.5, gamma=1e6), cfg)
    assert report.converged
    gap = np.abs(expfam.sigmoid(gen.theta_tilde) - expfam.sigmoid(disc.w)).max()
    assert gap < 1e-3
    print(f"PASS criterion 5: both endpoints predict instance-exactly like "
          f"their standalone trainers; gamma=1e6 hybrid converged with "
          f"max mean-space gap {gap:.2e}")


def test_criterion_6_coordinate_ascent_trace():
    toy = toy_corpus()
    coupling = CouplingConfig.from_lambda(0.5, CouplingKind.BETA)
    cfg = TrainConfig(max_outer_iters=200, tol=1e-6)
    n = len(toy)

    def surrogate(gen, w, resp, counts):
        s = float(resp.sum(axis=0) @ np.log(gen.pi))
        s += float((counts * gen.theta_tilde).sum()
                   - n * np.logaddexp(0.0, gen.theta_tilde).sum())
        s += float(expfam.beta_prior_log_density(gen.theta_tilde, w,
                                                 coupling.gamma).sum())
        return s

    # replay the exact training loop, checking each generative step
    # against the fixed-responsibility surrogate it maximizes; it starts
    # from the naive Bayes M-step on the labeled documents alone
    k, m = toy.num_classes, toy.num_features
    gen = trainer._smoothed_m_step(toy.labeled, np.eye(k)[toy.labels])
    # the SGD epochs update x = [w.ravel(), b] in place; w and b are views of it
    x = np.zeros(k * m + k)
    w, b = x[:k * m].reshape(k, m), x[k * m:]
    docs = _sgd_cells(toy)
    resp = responsibilities(gen, toy)
    trace = []
    worst = math.inf
    for it in range(cfg.max_outer_iters):
        disc = DiscriminativeParams(b=b.copy(), w=w.copy())
        counts = toy.counts(resp)
        before = surrogate(gen, disc.w, resp, counts)
        gen = generative_update_beta(toy, resp, disc, coupling.gamma)
        after = surrogate(gen, disc.w, resp, counts)
        worst = min(worst, after - before)
        assert after >= before - 1e-9
        _sgd_epochs(x, docs, gen, coupling, it)
        disc = DiscriminativeParams(b=b.copy(), w=w.copy())
        trace.append(log_joint_blocks(gen, disc, coupling, toy).total())
        resp = responsibilities(gen, toy)
        if it > 0:
            prev, curr = trace[-2], trace[-1]
            if abs(curr - prev) / max(1.0, abs(prev), abs(curr)) < cfg.tol:
                break

    _, _, report = train(toy, coupling, cfg)
    assert report.converged
    assert report.outer_iters_run <= 200
    assert list(report.log_joint_trace) == trace
    golden = np.loadtxt(GOLDEN_TRACE)
    assert len(report.log_joint_trace) == len(golden)
    assert_allclose(report.log_joint_trace, golden, rtol=1e-10, atol=0.0)
    print(f"PASS criterion 6: toy trace converged in {len(trace)} outer "
          f"iterations matching the golden file; worst generative-step "
          f"surrogate change {worst:+.2e} (never below -1e-9)")


def test_criterion_7_unlabeled_data_helps():
    t0 = time.perf_counter()
    spec = SweepSpec(lambdas=(0.0, 0.25, 0.5, 0.75, 1.0),
                     unlabeled_counts=(0, 500), labeled_per_class=10,
                     seeds=(1, 2, 3, 4, 5), coupling_kind=CouplingKind.BETA,
                     synthetic=SyntheticSpec(2, 50, 0.5, 500, seed=0))
    rows = run_sweep(spec)
    assert not any(r.failed for r in rows)
    # from the uniform start these cells could stop far below the optimum
    # (0.7854 at sweep seed 4); the labeled documents' start mends that
    loose = [r.accuracy for r in rows if r.lam == 0.75 and r.unlabeled == 500]
    assert len(loose) == 5 and min(loose) >= 0.99, loose
    lam0, acc0 = best_lambda(rows, 0)
    lam500, acc500 = best_lambda(rows, 500)
    elapsed = time.perf_counter() - t0
    assert acc500 >= acc0
    # frozen from the pinned oracle run of this exact grid
    assert_allclose(acc500 - acc0, 0.00020408163265306367, rtol=0.0, atol=1e-12)
    assert elapsed < 120.0
    print(f"PASS criterion 7: best-lambda mean accuracy {acc500:.6f} with 500 "
          f"unlabeled vs {acc0:.6f} with none (margin matches frozen oracle), "
          f"{elapsed:.1f}s")


def test_criterion_8_byte_identical_runs_and_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    assert cli.main(["synth", "--synthetic", "2,10,0.6,30", "--seed", "0",
                     "--out", str(corpus)]) == 0

    train_flags = ["train", "--corpus", str(corpus), "--lambda", "0.5",
                   "--max-iters", "25"]
    for name in ("a.model", "b.model"):
        assert cli.main(train_flags + ["--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()

    sweep_flags = ["sweep", "--corpus", str(corpus), "--lambdas", "0,0.5,1",
                   "--unlabeled", "0,10", "--labeled-per-class", "5",
                   "--seeds", "2", "--max-iters", "10"]
    for name in ("s1", "s2"):
        assert cli.main(sweep_flags + ["--out", str(tmp_path / name)]) == 0
    for suffix in (".results.csv", ".aggregate.csv"):
        assert ((tmp_path / ("s1" + suffix)).read_bytes()
                == (tmp_path / ("s2" + suffix)).read_bytes())

    disc = load_model(tmp_path / "a.model")
    save_model(disc, tmp_path / "roundtrip.model")
    assert ((tmp_path / "a.model").read_bytes()
            == (tmp_path / "roundtrip.model").read_bytes())
    disc2 = load_model(tmp_path / "roundtrip.model")
    assert np.array_equal(disc.b, disc2.b)
    assert np.array_equal(disc.w, disc2.w)
    capsys.readouterr()
    print("PASS criterion 8: train and sweep outputs byte-identical across "
          "reruns; model file round-trips bit-exactly")


def test_criterion_9_enumeration_checks():
    worst_mass = 0.0
    worst_post = 0.0
    rng = np.random.default_rng(42)
    for seed in range(8):
        data, gen, _ = random_instance(seed)
        worst_mass = max(worst_mass, abs(testkit.enumerate_joint(gen) - 1.0))
        for _ in range(4):
            ids = np.flatnonzero(rng.random(data.num_features) < 0.4)
            want = testkit.enumerate_posterior(gen, ids)
            doc = make_dataset([(ids, None)], data.num_classes, data.num_features)
            got = _normalize(nb_scores_matrix(gen, doc)[0])[1]
            worst_post = max(worst_post, np.abs(got - want).max())
    assert worst_mass < 1e-10
    assert worst_post < 1e-12
    print(f"PASS criterion 9: joint mass off by at most {worst_mass:.1e}, "
          f"posterior matches enumeration within {worst_post:.1e}")
