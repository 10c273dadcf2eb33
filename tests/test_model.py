"""Model layer: containers, validation, scoring, the four-block objective,
and text serialization."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridssl import cli, expfam, model
from hybridssl.data import SplitSpec, generate_synthetic, sample_split
from hybridssl.errors import ConfigError, DomainError, ParseError
from hybridssl.model import (CouplingConfig, CouplingKind, Dataset,
                             DiscriminativeParams, EndpointMode, GenerativeParams, load_model,
                             log_joint_blocks, lr_scores_matrix,
                             nb_scores_matrix, save_model)

from helpers import make_dataset, uniform_params


def tiny_dataset():
    """K=2, M=2, three documents: two labeled, one unlabeled."""
    return make_dataset([([0], 0), ([1], 1), ([0, 1], None)], num_classes=2, num_features=2)


# ---------------------------------------------------------------------------
# container validation

def test_dataset_validates_compressed_rows():
    ok = Dataset([0, 1, 1, 3], [4, 2, 4], [1, -1, 0], num_classes=2, num_features=5)
    assert len(ok) == 3 and ok.labels.tolist() == [1, 0]
    assert [(inst.features.tolist(), inst.label) for inst in ok] == [([4], 1), ([], None),
                                                                      ([2, 4], 0)]
    for num_classes, num_features in ((1, 5), (2, 0)):
        with pytest.raises(ConfigError):
            Dataset([0, 0], [], [-1], num_classes=num_classes, num_features=num_features)
    for indptr in ([0, 1, 3], [1, 1, 2, 3], [0, 2, 1, 3], [0, 1, 1, 4]):
        with pytest.raises(ConfigError):
            Dataset(indptr, [4, 2, 4], [1, -1, 0], num_classes=2, num_features=5)
    for labels in ([1, -2, 0], [1, -1, 2]):
        with pytest.raises(ConfigError):
            Dataset([0, 1, 1, 3], [4, 2, 4], labels, num_classes=2, num_features=5)
    for ids in ([5, 2, 4], [-1, 2, 4], [4, 2, 2], [4, 4, 2]):
        with pytest.raises(DomainError):
            Dataset([0, 1, 1, 3], ids, [1, -1, 0], num_classes=2, num_features=5)


def test_dataset_label_views():
    data = tiny_dataset()
    assert data.n_labeled == 2
    assert data.labeled_positions.tolist() == [0, 1]
    assert data.labels.tolist() == [0, 1]
    assert len(data) == 3


def test_generative_params_validation():
    with pytest.raises(ConfigError):
        GenerativeParams(pi=np.array([0.5, 0.6]), theta_tilde=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        GenerativeParams(pi=np.array([1.0, 0.0]), theta_tilde=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        GenerativeParams(pi=np.array([0.5, 0.5]),
                         theta_tilde=np.array([[0.0, np.inf], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        GenerativeParams(pi=np.array([0.5, 0.5]), theta_tilde=np.zeros((3, 2)))
    for pi in ([np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.5]):
        with pytest.raises(ConfigError):
            GenerativeParams(pi=np.array(pi), theta_tilde=np.zeros((2, 2)))


def test_discriminative_params_validation():
    with pytest.raises(ConfigError):
        DiscriminativeParams(b=np.zeros(2), w=np.zeros((3, 2)))
    with pytest.raises(ConfigError):
        DiscriminativeParams(b=np.array([np.nan, 0.0]), w=np.zeros((2, 2)))


def test_coupling_config_validation():
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=1.5)
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=0.5)  # needs gamma mid-range
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.GAUSSIAN, lam=0.5)  # needs gamma mid-range
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=0.5, gamma=-1.0)
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=0.0, disc_prior_sigma2=0.0)
    # a variance whose inverse overflows, or that is no number
    for sigma2 in (1e-320, 5e-324, math.nan, -math.inf):
        with pytest.raises(ConfigError, match="finite inverse"):
            CouplingConfig(kind=CouplingKind.BETA, lam=1.0, disc_prior_sigma2=sigma2)
        with pytest.raises(ConfigError, match="finite inverse"):
            CouplingConfig.from_lambda(0.5, CouplingKind.GAUSSIAN, disc_prior_sigma2=sigma2)
    # the inverse of 1e-308 is finite, and a flat prior's is 0
    for sigma2 in (1e-308, math.inf):
        CouplingConfig.from_lambda(0.5, disc_prior_sigma2=sigma2)
    # endpoints need no strength
    CouplingConfig(kind=CouplingKind.BETA, lam=0.0)
    CouplingConfig(kind=CouplingKind.BETA, lam=1.0)


def test_coupling_config_rejects_a_gamma_training_ignores():
    # the endpoint trainers read no coupling strength
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.BETA, lam=0.9995, gamma=5.0)
    with pytest.raises(ConfigError):
        CouplingConfig(kind=CouplingKind.GAUSSIAN, lam=0.0, gamma=5.0)
    for kind in CouplingKind:
        for lam in (0.0, 5e-4, 0.25, 0.5, 0.75, 0.9995, 1.0):
            cfg = CouplingConfig.from_lambda(lam, kind)
            assert (cfg.gamma is not None) == (cfg.mode is EndpointMode.HYBRID)


def test_coupling_from_lambda_strength_map():
    assert CouplingConfig.from_lambda(0.1).gamma == 81.0
    assert_allclose(CouplingConfig.from_lambda(0.9).gamma,
                    0.012345679012345679, rtol=1e-15)
    assert CouplingConfig.from_lambda(0.5).gamma == 1.0
    gauss = CouplingConfig.from_lambda(0.5, kind=CouplingKind.GAUSSIAN)
    assert gauss.sigma_c2 == 1.0
    assert CouplingConfig.from_lambda(0.1, kind=CouplingKind.GAUSSIAN).sigma_c2 == 1.0 / 81.0
    endpoint = CouplingConfig.from_lambda(1.0, kind=CouplingKind.GAUSSIAN)
    assert endpoint.gamma is None and endpoint.sigma_c2 is None


@pytest.mark.parametrize("kind", [CouplingKind.BETA, CouplingKind.GAUSSIAN])
def test_from_lambda_sets_gamma_only_in_hybrid_mode(kind):
    # lam within _LAMBDA_CLAMP = 1e-3 of an endpoint trains the endpoint model,
    # so it carries no coupling strength
    expected = [(0.0, EndpointMode.PURE_GENERATIVE, None),
                (5e-4, EndpointMode.PURE_GENERATIVE, None),
                (0.5, EndpointMode.HYBRID, 1.0),
                (0.9995, EndpointMode.PURE_DISCRIMINATIVE, None),
                (1.0, EndpointMode.PURE_DISCRIMINATIVE, None)]
    for lam, mode, gamma in expected:
        cfg = CouplingConfig.from_lambda(lam, kind)
        assert (cfg.mode, cfg.gamma) == (mode, gamma), lam
    # near an endpoint no strength is needed, as at the endpoint itself
    assert CouplingConfig(kind=kind, lam=5e-4).mode is EndpointMode.PURE_GENERATIVE
    assert CouplingConfig(kind=kind, lam=0.9995).mode is EndpointMode.PURE_DISCRIMINATIVE
    assert CouplingConfig(kind=kind, lam=0.0015, gamma=2.0).mode is EndpointMode.HYBRID
    with pytest.raises(ConfigError):
        CouplingConfig(kind=kind, lam=0.0015)


# ---------------------------------------------------------------------------
# generative scoring

def nb_row(gen, ids):
    """nb_scores_matrix's row for one document with present features ids."""
    doc = make_dataset([(ids, None)], *gen.theta_tilde.shape)
    return nb_scores_matrix(gen, doc)[0]


def test_nb_log_joint_uniform_hand_value():
    gen = uniform_params(2, 1)
    # pi = 1/2, success probability 1/2: p(y, x={0}) = 0.25
    assert_allclose(nb_row(gen, [0])[0], math.log(0.25), rtol=1e-15)
    assert_allclose(nb_row(gen, [])[1], math.log(0.25), rtol=1e-15)


def test_nb_log_joint_hand_value_skewed():
    from hybridssl.expfam import logit
    gen = GenerativeParams(pi=np.array([0.5, 0.5]),
                           theta_tilde=np.array([[logit(0.8)], [logit(0.2)]]))
    # p(y=0, x={0}) = 0.5 * 0.8 = 0.4, p(y=1, x={0}) = 0.5 * 0.2 = 0.1
    assert_allclose(nb_row(gen, [0]), [math.log(0.4), math.log(0.1)], rtol=1e-12)
    post = model._normalize(nb_row(gen, [0]))[1]
    assert_allclose(post, [0.8, 0.2], rtol=1e-12)


def _reference_softmax(scores):
    """The normalized exp that _normalize replaced, as it stood."""
    e = scores - scores.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _reference_logsumexp_rows(scores):
    """The row log-sum-exp that _normalize replaced, as it stood."""
    m = scores.max(axis=1)
    return m + np.log(np.exp(scores - m[:, None]).sum(axis=1))


@pytest.mark.parametrize("k", [2, 7, 8, 20])  # numpy sums 8 or more values pairwise
def test_normalize_is_bit_for_bit_the_softmax_and_logsumexp_it_replaced(k):
    rng = np.random.default_rng(k)
    rows = [rng.uniform(-scale, scale, (6, k)) for scale in (1.0, 1e2, 1e4)]
    tied_top = rng.uniform(-1e4, 1e4, (2, k))
    tied_top[:, :2] = 1e4
    rows += [np.full((1, k), 3.25), np.full((1, k), -1e4), tied_top]
    scores = np.vstack(rows)
    before = scores.copy()
    lse, probs = model._normalize(scores)
    assert np.array_equal(scores, before)  # predict takes the argmax afterwards
    assert lse.shape == (len(scores),) and probs.shape == scores.shape
    assert lse.tobytes() == _reference_logsumexp_rows(scores).tobytes()
    assert probs.tobytes() == _reference_softmax(scores).tobytes()
    for row in scores:  # one document's scores, as predict and the oracles pass them
        lse, probs = model._normalize(row)
        assert lse.shape == () and probs.shape == (k,)
        assert lse.tobytes() == _reference_logsumexp_rows(row[None])[0].tobytes()
        assert probs.tobytes() == _reference_softmax(row).tobytes()


def test_nb_posterior_uniform_is_one_over_k():
    gen = uniform_params(4, 3)
    assert_allclose(model._normalize(nb_row(gen, [0, 2]))[1], np.full(4, 0.25), rtol=1e-15)


def test_nb_posterior_sums_to_one_and_finite():
    rng = np.random.default_rng(5)
    for _ in range(50):
        k = int(rng.integers(2, 5))
        m = int(rng.integers(1, 8))
        pi = rng.dirichlet(np.ones(k))
        gen = GenerativeParams(pi=pi, theta_tilde=rng.normal(0.0, 3.0, (k, m)))
        nnz = rng.random(m) < 0.5
        post = model._normalize(nb_row(gen, np.flatnonzero(nnz)))[1]
        assert np.all(np.isfinite(post))
        assert abs(post.sum() - 1.0) < 1e-12


def test_nb_scores_matrix_matches_per_document_scoring():
    rng = np.random.default_rng(9)
    docs = []
    m = 6
    for _ in range(40):
        nnz = np.flatnonzero(rng.random(m) < 0.4)
        label = int(rng.integers(0, 3)) if rng.random() < 0.5 else None
        docs.append((nnz, label))
    data = make_dataset(docs, num_classes=3, num_features=m)
    gen = GenerativeParams(pi=rng.dirichlet(np.ones(3)),
                           theta_tilde=rng.normal(0.0, 2.0, (3, m)))
    dense = nb_scores_matrix(gen, data)
    assert data._dense_matrix is not None
    for i, inst in enumerate(data):
        per_document = gen.theta_tilde[:, inst.features].sum(axis=1)
        assert_allclose(dense[i], gen.log_pi + gen.absence_base + per_document, atol=1e-10)


def test_nb_scores_matrix_sparse_fallback_agrees():
    """The dense and the compressed-row products both equal per-document
    sums; the compressed-row ones add in the same order, so bit for bit."""
    rng = np.random.default_rng(10)
    m, k = 5, 3
    ids = [np.flatnonzero(rng.random(m) < 0.4) for _ in range(8)] + [np.array([], int)]
    data = make_dataset([(i, None) for i in ids], num_classes=k, num_features=m)
    t = rng.normal(0.0, 1.0, (k, m))
    r = rng.random((len(ids), k))
    want_scores = np.array([t[:, i].sum(axis=1) for i in ids])
    want_counts = np.zeros((k, m))
    for i, row in zip(ids, r):
        want_counts[:, i] += row[:, None]
    assert data._dense_matrix is not None
    assert_allclose(data.scores(t), want_scores, atol=1e-12)
    assert_allclose(data.counts(r), want_counts, atol=1e-12)
    assert np.array_equal(model._csr_scores(data.indptr, data.indices, t), want_scores)
    assert np.array_equal(model._csr_counts(data.indptr, data.indices, r, m), want_counts)

    rows = np.array([8, 2, 5])
    sub = data._subset(rows, np.full(rows.size, -1))
    assert_allclose(sub.scores(t), want_scores[rows], atol=1e-12)
    assert np.array_equal(model._csr_scores(sub.indptr, sub.indices, t), want_scores[rows])
    sub_counts = np.zeros((k, m))
    for pos in rows:
        sub_counts[:, ids[pos]] += r[pos][:, None]
    assert_allclose(sub.counts(r[rows]), sub_counts, atol=1e-12)
    assert np.array_equal(model._csr_counts(sub.indptr, sub.indices, r[rows], m), sub_counts)


def test_storage_rule_reads_density():
    """X is cached densely exactly when N * M is at most
    _DENSE_CELLS_PER_ENTRY cells per present entry. A 200 x 50,000 labeled
    set at 0.2% density, text-cli's shape, stays in compressed rows, where
    a cell cap of 2e7 stored it as an 80 MB array; the criterion-7 corpus,
    its splits and their labeled views are dense."""
    c = model._DENSE_CELLS_PER_ENTRY
    assert make_dataset([([0], 0)], 2, c)._dense_matrix is not None
    assert make_dataset([([0], 0)], 2, c + 1)._dense_matrix is None
    rng = np.random.default_rng(21)
    n, m, nnz = 200, 50_000, 100
    indices = np.concatenate([np.sort(rng.choice(m, nnz, replace=False)) for _ in range(n)])
    labels = np.arange(n) % 20
    assert Dataset(np.arange(n + 1) * nnz, indices, labels, 20, m)._dense_matrix is None
    corpus = Dataset(np.arange(2 * n + 1) * nnz, np.tile(indices, 2),
                     np.concatenate([labels, np.full(n, -1)]), 20, m)
    assert corpus.labeled._dense_matrix is None

    full = generate_synthetic(2, 50, 500, 0.5, seed=0)
    assert full._dense_matrix is not None
    for unlabeled in (0, 500):
        train_set, test_set = sample_split(full, SplitSpec(10, unlabeled, seed=1))
        for data in (train_set, train_set.labeled, test_set):
            assert data._dense_matrix is not None


@pytest.mark.parametrize("storage", ["dense", "compressed"])
def test_labeled_view_is_built_once_and_scores_the_labeled_rows(monkeypatch, storage):
    """Dataset.labeled is one _subset per Dataset, holding the labeled
    documents in corpus order with their labels. Its products equal the
    labeled rows of the whole set's: bit for bit in compressed rows, where
    each document's entries are added in the same order, and within
    rounding when dense."""
    if storage == "compressed":
        monkeypatch.setattr(model, "_DENSE_CELLS_PER_ENTRY", 0)
    subsets = []
    subset = Dataset._subset
    monkeypatch.setattr(Dataset, "_subset",
                        lambda self, *args: subsets.append(args) or subset(self, *args))
    rng = np.random.default_rng(22)
    k, m = 3, 30
    docs = [(np.flatnonzero(rng.random(m) < 0.3), int(rng.integers(k)) if i % 3 else None)
            for i in range(40)]
    data = make_dataset(docs, k, m)
    view = data.labeled
    assert data.labeled is view and len(subsets) == 1
    compressed = storage == "compressed"
    assert (data._dense_matrix is None) == (view._dense_matrix is None) == compressed
    pos = data.labeled_positions
    assert np.array_equal(view.row_labels, data.labels)
    assert all(np.array_equal(a.features, docs[i][0]) for a, i in zip(view, pos))

    t = rng.normal(size=(k, m))
    r = rng.random((len(view), k))
    padded = np.zeros((len(data), k))
    padded[pos] = r
    if compressed:
        assert np.array_equal(view.scores(t), data.scores(t)[pos])
        assert np.array_equal(view.counts(r), data.counts(padded))
    else:
        x = data._dense_matrix[pos]
        assert_allclose(view.scores(t), x @ t.T, rtol=0.0, atol=1e-12)
        assert_allclose(view.counts(r), r.T @ x, rtol=0.0, atol=1e-12)


def test_run_wise_csr_scores_equal_the_whole_array_bincount():
    """_csr_scores bincounts runs of whole documents of about
    expfam._BLOCK entries; every score equals the one-bincount product and a
    sequential per-document sum bit for bit. The lengths put empty documents
    first, last and between runs, end a document exactly on the first run
    boundary, give one document more entries than a run and leave the last
    run ragged."""
    block = expfam._BLOCK
    rng = np.random.default_rng(17)
    k, m = 3, 3 * block
    lengths = [0, 0, 100, block - 100, 0, 7, 2 * block + 5, 0, 1, 300, block // 2, 0]
    ids = [np.sort(rng.choice(m, n, replace=False)) for n in lengths]
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    indices = np.concatenate(ids)
    assert block in indptr.tolist() and indptr[-1] % block
    t = rng.normal(0.0, 1.0, (k, m))

    got = model._csr_scores(indptr, indices, t)
    doc_of_entry = np.repeat(np.arange(len(lengths)), lengths)
    whole = np.stack([np.bincount(doc_of_entry, weights=t[c, indices],
                                  minlength=len(lengths)) for c in range(k)], axis=1)
    # cumsum adds one entry after another, as the bincount does
    sequential = np.array([[np.cumsum(t[c, i])[-1] if i.size else 0.0 for c in range(k)]
                           for i in ids])
    assert np.array_equal(got, whole) and np.array_equal(got, sequential)
    assert np.array_equal(model._csr_scores(np.zeros(4, np.int64), indices[:0], t),
                          np.zeros((3, k)))
    assert model._csr_scores(np.zeros(1, np.int64), indices[:0], t).shape == (0, k)


@pytest.mark.parametrize("k", [2, 20])
@pytest.mark.parametrize("m", [8193, 16385])
def test_absence_base_equals_the_full_array_row_sums(k, m):
    # blockwise per class, against the K x M array it no longer builds
    rng = np.random.default_rng(k * m)
    theta_tilde = rng.normal(0.0, 5.0, (k, m))
    gen = GenerativeParams(pi=np.full(k, 1.0 / k), theta_tilde=theta_tilde)
    assert np.array_equal(gen.absence_base, -np.logaddexp(0.0, theta_tilde).sum(axis=1))


# ---------------------------------------------------------------------------
# discriminative scoring

def lr_posterior(disc, ids):
    """p(y | x) as `hybridssl predict` reports it: the shared softmax of the
    logistic scores of one document with present features ids."""
    doc = make_dataset([(ids, None)], disc.num_classes, disc.num_features)
    return model._normalize(lr_scores_matrix(disc, doc)[0])[1]


def test_lr_posterior_hand_value():
    disc = DiscriminativeParams(b=np.array([1.0, 0.0]), w=np.zeros((2, 3)))
    post = lr_posterior(disc, [])
    assert_allclose(post, [0.7310585786300049, 0.2689414213699951], rtol=1e-12)


def test_lr_posterior_shift_invariance():
    rng = np.random.default_rng(2)
    disc = DiscriminativeParams(b=rng.normal(size=3), w=rng.normal(size=(3, 4)))
    shifted = DiscriminativeParams(b=disc.b + 123.456, w=disc.w)
    assert_allclose(lr_posterior(disc, [1, 3]), lr_posterior(shifted, [1, 3]), atol=1e-12)


def test_lr_posterior_zero_params_uniform():
    disc = DiscriminativeParams(b=np.zeros(5), w=np.zeros((5, 2)))
    assert_allclose(lr_posterior(disc, [0]), np.full(5, 0.2), rtol=1e-15)


def test_lr_posterior_large_scores_stay_normalized():
    disc = DiscriminativeParams(b=np.array([1e4, -1e4, 0.0]), w=np.zeros((3, 1)))
    post = lr_posterior(disc, [])
    assert np.all(np.isfinite(post))
    assert abs(post.sum() - 1.0) < 1e-12


def test_predict_ties_and_argmax(tmp_path, capsys):
    """`hybridssl predict` picks the argmax class, the lowest index on a tie."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("# hybridssl-corpus v1 K=2 M=3\n0\n1 0:1\n", encoding="utf-8")
    for b, w0, want in (([0.1, 0.0], [0.0, 0.0], ["0", "0"]),
                        ([0.0, 0.0], [0.0, 0.0], ["0", "0"]),
                        ([0.1, 0.0], [-1.0, 0.0], ["0", "1"])):
        w = np.zeros((2, 3))
        w[:, 0] = w0
        save_model(DiscriminativeParams(b=np.array(b), w=w), tmp_path / "m.model")
        assert cli.main(["predict", "--model", str(tmp_path / "m.model"),
                         "--corpus", str(corpus)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines] == want


# ---------------------------------------------------------------------------
# the four-block objective

def coupling_beta(gamma, sigma2=100.0):
    return CouplingConfig(kind=CouplingKind.BETA, lam=0.5, gamma=gamma,
                          disc_prior_sigma2=sigma2)


def test_log_joint_blocks_from_scratch():
    # Independent recomputation with plain math on K=2, M=2, the tiny
    # dataset (two labeled docs, one unlabeled).
    data = tiny_dataset()
    pi = np.array([0.4, 0.6])
    tt = np.array([[0.3, -0.5], [-1.0, 0.8]])
    gen = GenerativeParams(pi=pi, theta_tilde=tt)
    b = np.array([0.1, -0.2])
    w = np.array([[0.5, -0.3], [0.2, 0.7]])
    disc = DiscriminativeParams(b=b, w=w)
    gamma, sigma2 = 2.5, 10.0
    cfg = coupling_beta(gamma, sigma2)

    prior = -0.5 / sigma2 * sum(w[y, d] ** 2 for y in range(2) for d in range(2))

    coupling = 0.0
    for y in range(2):
        for d in range(2):
            alpha = gamma / (1.0 + math.exp(-w[y, d]))
            logm = (math.lgamma(gamma + 2.0) - math.lgamma(alpha + 1.0)
                    - math.lgamma(gamma - alpha + 1.0))
            coupling += logm + tt[y, d] * alpha - gamma * math.log1p(math.exp(tt[y, d]))

    def lr_log_prob(xbits, y):
        scores = [b[c] + sum(w[c, d] * xbits[d] for d in range(2)) for c in range(2)]
        return scores[y] - math.log(sum(math.exp(s) for s in scores))

    disc_block = lr_log_prob([1, 0], 0) + lr_log_prob([0, 1], 1)

    def nb_joint(xbits, y):
        p = pi[y]
        for d in range(2):
            v = 1.0 / (1.0 + math.exp(-tt[y, d]))
            p *= v if xbits[d] else (1.0 - v)
        return p

    gen_block = (math.log(sum(nb_joint([1, 0], y) for y in range(2)))
                 + math.log(sum(nb_joint([0, 1], y) for y in range(2)))
                 + math.log(sum(nb_joint([1, 1], y) for y in range(2))))

    blocks = log_joint_blocks(gen, disc, cfg, data)
    assert_allclose(blocks.prior, prior, rtol=1e-12)
    assert_allclose(blocks.coupling, coupling, rtol=1e-12)
    assert_allclose(blocks.discriminative, disc_block, rtol=1e-12)
    assert_allclose(blocks.generative, gen_block, rtol=1e-12)


def test_log_joint_gaussian_coupling_peaks_at_equality():
    data = tiny_dataset()
    tt = np.array([[0.3, -0.5], [-1.0, 0.8]])
    gen = GenerativeParams(pi=np.array([0.5, 0.5]), theta_tilde=tt)
    cfg = CouplingConfig(kind=CouplingKind.GAUSSIAN, lam=0.5, gamma=4.0)
    aligned = DiscriminativeParams(b=np.zeros(2), w=tt.copy())
    assert log_joint_blocks(gen, aligned, cfg, data).coupling == 0.0
    off = DiscriminativeParams(b=np.zeros(2), w=tt + 0.1)
    block = log_joint_blocks(gen, off, cfg, data).coupling
    assert_allclose(block, -0.5 / 0.25 * 4 * 0.1 ** 2, rtol=1e-12)
    assert block < 0.0


def test_unlabeled_instance_touches_only_generative_block():
    base = tiny_dataset()
    extra = make_dataset(list(base) + [([0], None)], num_classes=2, num_features=2)
    gen = GenerativeParams(pi=np.array([0.4, 0.6]),
                           theta_tilde=np.array([[0.3, -0.5], [-1.0, 0.8]]))
    disc = DiscriminativeParams(b=np.array([0.1, -0.2]),
                                w=np.array([[0.5, -0.3], [0.2, 0.7]]))
    cfg = coupling_beta(1.0)
    before = log_joint_blocks(gen, disc, cfg, base)
    after = log_joint_blocks(gen, disc, cfg, extra)
    assert after.prior == before.prior
    assert after.coupling == before.coupling
    assert after.discriminative == before.discriminative
    assert after.generative != before.generative


# ---------------------------------------------------------------------------
# serialization

def test_model_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    disc = DiscriminativeParams(b=rng.normal(size=3), w=rng.normal(size=(3, 5)))
    save_model(disc, tmp_path / "a.model")
    text = (tmp_path / "a.model").read_text(encoding="utf-8")
    lines = text.splitlines()
    # the header, b and its row, w and its three rows
    assert len(lines) == 7 and lines[0] == "hybridssl-model v2 K=3 M=5"
    assert (lines[1], lines[3]) == ("b", "w")
    disc2 = load_model(tmp_path / "a.model")
    assert np.array_equal(disc.b, disc2.b)
    assert np.array_equal(disc.w, disc2.w)
    save_model(disc2, tmp_path / "b.model")
    assert (tmp_path / "b.model").read_text(encoding="utf-8") == text


class _FailingFile:
    """An open text file whose write number fail_at raises exc."""

    def __init__(self, fh, fail_at, exc):
        self.fh, self.fail_at, self.exc, self.writes = fh, fail_at, exc, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise self.exc
        return self.fh.write(text)


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["disk-full", "interrupt"])
def test_a_failed_save_leaves_the_previous_model_whole(tmp_path, monkeypatch, exc):
    rng = np.random.default_rng(14)
    path = tmp_path / "run.model"
    save_model(DiscriminativeParams(b=rng.normal(size=4), w=rng.normal(size=(4, 6))), path)
    before = path.read_bytes()
    new = DiscriminativeParams(b=rng.normal(size=4), w=rng.normal(size=(4, 6)))
    # writes: the header, "b", b's row, "w", then w's rows; the sixth is w's
    # second row, so the first has already been written
    monkeypatch.setattr(model, "open", lambda *args, **kwargs: _FailingFile(
        open(*args, **kwargs), 6, exc), raising=False)
    with pytest.raises(type(exc)):
        save_model(new, path)
    monkeypatch.delattr(model, "open")
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]

    save_model(new, path)
    got = load_model(path)
    assert np.array_equal(got.b, new.b) and np.array_equal(got.w, new.w)
    assert list(tmp_path.iterdir()) == [path]


def test_save_replaces_a_symlink_instead_of_writing_through_it(tmp_path):
    target, link = tmp_path / "target.model", tmp_path / "link.model"
    target.write_text("kept\n", encoding="utf-8")
    link.symlink_to(target)
    disc = DiscriminativeParams(b=np.zeros(2), w=np.ones((2, 3)))
    save_model(disc, link)
    assert not link.is_symlink()
    assert target.read_text(encoding="utf-8") == "kept\n"
    assert np.array_equal(load_model(link).w, disc.w)


def load_text(tmp_path, text):
    """load_model on a file holding text."""
    path = tmp_path / "text.model"
    path.write_bytes(text.encode("utf-8"))
    return load_model(path)


def _replace(at, row):
    """An edit of the good model file's lines: line index at becomes row."""
    return lambda lines: "\n".join(lines[:at] + [row] + lines[at + 1:])


@pytest.mark.parametrize("edit, line, message", [
    pytest.param(lambda lines: "garbage header\n", 1,
                 "bad model header: expected 'hybridssl-model v2 K=<K> M=<M>'",
                 id="garbage-header"),
    pytest.param(_replace(1, "notb"), 2, "expected section 'b'", id="not-b"),
    pytest.param(_replace(2, "0.5"), 3,  # wrong arity for b
                 "section 'b' row has 1 values, expected 2", id="short-b-row"),
    pytest.param(_replace(4, "0.0 oops 0"), 5,
                 "section 'w' has a token that is not an ASCII decimal", id="bad-w-token"),
    pytest.param(_replace(5, "0 0"), 6,
                 "section 'w' row has 2 values, expected 3", id="short-w-row"),
    pytest.param(lambda lines: "\n".join(lines[:4]), 5, "section 'w' truncated",
                 id="no-w-rows"),
    pytest.param(lambda lines: "", 1, "empty model file", id="empty-file"),
    # nothing follows the last w row
    pytest.param(lambda lines: "\n".join(lines + ["0 0 0"]) + "\n", 7,
                 "unexpected line after section 'w'", id="third-w-row"),
    pytest.param(lambda lines: "\n".join(lines + ["b", "0 0"]) + "\n", 7,
                 "unexpected line after section 'w'", id="second-b-section"),
    pytest.param(lambda lines: "\n".join(lines + ["garbage"]) + "\n", 7,
                 "unexpected line after section 'w'", id="garbage-word"),
    pytest.param(lambda lines: "\n".join(lines) + "\n\n", 7,
                 "unexpected line after section 'w'", id="blank-line"),
])
def test_load_model_error_lines(tmp_path, edit, line, message):
    save_model(DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 3))),
               tmp_path / "good.model")
    lines = (tmp_path / "good.model").read_text(encoding="utf-8").splitlines()
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, edit(lines))
    assert exc.value.line == line and str(exc.value) == f"{message} (line {line})"


@pytest.mark.parametrize("at, row", [(2, "1e999 0"), (5, "0 1e999 0")], ids=["b", "w"])
def test_load_model_refuses_an_overflowing_value(tmp_path, at, row):
    # float("1e999") is inf: the grammar takes it, DiscriminativeParams does not
    save_model(DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 3))),
               tmp_path / "good.model")
    lines = (tmp_path / "good.model").read_text(encoding="utf-8").splitlines()
    with pytest.raises(ConfigError, match="discriminative parameters must be finite"):
        load_text(tmp_path, _replace(at, row)(lines))


@pytest.mark.parametrize("header, message", [
    ("hybridssl-model", "bad model header: expected 'hybridssl-model v2 K=<K> M=<M>'"),
    ("hybridssl-model v2 K=2", "bad model header: expected 'hybridssl-model v2 K=<K> M=<M>'"),
    ("hybridssl-model v2 M=3 K=2", "bad model header: expected 'hybridssl-model v2 K=<K> M=<M>'"),
    ("hybridssl-model v2 K=2 M=3 x", "bad model header: expected 'hybridssl-model v2 K=<K> M=<M>'"),
    ("hybridssl-corpus v2 K=2 M=3", "bad model header: expected 'hybridssl-model v2 K=<K> M=<M>'"),
    ("hybridssl-model v2 K=two M=3", "model header K/M must be integers"),
    ("hybridssl-model v2 K=2 M=-3", "model header K/M must be integers"),
])
def test_load_model_refuses_a_malformed_header(tmp_path, header, message):
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, f"{header}\nb\n0 0\nw\n0 0 0\n0 0 0\n")
    assert str(exc.value) == f"{message} (line 1)"


@pytest.mark.parametrize("header, message", [
    # no corpus has fewer than two classes or one feature, so none could be
    # scored with such a model
    ("v2 K=0 M=3", "model declares K=0, need K >= 2"),
    ("v2 K=1 M=3", "model declares K=1, need K >= 2"),
    ("v2 K=2 M=0", "model declares M=0, need M >= 1"),
    # v1 files held pi and theta_tilde before b and w; they are not read
    ("v1 K=2 M=3", "model file is version v1, expected v2: retrain to write a v2 file"),
    ("v3 K=2 M=3", "model file is version v3, expected v2: retrain to write a v2 file"),
])
def test_load_model_refuses_a_header_it_cannot_serve(tmp_path, header, message):
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, f"hybridssl-model {header}\nb\n0 0\nw\n0 0 0\n0 0 0\n")
    assert str(exc.value) == f"{message} (line 1)"


@pytest.mark.parametrize("header, line", [("K=2 M=1000000000000", 5),
                                          ("K=1000000000000 M=2", 3),
                                          ("K=2 M=1" + "0" * 23, 5),
                                          ("K=1" + "0" * 23 + " M=2", 3)])
def test_load_model_allocates_only_rows_it_has_read(tmp_path, header, line):
    # the header's sizes alone would ask for terabytes
    with pytest.raises(ParseError) as exc:
        load_text(tmp_path, f"hybridssl-model v2 {header}\nb\n0.5 0.5\nw\n0 0\n")
    assert exc.value.line == line
    assert "row has 2 values, expected 1000000000000" in str(exc.value)


_LINES_MODEL = "hybridssl-model v2 K=2 M=2\nb\n0 0\nw\n"


@pytest.mark.parametrize("text, expected", [
    # CRLF line ends read as LF
    ((_LINES_MODEL + "1 2\n3 4\n").replace("\n", "\r\n"), [[1.0, 2.0], [3.0, 4.0]]),
    # no newline after the last row
    (_LINES_MODEL + "1 2\n3 4", [[1.0, 2.0], [3.0, 4.0]]),
    # \x85 and \x0c end a line, as str.splitlines() has it
    (_LINES_MODEL + "1 2\x853 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    (_LINES_MODEL + "1 2\x0c3 4\n", [[1.0, 2.0], [3.0, 4.0]]),
    (_LINES_MODEL + "1\x0c2\n3 4\n", ("section 'w' row has 1 values, expected 2", 5)),
    (_LINES_MODEL + "1 2\x0c\n3 4\n", ("section 'w' row has 0 values, expected 2", 6)),
    (_LINES_MODEL + "1 2\n", ("section 'w' truncated", 6)),
    (_LINES_MODEL + "1 2", ("section 'w' truncated", 6)),
    (_LINES_MODEL[:_LINES_MODEL.index("w\n")], ("expected section 'w'", 4)),
])
def test_model_file_line_semantics(tmp_path, text, expected):
    """load_model splits lines as str.splitlines() does, and names the line
    of every error."""
    if isinstance(expected, tuple):
        message, line = expected
        with pytest.raises(ParseError) as exc:
            load_text(tmp_path, text)
        assert exc.value.line == line and str(exc.value) == f"{message} (line {line})"
    else:
        assert load_text(tmp_path, text).w.tolist() == expected
