"""Corpus IO, protocol splits, and the synthetic generator."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hybridssl import cli, expfam
from hybridssl.data import (SplitSpec, generate_synthetic, load_corpus,
                            sample_split, synthetic_true_params, write_corpus)
from hybridssl.errors import BoundsError, ConfigError, ParseError
from hybridssl.model import (DiscriminativeParams, GenerativeParams, load_model,
                             nb_scores_matrix, save_model, uniform_generative_params)

from helpers import make_dataset


def write(tmp_path, text, name="corpus.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


GOOD = """# hybridssl-corpus v1 K=2 M=20
1 3:1 17:1
* 2:1
# a comment

0
0 0:1 19:1
"""


# ---------------------------------------------------------------------------
# corpus parsing

def test_load_corpus_documented_example(tmp_path):
    data = load_corpus(write(tmp_path, GOOD))
    assert data.num_classes == 2
    assert data.num_features == 20
    assert len(data) == 4
    assert data.indptr.tolist() == [0, 2, 3, 3, 5]
    assert data.indices.tolist() == [3, 17, 2, 0, 19]
    assert data.row_labels.tolist() == [1, -1, 0, 0]
    rows = list(data)
    assert rows[0].label == 1
    assert rows[0].features.tolist() == [3, 17]
    assert rows[1].label is None
    assert rows[2].features.tolist() == []


def test_corpus_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    docs = []
    for i in range(50):
        nnz = np.flatnonzero(rng.random(12) < 0.3)
        label = int(rng.integers(0, 3)) if rng.random() < 0.7 else None
        docs.append((nnz, label))
    original = make_dataset(docs, num_classes=3, num_features=12)
    path = tmp_path / "roundtrip.txt"
    write_corpus(original, path)
    loaded = load_corpus(path)
    assert len(loaded) == len(original)
    assert loaded.num_classes == 3 and loaded.num_features == 12
    for a, b in zip(original, loaded):
        assert a.label == b.label
        assert np.array_equal(a.features, b.features)
    # writing again reproduces the same bytes
    path2 = tmp_path / "roundtrip2.txt"
    write_corpus(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_bad_header_rejected(tmp_path):
    for text in ("", "hybridssl-corpus v1 K=2 M=3\n",
                 "# hybridssl-corpus v2 K=2 M=3\n",
                 "# hybridssl-corpus v1 K=2\n"):
        with pytest.raises(ParseError) as exc:
            load_corpus(write(tmp_path, text))
        assert exc.value.line == 1
    with pytest.raises(ParseError):
        load_corpus(write(tmp_path, "# hybridssl-corpus v1 K=1 M=3\n"))
    with pytest.raises(ParseError):
        load_corpus(write(tmp_path, "# hybridssl-corpus v1 K=2 M=0\n"))
    # every label and id of a corpus must fit int64
    for dims in ("K=2 M=1000000000000000000", "K=1000000000000000000 M=3"):
        with pytest.raises(ParseError) as exc:
            load_corpus(write(tmp_path, f"# hybridssl-corpus v1 {dims}\n0 0:1\n"))
        assert exc.value.line == 1


def test_bad_label_location(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_corpus(write(tmp_path, "# hybridssl-corpus v1 K=2 M=3\nx 0:1\n"))
    assert exc.value.line == 2 and exc.value.column == 1

    with pytest.raises(BoundsError) as exc:
        load_corpus(write(tmp_path, "# hybridssl-corpus v1 K=2 M=3\n0 0:1\n2 1:1\n"))
    assert exc.value.line == 3 and exc.value.column == 1


def test_bad_feature_token_location(tmp_path):
    head = "# hybridssl-corpus v1 K=2 M=3\n"
    with pytest.raises(ParseError) as exc:
        load_corpus(write(tmp_path, head + "0 0:1 1\n"))
    assert exc.value.line == 2 and exc.value.column == 7

    with pytest.raises(ParseError) as exc:
        load_corpus(write(tmp_path, head + "0 0:2\n"))
    assert exc.value.line == 2 and exc.value.column == 3
    assert "binary presence" in str(exc.value)

    with pytest.raises(BoundsError) as exc:
        load_corpus(write(tmp_path, head + "0 3:1\n"))
    assert exc.value.line == 2 and exc.value.column == 3

    with pytest.raises(ParseError) as exc:
        load_corpus(write(tmp_path, head + "0 1:1 1:1\n"))
    assert exc.value.line == 2 and exc.value.column == 7
    assert "strictly increasing" in str(exc.value)

    with pytest.raises(ParseError) as exc:
        load_corpus(write(tmp_path, head + "0 2:1 1:1\n"))
    assert exc.value.line == 2 and exc.value.column == 7


_MODEL_HEAD = "hybridssl-model v1 K=2 M=2\npi\n0.5 0.5\ntheta_tilde\n"


@pytest.mark.parametrize("kind, text, line, column", [
    ("corpus", "# hybridssl-corpus v1 K=2 M=3\n+1 0:1\n", 2, 1),
    ("corpus", "# hybridssl-corpus v1 K=20 M=3\n1_0 0:1\n", 2, 1),
    ("corpus", "# hybridssl-corpus v1 K=2 M=3\n0 \u0661:1\n", 2, 3),
    ("corpus", "# hybridssl-corpus v1 K=2 M=3\n0 0:01\n", 2, 3),
    ("corpus", "# hybridssl-corpus v1 K=\u0662 M=3\n0 0:1\n", 1, None),
    ("model", "hybridssl-model v1 K=+2 M=3\n", 1, None),
    ("model", "hybridssl-model v1 K=2 M=\u0663\n", 1, None),
    ("model", _MODEL_HEAD + "0 0\n0 0\nb\n0 0\nw\n1_0 \u0661.5\n0 0\n", 10, None),
    ("model", _MODEL_HEAD + "0 0\n0 0\nb\n0 nan\nw\n0 0\n0 0\n", 8, None),
    ("model", _MODEL_HEAD + "0 \uff11\n0 0\nb\n0 0\nw\n0 0\n0 0\n", 5, None),
])
def test_only_ascii_digit_grammar_is_accepted(tmp_path, capsys, kind, text, line, column):
    """Signs, underscores, other scripts' digits and values other than the
    literal 1 are parse errors with their location, and exit 2."""
    bad = write(tmp_path, text, name="bad.txt")
    good_model = tmp_path / "good.model"
    save_model(uniform_generative_params(2, 3),
               DiscriminativeParams(b=np.zeros(2), w=np.zeros((2, 3))), good_model)
    good_corpus = write(tmp_path, "# hybridssl-corpus v1 K=2 M=3\n0 0:1\n")
    with pytest.raises(ParseError) as exc:
        if kind == "corpus":
            load_corpus(bad)
        else:
            load_model(bad)
    assert (exc.value.line, exc.value.column) == (line, column)
    if kind == "corpus":
        argv = ["--model", str(good_model), "--corpus", str(bad)]
    else:
        argv = ["--model", str(bad), "--corpus", str(good_corpus)]
    assert cli.main(["predict"] + argv) == 2
    assert "error:" in capsys.readouterr().err


def test_model_values_accept_decimal_and_exponent_notation(tmp_path):
    gen, disc = load_model(write(tmp_path, _MODEL_HEAD + "-1.5e-3 +2.\n.25 1E+2\nb\n0 0\nw\n"
                                 "7 -0\n3e0 1e-300\n", name="m.model"))
    assert gen.theta_tilde.tolist() == [[-1.5e-3, 2.0], [0.25, 100.0]]
    assert disc.w.tolist() == [[7.0, 0.0], [3.0, 1e-300]]


# ---------------------------------------------------------------------------
# protocol splits

def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(labeled_per_class=0, unlabeled_total=0, seed=1)
    with pytest.raises(ConfigError):
        SplitSpec(labeled_per_class=1, unlabeled_total=-1, seed=1)
    with pytest.raises(ConfigError):
        SplitSpec(labeled_per_class=5, unlabeled_total=10, seed=-1)  # as seed 2**64 - 1
    with pytest.raises(ConfigError):
        SplitSpec(labeled_per_class=5, unlabeled_total=10, seed=2 ** 64)  # as seed 0


def test_split_structure_and_balance():
    full = generate_synthetic(2, 10, 50, 0.5, seed=2)
    train, test = sample_split(full, SplitSpec(labeled_per_class=10,
                                               unlabeled_total=40, seed=9))
    assert len(train) == 2 * 10 + 40
    assert len(test) == 100 - len(train)
    # labeled blocks come first, ordered by class
    labels = [inst.label for inst in train]
    assert labels[:10] == [0] * 10
    assert labels[10:20] == [1] * 10
    assert labels[20:] == [None] * 40
    # every test instance keeps its label
    assert all(inst.label is not None for inst in test)


def test_split_zero_unlabeled_keeps_everything_labeled():
    full = generate_synthetic(2, 10, 20, 0.5, seed=2)
    train, test = sample_split(full, SplitSpec(labeled_per_class=10,
                                               unlabeled_total=0, seed=1))
    assert len(train) == 20
    assert all(inst.label is not None for inst in train)
    assert len(test) == 20


def test_split_is_deterministic_and_seed_sensitive():
    full = generate_synthetic(3, 12, 30, 0.4, seed=5)
    spec = SplitSpec(labeled_per_class=5, unlabeled_total=30, seed=11)
    t1, s1 = sample_split(full, spec)
    t2, s2 = sample_split(full, spec)
    for a, b in ((t1, t2), (s1, s2)):
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.row_labels, b.row_labels)

    other = SplitSpec(labeled_per_class=5, unlabeled_total=30, seed=12)
    t3, _ = sample_split(full, other)
    assert not np.array_equal(t1.indices, t3.indices)


def test_split_train_test_disjoint():
    # 40 features make every document distinct, so rows are told apart by content
    full = generate_synthetic(2, 40, 25, 0.5, seed=6)
    docs = [tuple(inst.features.tolist()) for inst in full]
    assert len(set(docs)) == len(docs)
    train, test = sample_split(full, SplitSpec(labeled_per_class=5,
                                               unlabeled_total=20, seed=3))
    train_docs = {tuple(inst.features.tolist()) for inst in train}
    test_docs = {tuple(inst.features.tolist()) for inst in test}
    assert len(train_docs) == len(train) and len(test_docs) == len(test)
    assert not train_docs & test_docs
    assert len(train_docs | test_docs) == len(full)


def test_split_insufficiency_names_class():
    full = generate_synthetic(2, 8, 5, 0.5, seed=6)
    with pytest.raises(ConfigError) as exc:
        sample_split(full, SplitSpec(labeled_per_class=4, unlabeled_total=4, seed=3))
    assert "class 0" in str(exc.value)


def test_split_divisibility_error():
    full = generate_synthetic(2, 8, 25, 0.5, seed=6)
    with pytest.raises(ConfigError) as exc:
        sample_split(full, SplitSpec(labeled_per_class=5, unlabeled_total=7, seed=3))
    assert "divisible" in str(exc.value)


def test_split_ignores_preexisting_unlabeled():
    base = generate_synthetic(2, 8, 10, 0.5, seed=1)
    first = next(iter(base))
    mixed = make_dataset(list(base) + [(first.features, None)], num_classes=2, num_features=8)
    train, test = sample_split(mixed, SplitSpec(labeled_per_class=2,
                                                unlabeled_total=0, seed=0))
    assert len(train) + len(test) == 20  # the unlabeled extra never appears


# ---------------------------------------------------------------------------
# synthetic generator

def test_synthetic_true_params_shape_and_values():
    pi, probs = synthetic_true_params(2, 10, 0.8)
    assert_allclose(pi, [0.5, 0.5])
    assert probs.shape == (2, 10)
    assert_allclose(probs[0, :5], 0.9)
    assert_allclose(probs[0, 5:], 0.1)
    assert_allclose(probs[1, :5], 0.1)
    assert_allclose(probs[1, 5:], 0.9)

    # background features appear when M is not a multiple of K
    _, probs = synthetic_true_params(3, 10, 0.4)
    assert_allclose(probs[:, 9], 0.1)
    assert_allclose(probs[0, 0:3], 0.7)
    assert_allclose(probs[0, 3:9], 0.3)


def test_synthetic_zero_separation_is_uninformative():
    _, probs = synthetic_true_params(2, 10, 0.0)
    assert np.array_equal(probs[0], probs[1])


def test_synthetic_params_validation():
    with pytest.raises(ConfigError):
        synthetic_true_params(1, 10, 0.5)
    with pytest.raises(ConfigError):
        synthetic_true_params(3, 2, 0.5)
    with pytest.raises(ConfigError):
        synthetic_true_params(2, 10, 1.5)
    with pytest.raises(ConfigError):
        generate_synthetic(2, 10, 0, 0.5, seed=1)


def test_synthetic_deterministic_in_seed():
    a = generate_synthetic(2, 20, 30, 0.5, seed=42)
    b = generate_synthetic(2, 20, 30, 0.5, seed=42)
    for x, y in zip(a, b):
        assert x.label == y.label
        assert np.array_equal(x.features, y.features)
    c = generate_synthetic(2, 20, 30, 0.5, seed=43)
    assert any(not np.array_equal(x.features, y.features)
               for x, y in zip(a, c))


def test_synthetic_class_major_order():
    data = generate_synthetic(3, 6, 4, 0.5, seed=0)
    assert [inst.label for inst in data] == [0] * 4 + [1] * 4 + [2] * 4


def test_synthetic_empirical_frequencies_match_truth():
    k, m, docs = 2, 15, 10_000
    data = generate_synthetic(k, m, docs, 0.6, seed=8)
    _, probs = synthetic_true_params(k, m, 0.6)
    counts = np.zeros((k, m))
    for inst in data:
        counts[inst.label, inst.features] += 1.0
    freq = counts / docs
    assert np.abs(freq - probs).max() < 0.02


def test_bayes_optimal_accuracy_on_separated_classes():
    k, m, sep = 2, 50, 0.8
    pi, probs = synthetic_true_params(k, m, sep)
    truth = GenerativeParams(pi=pi, theta_tilde=expfam.logit(probs))
    sample = generate_synthetic(k, m, 500, sep, seed=1)
    predicted = nb_scores_matrix(truth, sample).argmax(axis=1)
    correct = int(np.sum(predicted == sample.row_labels))
    assert correct / len(sample) >= 0.95
