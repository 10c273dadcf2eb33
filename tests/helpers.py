"""Test data built through the Dataset constructor."""

import numpy as np

from hybridssl.model import Dataset, GenerativeParams, _normalize, nb_scores_matrix


def make_dataset(docs, num_classes, num_features):
    """A Dataset from (feature ids, label) pairs, label None when unlabeled.
    Iterating a Dataset yields such pairs, so its rows can be fed back in."""
    docs = list(docs)
    ids = [np.asarray(features, dtype=np.int64) for features, _ in docs]
    indptr = np.concatenate(([0], np.cumsum([a.size for a in ids], dtype=np.int64)))
    return Dataset(indptr, np.concatenate([np.empty(0, np.int64)] + ids),
                   [-1 if label is None else label for _, label in docs],
                   num_classes, num_features)


def responsibilities(gen, data):
    """p(y | x) for every document of data, as the trainer's E-step takes it."""
    return _normalize(nb_scores_matrix(gen, data))[1]


def uniform_params(k, m):
    """Uniform pi and theta_tilde = 0, every success probability 1/2."""
    return GenerativeParams(np.full(k, 1 / k), np.zeros((k, m)))


def oracle_corpus(seed):
    """A random corpus small enough for testkit's exhaustive oracles: K of 2
    or 3, M <= 12, up to 24 documents, the first few of them labeled."""
    rng = np.random.default_rng(seed)
    k, m, n = int(rng.integers(2, 4)), int(rng.integers(3, 13)), int(rng.integers(8, 25))
    n_labeled = int(rng.integers(1, n // 2))
    return make_dataset([(np.flatnonzero(rng.random(m) < rng.uniform(0.2, 0.6)),
                          int(rng.integers(k)) if i < n_labeled else None)
                         for i in range(n)], k, m)
