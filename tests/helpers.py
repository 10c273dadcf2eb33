"""Test data built through the Dataset constructor."""

import numpy as np

from hybridssl.model import Dataset, _normalize, nb_scores_matrix


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
