"""Correctness checks on a workload's outputs, made apart from the program.

Each check returns a list of failure messages; an empty list passes. The
checks import nothing from hybridssl: the grid's reference accuracy comes
from the generator recipe, and the text workload's predictions are
recomputed from the saved model file with plain numpy. controls.py shows
that each check fails on a corrupted output.
"""

from __future__ import annotations

import math
import re
import statistics

import numpy as np

import inputs

# Mean test accuracy of a grid may trail the Bayes-optimal accuracy by this
# much: 10 labeled documents per class cannot pin down the classifier, and
# the lambda = 1 cells see no unlabeled data at all.
GRID_ACCURACY_MARGIN = 0.02
# Relative score gap under which two classes count as tied: the program
# and this file add the same weights in different orders.
TIE_TOLERANCE = 1e-9
PREDICTION_RE = re.compile(r"^(\d+)\t(\d+)\t([0-9.]+)$")
ACCURACY_RE = re.compile(r"^accuracy=(\d+)/(\d+)=([0-9.]+)$", re.MULTILINE)


def bayes_accuracy(num_classes, num_features, separation):
    """Accuracy of the Bayes rule under the synthetic generator.

    Class c emits each feature of its own block of B = M // K features
    with probability a = 1/2 + sep/2 and every other block's with 1 - a;
    background features do not depend on the class. log p(x | c) is then
    (2 n_c - B) log(a / (1 - a)) plus terms shared by all classes, where
    n_c counts the present features of block c, so the Bayes rule picks
    the block with the most present features and breaks ties uniformly.
    Under class c, n_c ~ Bin(B, a) and the other blocks' counts are
    independent Bin(B, 1 - a).
    """
    block = num_features // num_classes
    a = 0.5 + separation / 2.0
    own = [math.comb(block, n) * a ** n * (1 - a) ** (block - n) for n in range(block + 1)]
    other = own[::-1]
    below = np.concatenate([[0.0], np.cumsum(other)[:-1]])
    rivals = num_classes - 1
    total = 0.0
    for n in range(block + 1):
        for ties in range(rivals + 1):
            total += (own[n] * math.comb(rivals, ties) * other[n] ** ties
                      * below[n] ** (rivals - ties) / (ties + 1))
    return total


def check_grid(rows):
    failures = [f"cell lambda={r['lam']} unlabeled={r['unlabeled']} seed={r['seed']} "
                f"failed: {r['error']}" for r in rows if r["failed"]]
    accuracies = [r["accuracy"] for r in rows if not r["failed"]]
    if not accuracies:
        return failures + ["no grid cell produced an accuracy"]
    bayes = bayes_accuracy(inputs.GRID_K, inputs.GRID_M, inputs.GRID_SEPARATION)
    mean = statistics.fmean(accuracies)
    if mean < bayes - GRID_ACCURACY_MARGIN:
        failures.append(f"mean grid accuracy {mean:.6f} trails the Bayes-optimal "
                        f"{bayes:.6f} by more than {GRID_ACCURACY_MARGIN}")
    return failures


def check_identical(digests, what):
    if len(set(digests)) > 1:
        return [f"{what}: outputs differ between passes ({len(set(digests))} distinct)"]
    return []


def read_model(path):
    """(b, w) from a `hybridssl-model v1` file, parsed here, not by the program."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split()
    k, m = int(header[2][2:]), int(header[3][2:])
    b_at = lines.index("b")
    b = np.array(lines[b_at + 1].split(), dtype=float)
    w_at = lines.index("w", b_at)
    w = np.array([row.split() for row in lines[w_at + 1:w_at + 1 + k]], dtype=float)
    if b.shape != (k,) or w.shape != (k, m):
        raise ValueError(f"model file {path}: b {b.shape}, w {w.shape}, header K={k} M={m}")
    return b, w


def check_text(docs, model_path, predictions, predict_stderr):
    """Predictions and reported accuracy of `hybridssl predict` on docs.

    The class scores are b + sum of w over the present ids, summed per
    document with one reduceat; a document is scored wrong only if the
    program's class trails the best score by more than TIE_TOLERANCE.
    """
    b, w = read_model(model_path)
    scores = np.add.reduceat(w[:, docs.indices], docs.indptr[:-1], axis=1).T + b
    best = scores.argmax(axis=1)
    lines = predictions.splitlines()
    if len(lines) != len(docs):
        return [f"predict wrote {len(lines)} lines for {len(docs)} documents"]
    failures = []
    top = scores.max(axis=1, keepdims=True)
    probs = np.exp(scores - top)
    probs /= probs.sum(axis=1, keepdims=True)
    wrong = 0
    for i, line in enumerate(lines):
        match = PREDICTION_RE.match(line)
        if match is None or int(match.group(1)) != i:
            return [f"prediction line {i + 1} is malformed: {line!r}"]
        cls, prob = int(match.group(2)), float(match.group(3))
        tied = TIE_TOLERANCE * (1 + abs(top[i, 0]))
        if cls >= scores.shape[1] or top[i, 0] - scores[i, cls] > tied:
            wrong += 1
        elif abs(prob - probs[i, cls]) > 1.5e-6:
            failures.append(f"document {i}: predict reports p={prob}, the model gives "
                            f"{probs[i, cls]:.8f}")
    if wrong:
        failures.append(f"{wrong} of {len(docs)} predicted classes differ from the "
                        f"model file's argmax")
    correct = int(np.sum(best == docs.labels))
    match = ACCURACY_RE.search(predict_stderr)
    expected = f"{correct}/{len(docs)}={correct / len(docs):.6f}"
    if match is None or match.group(0) != f"accuracy={expected}":
        reported = match.group(0) if match else "no accuracy line"
        failures.append(f"predict reports {reported!r}, the generated labels give "
                        f"accuracy={expected}")
    return failures[:5]
