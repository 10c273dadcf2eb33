"""Corpus file IO, protocol splits, and the synthetic corpus generator.

Corpus grammar (UTF-8, LF line endings):

    # hybridssl-corpus v1 K=<digits> M=<digits>
    <label> <id>:1 <id>:1 ...
    * <id>:1 ...

The first line is the mandatory header. A document line starts with a
class label in [0, K) or ``*`` for unlabeled, followed by present-feature
entries ``<id>:1`` with strictly increasing ids below M. K, M, labels and
ids are ASCII digits ``[0-9]+``; no sign, underscore or other script's
digits; K and M lie below 10**18. The value is the literal ``1``: the
model is over binary presence, not counts. Later ``#``-prefixed lines are
comments; blank lines are ignored. Parse errors name the 1-based line and
column of the offending token.

The parser, the synthetic generator and the protocol split each write a
Dataset's compressed-row arrays directly: ``indptr`` (N + 1 row offsets),
``indices`` (the present ids of all rows, concatenated) and ``row_labels``
(-1 for unlabeled), all int64.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, ConfigError, DomainError, ParseError
from .model import _DIGITS_RE, Dataset
from .rng import SplitMix64, derive_seed

_HEADER_RE = re.compile(r"^#\s+hybridssl-corpus\s+v1\s+K=([0-9]+)\s+M=([0-9]+)\s*$",
                        re.ASCII)
_FEATURE_RE = re.compile(r"([0-9]+):([0-9]+)")
_TOKEN_RE = re.compile(r"\S+")
# A document line: blanks, a label and "<id>:1" tokens. K and M lie below
# 10**18, so a valid label or id has at most 18 significant digits.
_ROW_RE = re.compile(r"[ \t]*(\*|0*[0-9]{1,18})((?:[ \t]+0*[0-9]{1,18}:1)*)[ \t]*", re.ASCII)


def load_corpus(path) -> Dataset:
    """Parse a corpus file into a Dataset. If _read_rows rejects a line, the
    lines are read again token by token to name the first bad one."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")

    if not lines or _HEADER_RE.match(lines[0]) is None:
        raise ParseError(
            "expected header '# hybridssl-corpus v1 K=<digits> M=<digits>'", line=1)
    header = _HEADER_RE.match(lines[0])
    num_classes = int(header.group(1))
    num_features = int(header.group(2))
    if num_classes < 2:
        raise ParseError(f"corpus declares K={num_classes}, need K >= 2", line=1)
    if num_features < 1:
        raise ParseError(f"corpus declares M={num_features}, need M >= 1", line=1)
    if max(num_classes, num_features) >= 10 ** 18:
        raise ParseError(f"corpus declares K={num_classes} M={num_features}, "
                         f"need both below 10**18", line=1)

    data = _read_rows(lines[1:], num_classes, num_features)
    if data is not None:
        return data
    for lineno, text in enumerate(lines[1:], start=2):
        if not text.strip() or text.lstrip().startswith("#"):
            continue
        tokens = list(_TOKEN_RE.finditer(text))
        label_tok = tokens[0]
        col = label_tok.start() + 1
        if label_tok.group() != "*":
            if _DIGITS_RE.fullmatch(label_tok.group()) is None:
                raise ParseError(f"label must be an integer in [0, {num_classes}) or '*', "
                                 f"got {label_tok.group()!r}", line=lineno, column=col)
            label = int(label_tok.group())
            if not (0 <= label < num_classes):
                raise BoundsError(f"label {label} outside [0, {num_classes})",
                                  line=lineno, column=col)

        prev = -1
        for tok in tokens[1:]:
            col = tok.start() + 1
            m = _FEATURE_RE.fullmatch(tok.group())
            if m is None:
                raise ParseError(f"expected '<id>:1', got {tok.group()!r}",
                                 line=lineno, column=col)
            fid = int(m.group(1))
            if m.group(2) != "1":
                raise ParseError(f"feature values must be 1 (binary presence), got "
                                 f"{tok.group()!r}", line=lineno, column=col)
            if fid >= num_features:
                raise BoundsError(f"feature id {fid} outside [0, {num_features})",
                                  line=lineno, column=col)
            if fid <= prev:
                raise ParseError(f"feature ids must be strictly increasing, "
                                 f"{fid} follows {prev}", line=lineno, column=col)
            prev = fid
    raise AssertionError("a corpus line was rejected but no token is bad")


def _read_rows(lines, num_classes, num_features):
    """The Dataset of the document lines, or None if one breaks the grammar:
    one match of _ROW_RE per line (whitespace normalized if the raw line
    fails), all labels and ids read as int64 at once, and Dataset checking
    bounds and the strict increase of each row's ids."""
    labels, bodies = [], []
    for text in lines:
        match = _ROW_RE.fullmatch(text)
        if match is None:
            text = " ".join(text.split())
            if not text or text.startswith("#"):
                continue
            match = _ROW_RE.fullmatch(text)
            if match is None:
                return None
        labels.append(match[1])
        bodies.append(match[2])
    indptr = np.concatenate(([0], np.cumsum([b.count(":") for b in bodies], dtype=np.int64)))
    indices = np.fromstring("".join(bodies), dtype=np.int64, sep=":1")
    row_labels = np.fromstring(" ".join(labels).replace("*", "-1"), dtype=np.int64, sep=" ")
    try:
        return Dataset(indptr, indices, row_labels, num_classes, num_features)
    except (ConfigError, DomainError):
        return None


def write_corpus(data: Dataset, path) -> None:
    """Serialize a Dataset in the corpus grammar; inverse of load_corpus."""
    rows = np.split(data.indices, data.indptr[1:-1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# hybridssl-corpus v1 K={data.num_classes} M={data.num_features}\n")
        for ids, label in zip(rows, data.row_labels.tolist()):
            feats = " ".join(f"{v}:1" for v in ids.tolist())
            fh.write(("*" if label < 0 else str(label)) + (" " + feats if feats else "") + "\n")


@dataclass(frozen=True)
class SplitSpec:
    """Protocol split: a few labeled docs per class, an unlabeled pool,
    and the rest of the labeled corpus as the test set.

    unlabeled_total must divide evenly across classes; the unlabeled pool
    is balanced per hidden class and its labels are stripped.
    """

    labeled_per_class: int
    unlabeled_total: int
    seed: int

    def __post_init__(self):
        if self.labeled_per_class < 1:
            raise ConfigError(f"labeled_per_class must be >= 1, got {self.labeled_per_class}")
        if self.unlabeled_total < 0:
            raise ConfigError(f"unlabeled_total must be >= 0, got {self.unlabeled_total}")
        # derive_seed folds a seed modulo 2**64, so only that range is distinct
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


def sample_split(full: Dataset, spec: SplitSpec):
    """Draw a (train, test) pair from a labeled corpus.

    Per class: a seeded shuffle of that class's instances, the first
    labeled_per_class kept labeled, the next unlabeled_total/K stripped of
    their labels. Training instances are ordered labeled blocks first
    (class 0..K-1), then unlabeled blocks. The test set is every remaining
    labeled instance in corpus order. Instances of ``full`` that are
    already unlabeled cannot enter the protocol and are ignored.
    Deterministic in spec.seed.
    """
    k = full.num_classes
    if spec.unlabeled_total % k != 0:
        raise ConfigError(f"unlabeled_total {spec.unlabeled_total} not divisible by "
                          f"K={k} classes")
    per_class_unlabeled = spec.unlabeled_total // k

    need = spec.labeled_per_class + per_class_unlabeled
    labeled_blocks, unlabeled_blocks = [], []
    for c in range(k):
        order = np.flatnonzero(full.row_labels == c).tolist()
        if len(order) < need:
            raise ConfigError(
                f"class {c} has {len(order)} labeled instances, protocol needs "
                f"{need} ({spec.labeled_per_class} labeled + {per_class_unlabeled} unlabeled)")
        SplitMix64(derive_seed(spec.seed, c)).shuffle(order)
        labeled_blocks.append(order[:spec.labeled_per_class])
        unlabeled_blocks.append(order[spec.labeled_per_class:need])

    train_rows = np.concatenate(labeled_blocks + unlabeled_blocks).astype(np.int64)
    train_labels = full.row_labels[train_rows]
    train_labels[k * spec.labeled_per_class:] = -1
    rest = full.row_labels >= 0
    rest[train_rows] = False
    test_rows = np.flatnonzero(rest)
    return (Dataset(*full._take(train_rows), train_labels, k, full.num_features),
            Dataset(*full._take(test_rows), full.row_labels[test_rows], k, full.num_features))


def synthetic_true_params(num_classes: int, num_features: int, class_separation: float):
    """(pi, probs) the synthetic generator samples from.

    Feature space is carved into K equal signal blocks of size M // K
    (any leftover features are background). Class c emits its own block
    with probability 0.5 + separation/2, the other blocks with
    0.5 - separation/2, and background features with probability 0.1, so
    separation = 0 makes the classes indistinguishable.
    """
    if num_classes < 2:
        raise ConfigError(f"need at least 2 classes, got {num_classes}")
    if num_features < num_classes:
        raise ConfigError(f"need at least one feature per class, got M={num_features} "
                          f"for K={num_classes}")
    if not (0.0 <= class_separation <= 1.0):
        raise ConfigError(f"class_separation must lie in [0, 1], got {class_separation}")
    block = num_features // num_classes
    probs = np.full((num_classes, num_features), 0.1)
    probs[:, :block * num_classes] = 0.5 - class_separation / 2.0
    for c in range(num_classes):
        probs[c, c * block:(c + 1) * block] = 0.5 + class_separation / 2.0
    pi = np.full(num_classes, 1.0 / num_classes)
    return pi, probs


def generate_synthetic(num_classes: int, num_features: int, docs_per_class: int,
                       class_separation: float, seed: int) -> Dataset:
    """Sample a fully labeled corpus from synthetic_true_params.

    Documents are ordered class-major (all of class 0, then class 1, ...).
    Identical seeds give identical corpora.
    """
    if docs_per_class < 1:
        raise ConfigError(f"docs_per_class must be >= 1, got {docs_per_class}")
    _, probs = synthetic_true_params(num_classes, num_features, class_separation)
    rng = np.random.default_rng(seed)
    draws = np.concatenate([rng.random((docs_per_class, num_features)) < probs[c]
                            for c in range(num_classes)])
    rows, ids = np.divmod(np.flatnonzero(draws), num_features)
    return Dataset(np.searchsorted(rows, np.arange(len(draws) + 1)), ids,
                   np.repeat(np.arange(num_classes), docs_per_class), num_classes, num_features)
