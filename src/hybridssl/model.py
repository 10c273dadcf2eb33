"""Model state and scoring for the coupled classifier pair.

The generative half is a multivariate Bernoulli naive Bayes over binary
presence features,

    log p(y, x) = log pi_y + sum_d [x_d * t_yd - A(t_yd)],

held in natural form t = theta_tilde. The discriminative half is multiclass
logistic regression with weights w and intercepts b on the same features.
Both halves score a document in O(nnz): the dense absence term
-sum_d A(t_yd) is cached per class and present features contribute the
sparse correction t_yd on top.

The full training objective decomposes into four blocks, exposed separately
by log_joint_blocks, which the trainer evaluates once per outer iteration:

    prior           Gaussian log prior on w (uniform on b contributes 0)
    coupling        coupling prior linking theta_tilde to w, per coordinate
    discriminative  sum over labeled documents of log p(t | x, w, b)
    generative      sum over all documents of log sum_y p(y, x | pi, theta_tilde)

Labels enter only through the discriminative block; the generative block
always marginalizes the class and does not involve (w, b). The gradients
sit beside the values: _disc_values gives the prior and discriminative
blocks over Dataset.labeled, _disc_terms adds the gradient of their sum,
_coupling_gradient is the BETA coupling block's, one block of coordinates
at a time, and _gauss_m_step_terms is the value and gradient of the
GAUSSIAN M-step objective over the labeled documents' columns.
log_joint_blocks computes values only.

_normalize gives a score matrix's row log-sum-exps and probabilities from
one exp: on the naive Bayes scores, the generative block and the E-step's
responsibilities; on the logistic ones, the discriminative block and its
gradient.
"""

from __future__ import annotations

import enum
import math
import os
import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import expfam
from .errors import ConfigError, DomainError, ParseError

_PI_TOL = 1e-12
# X is cached densely when N * M <= this many times nnz, so a dense copy
# costs at most this many times the memory of indices. Dense and compressed
# products cost the same at 20-33 cells per entry at K=4 and at 100 or more
# at K=20; at 33, dense was 1.1-1.2x slower at K=4 and 2.3-3.1x faster on
# every other shape of tools/storage_crossover.py (2-core x86 sandbox).
_DENSE_CELLS_PER_ENTRY = 32
# K, M, labels and feature ids in corpus and model files are ASCII digits;
# int() alone would also take signs, underscores and non-ASCII digits.
_DIGITS_RE = re.compile("[0-9]+")
# Bytes of a model file's value rows: ASCII decimals, exponents and blanks;
# float() alone would also take "1_0", other scripts' digits, "nan", "inf".
_NUMBER_BYTES = b"0123456789+-.eE \t"


class Instance(NamedTuple):
    """One row of a Dataset: its present-feature ids (an int64 slice of
    Dataset.indices) and its label, None when unlabeled."""

    features: np.ndarray
    label: Optional[int]


@dataclass(eq=False)
class Dataset:
    """N documents over a fixed (K, M) space, in compressed sparse rows.

    Document i holds the present-feature ids indices[indptr[i]:indptr[i+1]]
    (int64, strictly increasing, all < M) and the label row_labels[i], -1
    when unlabeled. These arrays are the whole dataset: the parser, the
    generator and the protocol split write them, everything else slices
    them, and iterating yields each row as an Instance view.

    The 0/1 design matrix X (N, M) is read only through the two products
    scores and counts, which choose its storage from its density: a cached
    dense array when N * M <= _DENSE_CELLS_PER_ENTRY * nnz, the compressed
    rows otherwise. A subset, such as the labeled view, reads its own.
    """

    indptr: np.ndarray
    indices: np.ndarray
    row_labels: np.ndarray
    num_classes: int
    num_features: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.num_classes}")
        if self.num_features < 1:
            raise ConfigError(f"need at least 1 feature, got {self.num_features}")
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.row_labels = np.asarray(self.row_labels, dtype=np.int64)
        lengths = np.diff(self.indptr)
        if (self.indptr.shape != (len(self) + 1,) or self.indptr[0] != 0
                or self.indptr[-1] != self.indices.size or np.any(lengths < 0)):
            raise ConfigError("indptr must rise from 0 to len(indices), one step per document")
        bad = np.flatnonzero((self.row_labels < -1) | (self.row_labels >= self.num_classes))
        if bad.size:
            raise ConfigError(f"instance {bad[0]} has label {self.row_labels[bad[0]]} "
                              f"outside [0, {self.num_classes})")
        row_start = np.zeros(self.indices.size, dtype=bool)
        row_start[self.indptr[:-1][lengths > 0]] = True
        bad = (self.indices < 0) | (self.indices >= self.num_features)
        bad[1:] |= (self.indices[1:] <= self.indices[:-1]) & ~row_start[1:]
        if bad.any():
            row = np.searchsorted(self.indptr, bad.argmax(), side="right") - 1
            raise DomainError(f"instance {row} has feature ids outside "
                              f"[0, {self.num_features}) or not strictly increasing")

    def __len__(self):
        return self.row_labels.size

    def __iter__(self):
        for ids, label in zip(np.split(self.indices, self.indptr[1:-1]), self.row_labels.tolist()):
            yield Instance(ids, None if label < 0 else label)

    def _subset(self, rows: np.ndarray, row_labels: np.ndarray) -> "Dataset":
        """The documents at positions rows, in that order, labeled row_labels."""
        lengths = np.diff(self.indptr)[rows]
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        entries = np.arange(indptr[-1]) + np.repeat(self.indptr[rows] - indptr[:-1], lengths)
        return Dataset(indptr, self.indices[entries], row_labels, self.num_classes,
                       self.num_features)

    @cached_property
    def _dense_matrix(self) -> Optional[np.ndarray]:
        if len(self) * self.num_features > _DENSE_CELLS_PER_ENTRY * self.indices.size:
            return None
        x = np.zeros((len(self), self.num_features))
        x[np.repeat(np.arange(len(self)), np.diff(self.indptr)), self.indices] = 1.0
        return x

    def scores(self, t: np.ndarray) -> np.ndarray:
        """X @ t.T: each document summed over the columns of t at its present
        features, shape (N, t.shape[0])."""
        x = self._dense_matrix
        if x is not None:
            return x @ t.T
        return _csr_scores(self.indptr, self.indices, t)

    def counts(self, r: np.ndarray) -> np.ndarray:
        """r.T @ X: the column-wise mass of r over each feature, shape
        (r.shape[1], M); r has one row per document."""
        x = self._dense_matrix
        if x is not None:
            return r.T @ x
        return _csr_counts(self.indptr, self.indices, r, self.num_features)

    @cached_property
    def labeled(self) -> "Dataset":
        """The labeled documents alone, in corpus order: the documents the
        discriminative block and its gradient read. Built once."""
        return self._subset(self.labeled_positions, self.labels)

    @cached_property
    def labeled_positions(self) -> np.ndarray:
        return np.flatnonzero(self.row_labels >= 0)

    @cached_property
    def labels(self) -> np.ndarray:
        """Labels of the labeled instances, aligned with labeled_positions."""
        return self.row_labels[self.labeled_positions]

    @property
    def n_labeled(self) -> int:
        return int(self.labeled_positions.size)


def _csr_scores(indptr: np.ndarray, indices: np.ndarray, t: np.ndarray) -> np.ndarray:
    """X @ t.T for X in compressed rows: one bincount per row of t over each
    run of whole documents, a run starting at the first document at or past
    every multiple of expfam._BLOCK entries. Each document's entries are
    added in feature order, as a per-document sum would add them, so no
    value depends on the runs; only the temporaries shrink from nnz to
    about _BLOCK entries."""
    n = indptr.size - 1
    out = np.empty((n, t.shape[0]))
    starts = np.searchsorted(indptr, np.arange(expfam._BLOCK, indptr[-1], expfam._BLOCK))
    cuts = [0, *starts.tolist(), n]
    for lo, hi in zip(cuts, cuts[1:]):
        ids = indices[indptr[lo]:indptr[hi]]
        doc_of_entry = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
        for k in range(t.shape[0]):
            out[lo:hi, k] = np.bincount(doc_of_entry, weights=t[k].take(ids),
                                         minlength=hi - lo)
    return out


def _csr_counts(indptr: np.ndarray, indices: np.ndarray, r: np.ndarray,
                num_features: int) -> np.ndarray:
    """r.T @ X for X in compressed rows: one bincount per column of r,
    accumulating documents in order, each weighed through an nnz-long
    np.repeat of the column, a temporary the size of indices (ROADMAP item 12)."""
    lengths = np.diff(indptr)
    out = np.empty((r.shape[1], num_features))
    for k in range(r.shape[1]):
        out[k] = np.bincount(indices, weights=np.repeat(r[:, k], lengths),
                             minlength=num_features)
    return out


@dataclass(frozen=True, eq=False)
class GenerativeParams:
    """Class prior pi (K,) and natural feature parameters theta_tilde (K, M).

    Treated as an immutable snapshot; the trainer builds a fresh object per
    update, which is what keeps the cached absence term coherent.
    """

    pi: np.ndarray
    theta_tilde: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=float)
        tt = np.asarray(self.theta_tilde, dtype=float)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "theta_tilde", tt)
        if pi.ndim != 1 or tt.ndim != 2 or tt.shape[0] != pi.shape[0]:
            raise ConfigError(f"shape mismatch: pi {pi.shape}, theta_tilde {tt.shape}")
        if not (np.all(pi > 0.0) and abs(pi.sum() - 1.0) <= _PI_TOL):
            raise ConfigError(f"pi must be positive and sum to 1 within {_PI_TOL}")
        if not np.all(np.isfinite(tt)):
            raise ConfigError("theta_tilde must be finite")

    @cached_property
    def log_pi(self) -> np.ndarray:
        return np.log(self.pi)

    @cached_property
    def absence_base(self) -> np.ndarray:
        """Per-class sum_d log(1 - v_yd) = -sum_d A(t_yd), shape (K,): one
        expfam._blockwise_sum per class, bit for bit the row sums of the
        full K x M array of A values, which is never built."""
        return -np.array([expfam._blockwise_sum(expfam.log_partition, row)
                          for row in self.theta_tilde])


@dataclass(frozen=True, eq=False)
class DiscriminativeParams:
    """Logistic-regression intercepts b (K,) and weights w (K, M)."""

    b: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)
        if b.ndim != 1 or w.ndim != 2 or w.shape[0] != b.shape[0]:
            raise ConfigError(f"shape mismatch: b {b.shape}, w {w.shape}")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(w))):
            raise ConfigError("discriminative parameters must be finite")

    @property
    def num_classes(self):
        return self.b.shape[0]

    @property
    def num_features(self):
        return self.w.shape[1]


class CouplingKind(enum.Enum):
    BETA = "beta"
    GAUSSIAN = "gauss"


class EndpointMode(enum.Enum):
    HYBRID = "hybrid"
    PURE_GENERATIVE = "pure_generative"
    PURE_DISCRIMINATIVE = "pure_discriminative"


# lam within this distance of 0 or 1 trains the standalone endpoint model.
_LAMBDA_CLAMP = 1e-3
# The gaussian prior variance sigma^2 of the discriminative weights, unless set.
_DISC_PRIOR_SIGMA2 = 100.0


def _endpoint_mode(lam: float) -> EndpointMode:
    if lam <= _LAMBDA_CLAMP:
        return EndpointMode.PURE_GENERATIVE
    if lam >= 1.0 - _LAMBDA_CLAMP:
        return EndpointMode.PURE_DISCRIMINATIVE
    return EndpointMode.HYBRID


@dataclass(frozen=True)
class CouplingConfig:
    """How the two parameter sets are tied together.

    lam is the interpolation knob in [0, 1]. Its mode is PURE_GENERATIVE
    within _LAMBDA_CLAMP of 0, PURE_DISCRIMINATIVE within _LAMBDA_CLAMP of
    1, and HYBRID in between. gamma is the one coupling strength: the BETA
    concentration and the GAUSSIAN precision (variance sigma_c2 = 1/gamma).
    from_lambda sets gamma = ((1-lam)/lam)^2, so the coupling tightens as
    lam decreases; an explicit gamma bypasses lam, which then only decides
    the mode and defaults to 0.5. gamma is set exactly in HYBRID mode,
    the one mode whose training reads it. b and pi are never coupled.
    """

    kind: CouplingKind
    lam: float = 0.5
    gamma: Optional[float] = None
    disc_prior_sigma2: float = _DISC_PRIOR_SIGMA2

    def __post_init__(self):
        if not (0.0 <= self.lam <= 1.0):
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam}")
        sigma2 = self.disc_prior_sigma2  # the prior terms scale by 1 / sigma2
        if not (sigma2 > 0.0 and math.isfinite(1.0 / float(sigma2))):
            raise ConfigError(f"disc_prior_sigma2 must be > 0 with a finite inverse, got {sigma2}")
        coupled = self.mode is EndpointMode.HYBRID
        if (self.gamma is not None) != coupled:
            raise ConfigError(f"a {self.kind.name} config in mode {self.mode.value} "
                              f"{'needs' if coupled else 'takes no'} gamma, got {self.gamma}")
        if coupled and not (self.gamma > 0.0 and math.isfinite(self.gamma)):
            raise ConfigError(f"gamma must be finite and > 0, got {self.gamma}")

    @property
    def mode(self) -> EndpointMode:
        return _endpoint_mode(self.lam)

    @property
    def sigma_c2(self) -> Optional[float]:
        """The GAUSSIAN coupling variance."""
        return None if self.gamma is None else 1.0 / self.gamma

    @classmethod
    def from_lambda(cls, lam: float, kind: CouplingKind = CouplingKind.BETA,
                    disc_prior_sigma2: float = _DISC_PRIOR_SIGMA2) -> "CouplingConfig":
        lam = float(lam)
        gamma = None
        if _endpoint_mode(lam) is EndpointMode.HYBRID:
            gamma = ((1.0 - lam) / lam) ** 2
        return cls(kind=kind, lam=lam, gamma=gamma, disc_prior_sigma2=disc_prior_sigma2)


# ---------------------------------------------------------------------------
# scoring

def _normalize(scores: np.ndarray) -> tuple:
    """(lse, probs): log sum exp and the normalized exp of scores along the
    last axis, from one exp of the scores shifted by their maximum; safe for
    |scores| ~ 1e4. Applied to log p(y, x), lse is the generative block's
    log-partition term and probs its gradient, the E-step's p(y | x)."""
    top = scores.max(axis=-1, keepdims=True)
    probs = scores - top
    np.exp(probs, out=probs)
    z = probs.sum(axis=-1, keepdims=True)
    probs /= z
    return (top + np.log(z))[..., 0], probs


def nb_scores_matrix(gen: GenerativeParams, data: Dataset) -> np.ndarray:
    """log p(y, x) for every instance and class, shape (N, K)."""
    return (gen.log_pi + gen.absence_base)[None, :] + data.scores(gen.theta_tilde)


def lr_scores_matrix(disc: DiscriminativeParams, data: Dataset) -> np.ndarray:
    """Logistic scores for every instance, shape (N, K)."""
    return disc.b[None, :] + data.scores(disc.w)


# ---------------------------------------------------------------------------
# log joint

@dataclass(frozen=True)
class LogJointBlocks:
    prior: float
    coupling: float
    discriminative: float
    generative: float

    def total(self) -> float:
        return self.prior + self.coupling + self.discriminative + self.generative


def _disc_values(labeled: Dataset, w: np.ndarray, b: np.ndarray, sigma2: float) -> tuple:
    """(prior, disc, probs): the Gaussian log prior on w, the label
    log-likelihood of the documents of labeled, all of which carry a label
    (Dataset.labeled), and their class probabilities softmax(b + X @ w.T)."""
    scores = b + labeled.scores(w)
    prior = -0.5 / sigma2 * expfam._blockwise_sum(lambda v: v * v, w)
    lse, probs = _normalize(scores)
    disc = float((scores[np.arange(len(labeled)), labeled.row_labels] - lse).sum())
    return prior, disc, probs


def _disc_terms(labeled: Dataset, w: np.ndarray, b: np.ndarray, sigma2: float) -> tuple:
    """(prior, disc, grad_w, grad_b): _disc_values' two blocks and the (w, b)
    gradient of their sum, from the same scoring of the documents."""
    prior, disc, probs = _disc_values(labeled, w, b, sigma2)
    resid = -probs
    resid[np.arange(len(labeled)), labeled.row_labels] += 1.0
    grad_w = labeled.counts(resid)
    grad_w -= w / sigma2
    return prior, disc, grad_w, resid.sum(axis=0)


def _gauss_delta_scale(gamma: float) -> float:
    """s = min(1, sigma_c), sigma_c^2 = 1 / gamma: the GAUSSIAN M-step's
    weights are w = theta_tilde + s delta (_gauss_m_step_terms)."""
    return min(1.0, math.sqrt(1.0 / gamma))


def _gauss_m_step_terms(restricted: Dataset, z: np.ndarray, counts: np.ndarray,
                        class_mass: np.ndarray, sigma2: float, gamma: float) -> tuple:
    """(value, gradient) of the GAUSSIAN M-step objective over the columns
    of restricted (Dataset.labeled restricted to the columns its documents
    hold) and b, at z = [theta_tilde.ravel(), delta.ravel(), b] with
    w = theta_tilde + s delta, s = _gauss_delta_scale(gamma):

        prior(w) + disc(w, b) - kappa ||delta||^2 / 2
            + sum_yd [counts_yd theta_tilde_yd - class_mass_y A(theta_tilde_yd)].

    kappa = min(1, gamma) makes kappa ||delta||^2 the coupling's
    ||theta_tilde - w||^2 / sigma_c^2. At sigma_c <= 1, delta takes the
    coupling's scale and no term grows with gamma; above it, delta is
    w - theta_tilde and no term grows with sigma_c. counts and class_mass
    are the E-step's expected counts on these columns and its class
    masses. With (g_w, g_b) _disc_terms' gradient, the gradient is
    (counts - class_mass * sigmoid(theta_tilde) + g_w, s g_w - kappa delta,
    g_b)."""
    k, m = counts.shape
    scale, kappa = _gauss_delta_scale(gamma), min(1.0, gamma)
    theta_tilde = z[:k * m].reshape(k, m)
    delta = z[k * m:2 * k * m].reshape(k, m)
    w = theta_tilde + scale * delta
    prior, disc, grad_w, grad_b = _disc_terms(restricted, w, z[2 * k * m:], sigma2)
    mass = class_mass[:, None]
    value = (prior + disc - 0.5 * kappa * float(np.sum(delta * delta))
             + float(np.sum(counts * theta_tilde - mass * expfam.log_partition(theta_tilde))))
    grad_theta_tilde = counts - mass * expfam.sigmoid(theta_tilde)
    grad_theta_tilde += grad_w
    grad_w *= scale
    grad_w -= kappa * delta
    return value, np.concatenate([grad_theta_tilde.ravel(), grad_w.ravel(), grad_b])


def _coupling_block(gen: GenerativeParams, disc: DiscriminativeParams,
                    coupling: CouplingConfig) -> float:
    if coupling.kind is CouplingKind.GAUSSIAN:
        return -0.5 / coupling.sigma_c2 * expfam._blockwise_sum(
            lambda tt, w: np.square(tt - w), gen.theta_tilde, disc.w)
    return expfam._blockwise_sum(
        lambda tt, w: expfam.beta_prior_log_density(tt, w, coupling.gamma),
        gen.theta_tilde, disc.w)


def _coupling_gradient(coupling: CouplingConfig):
    """The BETA coupling block's derivative in w as an elementwise function
    of aligned (theta_tilde, w) blocks: per coordinate, with s = sigmoid(w)
    and the prior's shapes a = gamma * s + 1 and b = gamma - gamma * s + 1,

        gamma * s * (1 - s) * [theta_tilde - (psi(a) - psi(b))]

    which combines the log-normalizer derivative and the linear term. One
    digamma call per block takes both shapes, as the (2, block) array of
    expfam._beta_shapes, and gives the values of one call per shape.
    """
    gamma = coupling.gamma

    def grad(tt, w):
        s = expfam.sigmoid(w)
        psi_a, psi_b = expfam.digamma(expfam._beta_shapes(gamma * s, gamma))
        return gamma * s * (1.0 - s) * (tt - (psi_a - psi_b))

    return grad


def log_joint_blocks(gen: GenerativeParams, disc: DiscriminativeParams,
                     coupling: CouplingConfig, data: Dataset,
                     nb_lse: Optional[np.ndarray] = None) -> LogJointBlocks:
    """The four additive blocks of the training objective.

    nb_lse, when given, must equal the row log-sum-exps of
    nb_scores_matrix(gen, data); the trainer passes those of the
    normalization that also gives its next E-step. The prior and Gaussian
    coupling blocks drop additive constants that do not depend on any
    parameter; gradients and convergence traces are unaffected.
    """
    if nb_lse is None:
        nb_lse = _normalize(nb_scores_matrix(gen, data))[0]
    prior, disc_block, _ = _disc_values(data.labeled, disc.w, disc.b, coupling.disc_prior_sigma2)
    return LogJointBlocks(prior=prior,
                          coupling=_coupling_block(gen, disc, coupling),
                          discriminative=disc_block,
                          generative=float(nb_lse.sum()))


# ---------------------------------------------------------------------------
# serialization

_MODEL_MAGIC = "hybridssl-model"
_MODEL_VERSION = "v2"


def save_model(disc: DiscriminativeParams, path) -> None:
    """Write the classifier (b, w) to path, one row per write; round-trips
    bit-exactly.

    Layout: a header line "hybridssl-model v2 K=<K> M=<M>", then the
    sections b (one row of K values) and w (K rows of M values), each after
    a line holding its name. All values carry 17 significant digits. The
    generative half is not written: it only regularizes training, which
    leaves the classifier in (b, w) at every lambda, and no command reads
    it back.

    The rows go to "<path>.<pid>.tmp" in the same directory, which then
    replaces path, so a write that fails leaves any earlier file at path
    whole. A symlink at path is replaced, not written through.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    out = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with out:
            out.write(f"{_MODEL_MAGIC} {_MODEL_VERSION} K={disc.num_classes} "
                      f"M={disc.num_features}\n")
            for name, block in (("b", disc.b[None]), ("w", disc.w)):
                out.write(name + "\n")
                row_format = " ".join(["%.17g"] * block.shape[1]) + "\n"
                for row in block:
                    out.write(row_format % tuple(row.tolist()))
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _parse_header(line: str):
    parts = line.split()
    if len(parts) >= 2 and parts[0] == _MODEL_MAGIC and parts[1] != _MODEL_VERSION:
        raise ParseError(f"model file is version {parts[1]}, expected {_MODEL_VERSION}: "
                         f"retrain to write a {_MODEL_VERSION} file", line=1)
    if (len(parts) != 4 or parts[0] != _MODEL_MAGIC
            or not parts[2].startswith("K=") or not parts[3].startswith("M=")):
        raise ParseError(f"bad model header: expected "
                         f"'{_MODEL_MAGIC} {_MODEL_VERSION} K=<K> M=<M>'", line=1)
    if not (_DIGITS_RE.fullmatch(parts[2][2:]) and _DIGITS_RE.fullmatch(parts[3][2:])):
        raise ParseError("model header K/M must be integers", line=1)
    k, m = int(parts[2][2:]), int(parts[3][2:])
    if k < 2:
        raise ParseError(f"model declares K={k}, need K >= 2", line=1)
    if m < 1:
        raise ParseError(f"model declares M={m}, need M >= 1", line=1)
    return k, m


def _parse_row(row, name: str, cols: int, lineno: int) -> np.ndarray:
    """The cols values of one row of section name; row is None past the end.
    A function of its own, so a row's token strings are freed before the
    next line is read."""
    if row is None:
        raise ParseError(f"section '{name}' truncated", line=lineno)
    ascii_decimals = row.isascii() and not row.encode().translate(None, _NUMBER_BYTES)
    tokens = row.split()
    if len(tokens) != cols:
        raise ParseError(f"section '{name}' row has {len(tokens)} values, "
                         f"expected {cols}", line=lineno)
    try:
        if not ascii_decimals:
            raise ValueError(row)
        return np.fromiter(map(float, tokens), float, cols)
    except ValueError:
        raise ParseError(f"section '{name}' has a token that is not an ASCII decimal",
                         line=lineno) from None


def load_model(path) -> DiscriminativeParams:
    """Read save_model's file back into the classifier (b, w), one row at a
    time into one array per section; lines end where str.splitlines() ends
    them. A file of any other version, v1 included, is refused at line 1;
    a line after the last w row is refused at its line.

    The header's K and M are untrusted. A section is allocated once its
    first row has parsed, and only when the bytes left in the file could
    hold its rows * cols values, each a token and a blank or line end: at
    least 2 bytes, less one for the file's last value. A section the file
    cannot fill is still read row by row, unstored, up to the error that
    ends it."""
    with open(path, "r", encoding="utf-8") as fh:
        # a character takes at least one byte, so the size less the characters
        # read bounds the bytes left from above
        left = os.fstat(fh.fileno()).st_size
        lines = (piece for line in fh for piece in line.splitlines())
        header = next(lines, None)
        if header is None:
            raise ParseError("empty model file", line=1)
        k, m = _parse_header(header)
        left -= len(header)

        lineno = 1
        parsed = {}
        for name, (rows, cols) in (("b", (1, k)), ("w", (k, m))):
            lineno += 1
            line = next(lines, None)
            if line is None or line.strip() != name:
                raise ParseError(f"expected section '{name}'", line=lineno)
            left -= len(line)
            for r in range(rows):
                lineno += 1
                row = next(lines, None)
                values = _parse_row(row, name, cols, lineno)
                if r == 0:  # cols is now known to fit in one line of the file
                    block = np.empty((rows if 2 * rows * cols <= left + 1 else 0, cols))
                if r < len(block):
                    block[r] = values
                left -= len(row)
            parsed[name] = block
        if next(lines, None) is not None:
            raise ParseError("unexpected line after section 'w'", line=lineno + 1)
    return DiscriminativeParams(b=parsed["b"][0], w=parsed["w"])
