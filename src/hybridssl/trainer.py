"""Coordinate-descent training of the coupled classifier pair.

One outer iteration alternates two moves:

  1. Generative step. Class responsibilities p(y | x) are computed once
     from the current theta_tilde and reused for every coordinate. Under
     BETA coupling the step is the closed form

         v_yd = (sum_x p(y | x) x_d + gamma * sigmoid(w_yd)) / (N + gamma),
         pi_y = sum_x p(y | x) / N,

     with N the total number of documents (labeled and unlabeled alike;
     labels never enter this step). Each coordinate's new value maximizes
     the separable surrogate (c + alpha) t - (N + gamma) A(t) exactly, so
     the surrogate never decreases. Under GAUSSIAN coupling no closed form
     exists; the same surrogate with a quadratic coupling term is separable
     and strictly concave, and each coordinate's stationary point is found
     by Newton's method safeguarded by bisection.

  2. Discriminative step. A few epochs of per-example SGD on the labeled
     documents update (w, b) against the data term; once per epoch the
     prior and coupling gradients are applied as a single full step. The
     per-epoch step uses min(eta_t, 1 / (1 + 1/sigma^2 + stiffness)) where
     stiffness bounds the coupling curvature (gamma/4 for BETA,
     1/sigma_c2 for GAUSSIAN); without the bound a strongly coupled run
     (gamma ~ 1e6) diverges on the first epoch.

The interpolation knob lam maps to gamma = ((1-lam)/lam)^2. Values within
_LAMBDA_CLAMP of the endpoints short-circuit to the standalone trainers:
naive Bayes EM at lam = 0 and plain SGD logistic regression at lam = 1.

Determinism: SGD epoch order is drawn from the splitmix64 stream seeded by
(cfg.seed, outer_iter, epoch); identical inputs give bit-identical
parameters and traces.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import expfam
from .errors import ConfigError, DomainError, NumericError
from .model import (CouplingConfig, CouplingKind, Dataset, DiscriminativeParams,
                    GenerativeParams, _label_log_likelihood, _log_joint_blocks,
                    _logsumexp_rows, _softmax, lr_scores_matrix, nb_scores_matrix,
                    uniform_generative_params)
from .rng import SplitMix64, derive_seed

# lam within this distance of 0 or 1 trains the standalone endpoint model.
_LAMBDA_CLAMP = 1e-3
# Pseudo-count of the naive Bayes EM M-step (the lam = 0 endpoint).
_EM_SMOOTHING = 1e-2
# The gaussian generative step stops once every coordinate's surrogate
# gradient is at most _GAUSS_TOL, and fails after _GAUSS_MAX_STEPS steps.
_GAUSS_TOL = 1e-6
_GAUSS_MAX_STEPS = 100
# The discriminative step runs _SGD_EPOCHS epochs per outer iteration; the
# learning rate decays with the global example-update count t as
# eta_t = _LEARNING_RATE0 / (1 + t / _LR_DECAY_STEPS).
_SGD_EPOCHS = 5
_LEARNING_RATE0 = 0.1
_LR_DECAY_STEPS = 1000.0


class EndpointMode(enum.Enum):
    HYBRID = "hybrid"
    PURE_GENERATIVE = "pure_generative"
    PURE_DISCRIMINATIVE = "pure_discriminative"


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the outer loop.

    Convergence: the run stops once the objective trace satisfies
    |L_k - L_{k-1}| < tol * max(1, |L_{k-1}|, |L_k|).
    """

    max_outer_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ConfigError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not (self.tol > 0.0):
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        # derive_seed folds a seed modulo 2**64, so only that range is distinct
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class TrainReport:
    log_joint_trace: list
    outer_iters_run: int
    converged: bool
    endpoint_mode: EndpointMode


def _rel_change(prev: float, curr: float) -> float:
    return abs(curr - prev) / max(1.0, abs(prev), abs(curr))


def _responsibilities(gen: GenerativeParams, data: Dataset) -> np.ndarray:
    """p(y | x, theta_tilde) for every document, shape (N, K)."""
    return _softmax(nb_scores_matrix(gen, data))


_PI_FLOOR = 1e-12


def _mixing_weights(class_mass: np.ndarray) -> np.ndarray:
    """Normalized mixing proportions from per-class responsibility mass.

    A component that loses every document can see its mass underflow to
    exactly zero, which would put log pi at -inf and kill the run; the
    floor binds only in that degenerate regime and leaves healthy updates
    exactly equal to class_mass / class_mass.sum().
    """
    mass = np.maximum(class_mass, _PI_FLOOR)
    return mass / mass.sum()


def _coupled_generative_step(data, resp, w, gamma):
    """Shared closed form; gamma = 0 gives the decoupled count update."""
    n = len(data)

    def theta_tilde(c, w):
        pseudo = gamma * expfam.sigmoid(w) if gamma > 0.0 else 0.0
        return expfam.natural_from_mean((c + pseudo) / (n + gamma))

    return GenerativeParams(
        pi=_mixing_weights(resp.sum(axis=0)),
        theta_tilde=expfam._blockwise(theta_tilde, data.counts(resp), w))


def generative_update_beta(data: Dataset, gen_old: GenerativeParams,
                           disc: DiscriminativeParams, gamma: float,
                           resp: np.ndarray = None) -> GenerativeParams:
    """Closed-form generative step under BETA coupling.

    Responsibilities come from gen_old unless precomputed ones are passed
    in. The trainer takes them from the document scores of the previous
    outer iteration's objective evaluation.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite and > 0, got {gamma}")
    if resp is None:
        resp = _responsibilities(gen_old, data)
    return _coupled_generative_step(data, resp, disc.w, gamma)


def generative_update_gauss(data: Dataset, gen_old: GenerativeParams,
                            disc: DiscriminativeParams, sigma_c2: float,
                            resp: np.ndarray = None) -> GenerativeParams:
    """Generative step under GAUSSIAN coupling, by safeguarded Newton.

    Maximizes the separable, strictly concave surrogate

        G(t) = -||t - w||^2 / (2 sigma_c2) + sum_yd [c_yd t_yd - N A(t_yd)]

    coordinate by coordinate, vectorized over all of them. Each coordinate's
    G'(t) = -(t - w)/sigma_c2 + c - N sigmoid(t) is strictly decreasing and
    has its root in [w + sigma_c2 (c - N), w + sigma_c2 c]; a Newton step
    that leaves the bracket, which shrinks around the root as the iterates
    move, is replaced by bisection. Stops once the gradient infinity-norm is
    at most _GAUSS_TOL; raises NumericError (with the last iterate
    attached) after _GAUSS_MAX_STEPS steps.
    """
    if not (sigma_c2 > 0.0) or not math.isfinite(sigma_c2):
        raise DomainError(f"sigma_c2 must be finite and > 0, got {sigma_c2}")
    if resp is None:
        resp = _responsibilities(gen_old, data)
    n = len(data)
    counts = data.counts(resp)
    w = disc.w
    lo = w + sigma_c2 * (counts - n)
    hi = w + sigma_c2 * counts
    t = np.clip(gen_old.theta_tilde, lo, hi)
    for _ in range(_GAUSS_MAX_STEPS):
        s = expfam.sigmoid(t)
        grad = counts - (t - w) / sigma_c2 - n * s
        if np.abs(grad).max() <= _GAUSS_TOL:
            return GenerativeParams(pi=_mixing_weights(resp.sum(axis=0)), theta_tilde=t)
        np.copyto(lo, t, where=grad > 0.0)
        np.copyto(hi, t, where=grad < 0.0)
        t = t + grad / (1.0 / sigma_c2 + n * s * (1.0 - s))
        outside = ~((t >= lo) & (t <= hi))
        t[outside] = 0.5 * (lo[outside] + hi[outside])
    raise NumericError(
        f"gaussian generative step did not reach tolerance {_GAUSS_TOL} "
        f"within {_GAUSS_MAX_STEPS} Newton steps",
        snapshot={"theta_tilde": t, "grad_inf_norm": float(np.abs(grad).max())})


def coupling_gradient_w(gen: GenerativeParams, disc: DiscriminativeParams,
                        coupling: CouplingConfig) -> np.ndarray:
    """d(coupling block)/dw, shape (K, M).

    BETA: per coordinate, with s = sigmoid(w) and alpha = gamma * s,

        gamma * s * (1 - s) * [theta_tilde - (psi(alpha + 1) - psi(gamma - alpha + 1))]

    which combines the log-normalizer derivative and the linear term.
    GAUSSIAN: (theta_tilde - w) / sigma_c2. DECOUPLED: zero.
    """
    if coupling.kind is CouplingKind.DECOUPLED:
        return np.zeros_like(disc.w)
    if coupling.kind is CouplingKind.GAUSSIAN:
        return (gen.theta_tilde - disc.w) / coupling.sigma_c2
    gamma = coupling.gamma

    def grad(tt, w):
        s = expfam.sigmoid(w)
        alpha = gamma * s
        psi_diff = expfam.digamma(alpha + 1.0) - expfam.digamma(gamma - alpha + 1.0)
        return gamma * s * (1.0 - s) * (tt - psi_diff)

    return expfam._blockwise(grad, gen.theta_tilde, disc.w)


def discriminative_gradient(data: Dataset, gen: GenerativeParams,
                            disc: DiscriminativeParams,
                            coupling: CouplingConfig):
    """Full-batch gradient of the log joint w.r.t. (w, b).

    The generative block does not involve (w, b), so the gradient is the
    Gaussian prior term -w/sigma^2, the coupling term, and the labeled
    data term sum_x x_d (1{t=y} - p(y | x, w, b)).
    """
    grad_w = -disc.w / coupling.disc_prior_sigma2 + coupling_gradient_w(gen, disc, coupling)
    resid = -_softmax(lr_scores_matrix(disc, data, data.labeled_positions))
    resid[np.arange(len(data.labels)), data.labels] += 1.0
    grad_w += data.counts(resid, data.labeled_positions)
    return grad_w, resid.sum(axis=0)


def _coupling_stiffness(coupling: CouplingConfig) -> float:
    """Upper bound on the coupling gradient's curvature in w.

    gamma * s(1-s) <= gamma/4 for BETA; 1/sigma_c2 for GAUSSIAN. Caps the
    per-epoch step so stiff couplings stay stable.
    """
    if coupling.kind is CouplingKind.BETA:
        return coupling.gamma / 4.0
    if coupling.kind is CouplingKind.GAUSSIAN:
        return 1.0 / coupling.sigma_c2
    return 0.0


def _learning_rate(step: int) -> float:
    return _LEARNING_RATE0 / (1.0 + step / _LR_DECAY_STEPS)


def _sgd_epochs(data, gen, disc, coupling, seed, outer_iter):
    """Run _SGD_EPOCHS SGD epochs in place on (disc.b, disc.w).

    Per example: the data-term gradient of that example alone. Per epoch:
    one full prior(+coupling) step. Every outer iteration makes the same
    number of example updates, so the global step count starts at
    outer_iter * _SGD_EPOCHS * (labeled documents). gen is read only by
    the coupling gradient, so a DECOUPLED caller may pass None.
    """
    b, w = disc.b, disc.w
    positions = data.labeled_positions
    labels = data.labels
    feats = [data.indices[data.indptr[p]:data.indptr[p + 1]] for p in positions]
    order = list(range(len(positions)))
    stiffness = _coupling_stiffness(coupling)
    sigma2 = coupling.disc_prior_sigma2
    grad = np.empty_like(w)
    step = outer_iter * _SGD_EPOCHS * len(positions)
    for epoch in range(_SGD_EPOCHS):
        SplitMix64(derive_seed(seed, outer_iter, epoch)).shuffle(order)
        for i in order:
            idx = feats[i]
            scores = b + w[:, idx].sum(axis=1)
            scores -= scores.max()
            p = np.exp(scores)
            p /= p.sum()
            p = -p
            p[labels[i]] += 1.0
            eta = _learning_rate(step)
            b += eta * p
            w[:, idx] += eta * p[:, None]
            step += 1
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            return  # blowup; reported as NumericError by the caller
        eta = min(_learning_rate(step), 1.0 / (1.0 + 1.0 / sigma2 + stiffness))
        np.divide(w, -sigma2, out=grad)
        if coupling.kind is not CouplingKind.DECOUPLED:
            grad += coupling_gradient_w(gen, disc, coupling)
        grad *= eta
        w += grad


def _check_finite(value, it, mode, **state):
    """Raise NumericError with a diagnostic snapshot on NaN or infinity."""
    bad = None
    if not math.isfinite(value):
        bad = "objective"
    else:
        for name, arr in state.items():
            if arr is not None and not np.all(np.isfinite(arr)):
                bad = name
                break
    if bad is not None:
        snapshot = {"outer_iter": it, "mode": mode.value, "objective": value}
        snapshot.update(state)
        raise NumericError(f"{bad} became non-finite at outer iteration {it}",
                           snapshot=snapshot)


def _ascend(step, cfg: TrainConfig, mode: EndpointMode) -> TrainReport:
    """The outer loop of every trainer. step(it) runs outer iteration it and
    returns its objective; the loop stops once two successive objectives
    differ by a relative change below cfg.tol, or after cfg.max_outer_iters."""
    trace = []
    converged = False
    for it in range(cfg.max_outer_iters):
        trace.append(step(it))
        converged = it > 0 and _rel_change(trace[-2], trace[-1]) < cfg.tol
        if converged:
            break
    return TrainReport(log_joint_trace=trace, outer_iters_run=len(trace),
                       converged=converged, endpoint_mode=mode)


def train_nb_em(data: Dataset, cfg: TrainConfig):
    """Standalone semi-supervised naive Bayes EM (the lam = 0 endpoint).

    Labeled documents contribute hard (one-hot) responsibilities, unlabeled
    ones their posterior. The M-step is the smoothed count ratio

        v_yd = (c_yd + eps) / (n_y + 2 eps),  eps = _EM_SMOOTHING,

    and the trace records sum over labeled docs of log p(x, t) plus sum
    over unlabeled docs of log sum_y p(x, y).
    """
    k, n = data.num_classes, len(data)
    gen = uniform_generative_params(k, data.num_features)
    labeled_mask = np.zeros(n, dtype=bool)
    labeled_mask[data.labeled_positions] = True
    hard = np.zeros((data.n_labeled, k))
    hard[np.arange(len(data.labels)), data.labels] = 1.0

    def em_step(it):
        nonlocal gen
        scores = nb_scores_matrix(gen, data)
        lse = _logsumexp_rows(scores)
        objective = float(scores[data.labeled_positions, data.labels].sum()
                          + lse[~labeled_mask].sum())

        resp = np.exp(scores - lse[:, None])
        resp[data.labeled_positions] = hard
        class_mass = resp.sum(axis=0)
        v = (data.counts(resp) + _EM_SMOOTHING) / (class_mass[:, None] + 2.0 * _EM_SMOOTHING)
        gen = GenerativeParams(pi=_mixing_weights(class_mass),
                               theta_tilde=expfam.natural_from_mean(v))

        _check_finite(objective, it, EndpointMode.PURE_GENERATIVE,
                      theta_tilde=gen.theta_tilde)
        return objective

    report = _ascend(em_step, cfg, EndpointMode.PURE_GENERATIVE)
    return gen, report


def train_logreg(data: Dataset, cfg: TrainConfig, disc_prior_sigma2: float = 100.0):
    """Standalone SGD logistic regression (the lam = 1 endpoint)."""
    if data.n_labeled == 0:
        raise ConfigError("training requires at least one labeled instance")
    k, m = data.num_classes, data.num_features
    # the SGD epochs update disc.b and disc.w in place
    disc = DiscriminativeParams(b=np.zeros(k), w=np.zeros((k, m)))
    prior_only = CouplingConfig(kind=CouplingKind.DECOUPLED, lam=1.0,
                                disc_prior_sigma2=disc_prior_sigma2)

    def sgd_step(it):
        _sgd_epochs(data, None, disc, prior_only, cfg.seed, it)
        scores = lr_scores_matrix(disc, data, data.labeled_positions)
        objective = float(_label_log_likelihood(scores, data.labels)
                          - 0.5 / disc_prior_sigma2 * np.sum(disc.w * disc.w))
        _check_finite(objective, it, EndpointMode.PURE_DISCRIMINATIVE, b=disc.b, w=disc.w)
        return objective

    return disc, _ascend(sgd_step, cfg, EndpointMode.PURE_DISCRIMINATIVE)


def train(data: Dataset, coupling: CouplingConfig, cfg: TrainConfig):
    """Train the coupled pair; returns (gen, disc, report).

    lam within _LAMBDA_CLAMP of 0 or 1 dispatches to the standalone
    endpoint trainers. The lam = 0 endpoint exposes its naive Bayes fit
    through the discriminative slot in linear form (w = theta_tilde,
    b = log pi + per-class absence mass) so that prediction is always a
    function of (w, b) and matches the generative argmax instance-exactly.
    """
    if data.n_labeled == 0:
        raise ConfigError("training requires at least one labeled instance")

    if coupling.lam <= _LAMBDA_CLAMP:
        gen, report = train_nb_em(data, cfg)
        # The linear form of the naive Bayes decision rule: w = theta_tilde
        # and b absorbing both the class prior and the per-class absence
        # mass, so `hybridssl predict` reproduces the generative argmax exactly.
        disc = DiscriminativeParams(b=gen.log_pi + gen.absence_base,
                                    w=gen.theta_tilde.copy())
        return gen, disc, report
    if coupling.lam >= 1.0 - _LAMBDA_CLAMP:
        disc, report = train_logreg(data, cfg, coupling.disc_prior_sigma2)
        gen = uniform_generative_params(data.num_classes, data.num_features)
        return gen, disc, report

    k, m = data.num_classes, data.num_features
    gen = uniform_generative_params(k, m)
    # the SGD epochs update disc.b and disc.w in place
    disc = DiscriminativeParams(b=np.zeros(k), w=np.zeros((k, m)))
    resp = _responsibilities(gen, data)

    def hybrid_step(it):
        nonlocal gen, resp
        if coupling.kind is CouplingKind.BETA:
            gen = generative_update_beta(data, gen, disc, coupling.gamma, resp=resp)
        elif coupling.kind is CouplingKind.GAUSSIAN:
            gen = generative_update_gauss(data, gen, disc, coupling.sigma_c2, resp=resp)
        else:
            gen = _coupled_generative_step(data, resp, disc.w, 0.0)

        _sgd_epochs(data, gen, disc, coupling, cfg.seed, it)

        _check_finite(0.0, it, EndpointMode.HYBRID, b=disc.b, w=disc.w)
        scores = nb_scores_matrix(gen, data)
        objective = _log_joint_blocks(gen, disc, coupling, data, scores).total()
        _check_finite(objective, it, EndpointMode.HYBRID,
                      theta_tilde=gen.theta_tilde)
        # SGD did not touch gen, so the next iteration's E-step reuses the
        # objective's scores.
        resp = _softmax(scores)
        return objective

    report = _ascend(hybrid_step, cfg, EndpointMode.HYBRID)
    return gen, disc, report
