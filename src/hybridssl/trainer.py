"""Coordinate-descent training of the coupled classifier pair.

One outer iteration alternates two moves:

  1. Generative step, one kernel per coupling family. Class
     responsibilities p(y | x) come from the document scores of the
     previous iteration's objective and are reused for every coordinate.
     generative_update_beta is the closed form

         v_yd = (sum_x p(y | x) x_d + gamma * sigmoid(w_yd)) / (N + gamma),
         pi_y = sum_x p(y | x) / N,

     with N the total number of documents (labeled and unlabeled alike;
     labels never enter this step). Each coordinate's new value maximizes
     the separable surrogate (c + alpha) t - (N + gamma) A(t) exactly, so
     the surrogate never decreases. Under GAUSSIAN coupling no closed form
     exists: the same surrogate with a quadratic coupling term is separable
     and strictly concave, and generative_update_gauss finds each
     coordinate's stationary point by Newton's method safeguarded by
     bisection.

  2. Discriminative step. A few epochs of per-example SGD on the labeled
     documents update (w, b) against the data term; once per epoch the
     prior and coupling gradients are applied as a single full step. The
     per-epoch step uses min(eta_t, 1 / (1 + 1/sigma^2 + stiffness)) where
     stiffness bounds the coupling curvature (gamma/4 for BETA,
     1/sigma_c2 for GAUSSIAN); without the bound a strongly coupled run
     (gamma ~ 1e6) diverges on the first epoch.

     Summation order is part of the output contract: an example's class
     score adds its weights one after another in increasing feature order,
     then adds b. _sgd_epochs runs on one flat buffer x = [w.ravel(), b]
     and gathers each example's weights feature-major with b's row last,
     (n + 1, K), so one reduction over rows makes the same sums; numpy
     reduces a (K, n) C-ordered gather pairwise instead, which moves the
     low bits of every fit.

model.py owns the objective's value and (w, b) gradient; this module only
ascends them. The hybrid normalizes its document scores once per outer
iteration (model._normalize): the row log-sum-exps give log_joint_blocks'
generative block and the probabilities the next E-step. Only the SGD kernel
writes gradient terms out itself, for speed: each example's data term and
the per-epoch step w += eta * (-w/sigma^2 + coupling gradient), applied
in place one block at a time with the coupling term from
model._coupling_gradient, so that no K x M gradient array is built.

CouplingConfig.mode decides the endpoints: lam within model._LAMBDA_CLAMP
of 0 or 1 short-circuits to the standalone trainers, naive Bayes EM at
lam = 0 and L2-regularized logistic regression at lam = 1. The lam = 1
objective is concave, so train_logreg maximizes it by a deterministic
full-batch L-BFGS ascent (_lbfgs_ascent) over the features of the
labeled documents, two L-BFGS iterations per outer iteration, instead of
SGD epochs.

Determinism: SGD epoch order is drawn from the splitmix64 stream seeded by
(cfg.seed, outer_iter, epoch), so cfg.seed affects hybrid fits only;
identical inputs give bit-identical parameters and traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import expfam
from .errors import ConfigError, DomainError, NumericError
from .model import (CouplingConfig, CouplingKind, Dataset, DiscriminativeParams,
                    EndpointMode, GenerativeParams, _coupling_gradient, _disc_terms,
                    _normalize, log_joint_blocks, nb_scores_matrix, uniform_generative_params)
from .rng import SplitMix64, derive_seed, seed_in_range

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
# The lam = 1 endpoint's L-BFGS ascent keeps the last _LBFGS_MEMORY
# curvature pairs; its line search halves the unit step at most
# _LBFGS_MAX_HALVINGS times looking for the Armijo ascent that _ARMIJO_C
# sets.
_LBFGS_MEMORY = 10
_LBFGS_MAX_HALVINGS = 40
_ARMIJO_C = 1e-4
# One L-BFGS iteration can gain little while the optimum is still far, so
# an outer iteration of the lam = 1 endpoint is _LBFGS_ITERS_PER_STEP of
# them and TrainConfig.tol compares objectives that many iterations apart.
_LBFGS_ITERS_PER_STEP = 2


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the outer loop.

    Convergence: the run stops once the objective trace satisfies
    |L_k - L_{k-1}| / max(1, |L_{k-1}|, |L_k|) < tol. An outer iteration
    is one coordinate-ascent round of the hybrid, one EM step at lam = 0
    and two L-BFGS iterations at lam = 1. seed keys the hybrid's SGD
    shuffles; the endpoint trainers do not read it.
    """

    max_outer_iters: int = 200
    tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ConfigError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not (self.tol > 0.0):
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if not seed_in_range(self.seed):
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")


@dataclass
class TrainReport:
    log_joint_trace: list
    outer_iters_run: int
    converged: bool
    endpoint_mode: EndpointMode


def _rel_change(prev: float, curr: float) -> float:
    return abs(curr - prev) / max(1.0, abs(prev), abs(curr))


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


def generative_update_beta(data: Dataset, resp: np.ndarray,
                           disc: DiscriminativeParams, gamma: float) -> GenerativeParams:
    """Closed-form generative step under BETA coupling.

    resp holds the responsibilities p(y | x), shape (N, K); the trainer
    takes them from the document scores of the previous outer iteration's
    objective evaluation.
    """
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise DomainError(f"gamma must be finite and > 0, got {gamma}")
    n = len(data)

    def theta_tilde(c, w):
        pseudo = gamma * expfam.sigmoid(w)
        return expfam.natural_from_mean((c + pseudo) / (n + gamma))

    counts = data.counts(resp)
    # each block of counts is read once, then overwritten by its theta_tilde
    return GenerativeParams(
        pi=_mixing_weights(resp.sum(axis=0)),
        theta_tilde=expfam._blockwise(theta_tilde, counts, disc.w, out=counts))


def generative_update_gauss(data: Dataset, resp: np.ndarray, gen_old: GenerativeParams,
                            disc: DiscriminativeParams, sigma_c2: float) -> GenerativeParams:
    """Generative step under GAUSSIAN coupling, by safeguarded Newton.

    Given the responsibilities resp, shape (N, K), maximizes the
    separable, strictly concave surrogate

        G(t) = -||t - w||^2 / (2 sigma_c2) + sum_yd [c_yd t_yd - N A(t_yd)]

    coordinate by coordinate, vectorized over all of them, starting from
    gen_old.theta_tilde. Each coordinate's
    G'(t) = -(t - w)/sigma_c2 + c - N sigmoid(t) is strictly decreasing and
    has its root in [w + sigma_c2 (c - N), w + sigma_c2 c]; a Newton step
    that leaves the bracket, which shrinks around the root as the iterates
    move, is replaced by bisection. Stops once the gradient infinity-norm is
    at most _GAUSS_TOL; raises NumericError (with the last iterate
    attached) after _GAUSS_MAX_STEPS steps.
    """
    if not (sigma_c2 > 0.0) or not math.isfinite(sigma_c2):
        raise DomainError(f"sigma_c2 must be finite and > 0, got {sigma_c2}")
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
        f"gaussian generative step did not reach tolerance {_GAUSS_TOL} within "
        f"{_GAUSS_MAX_STEPS} Newton steps at sigma_c2={sigma_c2!r} (gamma={1.0 / sigma_c2!r})",
        snapshot={"theta_tilde": t, "grad_inf_norm": float(np.abs(grad).max()),
                  "sigma_c2": sigma_c2, "gamma": 1.0 / sigma_c2})


def _coupling_stiffness(coupling: CouplingConfig) -> float:
    """Upper bound on the coupling gradient's curvature in w.

    gamma * s(1-s) <= gamma/4 for BETA; 1/sigma_c2 for GAUSSIAN. Caps the
    per-epoch step so stiff couplings stay stable.
    """
    if coupling.kind is CouplingKind.BETA:
        return coupling.gamma / 4.0
    return 1.0 / coupling.sigma_c2


def _learning_rate(step):
    """eta_t for a step count t, or elementwise for an array of them."""
    return _LEARNING_RATE0 / (1.0 + step / _LR_DECAY_STEPS)


def _sgd_cells(data):
    """Each labeled document's cells in x = [w.ravel(), b], in corpus order:
    (cells, onehot), cells an (n + 1, K) array whose row j holds the flat
    ids of w[:, d_j] for its j-th feature d_j and whose last row holds b's,
    and onehot the document's one-hot label row."""
    k, m = data.num_classes, data.num_features
    offsets = np.arange(k) * m
    b_cells = k * m + np.arange(k)
    onehot = np.eye(k)
    return [(np.vstack((ids[:, None] + offsets, b_cells)), onehot[y])
            for ids, y in data.labeled]


def _sgd_epochs(x, docs, gen, coupling, seed, outer_iter):
    """Run _SGD_EPOCHS SGD epochs in place on x = [w.ravel(), b], the
    documents docs being _sgd_cells' list.

    Per example: the data-term gradient of that example alone. Per epoch:
    one full prior(+coupling) step, written into w block by block
    (expfam._blockwise with out=w), with the values of the full-array step
    and none of its K x M temporaries. Every outer iteration makes the same
    number of example updates, so the global step count starts at
    outer_iter * _SGD_EPOCHS * (labeled documents).

    Summation order, which fixes every output bit: an example's score for
    class y is its weights w[y, d] added one after another in increasing
    feature order d, and b[y] is added to that sum. One take gathers the
    weights feature-major (row j holds w[:, d_j]) with b's row last, so
    the reduction over the rows runs sequentially through the weights and
    then adds b; a (K, n) C-ordered gather would make numpy sum each row
    pairwise instead. The step p = eta * (onehot - softmax) is added to
    every gathered row, b's too, and one put writes them all back.
    """
    k, m = gen.theta_tilde.shape
    w = x[:k * m].reshape(k, m)
    n_docs = len(docs)
    order = list(range(n_docs))
    stiffness = _coupling_stiffness(coupling)
    sigma2 = coupling.disc_prior_sigma2
    coupling_gradient = _coupling_gradient(coupling)

    def prior_step(w_block, tt_block):
        """w + prior_eta * (-w / sigma^2 + coupling gradient) on one block."""
        g = w_block / -sigma2
        g += coupling_gradient(tt_block, w_block)
        g *= prior_eta
        g += w_block
        return g

    step = outer_iter * _SGD_EPOCHS * n_docs
    add, maximum, exp, subtract = np.add, np.maximum, np.exp, np.subtract
    for epoch in range(_SGD_EPOCHS):
        SplitMix64(derive_seed(seed, outer_iter, epoch)).shuffle(order)
        etas = _learning_rate(np.arange(step, step + n_docs)).tolist()
        for i, eta in zip(order, etas):
            cells, onehot = docs[i]
            g = x.take(cells)
            p = add.reduce(g, 0)
            p -= maximum.reduce(p)
            exp(p, out=p)
            p /= add.reduce(p)
            subtract(onehot, p, out=p)
            p *= eta
            g += p
            x.put(cells, g)
        step += n_docs
        if not np.isfinite(x).all():
            return  # blowup; reported as NumericError by the caller
        prior_eta = min(_learning_rate(step), 1.0 / (1.0 + 1.0 / sigma2 + stiffness))
        expfam._blockwise(prior_step, w, gen.theta_tilde, out=w)


def _lbfgs_ascent(objective_and_gradient, x):
    """Maximize a smooth function by L-BFGS (Liu & Nocedal 1989), one
    iteration per next().

    x is the flat start vector and is updated in place;
    objective_and_gradient(x) returns (f, gradient of f) at x. Each
    iteration takes the two-loop recursion's direction d over the last
    _LBFGS_MEMORY curvature pairs (s, y), y the fall of the gradient along
    s, and backtracks from the unit step by halving until
    f(x + t d) >= f(x) + _ARMIJO_C * t * gradient.d. A pair with s.y <= 0
    is not kept, so d stays an ascent direction. Yields (f, gradient) at
    the new iterate. When the slope along d is not positive (a zero or
    non-finite gradient) or _LBFGS_MAX_HALVINGS halvings find no ascent, x
    stays where it was and the same pair is yielded again, so the caller's
    relative-change rule stops the run.
    """
    f, g = objective_and_gradient(x)
    pairs = deque(maxlen=_LBFGS_MEMORY)
    while True:
        d = g.copy()
        coefs = []
        for s, y, rho in reversed(pairs):
            coef = rho * (s @ d)
            d -= coef * y
            coefs.append(coef)
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        for (s, y, rho), coef in zip(pairs, reversed(coefs)):
            d += (coef - rho * (y @ d)) * s
        slope = float(g @ d)
        t = 1.0
        for _ in range(_LBFGS_MAX_HALVINGS if slope > 0.0 else 0):
            x_new = x + t * d
            f_new, g_new = objective_and_gradient(x_new)
            if f_new >= f + _ARMIJO_C * t * slope:
                s, y = x_new - x, g - g_new
                sy = float(s @ y)
                if sy > 0.0:
                    pairs.append((s, y, 1.0 / sy))
                x[:] = x_new
                f, g = f_new, g_new
                break
            t *= 0.5
        yield f, g


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
        lse, resp = _normalize(scores)
        objective = float(scores[data.labeled_positions, data.labels].sum()
                          + lse[~labeled_mask].sum())

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
    """Standalone L2-regularized logistic regression (the lam = 1 endpoint).

    Maximizes the labeled log-likelihood minus ||w||^2 / (2 sigma^2), which
    is concave and is model._disc_terms' value, by _lbfgs_ascent on the flat
    vector [w.ravel(), b], _LBFGS_ITERS_PER_STEP L-BFGS iterations per outer
    iteration. The fit is deterministic and does not read cfg.seed.

    A weight of a feature that no labeled document holds has gradient
    -w / sigma^2 and stays at its start, 0. So the ascent runs over the
    labeled documents restricted to their features, and its vectors have
    K * (those features) + K entries rather than K * M + K.
    """
    if data.n_labeled == 0:
        raise ConfigError("training requires at least one labeled instance")
    k, labeled = data.num_classes, data.labeled
    # np.unique would import numpy.ma, 1.7 MB of resident memory
    features = np.flatnonzero(np.bincount(labeled.indices, minlength=data.num_features))
    # a Dataset needs one feature; when no labeled document holds any, the
    # one column is empty and its weight stays 0
    m = max(features.size, 1)
    restricted = Dataset(labeled.indptr, np.searchsorted(features, labeled.indices),
                         labeled.row_labels, k, m)

    def objective_and_gradient(x):
        prior, disc_block, grad_w, grad_b = _disc_terms(
            restricted, x[:k * m].reshape(k, m), x[k * m:], disc_prior_sigma2)
        return prior + disc_block, np.concatenate([grad_w.ravel(), grad_b])

    x = np.zeros(k * m + k)
    # the ascent updates x in place, and w_fit, b_fit are views of it
    w_fit, b_fit = x[:k * m].reshape(k, m), x[k * m:]
    ascent = _lbfgs_ascent(objective_and_gradient, x)

    def lbfgs_step(it):
        for _ in range(_LBFGS_ITERS_PER_STEP):
            objective, gradient = next(ascent)
        # the snapshot's w holds the columns listed in features
        _check_finite(objective, it, EndpointMode.PURE_DISCRIMINATIVE,
                      b=b_fit, w=w_fit, gradient=gradient, features=features)
        return objective

    report = _ascend(lbfgs_step, cfg, EndpointMode.PURE_DISCRIMINATIVE)
    ascent.close()  # frees the curvature pairs before the full-size w exists
    w = np.zeros((k, data.num_features))
    w[:, features] = w_fit[:, :features.size]
    return DiscriminativeParams(b=b_fit.copy(), w=w), report


def train(data: Dataset, coupling: CouplingConfig, cfg: TrainConfig):
    """Train the coupled pair; returns (gen, disc, report).

    coupling.mode picks the trainer: the standalone endpoint trainers
    for lam within model._LAMBDA_CLAMP of 0 or 1, the coupled loop
    otherwise. The lam = 1 endpoint fits no generative half, so its gen
    is None. The lam = 0 endpoint exposes its naive Bayes fit
    through the discriminative slot in linear form (w = theta_tilde,
    b = log pi + per-class absence mass) so that prediction is always a
    function of (w, b) and matches the generative argmax instance-exactly.
    """
    if data.n_labeled == 0:
        raise ConfigError("training requires at least one labeled instance")

    mode = coupling.mode
    if mode is EndpointMode.PURE_GENERATIVE:
        gen, report = train_nb_em(data, cfg)
        # The linear form of the naive Bayes decision rule: w = theta_tilde
        # and b absorbing both the class prior and the per-class absence
        # mass, so `hybridssl predict` reproduces the generative argmax exactly.
        disc = DiscriminativeParams(b=gen.log_pi + gen.absence_base,
                                    w=gen.theta_tilde.copy())
        return gen, disc, report
    if mode is EndpointMode.PURE_DISCRIMINATIVE:
        disc, report = train_logreg(data, cfg, coupling.disc_prior_sigma2)
        return None, disc, report

    k, m = data.num_classes, data.num_features
    gen = uniform_generative_params(k, m)
    # the SGD epochs update x in place, and disc.w, disc.b are views of it
    x = np.zeros(k * m + k)
    disc = DiscriminativeParams(b=x[k * m:], w=x[:k * m].reshape(k, m))
    docs = _sgd_cells(data)
    resp = _normalize(nb_scores_matrix(gen, data))[1]

    def hybrid_step(it):
        """Outer iteration it: the generative step from resp, the SGD epochs,
        then the objective, whose one normalization of the document scores
        also gives the next resp. Under BETA coupling at most one
        theta_tilde is alive."""
        nonlocal gen, resp
        if coupling.kind is CouplingKind.GAUSSIAN:
            # the previous theta_tilde is the Newton start
            gen = generative_update_gauss(data, resp, gen, disc, coupling.sigma_c2)
        else:
            # the closed form reads only resp and disc, so the previous
            # theta_tilde is freed before the new one is built
            gen = None
            gen = generative_update_beta(data, resp, disc, coupling.gamma)

        _sgd_epochs(x, docs, gen, coupling, cfg.seed, it)

        _check_finite(0.0, it, EndpointMode.HYBRID, b=disc.b, w=disc.w)
        # SGD did not touch gen, so the normalization that gives the
        # objective's generative block gives the next E-step too
        lse, resp = _normalize(nb_scores_matrix(gen, data))
        objective = log_joint_blocks(gen, disc, coupling, data, lse).total()
        _check_finite(objective, it, EndpointMode.HYBRID,
                      theta_tilde=gen.theta_tilde)
        return objective

    report = _ascend(hybrid_step, cfg, EndpointMode.HYBRID)
    return gen, disc, report
