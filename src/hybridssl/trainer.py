"""Training of the coupled classifier pair.

Every fit with a generative half (the hybrid, and naive Bayes EM at
lam = 0) runs one outer loop, _em, from _labeled_start: the naive Bayes
M-step on the labeled documents alone, the usual start of semi-supervised
EM (Nigam, McCallum, Thrun & Mitchell 2000), with w = b = 0 in the hybrid
(GAUSSIAN's first M-step ascent starts at w = theta_tilde instead). At
lam = 0 the M-step is _smoothed_m_step with the labeled documents'
responsibilities their one-hot labels, an EM step (Dempster, Laird & Rubin
1977); the hybrid's depends on the coupling family.

GAUSSIAN: one M-step. With c the expected counts and n_y = sum_x p(y | x)
the class masses,

    Q(theta_tilde, w, b) = prior(w) + label log-likelihood(w, b)
                           - ||theta_tilde - w||^2 / (2 sigma_c2)
                           + sum_yd [c_yd theta_tilde_yd - n_y A(theta_tilde_yd)]

is jointly concave, and _gauss_m_step maximizes it, with pi_y = n_y /
sum n_y: a Newton per untouched column, one L-BFGS ascent over the rest.
Each outer iteration is then an EM step too, or a generalized one (Neal
& Hinton 1998), so it cannot lower the log joint.

BETA: coordinate ascent, which still divides by N, the total number of
documents, where EM divides by n_y, and still runs SGD (ROADMAP items 1
and 2 replace both).

  1. Generative step. generative_update_beta is the closed form

         v_yd = (sum_x p(y | x) x_d + gamma * sigmoid(w_yd)) / (N + gamma),
         pi_y = sum_x p(y | x) / N.

     Labels never enter this step. Each coordinate's new value maximizes
     the separable surrogate (c + alpha) t - (N + gamma) A(t) exactly, so
     the surrogate never decreases.

  2. Discriminative step. A few epochs of per-example SGD on the labeled
     documents update (w, b) against the data term; once per epoch the
     prior and coupling gradients are applied as a single full step. The
     per-epoch step uses min(eta_t, 1 / (1 + 1/sigma^2 + gamma/4)), where
     gamma/4 bounds the coupling curvature; without the bound a strongly
     coupled run (gamma ~ 1e6) diverges on the first epoch.

     Summation order is part of the output contract: an example's class
     score adds its weights one after another in increasing feature order,
     then adds b. _sgd_epochs runs on one flat buffer x = [w.ravel(), b]
     and gathers each example's weights feature-major with b's row last,
     (n + 1, K), so one reduction over rows makes the same sums; numpy
     reduces a (K, n) C-ordered gather pairwise instead, which moves the
     low bits of every fit.

model.py owns the objective's values and gradients; this module only
ascends them. Only the SGD kernel writes gradient terms out itself, for
speed: each example's data term and the per-epoch step
w += eta * (-w/sigma^2 + coupling gradient), applied in place one block at
a time with the coupling term from
model._coupling_gradient, so that no K x M gradient array is built.

CouplingConfig.mode decides the endpoints: lam within model._LAMBDA_CLAMP
of 0 or 1 short-circuits to the standalone trainers, naive Bayes EM at
lam = 0 and L2-regularized logistic regression at lam = 1. The lam = 1
objective is concave, so train_logreg maximizes it by a deterministic
full-batch L-BFGS ascent (_lbfgs_ascent) over the features of the
labeled documents, two L-BFGS iterations per outer iteration, instead of
SGD epochs.

Determinism: no trainer reads a seed. The BETA hybrid's SGD epochs run in
one fixed order (_SGD_SEED), so a fit depends only on its data, coupling and
TrainConfig; identical inputs give bit-identical parameters and traces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import expfam
from .errors import ConfigError, NumericError
from .model import (_DISC_PRIOR_SIGMA2, CouplingConfig, CouplingKind, Dataset,
                    DiscriminativeParams, EndpointMode, GenerativeParams, _coupling_gradient,
                    _disc_terms, _gauss_delta_scale, _gauss_m_step_terms, _normalize,
                    log_joint_blocks, nb_scores_matrix)
from .rng import SplitMix64, derive_seed

# Pseudo-count of the naive Bayes EM M-step (the lam = 0 endpoint).
_EM_SMOOTHING = 1e-2
# _gauss_newton stops once no step exceeds _GAUSS_TOL * (1 + |t|), and
# fails after _GAUSS_MAX_STEPS steps.
_GAUSS_TOL = 1e-6
_GAUSS_MAX_STEPS = 100
# The discriminative step runs _SGD_EPOCHS epochs per outer iteration; the
# learning rate decays with the global example-update count t as
# eta_t = _LEARNING_RATE0 / (1 + t / _LR_DECAY_STEPS).
_SGD_EPOCHS = 5
# The SGD's epoch orders: SplitMix64(derive_seed(_SGD_SEED, outer_iter, epoch)).
_SGD_SEED = 0
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
    is one round of the hybrid, one EM step at lam = 0 and two L-BFGS
    iterations at lam = 1; tol also stops the GAUSSIAN hybrid's inner
    ascent.
    """

    max_outer_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if self.max_outer_iters < 1:
            raise ConfigError(f"max_outer_iters must be >= 1, got {self.max_outer_iters}")
        if not (self.tol > 0.0):
            raise ConfigError(f"tol must be > 0, got {self.tol}")


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


def _smoothed_m_step(data: Dataset, resp: np.ndarray) -> GenerativeParams:
    """The naive Bayes M-step from the responsibilities resp, shape (N, K):
    pi from the class masses n_y = sum_x p(y | x), and the smoothed count
    ratio

        v_yd = (c_yd + eps) / (n_y + 2 eps),  eps = _EM_SMOOTHING,

    in natural form. theta_tilde is written into the counts array, a block
    at a time, so the step holds one K x M array."""
    class_mass = resp.sum(axis=0)
    counts = data.counts(resp)
    for row, mass in zip(counts, class_mass):
        denominator = mass + 2.0 * _EM_SMOOTHING
        expfam._blockwise(lambda c: expfam.natural_from_mean((c + _EM_SMOOTHING) / denominator),
                          row, out=row)
    return GenerativeParams(pi=_mixing_weights(class_mass), theta_tilde=counts)


def _one_hot(data: Dataset) -> np.ndarray:
    """The labeled documents' labels as one-hot rows, shape (n_labeled, K)."""
    return (data.labels[:, None] == np.arange(data.num_classes)).astype(np.float64)


def _labeled_start(data: Dataset) -> GenerativeParams:
    """The start of every fit with a generative half: _smoothed_m_step on
    the labeled documents alone, their one-hot labels the responsibilities."""
    return _smoothed_m_step(data.labeled, _one_hot(data))


def generative_update_beta(data: Dataset, resp: np.ndarray,
                           disc: DiscriminativeParams, gamma: float) -> GenerativeParams:
    """Closed-form generative step under BETA coupling.

    resp holds the responsibilities p(y | x), shape (N, K); the trainer
    takes them from the document scores of the previous outer iteration's
    objective evaluation.
    """
    gamma = expfam._check_gamma(gamma)
    n = len(data)

    def theta_tilde(c, w):
        pseudo = gamma * expfam.sigmoid(w)
        return expfam.natural_from_mean((c + pseudo) / (n + gamma))

    counts = data.counts(resp)
    # each block of counts is read once, then overwritten by its theta_tilde
    return GenerativeParams(
        pi=_mixing_weights(resp.sum(axis=0)),
        theta_tilde=expfam._blockwise(theta_tilde, counts, disc.w, out=counts))


def _gauss_newton(counts, class_mass, v, t):
    """The maximizer of c t - n_y A(t) - t^2 / (2 v) for every entry c of
    counts, n_y the class_mass of its row, by Newton's method safeguarded by
    bisection, starting from t.

    The derivative c - n_y sigmoid(t) - t / v falls strictly. Its root lies
    between v (c - n_y) and v c, between 0 and logit(c / n_y), where
    c - n_y sigmoid(t) changes sign, and within L = max(1, log(n_y v)) of 0,
    as n_y sigmoid(-L) <= 1 / v <= L / v. A Newton step that leaves the
    bracket, which shrinks around the root as the iterates move, or that
    exceeds both the tolerance and half the step before it (far in the
    tail Newton moves about 1 per step), is replaced by bisection. Stops
    once no step exceeds _GAUSS_TOL * (1 + |t|), after taking it; raises
    NumericError (with the last iterate attached) after _GAUSS_MAX_STEPS
    steps.
    """
    n = class_mass[:, None]
    reach = np.maximum(1.0, np.log(n) + math.log(v))
    # logit(c / n_y) is -inf at c = 0 and inf at c = n_y; v c may overflow to inf
    with np.errstate(divide="ignore", over="ignore"):
        root = np.log(counts) - np.log(np.maximum(n - counts, 0.0))
        lo = np.maximum(np.maximum(v * (counts - n), np.minimum(root, 0.0)), -reach)
        hi = np.minimum(np.minimum(v * counts, np.maximum(root, 0.0)), reach)
    t = np.clip(t, lo, hi)
    last = np.full_like(t, np.inf)
    for _ in range(_GAUSS_MAX_STEPS):
        s = expfam.sigmoid(t)
        grad = counts - n * s - t / v
        np.copyto(lo, t, where=grad > 0.0)
        np.copyto(hi, t, where=grad < 0.0)
        t_new = t + grad / (n * s * (1.0 - s) + 1.0 / v)
        tol = _GAUSS_TOL * (1.0 + np.abs(t))
        step = np.abs(t_new - t)
        bisect = ~((t_new >= lo) & (t_new <= hi)) | ((step > tol) & (step > 0.5 * last))
        t_new[bisect] = 0.5 * (lo[bisect] + hi[bisect])
        last = np.abs(t_new - t)
        t = t_new
        if (last <= tol).all():
            return t
    raise NumericError(
        f"gaussian M-step Newton did not converge within {_GAUSS_MAX_STEPS} steps "
        f"at sigma^2 + sigma_c2 = {v!r}", snapshot={"theta_tilde": t, "v": v})


def _labeled_columns(data: Dataset):
    """(features, restricted): the columns that some labeled document holds,
    ascending, and the labeled documents restricted to them, column j of
    restricted being column features[j] of data. When no labeled document
    holds a feature, column 0 stands in, so that restricted has a column;
    its data gradient is 0."""
    labeled = data.labeled
    # np.unique would import numpy.ma, 1.7 MB of resident memory
    features = np.flatnonzero(np.bincount(labeled.indices, minlength=data.num_features))
    if features.size == 0:
        features = np.zeros(1, dtype=np.int64)
    restricted = Dataset(labeled.indptr, np.searchsorted(features, labeled.indices),
                         labeled.row_labels, data.num_classes, features.size)
    return features, restricted


def _gauss_m_step(data: Dataset, resp: np.ndarray, restricted: Dataset, features: np.ndarray,
                  untouched: np.ndarray, z: np.ndarray, theta_tilde: np.ndarray, w: np.ndarray,
                  coupling: CouplingConfig, tol: float) -> GenerativeParams:
    """The GAUSSIAN M-step from the responsibilities resp, shape (N, K).

    In a column that no labeled document holds (untouched), only the prior
    and the coupling involve w, so w = theta_tilde sigma^2 / v with
    v = sigma^2 + sigma_c2, and _gauss_newton solves what is left in
    theta_tilde, about expfam._BLOCK entries at a time. The columns
    features, with b, go to an L-BFGS ascent on model._gauss_m_step_terms
    over z = [theta_tilde, delta, b] of those columns, from z as it
    stands, until two successive values differ by a relative change below
    tol. Writes the new theta_tilde and w into theta_tilde and w and the
    new b into z's tail, and returns the GenerativeParams around
    theta_tilde.
    """
    sigma2, sigma_c2 = coupling.disc_prior_sigma2, coupling.sigma_c2
    class_mass = np.maximum(resp.sum(axis=0), _PI_FLOOR)
    counts = data.counts(resp)

    v = sigma2 + sigma_c2
    width = max(1, expfam._BLOCK // data.num_classes)
    for start in range(0, untouched.size, width):
        cols = untouched[start:start + width]
        t = _gauss_newton(counts[:, cols], class_mass, v, theta_tilde[:, cols])
        theta_tilde[:, cols] = t
        w[:, cols] = t * (sigma2 / v)

    counts = counts[:, features]
    ascent = _lbfgs_ascent(lambda x: _gauss_m_step_terms(restricted, x, counts, class_mass,
                                                         sigma2, coupling.gamma), z)
    previous = None
    for value, _ in ascent:
        # a non-finite value stops here too, and the caller's check raises
        if not (previous is None or _rel_change(previous, value) >= tol):
            break
        previous = value
    ascent.close()

    size = counts.size
    theta_tilde[:, features] = z[:size].reshape(counts.shape)
    w[:, features] = (theta_tilde[:, features]
                      + _gauss_delta_scale(coupling.gamma) * z[size:2 * size].reshape(counts.shape))
    return GenerativeParams(pi=_mixing_weights(class_mass), theta_tilde=theta_tilde)


def _learning_rate(step):
    """eta_t for a step count t, or elementwise for an array of them."""
    return _LEARNING_RATE0 / (1.0 + step / _LR_DECAY_STEPS)


def _sgd_cells(data):
    """Each labeled document's cells in x = [w.ravel(), b], in corpus order:
    (cells, onehot), cells an (n + 1, K) array whose row j holds the flat
    ids of w[:, d_j] for its j-th feature d_j and whose last row holds b's,
    and onehot the document's row of _one_hot."""
    k, m = data.num_classes, data.num_features
    offsets = np.arange(k) * m
    b_cells = k * m + np.arange(k)
    return [(np.vstack((ids[:, None] + offsets, b_cells)), onehot)
            for (ids, _), onehot in zip(data.labeled, _one_hot(data))]


def _sgd_epochs(x, docs, gen, coupling, outer_iter):
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
    stiffness = coupling.gamma / 4.0  # bounds the coupling curvature gamma * s * (1 - s)
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
        SplitMix64(derive_seed(_SGD_SEED, outer_iter, epoch)).shuffle(order)
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


def _em(data: Dataset, gen: GenerativeParams, m_step, objective, cfg: TrainConfig,
        mode: EndpointMode):
    """The outer loop of every fit with a generative half, from the start
    gen. Outer iteration it drops the previous fit, runs gen = m_step(resp,
    it) on the posteriors resp under the last fit, and normalizes gen's
    document scores once, for objective(scores, lse, gen) and the next resp.
    Returns (gen, report); the trace's last value scores gen."""
    resp = _normalize(nb_scores_matrix(gen, data))[1]

    def step(it):
        nonlocal gen, resp
        gen = None
        gen = m_step(resp, it)
        scores = nb_scores_matrix(gen, data)
        lse, resp = _normalize(scores)
        value = objective(scores, lse, gen)
        _check_finite(value, it, mode, theta_tilde=gen.theta_tilde)
        return value

    report = _ascend(step, cfg, mode)
    return gen, report


def train_nb_em(data: Dataset, cfg: TrainConfig):
    """Standalone semi-supervised naive Bayes EM (the lam = 0 endpoint).

    Labeled documents contribute hard (one-hot) responsibilities, unlabeled
    ones their posterior; the M-step is _smoothed_m_step. The trace records,
    for the fit each M-step returns, the sum over labeled docs of
    log p(x, t) plus the sum over unlabeled docs of log sum_y p(x, y).
    """
    def m_step(resp, it):
        resp[data.labeled_positions] = _one_hot(data)
        return _smoothed_m_step(data, resp)

    def objective(scores, lse, gen):
        return float(scores[data.labeled_positions, data.labels].sum()
                     + lse[data.row_labels < 0].sum())

    return _em(data, _labeled_start(data), m_step, objective, cfg,
               EndpointMode.PURE_GENERATIVE)


def train_logreg(data: Dataset, cfg: TrainConfig,
                 disc_prior_sigma2: float = _DISC_PRIOR_SIGMA2):
    """Standalone L2-regularized logistic regression (the lam = 1 endpoint).

    Maximizes the labeled log-likelihood minus ||w||^2 / (2 sigma^2), which
    is concave and is model._disc_terms' value, by _lbfgs_ascent on the flat
    vector [w.ravel(), b], _LBFGS_ITERS_PER_STEP L-BFGS iterations per outer
    iteration.

    A weight of a feature that no labeled document holds has gradient
    -w / sigma^2 and stays at its start, 0. So the ascent runs over the
    labeled documents restricted to their features, and its vectors have
    K * (those features) + K entries rather than K * M + K.
    """
    if data.n_labeled == 0:
        raise ConfigError("training requires at least one labeled instance")
    k = data.num_classes
    features, restricted = _labeled_columns(data)
    m = features.size

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
    w[:, features] = w_fit
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
        # The linear form of the naive Bayes decision rule: w is theta_tilde,
        # the same array, and b absorbs both the class prior and the per-class
        # absence mass, so `hybridssl predict` reproduces the generative argmax.
        disc = DiscriminativeParams(b=gen.log_pi + gen.absence_base, w=gen.theta_tilde)
        return gen, disc, report
    if mode is EndpointMode.PURE_DISCRIMINATIVE:
        disc, report = train_logreg(data, cfg, coupling.disc_prior_sigma2)
        return None, disc, report

    k, m = data.num_classes, data.num_features
    gauss = coupling.kind is CouplingKind.GAUSSIAN
    if gauss:
        # the M-step writes theta_tilde (the start's), w and z = [theta_tilde,
        # delta, b] of the labeled documents' columns in place, disc.b being
        # a view of z; z starts at [the start's theta_tilde, 0, 0]: w = theta_tilde
        start = _labeled_start(data)
        features, restricted = _labeled_columns(data)
        untouched = np.ones(m, dtype=bool)
        untouched[features] = False
        untouched = np.flatnonzero(untouched)
        z = np.zeros(2 * k * features.size + k)
        z[:k * features.size] = start.theta_tilde[:, features].ravel()
        disc = DiscriminativeParams(b=z[2 * k * features.size:], w=np.zeros((k, m)))
    else:
        # the SGD epochs update x in place, and disc.w, disc.b are views of it
        x = np.zeros(k * m + k)
        disc = DiscriminativeParams(b=x[k * m:], w=x[:k * m].reshape(k, m))
        docs = _sgd_cells(data)

    def m_step(resp, it):
        """The M-step (GAUSSIAN), or the generative step, which reads only
        resp and disc, and the SGD epochs (BETA)."""
        if gauss:
            gen = _gauss_m_step(data, resp, restricted, features, untouched, z,
                                start.theta_tilde, disc.w, coupling, cfg.tol)
        else:
            gen = generative_update_beta(data, resp, disc, coupling.gamma)
            _sgd_epochs(x, docs, gen, coupling, it)
        _check_finite(0.0, it, EndpointMode.HYBRID, b=disc.b, w=disc.w)
        return gen

    def objective(scores, lse, gen):
        return log_joint_blocks(gen, disc, coupling, data, lse).total()

    # under BETA coupling only _em holds the start: one theta_tilde is alive
    gen, report = _em(data, start if gauss else _labeled_start(data), m_step, objective, cfg,
                      EndpointMode.HYBRID)
    return gen, disc, report
