"""Bernoulli exponential-family primitives and the coupling prior.

A per-class, per-feature Bernoulli with mean v is written in natural form

    p(x) = exp(x*t - A(t)),   t = logit(v),  A(t) = log(1 + e^t),

so A'(t) = sigmoid(t) recovers the mean. The coupling prior over a natural
parameter t, centred on a reference natural parameter r with concentration
gamma > 0, is a density over the base measure dv, v = sigmoid(t):

    log p(t | r, gamma) = log m(r) + t*alpha - gamma*A(t),   alpha = gamma*sigmoid(r),
    log m(r) = lgamma(gamma+2) - lgamma(a) - lgamma(b),

which is Beta(a, b) in v with the shapes a = alpha + 1 and b = gamma - alpha + 1
(_beta_shapes), both at least 1. The coupling gradient's bracket is
psi(a) - psi(b), and t = logit(V) has mean psi(a) - psi(b) and variance
psi'(a) + psi'(b) (beta_prior_moments). The log density peaks at t = r, and
its spread shrinks as gamma grows, which is what makes gamma usable as a
coupling strength.

Everything here accepts scalars or numpy arrays and is numerically stable
for |t| up to at least 700.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericError

# Mean parameters are clamped to this open interval before logit, bounding
# natural parameters to roughly [-23.03, 23.03].
MEAN_FLOOR = 1e-10


# Elements per block of the elementwise K x M pipelines: 1 << 13 float64
# values are 64 KB, so the temporaries a pipeline makes for one block stay
# in cache instead of each being a fresh K x M array. The BETA kernels'
# stacked shapes (_beta_shapes) and their special-function values are
# (2, _BLOCK) arrays, 128 KB each; the timings below predate them. At
# K x M = 1M the beta coupling gradient holds 0.66 MB of them in flight,
# against 5.2 MB at 1 << 16, and the gradient plus log density take 244 ms
# against 224 ms (medians of 8 interleaved runs on a 2-vCPU Xeon; 1 << 12
# took 284 ms). text-cli's peak RSS read 76-79 MB at every size from
# 1 << 12 to 1 << 16.
_BLOCK = 1 << 13


def _blockwise(fn, *arrays, out=None):
    """fn applied to aligned flat slices of _BLOCK elements of the equally
    shaped ndarrays, each slice's result written into out: a new array of
    their shape by default, or a given C-contiguous one, which may be one
    of the arrays themselves. fn must act elementwise and must not write
    into its arguments; every value is then bit-identical to fn applied to
    the whole arrays."""
    flat = [a.reshape(-1) for a in arrays]
    if out is None:
        out = np.empty(arrays[0].shape)
    out_flat = out.reshape(-1)
    for start in range(0, out_flat.size, _BLOCK):
        stop = start + _BLOCK
        out_flat[start:stop] = fn(*[a[start:stop] for a in flat])
    return out


def _blockwise_sum(fn, *arrays):
    """float(np.sum(fn(*arrays))) for C-contiguous arrays, bit for bit,
    without fn's full-size result. numpy sums a contiguous float64 array
    pairwise, splitting n values after the first n // 2 rounded down to a
    multiple of 8; the split is repeated here down to pieces of at most
    _BLOCK values, and np.sum adds each piece as it would inside the
    whole."""
    flat = [a.reshape(-1) for a in arrays]
    n = flat[0].size
    if n <= _BLOCK:
        return float(np.sum(fn(*flat)))
    mid = n // 2 - n // 2 % 8
    return (_blockwise_sum(fn, *[a[:mid] for a in flat])
            + _blockwise_sum(fn, *[a[mid:] for a in flat]))


def _match_input(x, value):
    """Return a python float when the input was scalar, else the array."""
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(value)
    return value


def sigmoid(x):
    """Logistic function 1/(1+e^-x), overflow-free for |x| >= 700."""
    x_arr = np.asarray(x, dtype=float)
    # e^-|x| never overflows: 1 / (1 + e) for x >= 0, e / (1 + e) below
    e = np.exp(-np.abs(x_arr))
    out = np.where(x_arr >= 0, 1.0, e)
    out /= 1.0 + e
    return _match_input(x, out)


def logit(p):
    """Inverse of sigmoid; p must lie strictly inside (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise DomainError(f"logit requires p in (0, 1), got {p}")
    return _match_input(p, np.log(p_arr) - np.log1p(-p_arr))


def natural_from_mean(v):
    """Mean -> natural parameter with clamping to [1e-10, 1-1e-10].

    This is the only sanctioned way to build natural parameters from
    estimated means; the clamp keeps logit finite when a count ratio
    touches 0 or 1.
    """
    v_arr = np.clip(np.asarray(v, dtype=float), MEAN_FLOOR, 1.0 - MEAN_FLOOR)
    return _match_input(v, np.log(v_arr) - np.log1p(-v_arr))


def log_partition(theta):
    """A(t) = log(1 + e^t), evaluated as max(t, 0) + log1p(e^-|t|)."""
    return _match_input(theta, np.logaddexp(0.0, np.asarray(theta, dtype=float)))


def digamma(x):
    """Digamma psi(x) for x > 0, accurate to about 1e-12.

    Every argument is lifted by six with psi(x) = psi(x+6) - sum_{i<6} 1/(x+i),
    then the asymptotic series

        psi(x) ~ ln x - 1/(2x) - u/12 + u^2/120 - u^3/252
                 + u^4/240 - u^5/132 + 691 u^6 / 32760,   u = 1/x^2,

    is applied at x + 6. Raises DomainError for x <= 0, NaN and infinity.
    """
    x_arr = np.asarray(x, dtype=float)
    if not ((x_arr > 0.0) & (x_arr < np.inf)).all():  # NaN fails both comparisons
        raise DomainError(f"digamma requires x > 0, got {x}")
    lift = -1.0 / x_arr
    for i in range(1, 6):
        lift -= 1.0 / (x_arr + i)
    work = x_arr + 6.0
    with np.errstate(over="ignore"):  # work * work is inf above ~1.3e154, where u = 0
        u = 1.0 / (work * work)
    series = np.log(work) - 0.5 / work - u * (
        1.0 / 12.0
        - u * (1.0 / 120.0
               - u * (1.0 / 252.0
                      - u * (1.0 / 240.0
                             - u * (1.0 / 132.0 - u * (691.0 / 32760.0))))))
    return _match_input(x, lift + series)


def _lgamma(x):
    """log Gamma(x) for an array x > 0, lifted by six as in digamma:

        log Gamma(x) = log Gamma(x+6) - sum_{i<6} log(x+i),

    then Stirling's series at z = x + 6,

        log Gamma(z) ~ (z - 1/2) ln z - z + ln(2 pi)/2 + 1/(12 z) - 1/(360 z^3)
                       + 1/(1260 z^5) - 1/(1680 z^7) + 1/(1188 z^9)
                       - 691/(360360 z^11) + 1/(156 z^13).

    The lift is a sum of logs, not the log of a product, so it stays finite
    for any finite x.
    """
    lift = np.log(x)
    for i in range(1, 6):
        lift += np.log(x + i)
    z = x + 6.0
    r = 1.0 / z
    u = r * r
    series = (z - 0.5) * np.log(z) - z + 0.5 * math.log(2.0 * math.pi) + r * (
        1.0 / 12.0
        - u * (1.0 / 360.0
               - u * (1.0 / 1260.0
                      - u * (1.0 / 1680.0
                             - u * (1.0 / 1188.0
                                    - u * (691.0 / 360360.0 - u / 156.0))))))
    return series - lift


def _trigamma(x):
    """Trigamma psi'(x) for an array x > 0, lifted by six as in digamma:

        psi'(x) = psi'(x+6) + sum_{i<6} 1/(x+i)^2,

    then the asymptotic series at z = x + 6,

        psi'(z) ~ 1/z + 1/(2 z^2) + 1/(6 z^3) - 1/(30 z^5) + 1/(42 z^7)
                  - 1/(30 z^9) + 5/(66 z^11) - 691/(2730 z^13) + 7/(6 z^15).

    Each 1/(x+i)^2 is formed as a squared reciprocal, so a tiny x overflows
    to inf rather than dividing by zero.
    """
    lift = (1.0 / x) ** 2
    for i in range(1, 6):
        lift += (1.0 / (x + i)) ** 2
    r = 1.0 / (x + 6.0)
    u = r * r
    series = r + 0.5 * u + r * u * (
        1.0 / 6.0
        - u * (1.0 / 30.0
               - u * (1.0 / 42.0
                      - u * (1.0 / 30.0
                             - u * (5.0 / 66.0
                                    - u * (691.0 / 2730.0 - u * (7.0 / 6.0)))))))
    return lift + series


def _check_gamma(gamma):
    gamma = float(gamma)
    if not (gamma > 0.0) or not math.isfinite(gamma):
        raise DomainError(f"coupling concentration gamma must be finite and > 0, got {gamma}")
    return gamma


def _beta_shapes(alpha, gamma):
    """The coupling prior's Beta shapes alpha + 1 and gamma - alpha + 1, in
    one array of shape (2,) + alpha's shape, so that one digamma or _lgamma
    call takes both. Its values are those of the two expressions."""
    alpha = np.asarray(alpha, dtype=float)
    shapes = np.empty((2,) + alpha.shape)
    np.add(alpha, 1.0, out=shapes[:1])
    np.subtract(gamma, alpha, out=shapes[1:])
    shapes[1:] += 1.0
    return shapes


def beta_prior_log_density(theta_tilde, theta, gamma):
    """Log density of the coupling prior, see module docstring.

    theta_tilde is the generative natural parameter being scored, theta the
    reference (discriminative) natural parameter the prior is centred on.
    Broadcasts over arrays; gamma is a positive scalar. Raises NumericError
    when lgamma(gamma + 2) overflows, for gamma above about 2.6e305.
    """
    gamma = _check_gamma(gamma)
    tt = np.asarray(theta_tilde, dtype=float)
    alpha = gamma * sigmoid(np.asarray(theta, dtype=float))
    try:
        log_gamma_total = math.lgamma(gamma + 2.0)
    except OverflowError:
        raise NumericError(f"coupling prior normalizer lgamma(gamma + 2) overflows "
                           f"at gamma={gamma}", snapshot={"gamma": gamma}) from None
    lgamma_a, lgamma_b = _lgamma(_beta_shapes(alpha, gamma))
    logm = log_gamma_total - lgamma_a - lgamma_b
    out = logm + tt * alpha - gamma * np.logaddexp(0.0, tt)
    if np.isscalar(theta_tilde) and np.isscalar(theta):
        return float(out)
    return out


def beta_prior_moments(theta, gamma):
    """(mean, variance) of theta_tilde under the coupling prior centred on
    the scalar theta: psi(a) - psi(b) and psi'(a) + psi'(b)."""
    gamma = _check_gamma(gamma)
    a, b = _beta_shapes(gamma * sigmoid(float(theta)), gamma).tolist()
    return digamma(a) - digamma(b), _trigamma(a) + _trigamma(b)
