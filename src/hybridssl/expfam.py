"""Bernoulli exponential-family primitives and the conjugate coupling prior.

A per-class, per-feature Bernoulli with mean v is written in natural form

    p(x) = exp(x*t - A(t)),   t = logit(v),  A(t) = log(1 + e^t),

so A'(t) = sigmoid(t) recovers the mean. The coupling prior over a natural
parameter t, centred on a reference natural parameter r with concentration
gamma > 0, is the conjugate density

    log p(t | r, gamma) = log m(r) + t*alpha(r) - gamma*A(t),
    alpha(r) = gamma*sigmoid(r),
    log m(r) = lgamma(gamma+2) - lgamma(alpha+1) - lgamma(gamma-alpha+1).

With this normalizer the density integrates to 1 over the mean parameter
v = sigmoid(t) in (0, 1); as a function of v it is Beta(alpha+1,
gamma-alpha+1). Its mode over t is exactly r, and its spread shrinks as
gamma grows, which is what makes gamma usable as a coupling strength.

Over t itself (with dt, no Jacobian) the prior is logit(V), V ~ Beta(a, b),
a = alpha, b = gamma - alpha: an exponential family whose log-normalizer
log B(a, b) gives the moments in closed form, mean psi(a) - psi(b) and
variance psi'(a) + psi'(b) (beta_prior_moments).

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


# Elements per block of the elementwise K x M pipelines: 1 << 16 float64
# values are 512 KB, so the few temporaries a pipeline makes for one block
# stay in L2 cache instead of each being a fresh K x M array.
_BLOCK = 1 << 16


def _blockwise(fn, *arrays):
    """fn applied to aligned flat slices of _BLOCK elements of the equally
    shaped arrays, each slice's result written into one new array of their
    shape. fn must act elementwise; every value is then bit-identical to
    fn applied to the whole arrays."""
    flat = [np.ravel(a) for a in arrays]
    out = np.empty(np.shape(arrays[0]))
    out_flat = out.reshape(-1)
    for start in range(0, out_flat.size, _BLOCK):
        stop = start + _BLOCK
        out_flat[start:stop] = fn(*(a[start:stop] for a in flat))
    return out


def _match_input(x, value):
    """Return a python float when the input was scalar, else the array."""
    if np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0):
        return float(value)
    return value


def sigmoid(x):
    """Logistic function 1/(1+e^-x), overflow-free for |x| >= 700."""
    x_arr = np.asarray(x, dtype=float)
    out = np.empty_like(x_arr)
    pos = x_arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x_arr[pos]))
    ex = np.exp(x_arr[~pos])
    out[~pos] = ex / (1.0 + ex)
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

    is applied at x + 6. Raises DomainError for x <= 0.
    """
    x_arr = np.asarray(x, dtype=float)
    if np.any(x_arr <= 0.0) or np.any(~np.isfinite(x_arr)):
        raise DomainError(f"digamma requires x > 0, got {x}")
    lift = -1.0 / x_arr
    for i in range(1, 6):
        lift -= 1.0 / (x_arr + i)
    work = x_arr + 6.0
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


def beta_prior_log_density(theta_tilde, theta, gamma):
    """Log density of the conjugate coupling prior, see module docstring.

    theta_tilde is the generative natural parameter being scored, theta the
    reference (discriminative) natural parameter the prior is centred on.
    Broadcasts over arrays; gamma is a positive scalar.
    """
    gamma = _check_gamma(gamma)
    tt = np.asarray(theta_tilde, dtype=float)
    alpha = gamma * sigmoid(np.asarray(theta, dtype=float))
    logm = (math.lgamma(gamma + 2.0)
            - _lgamma(alpha + 1.0)
            - _lgamma(gamma - alpha + 1.0))
    out = logm + tt * alpha - gamma * np.logaddexp(0.0, tt)
    if np.isscalar(theta_tilde) and np.isscalar(theta):
        return float(out)
    return out


def beta_prior_moments(theta, gamma):
    """(mean, variance) of theta_tilde under the coupling prior.

    The prior is the exponential family p(t) ~ exp(t*alpha - gamma*A(t)),
    so theta_tilde = logit(V) with V ~ Beta(a, b), a = gamma*sigmoid(theta),
    b = gamma*sigmoid(-theta). Its mean and variance are the first two
    derivatives of the log-normalizer log B(a, b):

        mean = psi(a) - psi(b),   variance = psi'(a) + psi'(b).

    b is taken as gamma*sigmoid(-theta), not gamma - a, so it keeps its
    precision when sigmoid(theta) rounds to 1. Raises NumericError, with a
    snapshot of theta, gamma, a and b, when a or b underflows to 0 or the
    moments overflow (a very diffuse prior such as gamma = 1e-200).
    """
    gamma = _check_gamma(gamma)
    theta = float(theta)
    a = gamma * sigmoid(theta)
    b = gamma * sigmoid(-theta)
    snapshot = {"theta": theta, "gamma": gamma, "a": a, "b": b}
    if a == 0.0 or b == 0.0:
        raise NumericError(f"coupling prior shape underflows to 0 (theta={theta}, "
                           f"gamma={gamma})", snapshot=snapshot)
    # an overflow is caught below as a non-finite moment, not warned about
    with np.errstate(over="ignore"):
        mean = digamma(a) - digamma(b)
        variance = float(_trigamma(np.array([a, b])).sum())
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise NumericError(f"coupling prior moments overflow (theta={theta}, "
                           f"gamma={gamma})", snapshot=snapshot)
    return mean, variance
