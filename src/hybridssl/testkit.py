"""Independent numerical oracles for validating the library.

Everything here is deliberately naive: plain finite differences, plain
golden-section search, plain product-form probabilities via math.exp.
None of it shares formulas or code paths with the production modules, so
agreement between the two is evidence, not tautology. Cost guards keep
the brute-force enumerations at toy scale.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import DomainError, OracleError
from .model import Dataset, GenerativeParams

_GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0


def fd_gradient(objective, point: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar objective at ``point``.

    Probes every coordinate with +/- h. A non-finite objective value at
    any probe is an oracle failure naming the coordinate.
    """
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    for idx in np.ndindex(point.shape):
        probe = point.copy()
        probe[idx] = point[idx] + h
        hi = objective(probe)
        probe[idx] = point[idx] - h
        lo = objective(probe)
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise OracleError(f"objective not finite probing coordinate {idx}: "
                              f"f(+h)={hi}, f(-h)={lo}")
        grad[idx] = (hi - lo) / (2.0 * h)
    return grad


def brute_force_theta_tilde(objective, lo: float, hi: float,
                            tol: float = 1e-8) -> float:
    """Golden-section maximizer of a unimodal scalar objective on [lo, hi].

    Shrinks the bracket to width tol. If the search collapses onto a
    bracket endpoint the maximum is not interior and the oracle fails.
    """
    if not lo < hi:
        raise OracleError(f"empty bracket [{lo}, {hi}]")
    a, b = float(lo), float(hi)
    x1 = b - _GOLDEN_RATIO * (b - a)
    x2 = a + _GOLDEN_RATIO * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN_RATIO * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN_RATIO * (b - a)
            f1 = objective(x1)
    best = 0.5 * (a + b)
    if not np.isfinite(objective(best)):
        raise OracleError(f"objective not finite at maximizer {best}")
    edge = max(tol, (hi - lo) * 1e-9) * 4.0
    if best - lo <= edge or hi - best <= edge:
        raise OracleError(f"maximum pinned to bracket edge at {best}; "
                          f"bracket [{lo}, {hi}] does not enclose it")
    return best


def _unpack_params(gen):
    """Accept GenerativeParams or a raw (pi, theta_tilde) pair.

    The raw form exists for negative controls: the params class validates
    pi on construction, so a deliberately corrupted prior can only enter
    the enumeration as a bare pair.
    """
    if isinstance(gen, (tuple, list)):
        pi, tt = gen
        return np.asarray(pi, dtype=np.float64), np.asarray(tt, dtype=np.float64)
    return np.asarray(gen.pi, dtype=np.float64), np.asarray(gen.theta_tilde,
                                                            dtype=np.float64)


def _success_probs(theta_tilde: np.ndarray) -> np.ndarray:
    """Per-class Bernoulli success probabilities, computed the naive way."""
    out = np.empty_like(theta_tilde)
    for idx in np.ndindex(theta_tilde.shape):
        out[idx] = 1.0 / (1.0 + math.exp(-float(theta_tilde[idx])))
    return out


def _joint(pi, probs, bits, y) -> float:
    """p(y, x) of the binary vector bits, as a plain product."""
    p = float(pi[y])
    for d, bit in enumerate(bits):
        p *= probs[y, d] if bit else (1.0 - probs[y, d])
    return p


def _product_likelihood(pi, probs, bits) -> float:
    total = 0.0
    for y in range(len(pi)):
        total += _joint(pi, probs, bits, y)
    return total


def enumerate_joint(gen) -> float:
    """Sum of p(y, x) over all classes and all 2^M binary vectors.

    Must equal 1 for any valid parameterization; accepts a raw
    (pi, theta_tilde) pair so corrupted priors can be checked too.
    Guarded to M <= 12.
    """
    pi, tt = _unpack_params(gen)
    m = tt.shape[1]
    if m > 12:
        raise DomainError(f"exhaustive enumeration limited to M <= 12, got M={m}")
    probs = _success_probs(tt)
    total = 0.0
    for bits in itertools.product((0, 1), repeat=m):
        total += _product_likelihood(pi, probs, bits)
    return total


def enumerate_posterior(gen, present) -> np.ndarray:
    """Class posterior p(y | x) for a document given by its present-feature
    ids, via plain products over all M features."""
    pi, tt = _unpack_params(gen)
    m = tt.shape[1]
    present = set(int(i) for i in present)
    if present and (min(present) < 0 or max(present) >= m):
        raise DomainError(f"present ids must lie in [0, {m})")
    probs = _success_probs(tt)
    bits = [1 if d in present else 0 for d in range(m)]
    joint = np.array([_joint(pi, probs, bits, y) for y in range(len(pi))])
    denom = joint.sum()
    if denom <= 0.0 or not np.isfinite(denom):
        raise OracleError(f"degenerate joint mass {denom}")
    return joint / denom


def enumerate_data_log_likelihood(gen: GenerativeParams, data: Dataset) -> float:
    """Marginal log likelihood sum_i log sum_y p(y, x_i), labeled docs
    scored as log p(t_i, x_i); plain products, M <= 12."""
    m = gen.theta_tilde.shape[1]
    if m > 12:
        raise DomainError(f"exhaustive scoring limited to M <= 12, got M={m}")
    probs = _success_probs(np.asarray(gen.theta_tilde, dtype=np.float64))
    total = 0.0
    for ids, y in zip(np.split(data.indices, data.indptr[1:-1]), data.row_labels.tolist()):
        present = set(ids.tolist())
        bits = [1 if d in present else 0 for d in range(m)]
        total += math.log(_product_likelihood(gen.pi, probs, bits) if y < 0
                          else _joint(gen.pi, probs, bits, y))
    return total


def coupling_prior_moments(theta: float, gamma: float, half_width: float = 60.0,
                           points: int = 48001) -> tuple:
    """(mean, variance) of theta_tilde under the coupling prior centred on
    theta: the trapezoid rule over t in theta +/- half_width applied to the
    density exp(lgamma(gamma+2) - lgamma(alpha+1) - lgamma(gamma-alpha+1)
    + t*alpha - gamma*log(1 + e^t)), alpha = gamma*sigmoid(theta), times
    dv/dt = sigmoid(t)(1 - sigmoid(t)). Fails unless the window's mass is 1
    to 1e-12, which also rejects a grid too coarse for the spread."""
    alpha = gamma * 0.5 * (1.0 + math.tanh(0.5 * theta))
    t = np.linspace(theta - half_width, theta + half_width, points)
    dens = np.exp(math.lgamma(gamma + 2.0) - math.lgamma(alpha + 1.0)
                  - math.lgamma(gamma - alpha + 1.0) + t * alpha
                  - (gamma + 1.0) * np.logaddexp(0.0, t) - np.logaddexp(0.0, -t))
    mass = np.trapezoid(dens, t)
    if abs(mass - 1.0) > 1e-12:
        raise OracleError(f"window holds mass {mass}, not 1 (theta={theta}, gamma={gamma})")
    mean = np.trapezoid(t * dens, t)
    return float(mean), float(np.trapezoid((t - mean) ** 2 * dens, t))
