"""Mittag-Leffler function on the negative real axis, plus the closed-form
linear-mode reference solution used as a deterministic solver oracle.

E_{a,b}(z) = sum_{n>=0} z^n / Gamma(a n + b) is evaluated by one of two
regimes, switched on the size of x^(1/a) for x = -z, which measures the
cancellation (in nats) the Taylor series suffers — its largest term is of
order exp(x^(1/a)) while the sum stays O(1):

* Taylor series in mpmath with working precision scaled to the
  cancellation budget (x^(1/a) <= _SERIES_CROSSOVER_NATS), exact to well
  below the target;
* the asymptotic expansion E_{a,b}(-x) ~ -sum_{k>=1} (-x)^{-k} /
  Gamma(b - a k) with envelope-based truncation: raw term magnitudes
  oscillate through the poles of Gamma, so growth/stop decisions use the
  smooth reflection-formula envelope x^{-k} Gamma(1 + a k - b)/pi instead.
  The first omitted envelope bounds the truncation error; if it cannot
  certify the target the evaluation raises rather than return silently
  degraded values.

Both regimes agree to ~1e-13 in the crossover band; accuracy against an
independent spectral-integral representation (``mittag_leffler_integral``
in ``tests/oracles.py``) is ~1e-12 over a in [0.1, 0.99], b in {1, 2},
|z| <= 1e4 (see ``tests/test_mlf.py``).
"""
from __future__ import annotations

import math

__all__ = [
    "MittagLefflerError",
    "mittag_leffler",
    "linear_mode_reference",
]

_SERIES_CROSSOVER_NATS = 35.0
_LOG_PI = math.log(math.pi)
_REL_TARGET = 1e-11


class MittagLefflerError(ArithmeticError):
    """Raised when neither evaluation regime can certify the accuracy target."""


def _check_params(alpha: float, beta: float, z: float) -> None:
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if beta not in (1.0, 2.0):
        raise ValueError(f"beta must be 1 or 2, got {beta}")
    if z > 0.0:
        raise ValueError(f"argument must be <= 0, got {z}")


def _series(alpha: float, beta: float, z: float) -> float:
    """Taylor series with precision scaled to the cancellation budget."""
    import mpmath as mp

    nats = (-z) ** (1.0 / alpha)
    dps = 20 + int(0.5 * nats)
    with mp.workdps(dps):
        zz = mp.mpf(z)
        al = mp.mpf(alpha)
        acc = mp.mpf(0)
        tol = mp.mpf(10) ** (-dps)
        floor = mp.mpf("1e-250")
        for n in range(200000):
            term = zz ** n / mp.gamma(al * n + beta)
            acc += term
            if n > 4 and abs(term) < tol * max(abs(acc), floor):
                return float(acc)
    raise MittagLefflerError(
        f"series for E_({alpha},{beta})({z}) did not converge in 200000 terms")


def _asymptotic(alpha: float, beta: float, z: float) -> float:
    """Envelope-truncated asymptotic expansion for large -z."""
    import mpmath as mp

    x = -z
    log_x = math.log(x)
    total = 0.0
    prev_env = math.inf
    log_env = math.inf
    k = 1
    while k <= 100000:
        u = 1.0 + alpha * k - beta
        if u > 0.0:
            log_env = -k * log_x + math.lgamma(u) - _LOG_PI
        else:
            # here w = beta - alpha*k lies in [1, 2], where 1/Gamma <= 1.13
            log_env = -k * log_x + 0.13
        if u > 1.5 and log_env >= prev_env:
            break  # past the optimal truncation point
        total += -((1.0 / z) ** k) * float(mp.rgamma(beta - alpha * k))
        if total != 0.0 and log_env < math.log(abs(total)) - 42.0:
            break  # next term below 1e-18 * |sum|
        prev_env = log_env
        k += 1
    err_bound = math.exp(min(log_env, 700.0))
    if total == 0.0 or err_bound > _REL_TARGET * abs(total):
        rel = err_bound / abs(total) if total else math.inf
        raise MittagLefflerError(
            f"asymptotic expansion of E_({alpha},{beta})({z}) stalls at "
            f"estimated relative error {rel:.2e} (target {_REL_TARGET:.0e})")
    return total


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z <= 0, alpha in (0,1], beta in {1,2}.

    Accurate to ~1e-10 relative for |z| <= 1e4.  Raises
    :class:`MittagLefflerError` (with a diagnostic) if the active regime
    cannot certify its accuracy, rather than returning a degraded value.
    """
    _check_params(alpha, beta, z)
    if z == 0.0:
        return 1.0      # 1/Gamma(beta) for beta in {1, 2}
    if alpha == 1.0:
        # exact special cases: E_{1,1} = exp, E_{1,2}(z) = (e^z - 1)/z
        return math.exp(z) if beta == 1.0 else math.expm1(z) / z
    if (-z) ** (1.0 / alpha) <= _SERIES_CROSSOVER_NATS:
        return _series(alpha, beta, z)
    return _asymptotic(alpha, beta, z)


def linear_mode_reference(lambda_s: float, alpha: float, forcing: float,
                          t: float) -> float:
    """Exact solution u(t) = c * t * E_{alpha,2}(-lambda_s * t^alpha) of the
    scalar mode equation u' + (d/dt)^{1-alpha} lambda_s u = c, u(0) = 0."""
    if lambda_s <= 0.0:
        raise ValueError(f"lambda_s must be positive, got {lambda_s}")
    if t < 0.0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return 0.0
    return forcing * t * mittag_leffler(alpha, 2.0, -lambda_s * t ** alpha)
