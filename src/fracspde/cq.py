"""Backward-Euler convolution-quadrature weights for fractional derivatives.

The discrete Riemann–Liouville derivative of order ``a`` on a uniform grid
with step tau uses the coefficients of ((1-z)/tau)^a:

    ((1-z)/tau)^a = sum_{j>=0} d_j z^j,
    d_j = tau^(-a) * (-1)^j * binom(a, j).

``cq_weights`` computes them by the stable two-term recurrence, as one
cumulative product;
``apply_cq_history`` is ``solver.step``'s history sum over the states of
the current 16-step block, for one path or a batch of them (a run sums the
states before the block with blocked GEMMs in ``solver``).
``weights_by_series`` is an independent oracle (power-series composition
in high precision) kept for the self-test and the test suite; the tests'
second oracle, FFT coefficient extraction on a circle, is
``weights_by_contour`` in ``tests/oracles.py``.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "cq_weights",
    "apply_cq_history",
    "weights_by_series",
]

#: decimal digits of the series oracle's mpmath arithmetic
_SERIES_DPS = 50


def cq_weights(a: float, tau: float, n_weights: int) -> np.ndarray:
    """Weights d_0 .. d_{n_weights-1} of order ``a`` at step ``tau``.

    d_0 = tau^(-a) > 0; every later weight is negative for a in (0,1),
    via d_j = d_{j-1} * (j-1-a)/j.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"quadrature order must be in (0, 1), got {a}")
    if not (math.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if n_weights < 1:
        raise ValueError(f"n_weights must be >= 1, got {n_weights}")
    j = np.arange(1, n_weights)
    w = np.ones(n_weights)
    # the recurrence's products, in its order: accumulate multiplies in turn
    np.cumprod((j - 1 - a) / j, out=w[1:])
    return w * tau ** (-a)


def apply_cq_history(weights: np.ndarray, history: np.ndarray, *,
                     out: np.ndarray | None = None) -> np.ndarray:
    """sum_{i=0}^{n-1} d_i * u^{n-i} for history = [u^1, ..., u^n].

    ``history`` has shape (n, ...); the sum runs over the first axis and
    keeps the trailing ones (a 1-D history gives a numpy scalar).  With
    ``out``, a float64 array shaped ``history.shape[1:]``, the sum is
    written there, with the same bits, and ``out`` is returned.  The
    terms are added in the order i = 0, 1, ..., n-1 for every trailing
    entry, so a column's result does not depend on how many columns are
    passed with it.  A BLAS product gives no such guarantee, and on a
    reversed (negative-stride) view numpy falls back to a slow scalar loop.
    """
    history = np.asarray(history, dtype=float)
    n = history.shape[0]
    if n > weights.shape[0]:
        raise ValueError(
            f"history of length {n} exceeds weight table of length {weights.shape[0]}")
    return np.einsum("i,i...->...", weights[:n], history[::-1], out=out)


def weights_by_series(a: float, tau: float, n_weights: int) -> np.ndarray:
    """Oracle: coefficients of exp(a*log(1-z))/tau^a by power-series composition.

    log(1-z) = -sum_{m>=1} z^m/m, then B = exp(A) coefficient recurrence
    b_j = (1/j) sum_{k=1}^{j} k a_k b_{j-k}, all in mpmath arithmetic.
    """
    import mpmath as mp

    with mp.workdps(_SERIES_DPS):
        aa = mp.mpf(a)
        log_coeffs = [mp.mpf(0)] + [-aa / m for m in range(1, n_weights)]
        out = [mp.mpf(1)] + [mp.mpf(0)] * (n_weights - 1)
        for j in range(1, n_weights):
            acc = mp.mpf(0)
            for k in range(1, j + 1):
                acc += k * log_coeffs[k] * out[j - k]
            out[j] = acc / j
        scale = mp.mpf(tau) ** (-aa)
        return np.array([float(b * scale) for b in out])
