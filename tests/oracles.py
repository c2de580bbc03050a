"""Independent oracles that only the tests call.

The runtime package keeps what ``fracspde study``, ``trajectory`` and
``selftest`` run; these cross-checks live here instead:

* :func:`weights_by_series` — CQ weights by power-series composition in
  high precision, the primary oracle for ``cq.cq_weights``;
* :func:`weights_by_contour` — CQ weights by FFT coefficient extraction on
  a circle, its secondary oracle;
* :func:`fbm_covariance` — the fBm covariance, the oracle for
  ``fbm.increment_covariance``;
* :func:`increment_covariance_matrix` and :func:`sample_fbm_cholesky` —
  the dense L x L increment covariance and the exact fGn sampler by its
  Cholesky factor, O(L^3), the distributional oracle for
  ``fbm.sample_fbm_circulant``;
* :func:`mittag_leffler_integral` — the Mittag-Leffler function by its
  spectral-integral representation, the oracle for ``mlf.mittag_leffler``;
* :func:`serialize_config` — the inverse of ``cli.parse_config``, for
  round-trip tests of the config schema.
"""
from __future__ import annotations

import numpy as np

from fracspde.cli import _FIELDS
from fracspde.experiments import ExperimentConfig
from fracspde.fbm import _check_hurst, increment_covariance
from fracspde.mlf import _check_params

#: decimal digits of the series oracle's mpmath arithmetic
_SERIES_DPS = 50
#: points on the contour oracle's circle
_CONTOUR_POINTS = 4096
#: decimal digits of the integral oracle's mpmath arithmetic
_INTEGRAL_DPS = 30


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


def weights_by_contour(a: float, tau: float, n_weights: int) -> np.ndarray:
    """Oracle: Cauchy coefficient extraction of ((1-z)/tau)^a on |z| = r.

    d_j = (1/(M r^j)) sum_l g(r e^{2 pi i l/M}) e^{-2 pi i j l/M}.  Accuracy
    is limited by the radius/rounding tradeoff (~1e-8 relative at M =
    4096 points), so this is the *secondary* oracle.
    """
    r = 1e-10 ** (1.0 / _CONTOUR_POINTS)
    z = r * np.exp(2j * np.pi * np.arange(_CONTOUR_POINTS) / _CONTOUR_POINTS)
    g = ((1.0 - z) / tau) ** a
    coeffs = np.fft.fft(g).real / _CONTOUR_POINTS
    return coeffs[:n_weights] / r ** np.arange(n_weights)


def fbm_covariance(t: float, u: float, h: float) -> float:
    """Cov(W^H(t), W^H(u)) = (t^2H + u^2H - |t-u|^2H) / 2."""
    _check_hurst(h)
    if t < 0.0 or u < 0.0:
        raise ValueError("fBm covariance requires nonnegative times")
    return 0.5 * (t ** (2 * h) + u ** (2 * h) - abs(t - u) ** (2 * h))


def increment_covariance_matrix(h: float, tau: float, n_steps: int) -> np.ndarray:
    """Full L x L covariance of the increment vector (symmetric Toeplitz)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    idx = np.arange(n_steps)
    return increment_covariance(h, tau, idx[:, None] - idx[None, :])


def sample_fbm_cholesky(h: float, tau: float, n_steps: int,
                        rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """Exact fGn sampler via Cholesky factorization; returns (n_paths, L)."""
    cov = increment_covariance_matrix(h, tau, n_steps)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"increment covariance (H={h}, tau={tau}, L={n_steps}) is not "
            f"numerically positive definite: {exc}") from exc
    return rng.standard_normal((n_paths, n_steps)) @ factor.T


def mittag_leffler_integral(alpha: float, beta: float, z: float) -> float:
    """Independent oracle: completely-monotone spectral representation.

    E_{a,1}(-x) = (sin(pi a)/(pi a)) * int_0^inf exp(-y q^{1/a}) /
    (q^2 + 2 q cos(pi a) + 1) dq with y = x^{1/a} (after substituting
    q = r^a in the classical kernel).  For beta = 2, integrating the
    identity E_{a,2}(-x) = int_0^1 E_{a,1}(-x s^a) ds under the q-integral
    replaces the exponential by (1 - exp(-t))/t with t = y q^{1/a}.
    Used only as a cross-check; slow but implementation-independent.
    """
    _check_params(alpha, beta, z)
    if alpha == 1.0:
        raise ValueError("integral representation requires alpha < 1")
    import mpmath as mp

    x = -z
    if x == 0.0:
        return 1.0
    with mp.workdps(_INTEGRAL_DPS):
        a = mp.mpf(alpha)
        y = mp.mpf(x) ** (1 / a)
        sin_a, cos_a = mp.sinpi(a), mp.cospi(a)
        prefactor = sin_a / (mp.pi * a)
        if beta == 1.0:
            def kernel(q):
                return prefactor * mp.e ** (-y * q ** (1 / a)) / ((q + cos_a) ** 2 + sin_a ** 2)
        else:
            def kernel(q):
                t = y * q ** (1 / a)
                damp = (1 - mp.e ** (-t)) / t if t > mp.mpf("1e-10") else 1 - t / 2
                return prefactor * damp / ((q + cos_a) ** 2 + sin_a ** 2)
        # knot where the exponential factor dies, so quad sees the support
        q_cut = (40 / y) ** a
        knots = sorted({mp.mpf(0), min(max(q_cut, mp.mpf("1e-6")), mp.mpf("1e6")), mp.mpf(1)})
        return float(mp.quad(kernel, knots + [mp.inf]))


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of :func:`parse_config` (up to formatting)."""
    lines = []
    for key in _FIELDS:
        value = getattr(config, key)
        if key == "levels":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
