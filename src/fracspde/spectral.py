"""Dirichlet-Laplacian eigenpairs on (0,1) and sine-spectral transforms.

The operator A = -d^2/dx^2 with zero Dirichlet boundary conditions on
D = (0,1) has eigenvalues lambda_k = (k*pi)^2 and L^2-normalized
eigenfunctions phi_k(x) = sqrt(2)*sin(k*pi*x), k >= 1.  Everything in this
module works in that basis: a field is just the vector of its first N sine
coefficients.

Grid convention
---------------
All grid-based operations use M interior nodes x_j = j/(M+1), j = 1..M,
and the quadrature rule int_0^1 u v dx ~= (1/(M+1)) * sum_j u(x_j) v(x_j).
On that grid the sampled eigenfunctions are discretely orthonormal, so
``project`` and ``synthesize`` are exact inverses on span{phi_1..phi_N}
whenever N <= M, with the quadrature exact on the resolved span.

Both multiply by the cached, read-only sine matrix
B[k-1, j-1] = phi_k(x_j), shape (N, M): synthesis is c @ B and projection
is v @ B.T / (M+1).  The matrix holds 8*N*M bytes, 16*N^2 on the solver's
M = 2N grid.

Projecting a *nonlinear* function of a field is only alias-free when the
grid oversamples the modes; ``project`` therefore rejects N > M/2.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "eigenvalues",
    "project",
    "synthesize",
]

_SQRT2 = math.sqrt(2.0)


@functools.lru_cache(maxsize=16)
def _sine_matrix(n_modes: int, n_points: int) -> np.ndarray:
    """Read-only B[k-1, j-1] = sqrt(2)*sin(pi*k*j/(M+1)), shape (N, M)."""
    period = 2 * (n_points + 1)
    # k*j reduced mod the period keeps the sine arguments in [0, 2*pi)
    phase = np.outer(np.arange(1, n_modes + 1), np.arange(1, n_points + 1)) % period
    mat = _SQRT2 * np.sin(phase * (math.pi / (n_points + 1)))
    mat.setflags(write=False)
    return mat


def eigenvalues(n_modes: int) -> np.ndarray:
    """Eigenvalues [lambda_1, ..., lambda_N], lambda_k = (k*pi)^2."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    return (np.arange(1, n_modes + 1) * math.pi) ** 2


def project(grid_values: np.ndarray, n_modes: int) -> np.ndarray:
    """Sine coefficients (u, phi_k), k = 1..N, of grid samples of u.

    ``grid_values`` holds samples on the M interior nodes x_j = j/(M+1)
    along the last axis.  The quadrature has the
    uniform weight 1/(M+1); it reproduces exact L^2 inner products for u
    in span{phi_1..phi_M}.

    N is capped at M/2 so that projections of *nonlinearly transformed*
    fields stay alias-free (2x oversampling).
    """
    grid_values = np.asarray(grid_values, dtype=float)
    m = grid_values.shape[-1]
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if 2 * n_modes > m:
        raise ValueError(
            f"n_modes={n_modes} exceeds the alias-free capacity M/2={m / 2:g} "
            f"of a grid with {m} nodes")
    return grid_values @ _sine_matrix(n_modes, m).T / (m + 1)


def synthesize(coeffs: np.ndarray, n_points: int) -> np.ndarray:
    """Evaluate sum_k coeffs[k-1] * phi_k at the M interior nodes.

    Inverse of :func:`project` on the resolved span: for any coefficient
    vector c with N <= M, project(synthesize(c, M), N) == c to rounding.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[-1]
    if n_points < n:
        raise ValueError(f"grid with {n_points} nodes cannot carry {n} modes")
    return coeffs @ _sine_matrix(n, n_points)
