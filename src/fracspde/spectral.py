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

Both multiply by a cached, read-only sine matrix B[k-1, j-1] = phi_k(x_j):
synthesis is c @ B, with B of shape (N, M), and projection is
v @ B.T / (M+1), with B.T kept as its own C-contiguous (M, N) copy.  The
two hold 8*N*M bytes each, 16*N^2 on the solver's M = 2N grid.

A row's result does not depend on how many rows are transformed with it,
nor on what the other rows hold: OpenBLAS gives a GEMM row the same bits
beside rows of zeros, huge values or NaN.  It gives a one-row product
(gemv) and a product with a transposed operand at small row counts other
bits than a GEMM row, so the transposed matrix is a C-contiguous copy
and a public one-row call goes through a two-row product with a zero
row.  Rows are the entries of the leading axes, so a path stepped alone
and the same path in a batch get the same bits.  The self-test checks
both properties on the installed BLAS.

Both transforms take a keyword-only ``out``, a writeable C-contiguous
float64 array of the result's shape, which the GEMM writes in place and
which is returned.  The stepper passes its own buffers, and never one
row: a single path's state goes in over the next row of its buffer, two
real rows, and relies on row independence.  So a step allocates no
array for either transform.  At N = 128 on a 2N grid a transform of a
two-row input took 6-9 us, 4-6 us of it the GEMM, which reads the whole
256 KB matrix (2 vCPU, numpy 2.4, OpenBLAS 0.3.31).

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


@functools.lru_cache(maxsize=16)
def _projection_matrix(n_modes: int, n_points: int) -> np.ndarray:
    """Read-only C-contiguous copy of the (M, N) transpose of the sine matrix."""
    mat = np.ascontiguousarray(_sine_matrix(n_modes, n_points).T)
    mat.setflags(write=False)
    return mat


def _out_array(out, shape: tuple) -> np.ndarray:
    """``out``, checked to be a writeable C-contiguous float64 array shaped
    ``shape``, or a new array of that shape when it is None."""
    if out is None:
        return np.empty(shape)
    if not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array shaped "
                         f"{shape}, got {getattr(out, 'dtype', type(out).__name__)} "
                         f"{np.shape(out)}")
    return out


def _rows_times(values: np.ndarray, matrix: np.ndarray, out) -> np.ndarray:
    """``values @ matrix`` over the last axis into ``out`` (see
    :func:`_out_array`), each row with the bits it has in a GEMM of two
    rows or more (see the module docstring)."""
    out = _out_array(out, values.shape[:-1] + matrix.shape[1:])
    if values.size == values.shape[-1]:         # one row: a zero row below it
        padded = np.zeros((2, values.shape[-1]))
        padded[0] = values
        out[...] = (padded @ matrix)[0].reshape(out.shape)
        return out
    np.matmul(values.reshape(-1, values.shape[-1]), matrix,
              out=out.reshape(-1, matrix.shape[1]))
    return out


def eigenvalues(n_modes: int) -> np.ndarray:
    """Eigenvalues [lambda_1, ..., lambda_N], lambda_k = (k*pi)^2."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    return (np.arange(1, n_modes + 1) * math.pi) ** 2


def project(grid_values: np.ndarray, n_modes: int, *, out=None) -> np.ndarray:
    """Sine coefficients (u, phi_k), k = 1..N, of grid samples of u.

    ``grid_values`` holds samples on the M interior nodes x_j = j/(M+1)
    along the last axis.  The quadrature has the
    uniform weight 1/(M+1); it reproduces exact L^2 inner products for u
    in span{phi_1..phi_M}.

    N is capped at M/2 so that projections of *nonlinearly transformed*
    fields stay alias-free (2x oversampling).

    The result is a new array, or ``out``, a writeable C-contiguous
    float64 array shaped ``grid_values.shape[:-1] + (N,)``, overwritten
    with the same bits and returned.
    """
    grid_values = np.asarray(grid_values, dtype=float)
    m = grid_values.shape[-1]
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if 2 * n_modes > m:
        raise ValueError(
            f"n_modes={n_modes} exceeds the alias-free capacity M/2={m / 2:g} "
            f"of a grid with {m} nodes")
    out = _rows_times(grid_values, _projection_matrix(n_modes, m), out)
    return np.divide(out, m + 1, out=out)


def synthesize(coeffs: np.ndarray, n_points: int, *, out=None) -> np.ndarray:
    """Evaluate sum_k coeffs[k-1] * phi_k at the M interior nodes.

    Inverse of :func:`project` on the resolved span: for any coefficient
    vector c with N <= M, project(synthesize(c, M), N) == c to rounding.

    The result is a new array, or ``out``, a writeable C-contiguous
    float64 array shaped ``coeffs.shape[:-1] + (M,)``, overwritten with
    the same bits and returned.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[-1]
    if n_points < n:
        raise ValueError(f"grid with {n_points} nodes cannot carry {n} modes")
    return _rows_times(coeffs, _sine_matrix(n, n_points), out)
