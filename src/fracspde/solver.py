"""Fully discrete stepper: backward-Euler convolution quadrature in time,
sine-spectral Galerkin in space, explicit pointwise nonlinearity, additive
fractional-noise increments.

Per mode k the update from u^{n-1} to u^n solves

    (1/tau + d_0 lam_k^s) u_k^n = u_k^{n-1}/tau
                                  - lam_k^s * sum_{i=1}^{n-1} d_i u_k^{n-i}
                                  + (P_N f(u^{n-1}))_k
                                  + sqrt(Lambda_k) dW_k^n / tau,

with d_i the CQ weights of order 1-alpha.  The implicit factor is a
per-mode positive scalar, so no linear algebra beyond a division is
needed.  The nonlinear term is evaluated pseudo-spectrally (synthesize on
a 2x-oversampled grid of M = 2N nodes, apply f pointwise, project back).
``spectral`` does both transforms as products with a cached sine matrix
up to M = 512 (N = 256) and as DST-I above; both are exact on the same
grid and quadrature, so the choice only moves rounding.

``run_trajectory`` advances one path and keeps the whole history;
``run_ensemble`` advances a batch of trajectories in lockstep, which is
what the convergence studies use.  The two take the CQ history sum
through different kernels:

* ``step`` (single path) calls ``cq.apply_cq_history``, an einsum that
  adds d_1 u^{n-1} first and gives every mode the same arithmetic
  whatever the mode count.  That keeps the modes of a linear run bitwise
  decoupled and ``trajectory.bin`` byte-stable.  The matmul on a reversed
  view that it replaced gave the same bits, but numpy cannot hand a
  negative-stride operand to BLAS and ran its scalar loop: at L=2048,
  N=128 one trajectory took 0.55 s with it and about 0.25 s with the
  einsum (2 vCPU, numpy 2.4, OpenBLAS 0.3).
* ``run_ensemble`` uses one BLAS matrix-vector product (gemv) per step
  over all n_traj*N columns.  At 128 history rows it is 1.3-2.9x faster
  than the einsum over 200-3200 columns, the study widths, but a column's
  bits can change with the number of columns, so the single path does
  not use it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cq, spectral

__all__ = [
    "ModelParams",
    "Discretization",
    "SolverError",
    "step",
    "run_trajectory",
    "run_ensemble",
    "dump_trajectory",
    "load_trajectory",
]

_NONLINEARITIES = {"zero": None, "sin": np.sin}


@dataclass(frozen=True)
class ModelParams:
    """Problem instance (alpha, s, H, m, T, f) of the stochastic model.

    ``nonlinearity`` is either one of the named tags ("sin", "zero") or a
    callable applied pointwise on grid values (assumed Lipschitz).
    """

    alpha: float
    s: float
    hurst: float
    m: float
    t_final: float = 0.01
    nonlinearity: object = "sin"

    def __post_init__(self):
        for name in ("alpha", "s", "hurst"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must be in the open interval (0, 1), got {v}")
        if not math.isfinite(self.m):
            raise ValueError(f"m must be finite, got {self.m}")
        if not (math.isfinite(self.t_final) and self.t_final > 0.0):
            raise ValueError(f"t_final must be positive and finite, got {self.t_final}")
        if isinstance(self.nonlinearity, str):
            if self.nonlinearity not in _NONLINEARITIES:
                raise ValueError(
                    f"nonlinearity must be one of {sorted(_NONLINEARITIES)} "
                    f"or a callable, got {self.nonlinearity!r}")
        elif not callable(self.nonlinearity):
            raise ValueError("nonlinearity must be a tag or a callable")

    @property
    def f(self):
        if isinstance(self.nonlinearity, str):
            return _NONLINEARITIES[self.nonlinearity]
        return self.nonlinearity


@dataclass(frozen=True)
class Discretization:
    """Mode count N, step count L and step size tau (tau * L = T)."""

    n_modes: int
    n_steps: int
    tau: float

    def __post_init__(self):
        if self.n_modes < 1 or self.n_steps < 1:
            raise ValueError("n_modes and n_steps must be >= 1")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")

    @property
    def t_final(self) -> float:
        return self.tau * self.n_steps


class SolverError(RuntimeError):
    """A state coefficient became non-finite.

    ``mode`` (1-based) and ``time_level`` locate the first bad entry;
    ``trajectory`` is its row in the batch given to the stepper, or None
    for a single path.  ``context`` prefixes the message.  The error
    pickles, so it reaches the caller from a worker process.
    """

    def __init__(self, mode: int, time_level: int, trajectory: int | None = None,
                 context: str = ""):
        self.mode, self.time_level, self.trajectory = mode, time_level, trajectory
        self.context = context
        where = "" if trajectory is None else f"trajectory {trajectory}, "
        super().__init__(f"{context}non-finite coefficient in {where}mode {mode} "
                         f"at time level {time_level}")

    def __reduce__(self):
        return type(self), (self.mode, self.time_level, self.trajectory, self.context)


def step(history: np.ndarray, weights: np.ndarray, lam_s: np.ndarray, tau: float,
         forcing_coeffs, noise_coeffs) -> np.ndarray:
    """One implicit step: history rows are u^0..u^{n-1}, returns u^n."""
    hist_sum = cq.apply_cq_history(weights[1:], history[1:])
    rhs = history[-1] / tau - lam_s * hist_sum + forcing_coeffs + noise_coeffs
    return rhs / (1.0 / tau + weights[0] * lam_s)


def _nonlinear_term(f, coeffs: np.ndarray, n_grid: int) -> np.ndarray:
    values = spectral.synthesize(coeffs, n_grid)
    return spectral.project(f(values), coeffs.shape[-1])


def run_trajectory(params: ModelParams, disc: Discretization,
                   increments: np.ndarray, noise_amplitude: float = 1.0) -> np.ndarray:
    """Advance one trajectory; returns states of shape (L+1, N).

    ``increments`` is the (L, N) array of raw fGn increments for modes
    1..N (spectral amplitudes sqrt(k^m) are applied here, not by the
    sampler). states[0] is the zero initial condition.
    """
    n_modes, n_steps, tau = disc.n_modes, disc.n_steps, disc.tau
    increments = np.asarray(increments, dtype=float)
    if increments.shape != (n_steps, n_modes):
        raise ValueError(
            f"increments shaped {increments.shape}, expected ({n_steps}, {n_modes})")
    lam_s = spectral.eigenvalues(n_modes) ** params.s
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    amp = noise_amplitude * np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    f = params.f
    n_grid = 2 * n_modes
    states = np.zeros((n_steps + 1, n_modes))
    for n in range(1, n_steps + 1):
        fterm = _nonlinear_term(f, states[n - 1], n_grid) if f is not None else 0.0
        noise = amp * increments[n - 1] / tau
        states[n] = step(states[:n], weights, lam_s, tau, fterm, noise)
        if not np.all(np.isfinite(states[n])):
            bad = int(np.flatnonzero(~np.isfinite(states[n]))[0])
            raise SolverError(bad + 1, n)
    return states


def run_ensemble(params: ModelParams, disc: Discretization,
                 increments: np.ndarray, noise_amplitude: float = 1.0) -> np.ndarray:
    """Advance a batch of trajectories; returns final coefficients (n_traj, N).

    The same scheme as ``run_trajectory`` per path, but the CQ history sum
    for all trajectories is a single contiguous matrix-vector product per
    step, which adds the terms in another order (equal to rounding).
    """
    n_modes, n_steps, tau = disc.n_modes, disc.n_steps, disc.tau
    increments = np.asarray(increments, dtype=float)
    n_traj = increments.shape[0]
    if increments.shape != (n_traj, n_steps, n_modes):
        raise ValueError(
            f"increments shaped {increments.shape}, expected "
            f"(n_traj, {n_steps}, {n_modes})")
    lam_s = spectral.eigenvalues(n_modes) ** params.s
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    w_rev = weights[::-1].copy()            # contiguous slices in the step loop
    amp = noise_amplitude * np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    # (L, n_traj*N) noise forcing, flattened to match the state layout
    forcing = np.ascontiguousarray(
        (increments * (amp / tau)).transpose(1, 0, 2).reshape(n_steps, n_traj * n_modes))
    lam_flat = np.tile(lam_s, n_traj)
    denom = 1.0 / tau + weights[0] * lam_flat
    f = params.f
    n_grid = 2 * n_modes
    states = np.zeros((n_steps + 1, n_traj * n_modes))
    for n in range(1, n_steps + 1):
        hist_sum = w_rev[n_steps - n:n_steps - 1] @ states[1:n] if n > 1 else 0.0
        rhs = states[n - 1] / tau - lam_flat * hist_sum + forcing[n - 1]
        if f is not None:
            fterm = _nonlinear_term(f, states[n - 1].reshape(n_traj, n_modes), n_grid)
            rhs += fterm.reshape(-1)
        states[n] = rhs / denom
        if not np.all(np.isfinite(states[n])):
            bad = int(np.flatnonzero(~np.isfinite(states[n]))[0])
            raise SolverError(bad % n_modes + 1, n, bad // n_modes)
    return states[n_steps].reshape(n_traj, n_modes)


# ---------------------------------------------------------------------------
# per-trajectory binary dump (little-endian float64, time-major)

_MAGIC = b"FSTR"
_HEADER_DTYPE = np.dtype([
    ("alpha", "<f8"), ("s", "<f8"), ("hurst", "<f8"), ("m", "<f8"),
    ("t_final", "<f8"), ("tau", "<f8"),
    ("n_modes", "<u8"), ("n_steps", "<u8"), ("seed", "<u8"), ("nonlinearity", "<u8"),
])
_NL_CODES = {"zero": 0, "sin": 1}


def dump_trajectory(path, states: np.ndarray, params: ModelParams,
                    disc: Discretization, master_seed: int) -> None:
    """Write one trajectory's full state history (L+1, N) to ``path``.

    Layout: magic ``FSTR``, packed little-endian header (alpha, s, hurst,
    m, t_final, tau as f8; n_modes, n_steps, seed, nonlinearity code as
    u8), then the states as float64, time level major.
    """
    states = np.asarray(states, dtype=float)
    nl_code = _NL_CODES.get(params.nonlinearity, 2)   # 2 = custom callable
    header = np.array([(params.alpha, params.s, params.hurst, params.m,
                        params.t_final, disc.tau, disc.n_modes, disc.n_steps,
                        master_seed, nl_code)],
                      dtype=_HEADER_DTYPE)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.tobytes())
        fh.write(np.ascontiguousarray(states).astype("<f8").tobytes())


def load_trajectory(path):
    """Read a dump written by :func:`dump_trajectory`; returns (states, meta)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a trajectory dump")
        header = np.frombuffer(fh.read(_HEADER_DTYPE.itemsize), dtype=_HEADER_DTYPE)[0]
        payload = np.frombuffer(fh.read(), dtype="<f8")
    n_modes, n_steps = int(header["n_modes"]), int(header["n_steps"])
    if payload.size != (n_steps + 1) * n_modes:
        raise ValueError(f"{path}: truncated payload")
    states = payload.reshape(n_steps + 1, n_modes).copy()
    codes = {v: k for k, v in _NL_CODES.items()}
    codes[2] = "custom"
    meta = {"alpha": float(header["alpha"]), "s": float(header["s"]),
            "hurst": float(header["hurst"]), "m": float(header["m"]),
            "t_final": float(header["t_final"]), "tau": float(header["tau"]),
            "n_modes": n_modes, "n_steps": n_steps, "seed": int(header["seed"]),
            "nonlinearity": codes[int(header["nonlinearity"])]}
    return states, meta
