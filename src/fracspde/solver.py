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
``spectral`` does both transforms as products with a cached (N, 2N) sine
matrix.

One core, ``_advance``, runs the time loop for both entry points, in
place, in one kind of buffer: (L+1, N) for one path, a C-contiguous
time-major (L+1, n_traj, N) array for a batch.  Row 0 is u^0 = 0, and
row n holds step n's raw increment on entry and u^n on return; before
the loop two whole-buffer passes turn each increment into its noise
forcing sqrt(k^m) dW_k^n / tau, with the two roundings of the per-step
product.  ``run_trajectory`` and ``run_ensemble`` (the batch in
lockstep, as the convergence studies run it) build that buffer the same
way, in ``_states``: their keyword-only ``out``, or a new array, with the
increments copied into rows 1.. by ``np.copyto``, which is right under
any overlap.  So a caller that draws the increments into ``out[1:]``, as
the trajectory command and a study chunk do, steps in its own draw and
holds no second array of that size.  Finiteness is checked once per
``_BLOCK`` steps and at the last step, and the first non-finite entry in
row order names the step.  Up to ``_BLOCK - 1`` steps may run on a
non-finite state before the check, so the loop runs with numpy's
invalid-value warnings off: the SolverError reports the state.  The
update is written only in ``_solve``, which takes the CQ history sum
from one of two kernels:

* One path: ``step``, which sums with ``cq.apply_cq_history``, an einsum
  that adds d_1 u^{n-1} first and gives every mode the same arithmetic
  whatever the mode count.  That keeps the modes of a linear run bitwise
  decoupled and ``trajectory.bin`` byte-stable.  The matmul on a reversed
  view that it replaced gave the same bits but ran numpy's scalar loop:
  at L=2048, N=128 one trajectory took 0.55 s with it and about 0.25 s
  with the einsum (2 vCPU, numpy 2.4, OpenBLAS 0.3).
* A batch: ``_blocked_history_sums``.  At the start of each block of
  ``_BLOCK`` = 16 steps, GEMMs of a Toeplitz block of weights with the
  stored states give the block's sums over all earlier states; each step
  then adds a gemv over the at most 15 states of its own block.  The
  arithmetic is that of one gemv per step, but each past state is read
  once per block instead of once per step: a level of L=2048 steps at
  N=128, 25 paths and one BLAS thread took 3.3 s with the per-step gemv
  and 1.1 s blocked (2 vCPU, numpy 2.4, OpenBLAS 0.3.31).  The GEMMs
  reduce over panels of at most ``_PANEL`` = 256 states, added in a fixed
  order, because OpenBLAS splits a longer reduction differently at
  different thread counts.  A column's bits can change with the number
  of columns, so the single path does not use it.

``step`` is also the public one-step form: the einsum broadcasts over a
history of (n_traj, N) states, and each row of the result is bit for bit
the step of that row alone.
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

#: steps of a batch whose sums over earlier states one round of GEMMs gives
_BLOCK = 16
#: past states per GEMM: OpenBLAS 0.3.31 splits a longer reduction
#: differently at different thread counts, which changes its bits
_PANEL = 256


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


def _solve(prev: np.ndarray, hist_sum, lam_s: np.ndarray, tau: float, denom,
           forcing_coeffs, noise_coeffs, out=None) -> np.ndarray:
    """u^n from u^{n-1} = ``prev``, the CQ history sum and denom = 1/tau + d_0 lam_s,
    written into ``out`` if given; ``noise_coeffs`` may be ``out`` itself."""
    rhs = prev / tau - lam_s * hist_sum + forcing_coeffs + noise_coeffs
    return np.divide(rhs, denom, out=out)


def step(history: np.ndarray, weights: np.ndarray, lam_s: np.ndarray, tau: float,
         forcing_coeffs, noise_coeffs) -> np.ndarray:
    """One implicit step: history rows are u^0..u^{n-1}, each of shape (N,)
    or (n_traj, N); returns u^n, each row with the bits of its own step."""
    hist_sum = cq.apply_cq_history(weights[1:], history[1:])
    return _solve(history[-1], hist_sum, lam_s, tau, 1.0 / tau + weights[0] * lam_s,
                  forcing_coeffs, noise_coeffs)


def _blocked_history_sums(states: np.ndarray, weights: np.ndarray):
    """Yield a batch's history sums sum_{j=1}^{n-1} d_{n-j} u^j for n = 1..L.

    ``states`` is the C-contiguous (L, n_traj, N) buffer whose row j-1 is
    u^j, and is read as the caller fills it: the n-th sum needs rows up to
    n-2 only.  A buffer that is not C-contiguous raises a ValueError: its
    flattened rows would be a copy, and the sums would read stale states.
    At the start of each block of ``_BLOCK`` steps, GEMMs of a Toeplitz
    block of weights with the states give the block's sums over all
    earlier states, one panel of at most ``_PANEL`` states at a time, added
    in panel order.  Each step then adds a gemv over the states of its own
    block.
    """
    if not states.flags.c_contiguous:
        raise ValueError("the states buffer must be C-contiguous")
    n_steps = states.shape[0]
    flat = states.reshape(n_steps, -1)                # row j-1 is u^j
    w_rev = weights[:0:-1].copy()                     # d_{L-1} .. d_1
    far = np.zeros((_BLOCK, flat.shape[1]))           # the first block has none
    for n0 in range(1, n_steps + 1, _BLOCK):
        rows = min(_BLOCK, n_steps + 1 - n0)
        for p0 in range(1, n0, _PANEL):
            p1 = min(p0 + _PANEL, n0)
            toeplitz = weights[np.arange(n0, n0 + rows)[:, None] - np.arange(p0, p1)]
            if p0 == 1:
                np.matmul(toeplitz, flat[p0 - 1:p1 - 1], out=far[:rows])
            else:
                far[:rows] += toeplitz @ flat[p0 - 1:p1 - 1]
        for r in range(rows):
            near = w_rev[n_steps - 1 - r:] @ flat[n0 - 1:n0 - 1 + r]   # d_r .. d_1
            yield (far[r] + near).reshape(states.shape[1:])


def _check_finite(rows: np.ndarray, first: int) -> None:
    """Raise the SolverError of the first non-finite entry, in row order, of
    ``rows``, the states u^first .. u^{first+len(rows)-1}."""
    bad = ~np.isfinite(rows)
    if bad.any():
        row, *traj, mode = np.unravel_index(np.argmax(bad), rows.shape)
        raise SolverError(int(mode) + 1, first + int(row), int(traj[0]) if traj else None)


def _advance(params: ModelParams, disc: Discretization, states: np.ndarray) -> np.ndarray:
    """Step ``states`` in place and return it.

    ``states`` is the buffer of :func:`_states`, (L+1, N) for one path or
    (L+1, n_traj, N) for a batch: row 0 is u^0 = 0, and row n holds step
    n's raw increment on entry, its noise forcing before the loop and u^n
    on return.
    """
    n_modes, tau, n_steps = disc.n_modes, disc.tau, disc.n_steps
    lam_s = spectral.eigenvalues(n_modes) ** params.s
    weights = cq.cq_weights(1.0 - params.alpha, tau, n_steps)
    denom = 1.0 / tau + weights[0] * lam_s
    amp = np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    f = params.f
    rows = states[1:]                         # row n-1: u^n
    # the noise forcing amp * inc / tau, rounded as a per-step product is
    np.multiply(amp, rows, out=rows)
    np.divide(rows, tau, out=rows)
    batch_sums = _blocked_history_sums(rows, weights) if states.ndim == 3 else None
    checked = 0                               # states[1:checked + 1] are finite
    with np.errstate(invalid="ignore"):       # steps after a bad one meet inf
        for n in range(1, n_steps + 1):
            prev = states[n - 1]
            fterm = 0.0 if f is None else spectral.project(
                f(spectral.synthesize(prev, 2 * n_modes)), n_modes)
            if batch_sums is None:
                states[n] = step(states[:n], weights, lam_s, tau, fterm, states[n])
            else:
                _solve(prev, next(batch_sums), lam_s, tau, denom, fterm, states[n],
                       out=states[n])
            if n % _BLOCK == 0 or n == n_steps:
                _check_finite(states[checked + 1:n + 1], checked + 1)
                checked = n
    return states


def _states(increments: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The buffer a run steps in: ``out``, or a new array, with the time-major
    ``increments`` copied into rows 1.. and row 0 set to u^0 = 0.

    ``out`` must be a writeable C-contiguous float64 array with one row
    more than ``increments``.  The copy is right under any overlap of the
    two, and costs nothing when ``increments`` is ``out[1:]`` itself.
    """
    shape = (increments.shape[0] + 1,) + increments.shape[1:]
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float
              and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"out must be a writeable C-contiguous float64 array shaped "
                         f"{shape}, got {getattr(out, 'dtype', type(out).__name__)} "
                         f"{np.shape(out)}")
    np.copyto(out[1:], increments)
    out[0] = 0.0
    return out


def run_trajectory(params: ModelParams, disc: Discretization,
                   increments: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Advance one trajectory; returns states of shape (L+1, N).

    ``increments`` is the (L, N) array of raw fGn increments for modes
    1..N (spectral amplitudes sqrt(k^m) are applied here, not by the
    sampler).  states[0] is the zero initial condition.  The states are a
    new array, or ``out``, a writeable C-contiguous float64 (L+1, N) array
    that is overwritten and returned.  ``increments`` is left as it is
    unless it overlaps ``out``; as ``out[1:]`` itself, the path steps in
    its own draw and needs no second array.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.shape != (disc.n_steps, disc.n_modes):
        raise ValueError(f"increments shaped {increments.shape}, "
                         f"expected ({disc.n_steps}, {disc.n_modes})")
    return _advance(params, disc, _states(increments, out))


def run_ensemble(params: ModelParams, disc: Discretization, increments: np.ndarray,
                 *, out: np.ndarray | None = None) -> np.ndarray:
    """Advance a batch of trajectories; returns final coefficients (n_traj, N).

    ``increments`` is time-major, (L, n_traj, N), as ``fbm.mode_increments``
    draws it.  Each path follows ``run_trajectory``'s scheme, but the batch
    sums its history in blocks of GEMMs and gemvs
    (``_blocked_history_sums``): a path equals its ``run_trajectory`` run
    to rounding, its bits can change with the batch width, and they do
    not change with the BLAS thread count.  The batch steps in a new
    (L+1, n_traj, N) array, or in ``out``, a writeable C-contiguous float64
    array of that shape, which holds u^0..u^L on return.  ``increments``
    is left as it is unless it overlaps ``out``; as ``out[1:]`` itself,
    the batch steps in its own draw.  The result is a copy that owns its
    memory, not a view of the states, so a new array is freed when this
    returns.
    """
    increments = np.asarray(increments, dtype=float)
    if increments.ndim != 3 or increments.shape[::2] != (disc.n_steps, disc.n_modes):
        raise ValueError(f"increments shaped {increments.shape}, "
                         f"expected ({disc.n_steps}, n_traj, {disc.n_modes})")
    return _advance(params, disc, _states(increments, out))[-1].copy()


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
    # a callable need not be hashable, so only a tag is looked up
    nl = params.nonlinearity
    nl_code = _NL_CODES[nl] if isinstance(nl, str) else 2   # 2 = custom callable
    header = np.array([(params.alpha, params.s, params.hurst, params.m,
                        params.t_final, disc.tau, disc.n_modes, disc.n_steps,
                        master_seed, nl_code)],
                      dtype=_HEADER_DTYPE)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(header.tobytes())
        # the states' own buffer when they are C-ordered little-endian
        # float64, as a run's are: no copy of the whole history
        fh.write(memoryview(np.ascontiguousarray(states, dtype="<f8")))


def load_trajectory(path):
    """Read a dump written by :func:`dump_trajectory`; returns (states, meta)."""
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError(f"{path}: not a trajectory dump")
        header = fh.read(_HEADER_DTYPE.itemsize)
        payload = fh.read()
    if len(header) != _HEADER_DTYPE.itemsize:
        raise ValueError(f"{path}: truncated header")
    header = np.frombuffer(header, dtype=_HEADER_DTYPE)[0]
    meta = {name: header[name].item() for name in _HEADER_DTYPE.names}
    n_modes, n_steps = meta["n_modes"], meta["n_steps"]
    if len(payload) != 8 * (n_steps + 1) * n_modes:
        raise ValueError(f"{path}: truncated payload")
    states = np.frombuffer(payload, dtype="<f8").reshape(n_steps + 1, n_modes).copy()
    codes = {v: k for k, v in _NL_CODES.items()}
    codes[2] = "custom"
    code = meta["nonlinearity"]
    if code not in codes:
        raise ValueError(f"{path}: unknown nonlinearity code {code}")
    meta["nonlinearity"] = codes[code]
    return states, meta
