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
non-finite state before the check, and a single path's transforms also
read the buffer's next row, a noise forcing that can overflow a
transform when no state does, so the loop runs with numpy's overflow and
invalid-value warnings off: the SolverError reports the state.  Every
step of both paths is one call of ``step``, where the update is written.
Its CQ history sum comes in two parts:

* Before the block: ``_far_history_sums``.  At the start of each block of
  ``_BLOCK`` = 16 steps, GEMMs of a Toeplitz block of weights with the
  stored states give the block's sums over all states before it, so each
  past state is read once per block instead of once per step.  The GEMMs
  reduce over panels of at most ``_PANEL`` = 256 states, added in a fixed
  order, because OpenBLAS splits a longer reduction differently at
  different thread counts.  They run in place on the leading columns, a
  multiple of 8, and the at most 7 others go through a zero-padded panel
  of 8 columns, since OpenBLAS takes an edge kernel with other bits for
  the last columns of any other count.  So a column's bits do not depend
  on the column count, and the modes of a linear run stay bitwise
  decoupled.  The far sum comes into ``step`` through its forcing.
* Within the block: ``step`` sums the block's states with
  ``cq.apply_cq_history``, an einsum that adds d_1 u^{n-1} first and
  gives every column the same arithmetic.

With the transforms of ``spectral``, whose rows do not depend on the rows
beside them either, a path has the same bits alone, in a batch of any
width at any position, and at any BLAS thread count.

At L=2048, N=128 and one BLAS thread, one trajectory took 0.22-0.26 s
with the einsum over its whole history and 0.11-0.12 s with the far sums
(2 vCPU, numpy 2.4, OpenBLAS 0.3.31); a level of L=2048 steps at N=128
and 25 paths took 3.3 s with a per-step gemv and 1.1 s blocked.

Before the loop, ``_advance`` allocates everything its steps write: the
implicit factor 1/tau + d_0 lam_s and two scratch states for ``step``
(``_step_work``), the forcing buffer that takes lam_s times the far sum,
and the result buffers of the two transforms.  ``synthesize`` reads the
states in place, in one layout for both paths: a batch's row n-1, or one
path's row n-1 over row n, its noise forcing, whose transforms are never
read and change none of the path's bits, since a transformed row does
not depend on its neighbours (see ``spectral``).  ``step`` writes u^n
straight into row n of the states, which is also its noise argument.  So
after the set-up a step allocates and copies nothing the size of a state,
and still makes one call each of ``step``, ``spectral.synthesize`` and
``spectral.project``.  At L=2048, N=128 allocation-free steps took the
single path's stepper from 97 to 93 ms, and a 25-path level at N=128,
L=256 from 58 to 55 ms (medians of 6 alternating processes of 7 runs
each, 2 vCPU, numpy 2.4, OpenBLAS 0.3.31).

``step`` is also the public one-step form: the einsum broadcasts over a
history of (n_traj, N) states, and each row of the result is bit for bit
the step of that row alone.  Its keyword-only ``out`` takes u^n with the
same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

#: steps whose sums over the states before them one round of GEMMs gives
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


def _step_work(weights: np.ndarray, lam_s: np.ndarray, tau: float, shape: tuple) -> tuple:
    """What :func:`step` needs besides its arguments: the implicit factor
    1/tau + d_0 lam_s, and two scratch states of ``shape``, for the history
    sum and the right-hand side."""
    return 1.0 / tau + weights[0] * lam_s, np.empty(shape), np.empty(shape)


def step(history: np.ndarray, weights: np.ndarray, lam_s: np.ndarray, tau: float,
         forcing_coeffs, noise_coeffs, *, out: np.ndarray | None = None,
         _work: tuple | None = None) -> np.ndarray:
    """One implicit step: history rows are u^{n0-1}..u^{n-1}, each of shape
    (N,) or (n_traj, N); returns u^n, each row with the bits of its own step.

    Row 0 of ``history`` is not summed, so ``history`` = u^0..u^{n-1} is
    the whole step.  With n0 > 1 the sum over u^1..u^{n0-1} must come in
    through ``forcing_coeffs``, as -lam_s times it: that is how ``_advance``
    steps both paths, with n0 the first step of n's block.

    u^n has the shape of a history row.  It is a new array, or ``out``, a
    writeable C-contiguous float64 array of that shape, overwritten with
    the same bits and returned; ``out`` may be ``noise_coeffs`` itself, as
    in ``_advance``, which also passes the run's :func:`_step_work` as
    ``_work``, so that its steps allocate nothing.
    """
    if _work is None:
        _work = _step_work(weights, lam_s, tau, history.shape[1:])
    denominator, hist_sum, rhs = _work
    out = spectral._out_array(out, rhs.shape)
    # rhs = history[-1] / tau - lam_s * hist_sum + forcing + noise, in that order
    cq.apply_cq_history(weights[1:], history[1:], out=hist_sum)
    np.multiply(lam_s, hist_sum, out=hist_sum)
    np.divide(history[-1], tau, out=rhs)
    rhs -= hist_sum
    rhs += forcing_coeffs
    np.add(rhs, noise_coeffs, out=out)
    return np.divide(out, denominator, out=out)


def _far_history_sums(states: np.ndarray, weights: np.ndarray):
    """Yield, for n = 1..L, the part of the n-th history sum over the states
    before n's block: sum_{j=1}^{n0-1} d_{n-j} u^j, n0 being the block's
    first step.  Each sum has the shape of a state and is a view that the
    next block overwrites.

    ``states`` is the C-contiguous (L, ...) buffer whose row j-1 is u^j,
    read as the caller fills it: a block's sums need only the rows before
    the block.  A buffer that is not C-contiguous raises a ValueError: its
    flattened (L, width) rows would be a copy, and the sums would read
    stale states.  At the block's start, GEMMs give the sums one panel of
    at most ``_PANEL`` states at a time, added in panel order, on the
    leading columns in place and on the at most 7 others padded to 8 (see
    the module docstring).
    """
    if not states.flags.c_contiguous:
        raise ValueError("the states buffer must be C-contiguous")
    n_steps = states.shape[0]
    flat = states.reshape(n_steps, -1)                # row j-1 is u^j
    width = flat.shape[1]
    lead = width - width % 8
    far = np.zeros((_BLOCK, width))                   # the first block has none
    pad, pad_sums = np.zeros((_PANEL, 8)), np.zeros((_BLOCK, 8))
    scratch, pad_scratch = np.empty((_BLOCK, width)), np.empty((_BLOCK, 8))
    # row k holds d_{K-k} .. d_{K-k-_PANEL+1}, K = len(weights) - 1, and
    # zeros past d_0; a Toeplitz block is a copy of consecutive rows
    windows = sliding_window_view(np.concatenate([weights[::-1], np.zeros(_PANEL)]), _PANEL)
    for n0 in range(1, n_steps + 1, _BLOCK):
        rows = min(_BLOCK, n_steps + 1 - n0)
        for p0 in range(1, n0, _PANEL):
            p1 = min(p0 + _PANEL, n0)
            k0 = len(weights) - 1 - n0 + p0           # row r: d_{n0+r-p0} ..
            toeplitz = np.ascontiguousarray(windows[k0 - rows + 1:k0 + 1][::-1, :p1 - p0])
            gemms = [(flat[p0 - 1:p1 - 1, :lead], far[:rows, :lead], scratch[:rows, :lead])]
            if lead < width:
                pad[:p1 - p0, :width - lead] = flat[p0 - 1:p1 - 1, lead:]
                gemms.append((pad[:p1 - p0], pad_sums[:rows], pad_scratch[:rows]))
            for panel, sums, product in gemms:
                if p0 == 1:
                    np.matmul(toeplitz, panel, out=sums)
                else:
                    sums += np.matmul(toeplitz, panel, out=product)
        far[:rows, lead:] = pad_sums[:rows, :width - lead]
        yield from far[:rows].reshape((rows,) + states.shape[1:])


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
    amp = np.arange(1, n_modes + 1, dtype=float) ** (0.5 * params.m)
    f = params.f
    rows = states[1:]                         # row n-1: u^n
    # the noise forcing amp * inc / tau, rounded as a per-step product is
    np.multiply(amp, rows, out=rows)
    np.divide(rows, tau, out=rows)
    shape = states.shape[1:]                  # one state
    width = states[0].size // n_modes         # paths
    n_rows = max(width, 2)                    # rows of each transform
    work = _step_work(weights, lam_s, tau, shape)
    forcing = np.empty(shape)                 # fterm - lam_s * far, fterm 0 without f
    # the transforms read n_rows rows of the buffer, a batch's u^{n-1} or one
    # path's u^{n-1} over row n, its noise forcing, and write into buffers of
    # their own; row n's results are never read, and a row's bits do not
    # depend on its neighbours (see spectral)
    grid, fterm = np.zeros((n_rows, 2 * n_modes)), np.zeros((n_rows, n_modes))
    grid_rows = grid[:width].reshape(shape[:-1] + (2 * n_modes,))    # the paths' rows
    fterm_rows = 0.0 if f is None else fterm[:width].reshape(shape)
    # steps after a bad one meet inf, and one path's row n can overflow a
    # transform when no state does
    with np.errstate(over="ignore", invalid="ignore"):
        for n, far in enumerate(_far_history_sums(rows, weights), 1):
            if f is not None:
                spectral.synthesize(states[n - 1:n + 1].reshape(-1, n_modes)[:n_rows],
                                    2 * n_modes, out=grid)
                if isinstance(f, np.ufunc):
                    f(grid_rows, out=grid_rows)
                else:
                    grid_rows[...] = f(grid_rows)
                spectral.project(grid, n_modes, out=fterm)
            np.multiply(lam_s, far, out=forcing)
            np.subtract(fterm_rows, forcing, out=forcing)
            n0 = n - (n - 1) % _BLOCK         # the first step of n's block
            # step sums the block, the far sum comes in as forcing
            step(states[n0 - 1:n], weights, lam_s, tau, forcing, states[n],
                 out=states[n], _work=work)
            if n == n0 + _BLOCK - 1 or n == n_steps:
                _check_finite(states[n0:n + 1], n0)
    return states


def _states(increments: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """The buffer a run steps in: ``out``, or a new array, with the time-major
    ``increments`` copied into rows 1.. and row 0 set to u^0 = 0.

    ``out`` must be a writeable C-contiguous float64 array with one row
    more than ``increments``.  The copy is right under any overlap of the
    two, and costs nothing when ``increments`` is ``out[1:]`` itself.
    """
    out = spectral._out_array(out, (increments.shape[0] + 1,) + increments.shape[1:])
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
    draws it.  Each path steps through the same kernels as in
    ``run_trajectory``, so row i is bit for bit the last state of
    ``run_trajectory`` on ``increments[:, i]``, whatever the batch width,
    the row's position in it and the BLAS thread count.  The batch steps
    in a new (L+1, n_traj, N) array, or in ``out``, a writeable
    C-contiguous float64 array of that shape, which holds u^0..u^L on
    return.  ``increments`` is left as it is unless it overlaps ``out``;
    as ``out[1:]`` itself, the batch steps in its own draw.  The result is
    a copy that owns its memory, not a view of the states, so a new array
    is freed when this returns.
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
        raise ValueError(f"{path}: payload of {len(payload)} bytes, expected "
                         f"{8 * (n_steps + 1) * n_modes} for {n_steps + 1} x {n_modes} float64")
    states = np.frombuffer(payload, dtype="<f8").reshape(n_steps + 1, n_modes).copy()
    codes = {v: k for k, v in _NL_CODES.items()}
    codes[2] = "custom"
    code = meta["nonlinearity"]
    if code not in codes:
        raise ValueError(f"{path}: unknown nonlinearity code {code}")
    meta["nonlinearity"] = codes[code]
    return states, meta
