"""Fractional Brownian motion increments on a uniform time grid.

:func:`sample_fbm_circulant` draws the stationary increment vector
(fractional Gaussian noise) of an fBm with Hurst index H in (0,1), exact
in distribution, by circulant embedding (Davies–Harte) in O(L log L).
The embedding of fractional Gaussian noise is nonnegative definite for
every H, so a materially negative eigenvalue signals an implementation
bug and raises.  Each call transforms the half spectrum of all its rows
with one inverse real FFT, for every L >= 1; one ``standard_normal(out=)``
call of its rng fills the normals of all rows.  The tests check it
against a dense Cholesky sampler, ``sample_fbm_cholesky`` in
``tests/oracles.py``.

Ensembles for the noise expansion W^H_Q = sum_k sqrt(Lambda_k) phi_k W^H_k
are generated by :func:`mode_increments`: one counter-based RNG stream per
(mode, trajectory) pair, derived from a single master seed via
``SeedSequence(master_seed, spawn_key=(mode, trajectory))``.  That makes
ensembles reproducible, independent of chunking/parallel schedule, and
subset-stable (mode k, trajectory i always sees the same path regardless
of how many other modes or trajectories are generated).  Each mode is one
sampler call over the trajectories' streams.  All modes share the
eigenvalue roots that the call computes once, and the normals and complex
half-spectrum buffers that it allocates once, so their pages are faulted in
once per call, not once per mode; each mode's streams object carries
them to its sampler call and fills one row of normals from each stream.
Every stream still consumes its normals in the fixed per-row layout, so
the batching does not change a single draw.  Each mode's block is written
transposed into a tile of ``_TILE`` = 8 modes, and each tile into the
time-major output with one copy, where writing a mode's column of the
output directly strides N * 8 bytes per entry: at N = 128 that write took
12.5 ms for L = 256 and 25 paths and 1.8 ms for L = 2048 and one path,
and the tiled one 5.4 ms and 0.9 ms (2 vCPU, numpy 2.4).  The tile holds
8 x L x n_traj floats whatever N is, 0.4 MB at L = 256 and 25 paths.

A stream is the Philox generator that ``SeedSequence`` keys; everything
else in its state starts at zero.  So :func:`mode_increments` computes
the keys of all its streams in one pass of uint32 array arithmetic (the
``SeedSequence`` hash, :func:`_philox_keys`) and draws every row from one
Philox generator re-keyed per row, instead of building a ``SeedSequence``,
a ``Philox`` and a ``Generator`` per stream.  The draws are those of
:func:`_stream`, bit for bit.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

__all__ = [
    "increment_covariance",
    "sample_fbm_circulant",
    "mode_increments",
]


def _check_hurst(h: float) -> None:
    if not 0.0 < h < 1.0:
        raise ValueError(f"Hurst index must be in (0, 1), got {h}")


def increment_covariance(h: float, tau: float, lag: np.ndarray) -> np.ndarray:
    """Autocovariance gamma(j) = E[dW_n dW_{n+j}] of the increment process.

    gamma(j) = tau^2H/2 * (|j+1|^2H + |j-1|^2H - 2|j|^2H).

    For |j| >= 2 that is computed as
    tau^2H/2 * j^2H * (expm1(2H log1p(1/j)) + expm1(2H log1p(-1/j))): the
    direct second difference of j^2H cancels about log10(j^2) digits, 1e-6
    of the value at lag 65536, and the circulant embedding of H near 1
    then looks negative at long L.  A tau whose tau^2H overflows or
    underflows to 0 is refused with a ValueError that names H and tau.
    """
    _check_hurst(h)
    j = np.abs(np.asarray(lag, dtype=float))
    two_h = 2 * h
    try:
        scale = tau ** two_h
    except OverflowError:                   # a Python float's power raises
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"H={h!r}, tau={tau!r}: tau^(2H) = {scale!r} is not a "
                         f"positive finite float")
    direct = (j + 1) ** two_h + np.abs(j - 1) ** two_h - 2 * j ** two_h
    long_lag = np.maximum(j, 2.0)              # the long-lag form, warning-free below 2
    factored = long_lag ** two_h * (np.expm1(two_h * np.log1p(1.0 / long_lag))
                                    + np.expm1(two_h * np.log1p(-1.0 / long_lag)))
    return 0.5 * scale * np.where(j >= 2, factored, direct)


def _sampler_buffers(rows: int, n_steps: int) -> tuple:
    """New normals (rows, 2L) and complex half-spectrum (rows, L+1) buffers
    for a sampler call over ``rows`` rows of ``n_steps`` increments."""
    return np.empty((rows, 2 * n_steps)), np.empty((rows, n_steps + 1), dtype=complex)


def _circulant_root(h: float, tau: float, n_steps: int) -> np.ndarray:
    """Square roots of the first L+1 eigenvalues of the circulant of size
    2L that embeds gamma(0..L): its first row is real and even, so its 2L
    eigenvalues, all checked here, are the Hermitian FFT of gamma(0..L)."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    eigs = np.fft.hfft(increment_covariance(h, tau, np.arange(n_steps + 1)))
    if eigs.min() < -1e-10 * eigs.max():
        raise ValueError(
            f"circulant embedding for H={h}, L={n_steps} has eigenvalue "
            f"{eigs.min():.3e}; the fGn embedding must be nonnegative definite")
    return np.sqrt(np.clip(eigs[:n_steps + 1], 0.0, None))


def sample_fbm_circulant(h: float, tau: float, n_steps: int,
                         rng: np.random.Generator, n_paths: int = 1) -> np.ndarray:
    """Davies–Harte fGn sampler; returns (rows, L).

    One ``rng.standard_normal(out=z)`` call fills the 2L normals of each
    row.  ``rng`` is a Generator, which fills ``n_paths`` rows in order, or
    the streams object of a :func:`mode_increments` call, which brings its
    own rows and fills row i from its i-th stream.

    The covariance sequence gamma(0..L) is embedded in a circulant of size
    2L whose eigenvalues (the Hermitian FFT of gamma(0..L)) are provably
    nonnegative for fractional Gaussian noise; tiny negative rounding
    residue is clamped, anything materially negative raises.  Each row's
    spectrum is Hermitian, so only its half, entries 0..L, is built, and
    one inverse real FFT transforms all rows; the result is a view of the
    first L columns of that new (rows, 2L) array.  The roots are computed
    once per call, and the normals and the half spectrum are assembled in
    buffers the call allocates.  A :func:`mode_increments` call instead
    shares one set of roots and buffers between its modes, through each
    mode's streams object.

    Draw layout (fixed; part of the reproducibility contract): for each
    row, 2L standard normals are consumed as
    [xi_0, xi_L, Re xi_1..Re xi_{L-1}, Im xi_1..Im xi_{L-1}];
    for L = 1 that is [xi_0, xi_1].
    """
    if isinstance(rng, _Rekeyed):
        root, (z, xi) = rng.root, rng.buffers
    else:
        root = _circulant_root(h, tau, n_steps)
        z, xi = _sampler_buffers(n_paths, n_steps)
    rng.standard_normal(out=z)
    m = 2 * n_steps
    # xi_j = sqrt(eigs_j) * (sqrt(m/2) * (Re + i Im)) for j = 0..L; each
    # part is written in place with the products of that complex
    # expression in its order
    re, im = xi.real, xi.imag
    np.multiply(z[:, 0], math.sqrt(m), out=re[:, 0])
    np.multiply(z[:, 1], math.sqrt(m), out=re[:, n_steps])
    im[:, 0] = im[:, n_steps] = 0.0
    np.multiply(z[:, 2:n_steps + 1], math.sqrt(m / 2.0), out=re[:, 1:n_steps])
    np.multiply(z[:, n_steps + 1:], math.sqrt(m / 2.0), out=im[:, 1:n_steps])
    re *= root
    im *= root
    return np.fft.irfft(xi, m, axis=-1)[:, :n_steps]


def _stream(master_seed: int, mode: int, trajectory: int) -> np.random.Generator:
    seq = np.random.SeedSequence(master_seed, spawn_key=(mode, trajectory))
    return np.random.Generator(np.random.Philox(seq))


# numpy's SeedSequence hash (O'Neill's seed_seq_fe): a pool of four uint32
# words, its hash and mix multipliers, and the 16-bit xorshift
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _philox_keys(master_seed: int, modes: Sequence[int],
                 trajectories: Sequence[int]) -> np.ndarray:
    """Philox keys of the (mode, trajectory) streams, shape (modes, trajectories, 2).

    Entry [i, j] is ``SeedSequence(master_seed, spawn_key=(modes[i],
    trajectories[j])).generate_state(2, np.uint64)``, the key of that
    :func:`_stream`.  The pool mixing and output hash of ``SeedSequence``
    run once over all pairs as uint32 array arithmetic, which wraps as its
    C code does.  An index of 2**32 or more is two entropy words, so its
    pairs are keyed by ``SeedSequence`` itself.
    """
    shape = (len(modes), len(trajectories))
    seed_words = [master_seed >> shift & _MASK32
                  for shift in range(0, max(master_seed.bit_length(), 1), 32)]
    # with a spawn key, short run entropy is zero-padded to the pool size
    words = [np.full(shape, w, dtype=np.uint32)
             for w in seed_words + [0] * (_POOL_SIZE - len(seed_words))]
    words.append(np.broadcast_to(np.array(
        [k & _MASK32 for k in modes], dtype=np.uint32)[:, None], shape))
    words.append(np.broadcast_to(np.array(
        [t & _MASK32 for t in trajectories], dtype=np.uint32), shape))

    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ (value >> 16)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> 16)

    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    const = _INIT_B
    state = []
    for word in pool:
        word = word ^ const
        const = const * _MULT_B & _MASK32
        word = word * const
        state.append((word ^ (word >> 16)).astype(np.uint64))
    keys = np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=-1)
    wide = (np.array([k > _MASK32 for k in modes], dtype=bool)[:, None]
            | np.array([t > _MASK32 for t in trajectories], dtype=bool))
    for i, j in zip(*np.nonzero(wide)):
        keys[i, j] = np.random.SeedSequence(
            master_seed, spawn_key=(modes[i], trajectories[j])).generate_state(2, np.uint64)
    return keys


class _Rekeyed:
    """A row source for :func:`sample_fbm_circulant`: row i of its normals
    comes from the stream ``Generator(Philox(key=keys[i]))``, drawn by one
    Generator re-keyed in place per row.  It also carries the circulant
    ``root`` and the sampler ``buffers`` of its :func:`mode_increments`
    call, which :func:`sample_fbm_circulant` uses in place of its own."""

    def __init__(self, gen: np.random.Generator, keys: list, root: np.ndarray,
                 buffers: tuple) -> None:
        self._gen, self._keys = gen, keys
        self.root, self.buffers = root, buffers

    def standard_normal(self, *, out: np.ndarray) -> None:
        """Fill row i of ``out`` with standard normals from the i-th stream."""
        bits = self._gen.bit_generator
        for row, key in zip(out, self._keys):
            # the state Philox starts in: counter 0, buffer empty
            bits.state = {"bit_generator": "Philox",
                          "state": {"counter": [0, 0, 0, 0], "key": key},
                          "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                          "has_uint32": 0, "uinteger": 0}
            self._gen.standard_normal(out=row)


#: modes per tile of :func:`mode_increments`'s write
_TILE = 8


def _index(name: str, value) -> int:
    """``value`` as a non-negative Python int; a ValueError names it otherwise."""
    try:
        index = operator.index(value)
    except TypeError:
        index = -1
    if index < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return index


def mode_increments(h: float, tau: float, n_steps: int, master_seed: int,
                    n_modes: int, trajectories, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """fGn increments for modes 1..n_modes and the given trajectory indices.

    Returns a time-major array of shape (n_steps, len(trajectories),
    n_modes); entry [n, i, k-1] is dW^H_k over the n-th step for trajectory
    ``trajectories[i]``.  Increments are *unit-amplitude*: the noise
    spectral weights sqrt(Lambda_k) are applied by the solver, so the same
    ensemble can be reused across different m.

    Entry [:, i, k-1] is drawn from the stream ``_stream(master_seed, k,
    trajectories[i])``, bit for bit; the seed and the trajectory indices
    must be non-negative integers.  All the streams' Philox keys are
    computed in one vectorised pass (:func:`_philox_keys`), and one
    Philox generator, re-keyed per row, draws them.  One sampler call per
    mode draws all trajectories of that mode, and its block is written
    transposed into a tile of ``_TILE`` modes; each tile is copied into
    the result once.  The circulant eigenvalue roots are
    computed once per call, and the sampler's buffers allocated once per
    call; each mode's streams object carries them to its sampler call.

    Time-major is the order the stepper reads: one time level per row, as
    ``solver.run_ensemble`` takes its increments.  The result is a new
    array, or ``out`` itself, a writeable float64 array of that shape that
    the draw overwrites.  The trajectory command and a study chunk pass
    rows 1..L of the stepping buffer of ``solver.run_trajectory`` or
    ``solver.run_ensemble``, so the draw needs no array of its own.
    """
    master_seed = _index("master_seed", master_seed)
    trajectories = [_index("trajectory index", traj) for traj in trajectories]
    shape = (n_steps, len(trajectories), n_modes)
    if out is None:
        out = np.empty(shape)
    elif not (isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float
              and out.flags.writeable):
        raise ValueError(f"out must be a writeable float64 array shaped {shape}, got "
                         f"{getattr(out, 'dtype', type(out).__name__)} {np.shape(out)}")
    keys = _philox_keys(master_seed, range(1, n_modes + 1), trajectories)
    gen = np.random.Generator(np.random.Philox(0))
    root = _circulant_root(h, tau, n_steps)
    buffers = _sampler_buffers(len(trajectories), n_steps)
    # mode-major: mode k0+j's block lands transposed in tile[j], and each
    # tile goes into the output's mode columns k0.. with one copy
    tile = np.empty((_TILE, n_steps, len(trajectories)))
    for k0 in range(0, n_modes, _TILE):
        width = min(_TILE, n_modes - k0)
        for j in range(width):
            streams = _Rekeyed(gen, keys[k0 + j].tolist(), root, buffers)
            tile[j] = sample_fbm_circulant(h, tau, n_steps, streams).T
        np.copyto(out[:, :, k0:k0 + width], tile[:width].transpose(1, 2, 0))
    return out
