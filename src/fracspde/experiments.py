"""Monte Carlo convergence-rate studies and their theoretical predictions.

The observed quantities are strong errors between coupled discrete
solutions on adjacent refinement levels,

    e_l = sqrt( E ||u_l - u_{2l}||^2_{L2(0,1)} ),

estimated over a trajectory ensemble.  Coupling means both resolutions are
driven by the same noise realisation: on the time axis every trajectory is
sampled once at the finest step count and coarsened by summing adjacent
increments, on the space axis all runs share the modewise noise of the
largest mode count.  Observed rates are log2 ratios of consecutive errors
and are attached to the coarser of the two levels.

The predicted rates come from the regularity exponents of the model: with
noise spectrum Lambda_k = k^m on the interval (dimension d = 1) let

    rho   = max(0, (1 + m) / 4)
    sigma = max(0, min(s - rho, s H / alpha - rho))

Then the expected temporal order is H - rho * alpha / s and the spatial
order (in the mode count N) is 2 sigma.

Trajectories are processed in fixed chunks of 25, dealt round-robin into
one share per worker.  One runner serves every worker count: the calling
process runs the first share, and a forked child runs each of the others
and sends its blocks back over a pipe, so one worker forks no child.
With children, every process runs numpy's OpenBLAS on one thread: threads
would share the interpreter lock that the per-step Python loop and the
small numpy calls hold, and each process's own BLAS threads would
oversubscribe the cores.  The caller sets that one thread before it forks
and the children inherit it: set in a child after the fork, OpenBLAS
would restart its thread pool there, and the idle helper thread would
spin beside the child.  Without children the chunks run with at most one
BLAS thread per usable CPU.  Either way the caller's thread count is put
back afterwards.  A chunk's arithmetic does not depend on where it runs,
so the result is identical for any worker count.
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import operator
import os
import pickle
import sys
from dataclasses import dataclass, field

import numpy as np

from . import fbm
from .solver import Discretization, ModelParams, SolverError, run_ensemble

__all__ = [
    "ExperimentConfig",
    "RatePrediction",
    "LevelResult",
    "StudyResult",
    "predict_rates",
    "pathwise_error",
    "run_convergence_study",
    "emit_table",
]

#: trajectories per batch.  A trajectory's values depend only on its
#: streams, not on its batch or the worker count (every batch draws its own
#: seeded streams, a path has the same bits in a batch of any width, and
#: the final reduction runs over a preallocated array in trajectory order).
_CHUNK = 25

_AXES = ("time", "space")

#: ln of the largest and of the smallest normal float; the room (2^64) a
#: squared error keeps above the latter; and ln 2^-26
_LN_MAX, _LN_MIN = math.log(sys.float_info.max), math.log(sys.float_info.min)
_LN_ROOM, _LN_RESOLVED = 64 * math.log(2.0), -26 * math.log(2.0)


@dataclass(frozen=True)
class RatePrediction:
    rho: float
    sigma: float
    temporal: float
    spatial: float


def predict_rates(params: ModelParams) -> RatePrediction:
    """Theoretical strong convergence orders for a parameter set (d = 1)."""
    rho = max(0.0, (1.0 + params.m) / 4.0)
    temporal = max(0.0, params.hurst - rho * params.alpha / params.s)
    sigma = max(0.0, min(params.s - rho,
                         params.s * params.hurst / params.alpha - rho))
    return RatePrediction(rho=rho, sigma=sigma, temporal=temporal,
                          spatial=2.0 * sigma)


def _log_scales(params: ModelParams, disc: Discretization) -> tuple:
    """Natural logs of what one run computes in each mode k = 1..N.

    Returns the noise forcing amp_k tau^H / tau, with amp_k = k^(m/2) and
    tau^H the scale of an increment, -inf where amp_k, amp_k tau^H or the
    forcing is not a normal float (the run has no noise in that mode);
    the implicit factor 1/tau + d_0 lam_k^s = (1 + r_k) / tau, with
    r_k = tau^alpha lam_k^s; and alpha r_k / (1 + r_k).  The forcing over
    the factor is the scale of a state.  alpha r_k / (1 + r_k) is the
    difference of this run's states from those of a run at twice the
    steps on the same noise, relative to a state: runs read 0.4 to 1
    times it, for alpha from 1e-15 to 1 and r_k from 1e-30 to 1e30.
    """
    ln_tau = math.log(disc.tau)
    ln_k = np.log(np.arange(1, disc.n_modes + 1))
    with np.errstate(over="ignore"):        # an amplitude below the floats is -inf
        amp = 0.5 * params.m * ln_k
    noise = amp + params.hurst * ln_tau
    forcing = np.where(np.minimum(amp, noise - max(ln_tau, 0.0)) >= _LN_MIN,
                       noise - ln_tau, -np.inf)
    ln_r = params.alpha * ln_tau + 2 * params.s * (math.log(math.pi) + ln_k)
    ln_1r = np.logaddexp(0.0, ln_r)
    return forcing, ln_1r - ln_tau, math.log(params.alpha) + ln_r - ln_1r


def _as_int(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig(ModelParams):
    """One convergence study: a model instance plus its refinement ladder.

    The model fields (alpha, s, hurst, m, t_final, nonlinearity), their
    defaults and their checks are :class:`ModelParams`'s, so a config is
    passed wherever a ``ModelParams`` is taken.  ``axis`` selects what is
    refined: "time" sweeps the step count over ``levels`` at
    ``fixed_other`` modes, "space" sweeps the mode count at
    ``fixed_other`` steps.  Levels must double from one to the next so
    the coupled refinement (one extra run at twice the finest level) lines
    up.  ``n_traj`` trajectories are drawn from ``seed``.  A config whose
    run would leave the normal floats, or round a coupled error to
    exactly 0, is refused with a ValueError that names its keys.
    """

    axis: str
    levels: tuple
    fixed_other: int
    n_traj: int = 100
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "levels",
                           tuple(_as_int("levels", v) for v in self.levels))
        for name in ("fixed_other", "n_traj", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.axis not in _AXES:
            raise ValueError(f"axis must be 'time' or 'space', got {self.axis!r}")
        if not self.levels:
            raise ValueError("levels must be non-empty")
        if any(v < 1 for v in self.levels):
            raise ValueError(f"levels must be positive, got {self.levels}")
        for a, b in zip(self.levels, self.levels[1:]):
            if b != 2 * a:
                raise ValueError(
                    f"levels must double at each refinement, got {a} -> {b}")
        if self.fixed_other < 1:
            raise ValueError(f"fixed_other must be >= 1, got {self.fixed_other}")
        if self.n_traj < 2:
            raise ValueError(f"n_traj must be >= 2, got {self.n_traj}")
        if not 0 <= self.seed < 2 ** 64:     # trajectory.bin stores it as <u8
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        steps = 2 * self.levels[-1] if self.axis == "time" else self.fixed_other
        if self.t_final / steps < sys.float_info.min:
            raise ValueError(f"t_final={self.t_final!r}: tau = t_final / {steps} "
                             f"underflows")
        runs = [self.discretization(level)
                for level in self.levels + (2 * self.levels[-1],)]
        # the noise variance k^m of the widest mode count, and the squared
        # errors with it, must stay finite
        n_max = runs[-1].n_modes
        if self.m * math.log(n_max) > _LN_MAX:
            raise ValueError(f"m={self.m} overflows the noise variance k^m at "
                             f"N={n_max} modes: m * ln(N) must be at most {_LN_MAX:.2f}")
        self._check_memory(runs)
        self._check_range(runs)

    def _check_range(self, runs: list) -> None:
        """Reject a study whose arithmetic leaves the normal floats.

        In every run, tau^(2H) and the largest noise forcing and implicit
        factor of :func:`_log_scales` must be normal floats, with room for
        the run's sums of them, and so must each coupled pair's squared
        error, or it rounds to 0.  On the space axis the modes the finer run
        adds make that error; on the time axis the modes whose two runs
        differ by 2^-26 of a state or more, what rounding resolves.
        """
        checks = [(1.0 - self.alpha < 1.0, "alpha",
                   "the quadrature order 1 - alpha rounds to 1")]
        states = {}                 # tau -> ln of the widest run's states and shares
        for disc in {disc.tau: disc for disc in runs}.values():
            forcing, factor, share = _log_scales(self, disc)
            states[disc.tau] = forcing - factor, share
            ln_tau, room = math.log(disc.tau), math.log(16 * disc.n_steps)
            # room: the covariance sums 2L terms of up to 2 tau^(2H); a state
            # and u/tau reach 16 L forcings (or sin's term, about 1) over the
            # factor; a squared error sums N squares of a state difference
            nonlinear = -np.inf if self.f is None else -factor[0]
            largest = max((forcing - factor).max(), nonlinear)
            at = f"at L={disc.n_steps} steps, N={disc.n_modes} modes is not a normal float"
            checks += [
                (_LN_MIN <= 2 * self.hurst * ln_tau <= _LN_MAX - math.log(4 * disc.n_steps),
                 "hurst t_final", f"tau^(2H) {at} with room for the fGn covariance"),
                (_LN_MIN <= forcing.max() <= _LN_MAX - room - max(ln_tau, 0.0),
                 "m hurst t_final",
                 f"the largest noise forcing k^(m/2) tau^H / tau {at} with room"),
                (_LN_MIN <= factor[0] and factor[-1] <= _LN_MAX,
                 "alpha s t_final", f"the implicit factor 1/tau + d_0 lam_N^s {at}"),
                (2 * (largest + room) + math.log(4 * disc.n_modes) <= _LN_MAX,
                 "m hurst alpha s t_final", f"the squared error {at}")]
        for i, (coarse, fine) in enumerate(zip(runs, runs[1:])):
            if self.axis == "space":
                error = states[fine.tau][0][coarse.n_modes:fine.n_modes]
            else:
                state, share = states[coarse.tau]
                error = (state + share)[share >= _LN_RESOLVED]
            checks.append((2 * error.max(initial=-np.inf) >= _LN_MIN + _LN_ROOM,
                           "m hurst alpha s t_final",
                           f"the coupled error at level {self.levels[i]} rounds to 0: "
                           f"the noise underflows, or the two runs differ by rounding"))
        for ok, keys, quantity in checks:
            if not ok:
                named = ", ".join(f"{key}={getattr(self, key)!r}" for key in keys.split())
                raise ValueError(f"{named}: {quantity}")

    def _check_memory(self, runs: list) -> None:
        """Reject a study whose arrays cannot fit in physical memory.

        A chunk holds its increments, about 8 B x (L+1) x chunk x N at the
        finest step count L and the widest mode count N, drawn into the
        buffer its closing level steps in, and steps each other level in a
        buffer of at most half that size: one and a half such arrays.
        The three counted here are a loose bound, with room for the fGn
        sampler's per-call buffers and the per-step work
        arrays.  The study also keeps every trajectory's squared error at
        every level, 8 B x levels x n_traj, and two cached sine matrices
        per mode count, ``spectral``'s (N, 2N) matrix and its C-contiguous
        transpose: 32 B x N^2.
        """
        finest = runs[-1]
        per_chunk = (3 * 8 * (finest.n_steps + 1) * min(self.n_traj, _CHUNK)
                     * finest.n_modes)
        accumulator = 8 * len(self.levels) * self.n_traj
        mode_counts = {disc.n_modes for disc in runs}
        sine_matrices = sum(32 * n * n for n in mode_counts)
        try:
            physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):   # platform does not say
            return
        if per_chunk + accumulator + sine_matrices > physical:
            raise ValueError(
                f"levels or n_traj too large: L={finest.n_steps} steps x "
                f"N={finest.n_modes} modes needs about {per_chunk} bytes per chunk, "
                f"n_traj={self.n_traj} needs {accumulator} bytes of errors, "
                f"mode counts {sorted(mode_counts)} need {sine_matrices} bytes "
                f"of sine matrices; physical memory is {physical} bytes")

    def discretization(self, level: int) -> Discretization:
        """The grid of one refinement level.

        On the time axis ``level`` is the step count L at ``fixed_other``
        modes, on the space axis the mode count N at ``fixed_other``
        steps; in both, tau = t_final / L.
        """
        n_modes, n_steps = ((self.fixed_other, level) if self.axis == "time"
                            else (level, self.fixed_other))
        return Discretization(n_modes=n_modes, n_steps=n_steps,
                              tau=self.t_final / n_steps)


@dataclass(frozen=True)
class LevelResult:
    level: int
    error: float
    observed_rate: float | None


@dataclass(frozen=True)
class StudyResult:
    config: ExperimentConfig
    prediction: RatePrediction
    rows: tuple = field(default_factory=tuple)

    @property
    def theoretical_rate(self) -> float:
        return (self.prediction.temporal if self.config.axis == "time"
                else self.prediction.spatial)


def pathwise_error(coeffs_a: np.ndarray, coeffs_b: np.ndarray) -> np.ndarray:
    """L2(0,1) distance of two expansions, zero-padding the shorter one.

    Broadcasts over leading axes; the last axis is the mode index.  Since
    the modes are orthonormal this is just the euclidean norm of the
    coefficient difference.
    """
    coeffs_a = np.asarray(coeffs_a, dtype=float)
    coeffs_b = np.asarray(coeffs_b, dtype=float)
    na, nb = coeffs_a.shape[-1], coeffs_b.shape[-1]
    n = max(na, nb)
    if na < n:
        pad = [(0, 0)] * (coeffs_a.ndim - 1) + [(0, n - na)]
        coeffs_a = np.pad(coeffs_a, pad)
    if nb < n:
        pad = [(0, 0)] * (coeffs_b.ndim - 1) + [(0, n - nb)]
        coeffs_b = np.pad(coeffs_b, pad)
    return np.sqrt(np.sum((coeffs_a - coeffs_b) ** 2, axis=-1))


def _chunk_squared_errors(config: ExperimentConfig, trajectories) -> np.ndarray:
    """Squared adjacent-pair errors for a batch of trajectory indices.

    Returns an array of shape (len(levels), len(trajectories)): entry
    [i, j] is ||u_{l_i} - u_{2 l_i}||^2 for trajectory j, where the run at
    2 * levels[-1] is the extra refinement closing the last pair.  One
    loop serves both axes: the increments are drawn once on the finest
    grid, and each level takes their first N modes and sums each group
    of adjacent steps that one of its coarser steps spans.  So the time
    axis coarsens steps and the space axis drops modes.  A level steps in
    the ``out`` of :func:`run_ensemble` whose rows 1.. its increments are
    made in: the draw in the closing level's, which runs last, and a
    time-axis level's sums in its own.  A coarser space-axis level is a
    view of the draw, which later levels still read, so it passes no
    ``out`` and steps in a new buffer.  So a chunk holds the draw and at
    most one coarser level's buffer.  A solver failure is re-raised with
    the level and the absolute trajectory index.
    """
    all_levels = list(config.levels) + [2 * config.levels[-1]]
    fine = config.discretization(all_levels[-1])
    n_traj = len(trajectories)
    draw = np.empty((fine.n_steps + 1, n_traj, fine.n_modes))
    fbm.mode_increments(config.hurst, fine.tau, fine.n_steps, config.seed,
                        fine.n_modes, trajectories, out=draw[1:])
    out = np.empty((len(config.levels), n_traj))
    previous = None
    for i, level in enumerate(all_levels):
        disc = config.discretization(level)
        coarse = draw[1:, :, :disc.n_modes]
        # the last level's buffer goes before this level's is made
        states = draw if level == all_levels[-1] else None
        group = fine.n_steps // disc.n_steps
        if group > 1:
            states = np.empty((disc.n_steps + 1, n_traj, disc.n_modes))
            coarse = coarse.reshape(disc.n_steps, group, n_traj, disc.n_modes).sum(
                axis=1, out=states[1:])
        try:
            final = run_ensemble(config, disc, coarse, out=states)
        except SolverError as exc:
            raise SolverError(exc.mode, exc.time_level, trajectories[exc.trajectory],
                              context=f"level {level}: ") from exc
        if previous is not None:
            out[i - 1] = pathwise_error(previous, final) ** 2
        previous = final
    return out


#: the symbols an OpenBLAS function ``openblas_<name>`` goes by: the
#: scipy-openblas build of numpy >= 2 wheels, the 64-bit-integer build of
#: numpy 1.x wheels, and an unsuffixed system library
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def _openblas_function(name: str):
    """numpy's OpenBLAS function ``openblas_<name>``, or None.

    The library is found through numpy's compiled core, which links it.
    None when that module cannot be loaded or exports no such symbol,
    e.g. when numpy uses another BLAS.
    """
    try:
        try:
            from numpy._core import _multiarray_umath
        except ImportError:                                 # numpy 1.x
            from numpy.core import _multiarray_umath
        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for symbol in _OPENBLAS_SYMBOLS:
        function = getattr(library, symbol.format(name), None)
        if function is not None:
            return function
    return None


def _openblas_thread_functions():
    """numpy's OpenBLAS ``(get_num_threads, set_num_threads)``, or None."""
    get_threads = _openblas_function("get_num_threads")
    set_threads = _openblas_function("set_num_threads")
    if get_threads is None or set_threads is None:
        return None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    return get_threads, set_threads


@contextlib.contextmanager
def _blas_threads_at_most(limit: int):
    """Run the body with numpy's OpenBLAS on at most ``limit`` threads.

    The caller's count is put back afterwards, also after an error.  When
    it is already within the limit, or numpy does not use OpenBLAS, the
    thread count is not set at all.
    """
    functions = _openblas_thread_functions()
    before = functions[0]() if functions is not None else 0
    if before <= limit:
        yield
        return
    functions[1](limit)
    try:
        yield
    finally:
        functions[1](before)


def _run_share(config: ExperimentConfig, chunks, share: int, workers: int) -> tuple:
    """``(blocks, failure)`` of the chunks ``share``, ``share + workers``, ...

    The share stops at its first failing chunk: ``blocks`` holds the
    blocks before it and ``failure`` is ``(chunk index, exception)``, or
    None when every chunk ran.
    """
    blocks = []
    for index in range(share, len(chunks), workers):
        try:
            blocks.append(_chunk_squared_errors(config, chunks[index]))
        except Exception as exc:            # raised by the caller, in chunk order
            return blocks, (index, exc)
    return blocks, None


def _child_share(config: ExperimentConfig, chunks, share: int, workers: int,
                 write_fd: int):
    """Run one share in a forked child and send its pickled outcome down
    the pipe ``write_fd``.  Never returns: every path ends in ``os._exit``,
    with status 0 only once the whole outcome is sent."""
    status = 1
    try:
        blocks, failure = _run_share(config, chunks, share, workers)
        if failure is not None:
            index, exc = failure
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:               # the caller could not rebuild it
                failure = index, RuntimeError(
                    f"chunk {index} failed in a worker process: {exc!r}")
        with open(write_fd, "wb") as pipe:
            pickle.dump((blocks, failure), pipe)
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, read_fd: int) -> tuple:
    """What the child ``pid`` sent down its pipe, read to EOF, and its
    wait status once it has exited."""
    try:
        with open(read_fd, "rb") as pipe:
            reply = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    return reply, status


def _map_chunks(config: ExperimentConfig, chunks, workers: int) -> list:
    """Squared-error blocks of ``chunks``, in chunk order.

    The chunks are dealt into ``workers`` shares, ``chunks[w::workers]``:
    this process runs share 0, and a child forked for each other share
    sends its blocks back over a pipe (:func:`_child_share`).  So one
    worker, or a platform without fork, forks no child and runs every
    chunk here.  Fork hands each child the config without pickling it, so
    a closure nonlinearity works, and it needs no fresh import.  With
    children, the one BLAS thread set here before the fork is inherited by
    each child and runs share 0 too; without, share 0 runs with at most
    one BLAS thread per usable CPU.  The caller's BLAS thread count is
    restored on return.

    Every child is read to EOF and waited for, also when this process
    fails, so none is left behind.  A child that exits without sending its
    outcome raises a ChildProcessError, an OSError, that names its wait
    status.  Otherwise the failure with the lowest chunk index is raised,
    the one a run of the chunks in order raises first.
    """
    if not hasattr(os, "fork"):
        workers = 1
    children = []                           # (pid, read end of its pipe)
    with _blas_threads_at_most(1 if workers > 1 else _usable_cpus()):
        try:
            for share in range(1, workers):
                read_fd, write_fd = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _child_share(config, chunks, share, workers, write_fd)
                except BaseException:
                    os.close(read_fd)
                    raise
                finally:
                    os.close(write_fd)
                children.append((pid, read_fd))
            outcomes = [_run_share(config, chunks, 0, workers)]
        finally:
            replies = [_reap(pid, read_fd) for pid, read_fd in children]
    for (pid, _), (reply, status) in zip(children, replies):
        if status != 0:
            code = os.waitstatus_to_exitcode(status)
            how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
            raise ChildProcessError(f"worker process {pid} exited without sending "
                                    f"its chunks: wait status {status} ({how})")
        outcomes.append(pickle.loads(reply))
    blocks, failures = [None] * len(chunks), []
    for share, (done, failure) in enumerate(outcomes):
        blocks[share:share + workers * len(done):workers] = done
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=operator.itemgetter(0))[1]
    return blocks


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_convergence_study(config: ExperimentConfig,
                          threads: int | None = None) -> StudyResult:
    """Estimate strong errors and observed rates over the refinement ladder.

    Trajectories are processed in fixed-size chunks.  ``threads``, an
    integer >= 1, caps the number of processes that run chunks, this one
    included (default: the CPUs this process may run on, its affinity mask
    where the platform has one).  This process runs one share of the
    chunks and forks a child for each other share, so with one worker it
    forks none.  With children, all of them run numpy's OpenBLAS on one
    thread, which the children inherit from the fork; without, the chunks
    run here with at most one BLAS thread per usable CPU.  The caller's
    BLAS thread count is put back on return, also after an error, and
    every child has exited by then.  A failing chunk's error is raised as
    a run of the chunks in order would raise it.  Every chunk fills its
    own slice of the accumulator with the same arithmetic wherever it
    runs, so the result is identical for any worker count and any BLAS
    thread count of the caller.  More than one worker forks the calling
    process; a caller that runs other threads (a GUI, a server, a thread
    pool) should pass ``threads=1``, since a forked child can deadlock on
    a lock one of those threads held.  The observed rate
    log2(e_l / e_{l+1}) sits on the coarser level's row; the finest row
    has none.  Rates are omitted (None) when an error vanishes or is not
    finite.
    """
    n_traj = config.n_traj
    chunks = [range(lo, min(lo + _CHUNK, n_traj))
              for lo in range(0, n_traj, _CHUNK)]
    if threads is not None and _as_int("threads", threads) < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    max_workers = min(len(chunks), threads or _usable_cpus())
    sq_errors = np.empty((len(config.levels), n_traj))
    for chunk, block in zip(chunks, _map_chunks(config, chunks, max_workers)):
        sq_errors[:, chunk.start:chunk.stop] = block

    errors = np.sqrt(np.mean(sq_errors, axis=1))
    rows = []
    for i, level in enumerate(config.levels):
        rate = None
        if i + 1 < len(errors):
            e0, e1 = errors[i], errors[i + 1]
            if e0 > 0.0 and e1 > 0.0 and np.isfinite(e0) and np.isfinite(e1):
                rate = float(np.log2(e0 / e1))
        rows.append(LevelResult(level=level, error=float(errors[i]),
                                observed_rate=rate))
    return StudyResult(config=config,
                       prediction=predict_rates(config),
                       rows=tuple(rows))


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6g}"


def emit_table(result: StudyResult, destination) -> None:
    """Write the study as CSV: level,error,observed_rate,theoretical_rate.

    Numbers use 6 significant digits; undefined rates are empty cells.
    ``destination`` is a path or a text stream.  An empty study still gets
    the header line.
    """
    lines = ["level,error,observed_rate,theoretical_rate"]
    theo = result.theoretical_rate
    for row in result.rows:
        lines.append(",".join([str(row.level), _fmt(row.error),
                               _fmt(row.observed_rate), _fmt(theo)]))
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", newline="") as fh:
            fh.write(text)
