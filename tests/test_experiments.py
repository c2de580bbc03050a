import ctypes
import io
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspde import cli, experiments, fbm, solver, spectral
from fracspde.experiments import (
    ExperimentConfig,
    LevelResult,
    StudyResult,
    emit_table,
    pathwise_error,
    predict_rates,
    run_convergence_study,
)
from fracspde.solver import ModelParams, SolverError


def _config(**kw):
    base = dict(alpha=0.3, s=0.7, hurst=0.8, m=-1.0, axis="time",
                levels=(4, 8, 16), fixed_other=8, n_traj=6, seed=11)
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# rate prediction


def test_predict_rates_examples():
    p = predict_rates(ModelParams(alpha=0.3, s=0.7, hurst=0.3, m=0.0))
    assert p.rho == pytest.approx(0.25)
    assert p.temporal == pytest.approx(0.3 - 0.25 * 0.3 / 0.7, abs=1e-12)
    assert round(p.temporal, 3) == 0.193

    p = predict_rates(ModelParams(alpha=0.5, s=0.5, hurst=0.5, m=-0.5))
    assert p.rho == pytest.approx(0.125)
    assert p.temporal == pytest.approx(0.375)


def test_predict_rates_clamps_rho():
    # m=-1 (and below) clamp rho to 0: temporal rate = H,
    # spatial rate = 2 min(s, sH/alpha)
    for m in (-1.0, -2.0):
        p = predict_rates(ModelParams(alpha=0.3, s=0.7, hurst=0.8, m=m))
        assert p.rho == 0.0
        assert p.temporal == pytest.approx(0.8)
        assert p.spatial == pytest.approx(2 * min(0.7, 0.7 * 0.8 / 0.3))

    # sigma is clamped at zero too
    p = predict_rates(ModelParams(alpha=0.9, s=0.3, hurst=0.1, m=1.0))
    assert p.sigma == 0.0
    assert p.spatial == 0.0


# ---------------------------------------------------------------------------
# pathwise error


def test_pathwise_error_basics():
    a = np.array([1.0, 2.0, 3.0])
    assert pathwise_error(a, a) == 0.0
    b = a.copy()
    b[0] += 0.25
    assert pathwise_error(a, b) == pytest.approx(0.25)


def test_pathwise_error_zero_pads():
    coarse = np.array([1.0, 1.0])
    fine = np.array([1.0, 1.0, 2.0, -2.0])
    assert pathwise_error(coarse, fine) == pytest.approx(np.sqrt(8.0))
    assert pathwise_error(fine, coarse) == pytest.approx(np.sqrt(8.0))


def test_pathwise_error_matches_grid_quadrature():
    rng = np.random.default_rng(23)
    coarse = rng.standard_normal(8)
    fine = rng.standard_normal(16)
    m = 4095
    diff = spectral.synthesize(fine, m).copy()
    diff -= spectral.synthesize(coarse, m)
    quad = np.sqrt(np.sum(diff ** 2) / (m + 1))
    assert pathwise_error(coarse, fine) == pytest.approx(quad, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31), na=st.integers(1, 12),
       nb=st.integers(1, 12))
def test_pathwise_error_symmetric_property(seed, na, nb):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(na), rng.standard_normal(nb)
    assert pathwise_error(a, b) == pathwise_error(b, a)
    assert pathwise_error(a, b) >= 0.0


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_bad_axis():
    with pytest.raises(ValueError, match="axis"):
        _config(axis="frequency")


def test_config_rejects_non_doubling_levels():
    with pytest.raises(ValueError, match="double"):
        _config(levels=(4, 8, 24))
    with pytest.raises(ValueError, match="double"):
        _config(levels=(8, 4))
    with pytest.raises(ValueError):
        _config(levels=())


def test_config_bounds():
    with pytest.raises(ValueError, match="n_traj"):
        _config(n_traj=1)
    with pytest.raises(ValueError, match="seed"):
        _config(seed=-3)
    with pytest.raises(ValueError, match="alpha"):
        _config(alpha=2.0)
    with pytest.raises(ValueError, match="fixed_other"):
        _config(fixed_other=0)


@pytest.mark.parametrize("key, value", [
    ("levels", (4.7, 8.2)),
    ("levels", (4.0, 8.0)),
    ("fixed_other", 8.5),
    ("n_traj", 6.5),
    ("seed", 1.0),
    ("seed", "3"),
])
def test_config_rejects_non_integral_settings(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be an integer, got "):
        _config(**{key: value})


def test_config_takes_numpy_integers_as_ints():
    cfg = _config(levels=np.array([4, 8]), fixed_other=np.int64(8),
                  n_traj=np.int32(6), seed=np.uint64(2 ** 64 - 1))
    assert cfg.levels == (4, 8) and type(cfg.levels[0]) is int
    for key in ("fixed_other", "n_traj", "seed"):
        assert type(getattr(cfg, key)) is int, key
    assert cfg.seed == 2 ** 64 - 1


def test_config_is_the_model_parameters():
    cfg = _config(t_final=0.02, nonlinearity="zero")
    assert isinstance(cfg, ModelParams)
    assert predict_rates(cfg) == predict_rates(
        ModelParams(alpha=0.3, s=0.7, hurst=0.8, m=-1.0))
    model_defaults = {f.name: f.default for f in fields(ModelParams)}
    config_defaults = {f.name: f.default for f in fields(ExperimentConfig)}
    assert {key: config_defaults[key] for key in model_defaults} == model_defaults


@pytest.mark.parametrize("axis, levels, fixed_other, n_steps, n_modes", [
    ("time", (2 ** 39, 2 ** 40), 8, 2 ** 41, 8),
    ("space", (2 ** 40,), 16, 16, 2 ** 41),
])
def test_config_rejects_arrays_beyond_physical_memory(axis, levels, fixed_other,
                                                      n_steps, n_modes):
    needed = 3 * 8 * (n_steps + 1) * 6 * n_modes     # n_traj=6 < one chunk
    with pytest.raises(ValueError,
                       match=f"L={n_steps} steps x N={n_modes} modes needs "
                             f"about {needed} bytes"):
        _config(axis=axis, levels=levels, fixed_other=fixed_other)


def test_config_rejects_sine_matrices_beyond_physical_memory():
    # one chunk of one step is small, but the (N, 2N) matrices of the
    # nonlinear term at N = 2**20 and 2**21 are not
    with pytest.raises(ValueError,
                       match=rf"mode counts \[{2 ** 20}, {2 ** 21}\] need "
                             rf"{32 * (2 ** 40 + 2 ** 42)} bytes of sine matrices"):
        _config(axis="space", levels=(2 ** 20,), fixed_other=1, n_traj=2)


def test_config_rejects_error_accumulator_beyond_physical_memory():
    # small chunks, but one squared error per trajectory and level
    n_traj = 10 ** 13
    with pytest.raises(ValueError,
                       match=f"n_traj={n_traj} needs {8 * 3 * n_traj} bytes"):
        _config(n_traj=n_traj)


@pytest.mark.parametrize("axis, n_modes, n_steps", [("time", 8, 16), ("space", 16, 8)])
def test_discretization_maps_level_to_grid(axis, n_modes, n_steps):
    disc = _config(axis=axis, t_final=0.02).discretization(16)   # fixed_other=8
    assert (disc.n_modes, disc.n_steps, disc.tau) == (n_modes, n_steps, 0.02 / n_steps)


# ---------------------------------------------------------------------------
# study behaviour


@pytest.mark.parametrize("axis, fixed_other", [("time", 3), ("space", 6)])
def test_chunk_errors_match_hand_coupled_levels(axis, fixed_other):
    # every level is driven by one draw on the finest grid: the time axis
    # sums adjacent steps of the finest draw, the space axis keeps the first
    # N modes of the widest one
    cfg = _config(axis=axis, levels=(2, 4), fixed_other=fixed_other, hurst=0.3)
    trajectories = range(3, 7)
    t_final = cfg.t_final
    finest = 8
    if axis == "time":
        draw = fbm.mode_increments(cfg.hurst, t_final / finest, finest, cfg.seed,
                                   fixed_other, trajectories)
    else:
        draw = fbm.mode_increments(cfg.hurst, t_final / fixed_other, fixed_other,
                                   cfg.seed, finest, trajectories)
    finals = []
    for level in (2, 4, 8):
        if axis == "time":
            group = finest // level
            increments = draw.reshape(level, group, len(trajectories),
                                      fixed_other).sum(axis=1)
            disc = solver.Discretization(fixed_other, level, t_final / level)
        else:
            increments = draw[:, :, :level]
            disc = solver.Discretization(level, fixed_other, t_final / fixed_other)
        finals.append(solver.run_ensemble(cfg, disc, increments))
    expected = np.array([pathwise_error(a, b) ** 2
                         for a, b in zip(finals, finals[1:])])
    got = experiments._chunk_squared_errors(cfg, trajectories)
    assert got.shape == (2, 4)
    assert np.array_equal(got, expected)


def test_one_step_one_path_space_chunk_matches_hand_coupled_levels():
    # with L=1 and one path, a coarse level's view of the draw is
    # C-contiguous; it is still only read, never stepped in, so the levels
    # after it see the draw's own increments
    cfg = _config(axis="space", levels=(2, 4), fixed_other=1, n_traj=26, hurst=0.3)
    last_chunk = range(25, 26)
    draw = fbm.mode_increments(cfg.hurst, cfg.t_final, 1, cfg.seed, 8, last_chunk)
    assert draw[:, :, :2].flags.c_contiguous
    finals = [solver.run_ensemble(cfg, solver.Discretization(level, 1, cfg.t_final),
                                  draw[:, :, :level]) for level in (2, 4, 8)]
    expected = np.array([pathwise_error(a, b) ** 2
                         for a, b in zip(finals, finals[1:])])
    got = experiments._chunk_squared_errors(cfg, last_chunk)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("axis, fixed_other", [("time", 3), ("space", 6)])
def test_every_run_of_a_chunk_steps_in_the_buffer_of_its_increments(monkeypatch, axis,
                                                                    fixed_other):
    # the plan of a chunk: the config's runs in order, each stepping in the
    # out whose rows 1.. hold its increments; the closing run, last, steps
    # in the draw, and no other run does
    draws, calls, draw_into = [], [], fbm.mode_increments

    def drawn(*args, out):
        draws.append(out)
        return draw_into(*args, out=out)

    def stepped(params, disc, increments, *, out=None):
        calls.append((disc, increments, out))
        return solver.run_ensemble(params, disc, increments, out=out)

    monkeypatch.setattr(experiments.fbm, "mode_increments", drawn)
    monkeypatch.setattr(experiments, "run_ensemble", stepped)
    cfg = _config(axis=axis, levels=(2, 4), fixed_other=fixed_other, hurst=0.3)
    experiments._chunk_squared_errors(cfg, range(3, 7))
    assert [disc for disc, _, _ in calls] == list(cfg.runs())
    for disc, increments, out in calls:
        assert isinstance(out, np.ndarray)
        assert out.shape == (disc.n_steps + 1, 4, disc.n_modes)
        rows = out[1:]
        assert (increments.__array_interface__, increments.strides) == (
            rows.__array_interface__, rows.strides)
    (draw,) = draws
    closing = calls[-1][2]
    assert draw.__array_interface__ == closing[1:].__array_interface__
    assert not any(np.shares_memory(out, closing) for _, _, out in calls[:-1])


#: one path of it has no error, but a study's coupled error at level 4
#: rounds to 0
_BELOW_THE_FLOOR = dict(alpha=0.3, s=0.7, hurst=0.5, m=-1.0, axis="time",
                        levels=(4, 8), fixed_other=6, t_final=1e-300)


def test_the_coupled_error_floor_is_checked_by_the_study_before_any_work(monkeypatch):
    cfg = ExperimentConfig(**_BELOW_THE_FLOOR)          # parses: the check is the study's

    def work(*args):
        raise AssertionError("the study ran a chunk")

    monkeypatch.setattr(experiments, "_map_chunks", work)
    with pytest.raises(ValueError, match=re.escape(
            "m=-1.0, hurst=0.5, alpha=0.3, s=0.7, t_final=1e-300: "
            "the coupled error at level 4 rounds to 0")):
        run_convergence_study(cfg, threads=1)


def test_zero_noise_gives_empty_rates(monkeypatch):
    def no_noise(hurst, tau, n_steps, seed, n_modes, trajectories, *, out=None):
        if out is None:
            out = np.empty((n_steps, len(trajectories), n_modes))
        out[...] = 0.0
        return out

    monkeypatch.setattr(experiments.fbm, "mode_increments", no_noise)
    res = run_convergence_study(_config())
    assert all(row.error == 0.0 for row in res.rows)
    assert all(row.observed_rate is None for row in res.rows)


def test_rate_attachment():
    res = run_convergence_study(_config())
    assert [row.level for row in res.rows] == [4, 8, 16]
    assert all(row.observed_rate is not None for row in res.rows[:-1])
    assert res.rows[-1].observed_rate is None
    assert all(row.error > 0 for row in res.rows)
    assert res.theoretical_rate == pytest.approx(0.8)


def test_errors_shrink_under_refinement():
    res = run_convergence_study(_config(levels=(4, 8, 16, 32), n_traj=16))
    errors = [row.error for row in res.rows]
    assert errors[-1] < errors[0]


def test_study_deterministic_across_thread_counts():
    # n_traj=56 gives chunks of 25, 25 and 6 trajectories; the closure
    # cannot be pickled, so workers must inherit it
    scale = 0.5

    def damped_sin(u):
        return scale * np.sin(u)

    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(damped_sin)
    for cfg in (_config(n_traj=56, nonlinearity=damped_sin),
                _config(axis="space", levels=(2, 4, 8), fixed_other=16,
                        hurst=0.3, n_traj=56, nonlinearity=damped_sin)):
        results = [run_convergence_study(cfg, threads=threads)
                   for threads in (1, 2, 3)]
        # exact equality compares every error and rate bit for bit
        assert results[1] == results[0], cfg.axis
        assert results[2] == results[0], cfg.axis
        tables = set()
        for res in results:
            buf = io.StringIO()
            emit_table(res, buf)
            tables.add(buf.getvalue())
        assert len(tables) == 1, cfg.axis


def test_study_space_axis():
    cfg = _config(axis="space", levels=(2, 4, 8), fixed_other=16,
                  hurst=0.3, n_traj=8)
    res = run_convergence_study(cfg)
    assert res.theoretical_rate == pytest.approx(1.4)
    assert len(res.rows) == 3
    assert res.rows[0].observed_rate is not None


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("axis, level", [("time", 4), ("space", 2)])
def test_solver_error_names_absolute_trajectory(axis, level, threads):
    # trajectories 25..29 form the second batch; row 3 of it is trajectory 28
    def blow_up_second_batch(u):
        out = np.sin(u)
        if u.shape[0] == 5:
            out[3] = np.inf
        return out

    cfg = _config(axis=axis, levels=(level, 2 * level), n_traj=30,
                  nonlinearity=blow_up_second_batch)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolverError, match=(
                f"^level {level}: non-finite coefficient in trajectory 28, "
                f"mode 1 at time level 1$")):
            run_convergence_study(cfg, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
def test_solver_error_at_the_closing_level_names_it(threads):
    # the closing level, N=8 on a grid of 16 points, steps inside the
    # chunk's draw; only it blows up, in row 3 of the second batch, which
    # is trajectory 28
    def blow_up_closing_level(u):
        out = np.sin(u)
        if u.shape == (5, 16):
            out[3] = np.inf
        return out

    cfg = _config(axis="space", levels=(2, 4), fixed_other=8, hurst=0.3,
                  n_traj=30, nonlinearity=blow_up_closing_level)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolverError, match=(
                "^level 8: non-finite coefficient in trajectory 28, "
                "mode 1 at time level 1$")):
            run_convergence_study(cfg, threads=threads)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("level", [9, 16, 20])
def test_solver_error_at_a_later_step_of_the_closing_level_names_it(threads, level):
    # the closing level, N=8 on a grid of 16 points, has 20 steps, not a
    # multiple of the 16-step finiteness check; trajectories 25..29 form
    # the second chunk, which a child runs at 2 workers, and f returns inf
    # in its row 3, trajectory 28, on the call that gives u^level
    calls = []

    def blow_up_closing_level(u):
        out = np.sin(u)
        if u.shape == (5, 16):
            calls.append(None)
            if len(calls) == level:
                out[3] = np.inf
        return out

    cfg = _config(axis="space", levels=(2, 4), fixed_other=20, hurst=0.3,
                  n_traj=30, nonlinearity=blow_up_closing_level)
    with pytest.raises(SolverError, match=(
            "^level 8: non-finite coefficient in trajectory 28, "
            f"mode 1 at time level {level}$")):
        run_convergence_study(cfg, threads=threads)


def test_solver_error_survives_pickling():
    exc = pickle.loads(pickle.dumps(SolverError(3, 7, 28, context="level 8: ")))
    assert isinstance(exc, SolverError)
    assert (exc.mode, exc.time_level, exc.trajectory) == (3, 7, 28)
    assert str(exc) == ("level 8: non-finite coefficient in trajectory 28, "
                        "mode 3 at time level 7")


def test_threads_validation():
    with pytest.raises(ValueError, match="threads must be >= 1"):
        run_convergence_study(_config(), threads=0)
    for value in (2.5, "2", 1.0):
        with pytest.raises(ValueError, match="threads must be an integer"):
            run_convergence_study(_config(), threads=value)


def _worker_counts(monkeypatch):
    """Record the worker count each study asks ``_map_chunks`` for."""
    counts = []

    def record(config, chunks, max_workers):
        counts.append(max_workers)
        return [np.ones((len(config.levels), len(chunk))) for chunk in chunks]

    monkeypatch.setattr(experiments, "_map_chunks", record)
    return counts


def test_default_workers_are_the_usable_cpus(monkeypatch):
    counts = _worker_counts(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    run_convergence_study(_config(n_traj=200))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    run_convergence_study(_config(n_traj=200))
    assert counts == [1, 3]


def test_default_workers_fall_back_to_the_cpu_count(monkeypatch):
    counts = _worker_counts(monkeypatch)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 5)
    run_convergence_study(_config(n_traj=200))
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    run_convergence_study(_config(n_traj=200))
    assert counts == [5, 1]


def test_cli_import_loads_no_process_pool():
    src = str(Path(experiments.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracspde.cli; print(sorted({'multiprocessing', "
         "'concurrent.futures.process', 'scipy'} & set(sys.modules)))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _blas_thread_count():
    functions = experiments._openblas_thread_functions()
    return None if functions is None else functions[0]()


def _set_blas_threads(n):
    experiments._openblas_thread_functions()[1](n)


@pytest.mark.parametrize("exported, found", [
    (("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"),
     "scipy_openblas_get_num_threads64_"),                    # numpy >= 2 wheel
    (("openblas_get_num_threads64_",), "openblas_get_num_threads64_"),  # numpy 1.x
    (("openblas_get_num_threads",), "openblas_get_num_threads"),    # system build
    ((), None),                                               # another BLAS
])
def test_openblas_lookup_knows_each_build(monkeypatch, exported, found):
    library = SimpleNamespace(**{name: name for name in exported})
    monkeypatch.setattr(ctypes, "CDLL", lambda path: library)
    assert experiments._openblas_function("get_num_threads") == found


def test_openblas_lookup_is_none_when_numpy_core_cannot_load(monkeypatch):
    # neither numpy 2's numpy._core nor numpy 1.x's numpy.core imports
    monkeypatch.setitem(sys.modules, "numpy._core", None)
    monkeypatch.setitem(sys.modules, "numpy.core", None)
    assert experiments._openblas_function("set_num_threads") is None
    with experiments._blas_threads_at_most(1):
        pass


def test_blas_pin_is_a_no_op_without_the_symbol(monkeypatch):
    assert experiments._openblas_function("no_such_openblas_symbol") is None
    before = _blas_thread_count()
    monkeypatch.setattr(experiments, "_openblas_function", lambda name: None)
    with experiments._blas_threads_at_most(1):
        pass
    monkeypatch.undo()
    assert _blas_thread_count() == before


def test_workers_run_blas_on_one_thread(tmp_path):
    before = _blas_thread_count()
    if before is None:
        pytest.skip("numpy's BLAS does not export openblas_get_num_threads")

    def record_blas_threads(u):
        mark = tmp_path / str(os.getpid())
        if not mark.exists():
            mark.write_text(str(_blas_thread_count()))
        return np.sin(u)

    run_convergence_study(_config(n_traj=50, nonlinearity=record_blas_threads),
                          threads=2)
    seen = {int(p.name): p.read_text() for p in tmp_path.iterdir()}
    # the caller runs the first share, a forked child the second
    assert len(seen) == 2 and os.getpid() in seen
    assert set(seen.values()) == {"1"}
    assert _blas_thread_count() == before


def test_in_process_study_does_not_depend_on_caller_blas_threads():
    # threads=1 runs with the caller's BLAS threads capped at the usable
    # CPUs, the workers with one; at N=64, 25 rows and L=64 the history
    # gemv and the sine-matrix products are large enough for OpenBLAS to
    # split them over threads
    before = _blas_thread_count()
    if before is None:
        pytest.skip("numpy's BLAS does not export openblas_get_num_threads")
    cfg = _config(axis="space", levels=(16, 32), fixed_other=64, hurst=0.3,
                  n_traj=30)
    workers = run_convergence_study(cfg, threads=2)
    try:
        for blas_threads in (1, 3, 8):
            _set_blas_threads(blas_threads)
            assert _blas_thread_count() == blas_threads
            assert run_convergence_study(cfg, threads=1) == workers, blas_threads
    finally:
        _set_blas_threads(before)


def _require_blas_threads():
    functions = experiments._openblas_thread_functions()
    if functions is None:
        pytest.skip("numpy's BLAS does not export openblas_get/set_num_threads")
    return functions


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs Linux's /proc/self/task")
def test_workers_run_their_chunks_on_one_os_thread(tmp_path):
    # a BLAS thread count set in the child after the fork would restart
    # OpenBLAS's thread pool there, leaving an idle helper thread; the
    # caller's pool is shut down at the fork and not restarted on one thread
    def record_os_threads(u):
        mark = tmp_path / str(os.getpid())
        if not mark.exists():
            mark.write_text(str(len(os.listdir("/proc/self/task"))))
        return np.sin(u)

    run_convergence_study(_config(n_traj=50, nonlinearity=record_os_threads),
                          threads=2)
    seen = {int(p.name): p.read_text() for p in tmp_path.iterdir()}
    assert len(seen) == 2 and os.getpid() in seen
    assert set(seen.values()) == {"1"}


@pytest.mark.parametrize("threads", [1, 2])
def test_solver_error_leaves_the_caller_blas_threads(monkeypatch, threads):
    get_threads, set_threads = _require_blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

    def blow_up(u):
        out = np.sin(u)
        out[0] = np.inf
        return out

    before = get_threads()
    try:
        set_threads(3)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(SolverError):
                run_convergence_study(_config(n_traj=30, nonlinearity=blow_up),
                                      threads=threads)
        assert get_threads() == 3
    finally:
        set_threads(before)


def test_in_process_chunks_run_on_at_most_the_usable_cpus(monkeypatch):
    get_threads, set_threads = _require_blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    seen = []

    def record_blas_threads(u):
        seen.append(get_threads())
        return np.sin(u)

    before = get_threads()
    try:
        set_threads(4)
        run_convergence_study(_config(nonlinearity=record_blas_threads),
                              threads=1)
        assert get_threads() == 4
    finally:
        set_threads(before)
    assert seen and set(seen) == {1}


def test_study_without_fork_runs_every_chunk_here(monkeypatch):
    get_threads, set_threads = _require_blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    seen = []

    def record_blas_threads(u):
        seen.append((os.getpid(), get_threads()))
        return np.sin(u)

    cfg = _config(n_traj=50, nonlinearity=record_blas_threads)
    in_order = run_convergence_study(cfg, threads=1)
    monkeypatch.delattr(os, "fork")
    before = get_threads()
    try:
        set_threads(3)
        seen.clear()
        assert run_convergence_study(cfg, threads=2) == in_order
        assert get_threads() == 3
    finally:
        set_threads(before)
    # both chunks ran here, on BLAS capped at the usable CPUs, not at one
    assert seen and set(seen) == {(os.getpid(), 2)}


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("one worker forked")

    cfg = _config(n_traj=50)
    expected = run_convergence_study(cfg, threads=2)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run_convergence_study(cfg, threads=1) == expected


def test_blas_threads_within_the_usable_cpus_are_not_set(monkeypatch):
    get_threads, set_threads = _require_blas_threads()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []
    before = get_threads()
    try:
        set_threads(2)
        monkeypatch.setattr(experiments, "_openblas_thread_functions",
                            lambda: (get_threads, calls.append))
        run_convergence_study(_config(n_traj=50), threads=1)
    finally:
        set_threads(before)
    assert calls == []


# ---------------------------------------------------------------------------
# the fork path: share 0 in the caller, the other shares in forked children


@pytest.fixture
def caller_on_three_blas_threads():
    """The caller on 3 BLAS threads, checked to be on 3 again afterwards
    (when numpy's OpenBLAS exports its thread functions)."""
    functions = experiments._openblas_thread_functions()
    if functions is None:
        yield
        return
    get_threads, set_threads = functions
    before = get_threads()
    set_threads(3)
    try:
        yield
        assert get_threads() == 3
    finally:
        set_threads(before)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_chunks(monkeypatch, fail):
    """Replace the chunk computation by one that calls ``fail(index)`` for
    each chunk of 25 trajectories and returns ones otherwise."""
    def fake(config, chunk):
        fail(chunk.start // 25)
        return np.ones((len(config.levels), len(chunk)))

    monkeypatch.setattr(experiments, "_chunk_squared_errors", fake)


@pytest.mark.parametrize("threads", [2, 4])
def test_child_solver_error_names_absolute_trajectory_and_level(
        caller_on_three_blas_threads, threads):
    # n_traj=80 gives chunks of 25, 25, 25 and 5 trajectories; the last,
    # trajectories 75..79, runs in a child at 2 and at 4 workers, after
    # chunk 1 at 2; its row 3 is trajectory 78
    def blow_up_last_batch(u):
        out = np.sin(u)
        if u.shape[0] == 5:
            out[3] = np.inf
        return out

    cfg = _config(levels=(4, 8), n_traj=80, nonlinearity=blow_up_last_batch)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(SolverError, match=(
                "^level 4: non-finite coefficient in trajectory 78, "
                "mode 1 at time level 1$")):
            run_convergence_study(cfg, threads=threads)
    _assert_no_child_left()


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("failing", [{0, 1}, {1}, {1, 2}, {2, 3}, {3}])
def test_lowest_failing_chunk_is_raised_as_in_one_process(
        monkeypatch, caller_on_three_blas_threads, threads, failing):
    # 4 chunks: at 2 workers the caller runs 0 and 2, a child 1 and 3; at
    # 3 workers the caller runs 0 and 3, children 1 and 2
    def fail(index):
        if index in failing:
            raise ValueError(f"chunk {index} failed")

    _fail_chunks(monkeypatch, fail)
    with pytest.raises(ValueError) as in_order:
        run_convergence_study(_config(n_traj=100), threads=1)
    with pytest.raises(ValueError) as forked:
        run_convergence_study(_config(n_traj=100), threads=threads)
    assert str(forked.value) == str(in_order.value) == f"chunk {min(failing)} failed"
    _assert_no_child_left()


def test_killed_child_raises_child_process_error_naming_its_status(
        monkeypatch, caller_on_three_blas_threads):
    caller = os.getpid()

    def die_in_a_child(index):
        if os.getpid() != caller:
            os.kill(os.getpid(), signal.SIGKILL)

    _fail_chunks(monkeypatch, die_in_a_child)
    with pytest.raises(ChildProcessError, match=(
            r"^worker process \d+ exited without sending its chunks: "
            rf"wait status {int(signal.SIGKILL)} \(killed by signal "
            rf"{int(signal.SIGKILL)}\)$")):
        run_convergence_study(_config(n_traj=50), threads=2)
    _assert_no_child_left()


def test_cli_reports_a_dead_worker_as_an_error_line(
        tmp_path, capsys, monkeypatch, caller_on_three_blas_threads):
    def exit_nine(*args):
        os._exit(9)

    monkeypatch.setattr(experiments, "_child_share", exit_nine)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("alpha = 0.3\ns = 0.7\nhurst = 0.8\nm = -1\naxis = time\n"
                        "levels = 4,8\nfixed_other = 8\nn_traj = 50\nseed = 11\n")
    rc = cli.main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                   "--threads", "2"])
    assert rc == 1
    assert re.fullmatch(
        r"error: worker process \d+ exited without sending its chunks: "
        r"wait status 2304 \(exit code 9\)\n", capsys.readouterr().err)
    _assert_no_child_left()


def test_unpicklable_child_exception_arrives_as_its_repr(
        monkeypatch, caller_on_three_blas_threads):
    class LocalError(Exception):                    # pickle cannot find it
        pass

    def fail(index):
        if index == 1:
            raise LocalError("no way back")

    _fail_chunks(monkeypatch, fail)
    with pytest.raises(RuntimeError, match=(
            r"^chunk 1 failed in a worker process: LocalError\('no way back'\)$")):
        run_convergence_study(_config(n_traj=50), threads=2)
    _assert_no_child_left()


def test_caller_error_leaves_no_child_behind(monkeypatch, caller_on_three_blas_threads):
    # the caller fails at once while the child is still computing
    def fail(index):
        if index == 0:
            raise ValueError("caller failed")
        time.sleep(0.2)

    _fail_chunks(monkeypatch, fail)
    with pytest.raises(ValueError, match="^caller failed$"):
        run_convergence_study(_config(n_traj=50), threads=2)
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# CSV emission


def test_emit_table_format():
    cfg = _config()
    res = StudyResult(config=cfg, prediction=predict_rates(cfg),
                      rows=(LevelResult(32, 0.000123456789, 0.5),
                            LevelResult(64, 1e-05, None)))
    buf = io.StringIO()
    emit_table(res, buf)
    assert buf.getvalue() == ("level,error,observed_rate,theoretical_rate\n"
                              "32,0.000123457,0.5,0.8\n"
                              "64,1e-05,,0.8\n")


def test_emit_table_header_only():
    cfg = _config()
    res = StudyResult(config=cfg, prediction=predict_rates(cfg),
                      rows=())
    buf = io.StringIO()
    emit_table(res, buf)
    assert buf.getvalue() == "level,error,observed_rate,theoretical_rate\n"


def test_emit_table_to_path(tmp_path):
    res = run_convergence_study(_config())
    target = tmp_path / "table.csv"
    emit_table(res, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "level,error,observed_rate,theoretical_rate"
    assert len(lines) == 4
    # finest row has an empty observed-rate cell
    assert lines[-1].split(",")[2] == ""
