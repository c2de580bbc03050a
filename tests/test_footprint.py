"""Memory footprint of a study chunk, of a single path and of fGn sampling.

The backward-Euler CQ couples every step to the whole history, so a chunk
keeps all L states of the level it steps.  It keeps them in the buffer
that held that level's increments: the closing level steps in the draw
itself, and a time-axis level in its summed increments, so besides the
draw a chunk holds at most one coarser level's buffer, half the draw's
size.  It holds no full-size noise forcing array, no full-size copy of
the draw, and no states of a level it has finished.  The fGn sampler
draws every mode of a call into one set of buffers, and a single path
holds its L+1 states and nothing the size of them besides: its draw
fills rows 1..L of the states.
"""
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from fracspde import cli, fbm
from fracspde.experiments import ExperimentConfig, _chunk_squared_errors
from fracspde.solver import Discretization, ModelParams, run_ensemble


def test_ensemble_result_owns_its_memory():
    params = ModelParams(alpha=0.3, s=0.7, hurst=0.8, m=-1.0)
    disc = Discretization(n_modes=4, n_steps=8, tau=0.01 / 8)
    final = run_ensemble(params, disc, fbm.mode_increments(0.8, disc.tau, 8, 1, 4, range(3)))
    assert final.shape == (3, 4)
    assert final.base is None


def test_increments_are_time_major_in_memory():
    inc = fbm.mode_increments(0.3, 1e-3, 16, 2, 5, range(7))
    assert inc.shape == (16, 7, 5)
    assert inc.flags["C_CONTIGUOUS"]


def test_time_coarsening_of_the_view_copies_nothing_and_keeps_the_bits():
    inc = fbm.mode_increments(0.8, 1e-3, 64, 4, 6, range(5))
    grouped = inc.reshape(16, 4, 5, 6)
    assert np.shares_memory(grouped, inc)
    # a coarse step's increment adds its fine steps in time order
    in_order = grouped[:, 0]
    for j in range(1, 4):
        in_order = in_order + grouped[:, j]
    assert np.array_equal(grouped.sum(axis=1), in_order)


def test_chunk_peak_memory_stays_under_two_and_a_half_state_arrays():
    # the finest level has N=32 modes and L=256 steps on both axes
    n_traj = 25
    full = 8 * (256 + 1) * n_traj * 32
    for axis, levels, fixed_other in (("time", (32, 64, 128), 32),
                                      ("space", (4, 8, 16), 256)):
        config = ExperimentConfig(alpha=0.3, s=0.7, hurst=0.8, m=-1.0, axis=axis,
                                  levels=levels, fixed_other=fixed_other,
                                  n_traj=n_traj, seed=3)
        _chunk_squared_errors(config, range(n_traj))     # fill the sine-matrix cache
        tracemalloc.start()
        try:
            _chunk_squared_errors(config, range(n_traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * full, (axis, peak / full)


def test_chunk_peak_memory_stays_under_one_and_three_quarter_state_arrays():
    # the same configs: a chunk holds its draw and at most one coarser
    # level's buffer, of half the draw's size
    n_traj = 25
    full = 8 * (256 + 1) * n_traj * 32
    for axis, levels, fixed_other in (("time", (32, 64, 128), 32),
                                      ("space", (4, 8, 16), 256)):
        config = ExperimentConfig(alpha=0.3, s=0.7, hurst=0.8, m=-1.0, axis=axis,
                                  levels=levels, fixed_other=fixed_other,
                                  n_traj=n_traj, seed=3)
        _chunk_squared_errors(config, range(n_traj))     # fill the sine-matrix cache
        tracemalloc.start()
        try:
            _chunk_squared_errors(config, range(n_traj))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * full, (axis, peak / full)


def test_time_coarsening_sums_land_time_major():
    # so the time axis's coarser levels step in their own sums, uncopied
    inc = fbm.mode_increments(0.8, 1e-3, 64, 4, 6, range(5))
    states = np.empty((17, 5, 6))
    coarse = inc.reshape(16, 4, 5, 6).sum(axis=1, out=states[1:])
    assert np.shares_memory(coarse, states) and coarse.flags["C_CONTIGUOUS"]
    assert np.array_equal(coarse, inc.reshape(16, 4, 5, 6).sum(axis=1))


def test_overwrite_steps_in_the_draw_without_a_second_array():
    # out= the buffer the draw fills: the ensemble overwrites its own draw
    params = ModelParams(alpha=0.3, s=0.7, hurst=0.8, m=-1.0)
    disc = Discretization(n_modes=32, n_steps=256, tau=0.01 / 256)
    states = np.empty((257, 25, 32))
    inc = fbm.mode_increments(0.8, disc.tau, 256, 3, 32, range(25), out=states[1:])
    run_ensemble(params, disc, inc[:, :2])              # fill the sine-matrix cache
    tracemalloc.start()
    try:
        final = run_ensemble(params, disc, inc, out=states)
        peak = tracemalloc.get_traced_memory()[1]       # beyond the buffer
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * states.nbytes, peak / states.nbytes
    assert np.array_equal(states[-1], final)


def _mode_increments_peak_beyond_output(n_modes):
    tracemalloc.start()
    try:
        out = fbm.mode_increments(0.3, 1 / 256, 256, 5, n_modes, range(25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - out.nbytes


def test_fgn_peak_memory_does_not_grow_with_the_mode_count():
    # one mode's sampler buffers are about 5 x 8 B x 2L per path; only the
    # stream keys, a few words per (mode, path), may grow with the modes
    fbm.mode_increments(0.3, 1 / 256, 256, 5, 4, range(25))   # FFT set-up
    few, many = (_mode_increments_peak_beyond_output(n) for n in (4, 64))
    assert many - few < 64 * (64 - 4) * 25, (few, many)


_FIRST_CALL_FAULTS = """
import resource, sys
from fracspde import cli, fbm
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
out = fbm.mode_increments(0.3, 1 / 256, 256, 5, int(sys.argv[1]), range(25))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, out.nbytes)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
def test_fgn_first_call_faults_in_no_pages_per_mode():
    # a fresh process's first call: per-mode sampler arrays, allocated and
    # freed mode after mode, fault their pages in again for every mode;
    # reused buffers leave only the output's pages growing with the modes
    src = str(Path(fbm.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    counts = {}
    for n_modes in (4, 64):
        out = subprocess.run([sys.executable, "-c", _FIRST_CALL_FAULTS, str(n_modes)],
                             env=env, capture_output=True, text=True, check=True,
                             timeout=120)
        faults, nbytes = map(int, out.stdout.split())
        counts[n_modes] = faults, nbytes // 4096
    output_pages = counts[64][1] - counts[4][1]
    assert counts[64][0] - counts[4][0] < 1.5 * output_pages, counts


def test_trajectory_command_holds_one_state_array(tmp_path):
    # the full CQ memory keeps all L+1 states; the fGn draw fills rows
    # 1..L of them and the path steps there, so no second array is held
    n_steps, n_modes = 1024, 64
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 0.3\ns = 0.7\nhurst = 0.8\nm = -1\naxis = time\n"
                   f"levels = {n_steps}\nfixed_other = {n_modes}\n")
    argv = ["trajectory", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 0                   # sine matrices, FFT set-up
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = 8 * (n_steps + 1) * n_modes
    assert peak < 1.5 * full, peak / full
