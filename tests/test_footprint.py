"""Memory footprint of a study chunk.

The backward-Euler CQ couples every step to the whole history, so a chunk
keeps all L+1 states of the level it steps.  Besides those it should hold
only its increments: no full-size noise forcing array, no copy of the
increments for the stepper's time-major order, and no states of a level it
has finished.
"""
import tracemalloc

import numpy as np

from fracspde import fbm
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
    assert inc.shape == (7, 16, 5)
    assert np.moveaxis(inc, 1, 0).flags["C_CONTIGUOUS"]


def test_time_coarsening_of_the_view_copies_nothing_and_keeps_the_bits():
    inc = fbm.mode_increments(0.8, 1e-3, 64, 4, 6, range(5))
    grouped = inc.reshape(5, 16, 4, 6)
    assert np.shares_memory(grouped, inc)
    assert np.array_equal(grouped.sum(axis=2),
                          np.ascontiguousarray(inc).reshape(5, 16, 4, 6).sum(axis=2))


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
