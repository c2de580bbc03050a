"""Quick internal consistency checks behind ``fracspde selftest``.

Each suite checks one part of the package against an independent
computation and returns a line of detail, or raises.  ``run`` runs them
all and prints one ``ok`` or ``FAIL`` line each.  The command line
imports this module only for the ``selftest`` command, so the other
commands neither compile nor load it.
"""
from __future__ import annotations

import math

import numpy as np

from . import cq, fbm, mlf, solver, spectral

__all__ = ["run"]


def _selftest_fbm() -> str:
    h, n_steps, n_paths = 0.8, 32, 4000
    rng = np.random.default_rng(1234)
    paths = fbm.sample_fbm_circulant(h, 1.0, n_steps, rng, n_paths)
    totals = paths.sum(axis=1)
    var = totals.var(ddof=1)
    target = float(n_steps) ** (2 * h)
    se = math.sqrt(2.0 / (n_paths - 1)) * target
    if abs(var - target) > 5 * se:
        raise AssertionError(
            f"Var(W(T)) = {var:.4g}, expected {target:.4g} +- {5 * se:.2g}")
    return f"endpoint variance {var:.4g} vs {target:.4g}"


def _selftest_fbm_keys() -> str:
    # the vectorised key pass re-implements numpy's SeedSequence hash; a
    # numpy release that changes that hash shows up here
    cases = [(0, 1, 0), (7, 3, 12), (2 ** 64 - 1, 1, 2 ** 31),
             (2 ** 64 - 1, 2 ** 32 - 1, 2 ** 32 - 1), (12345, 2, 2 ** 40)]
    for seed, mode, traj in cases:
        got = fbm._philox_keys(seed, [mode], [traj])[0, 0]
        want = np.random.SeedSequence(seed, spawn_key=(mode, traj)).generate_state(
            2, np.uint64)
        if not np.array_equal(got, want):
            raise AssertionError(f"seed {seed}, mode {mode}, trajectory {traj}: "
                                 f"key {got.tolist()} != SeedSequence {want.tolist()}")
    # and a re-keyed generator starts where a fresh Philox stream does
    drawn = fbm.mode_increments(0.8, 1.0, 4, 7, 3, [12])[:, 0, 2]
    fresh = fbm.sample_fbm_circulant(0.8, 1.0, 4, fbm._stream(7, 3, 12))[0]
    if not np.array_equal(drawn, fresh):
        raise AssertionError("re-keyed draws differ from the (7, 3, 12) stream's")
    return f"{len(cases)} keys equal SeedSequence's (numpy {np.__version__}), draws equal"


def _selftest_cq() -> str:
    worst = 0.0
    for alpha in (0.3, 0.7):
        a = 1.0 - alpha
        fast = cq.cq_weights(a, 0.01, 32)
        slow = cq.weights_by_series(a, 0.01, 32)
        worst = max(worst, float(np.max(np.abs(fast - slow) / np.abs(slow))))
    if worst > 1e-12:
        raise AssertionError(f"weight mismatch, rel {worst:.2e}")
    return f"recurrence vs series, rel {worst:.2e}"


def _far_sums(states: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # each row the kernel yields is a view that its next block overwrites
    return np.array([row.copy() for row in solver._far_history_sums(states, weights)])


def _selftest_cq_history() -> str:
    n_steps, width = 64, 16
    weights = cq.cq_weights(0.4, 0.01, n_steps)
    history = np.random.default_rng(4321).standard_normal((n_steps, width))
    lags = np.subtract.outer(np.arange(n_steps), np.arange(n_steps))
    toeplitz = np.where(lags >= 0, weights[lags], 0.0)   # row n: sum_i d_i u^{n+1-i}
    expect = toeplitz @ history
    got = np.array([cq.apply_cq_history(weights, history[:n + 1])
                    for n in range(n_steps)])
    rel = float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    if rel > 1e-13:
        raise AssertionError(f"dense Toeplitz mismatch, rel {rel:.2e}")
    for cols in (slice(0, 1), slice(3, 8)):
        if not np.array_equal(cq.apply_cq_history(weights, history[:, cols]),
                              got[-1, cols]):
            raise AssertionError(f"columns {cols.start}..{cols.stop - 1} change "
                                 f"with the batch width")
    # on the installed BLAS, 300 steps cross the 16-step blocks and the
    # 256-state panels: the far sums both paths take at each block's start,
    # plus step's einsum over the block
    n_steps, width = 300, 16
    weights = cq.cq_weights(0.4, 0.01, n_steps)
    states = np.random.default_rng(4322).standard_normal((n_steps + 1, 3, 5))
    row, col = np.arange(n_steps)[:, None], np.arange(n_steps)
    toeplitz = np.where(row > col, weights[np.clip(row - col, 0, None)], 0.0)
    expect = toeplitz @ states[1:].reshape(n_steps, -1)   # row n-1: sum_j d_{n-j} u^j
    got = np.array([far + cq.apply_cq_history(weights[1:], states[n - (n - 1) % 16:n])
                    for n, far in enumerate(solver._far_history_sums(states[1:], weights), 1)])
    blocked = float(np.max(np.abs(got.reshape(n_steps, -1) - expect))
                    / np.max(np.abs(expect)))
    if blocked > 1e-13:
        raise AssertionError(f"far sums plus block einsum vs dense Toeplitz, "
                             f"rel {blocked:.2e}")
    states = np.random.default_rng(4323).standard_normal((n_steps, width))
    # only the states before step n's block
    expect = np.where(col < row - row % 16, toeplitz, 0.0) @ states
    got = _far_sums(states, weights)
    far = float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))
    if far > 1e-13:
        raise AssertionError(f"far history sums vs dense Toeplitz, rel {far:.2e}")
    for cols in (1, 5, 13):
        if not np.array_equal(_far_sums(states[:, :cols].copy(), weights), got[:, :cols]):
            raise AssertionError(f"far sums of {cols} columns differ from the same "
                                 f"columns of {width}")
    return (f"einsum vs dense Toeplitz rel {rel:.2e}, blocked rel {blocked:.2e}, "
            f"far sums rel {far:.2e}, einsum and far sums width independent")


def _selftest_transform_rows() -> str:
    # a path's bits must not depend on the batch it is stepped in, so a
    # transformed row must not depend on the rows transformed with it
    rng = np.random.default_rng(4324)
    for n_modes in (8, 100, 128):
        coeffs = rng.standard_normal((25, n_modes))
        grid = rng.standard_normal((25, 2 * n_modes))
        wide = (spectral.synthesize(coeffs, 2 * n_modes), spectral.project(grid, n_modes))
        for rows in (1, 2, 5):
            for lo in (0, 25 - rows):
                part = slice(lo, lo + rows)
                narrow = (spectral.synthesize(coeffs[part], 2 * n_modes),
                          spectral.project(grid[part], n_modes))
                for name, got, want in zip(("synthesize", "project"), narrow, wide):
                    if not np.array_equal(got, want[part]):
                        raise AssertionError(f"{name} of rows {lo}..{lo + rows - 1} "
                                             f"differs from the same rows of 25, N={n_modes}")
    return "rows of 1-, 2- and 5-row transforms equal those of 25"


def _selftest_mlf() -> str:
    checks = [
        (1.0, 1.0, -1.0, math.exp(-1.0)),
        (1.0, 2.0, -2.0, -math.expm1(-2.0) / 2.0),
        (0.5, 1.0, -1.0, 0.427583576155807),
        (0.5, 2.0, -1.0, 0.5559627432513196),
    ]
    worst = 0.0
    for alpha, beta, z, ref in checks:
        got = mlf.mittag_leffler(alpha, beta, z)
        worst = max(worst, abs(got - ref) / abs(ref))
    if worst > 1e-10:
        raise AssertionError(f"value mismatch, rel {worst:.2e}")
    return f"reference values, rel {worst:.2e}"


def _selftest_solver_order() -> str:
    alpha, lam_s, t_final = 0.5, np.array([1.0]), 1.0
    ref = mlf.linear_mode_reference(1.0, alpha, 1.0, t_final)
    errors = []
    for n_steps in (16, 32, 64, 128):
        tau = t_final / n_steps
        weights = cq.cq_weights(1.0 - alpha, tau, n_steps)
        history = np.zeros((n_steps + 1, 1))
        for n in range(1, n_steps + 1):
            history[n] = solver.step(history[:n], weights, lam_s, tau, 1.0, 0.0)
        errors.append(abs(history[n_steps, 0] - ref))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    mean = float(orders.mean())
    if not 0.85 <= mean <= 1.15:
        raise AssertionError(f"observed order {mean:.3f}, expected ~1")
    return f"scalar backward-Euler order {mean:.3f}"


def run() -> int:
    """Run every suite, print a line each; returns the exit status 0 or 1."""
    suites = [
        ("fbm sampler statistics", _selftest_fbm),
        ("fbm stream keys", _selftest_fbm_keys),
        ("cq weight table", _selftest_cq),
        ("cq history kernel", _selftest_cq_history),
        ("spectral transform rows", _selftest_transform_rows),
        ("mittag-leffler values", _selftest_mlf),
        ("scalar solver order", _selftest_solver_order),
    ]
    failed = []
    for name, fn in suites:
        try:
            detail = fn()
            print(f"ok   {name}: {detail}")
        except Exception as exc:
            failed.append(name)
            print(f"FAIL {name}: {exc}")
    if failed:
        print(f"selftest failed: {', '.join(failed)}")
        return 1
    print("selftest passed")
    return 0
