"""Command line front end.

Three subcommands:

* ``study``       run a convergence study, write ``table.csv`` + ``manifest.json``
* ``trajectory``  run one path at the finest level, dump ``trajectory.bin``
* ``selftest``    quick internal consistency checks, exit status 0/1

Configuration is a plain-text file of ``key = value`` lines (``#`` starts
a comment).  The keys, their types and their defaults are the fields of
:class:`~fracspde.experiments.ExperimentConfig`; a key is required
exactly when its field has no default:

    alpha, s, hurst, m     model parameters (floats)
    t_final                final time (default 0.01)
    nonlinearity           "sin" or "zero" (default sin)
    axis                   "time" or "space"
    levels                 comma-separated refinement ladder, e.g. 32,64,128
    fixed_other            resolution of the non-swept axis (int)
    n_traj                 Monte Carlo sample size (default 100)
    seed                   master seed, drives all randomness (default 0)

Any key can be overridden on the command line with ``--set key=value``.
Unknown or missing keys are reported by name.  There is no wall-clock
entropy anywhere: everything random follows from ``seed``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, cq, fbm, mlf, solver
from .experiments import ExperimentConfig, emit_table, run_convergence_study

__all__ = ["parse_config", "serialize_config", "main"]

#: config key -> its ExperimentConfig field, in field order
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_TYPES = get_type_hints(ExperimentConfig)
#: field type -> parser of the raw text; ``object`` is the nonlinearity,
#: which a config file can only name by its tag
_PARSERS = {float: float, int: int, str: str, object: str,
            tuple: lambda raw: tuple(int(part.strip()) for part in raw.split(","))}


def _parse_entry(entry: str) -> tuple:
    """(key, value) of one ``key = value`` entry; names a bad key or value."""
    key, _, raw = entry.partition("=")
    key, raw = key.strip(), raw.strip()
    if key not in _FIELDS:
        raise ValueError(f"unknown config key {key!r}")
    try:
        return key, _PARSERS[_TYPES[key]](raw)
    except ValueError:
        raise ValueError(f"bad value for config key {key!r}: {raw!r}") from None


def parse_config(text: str, overrides=()) -> ExperimentConfig:
    """Parse ``key = value`` lines, apply overrides, validate."""
    values = {key: f.default for key, f in _FIELDS.items() if f.default is not MISSING}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = _parse_entry(line)
        if key in seen:
            raise ValueError(f"duplicate config key {key!r}")
        seen.add(key)
        values[key] = value
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set needs key=value, got {item!r}")
        key, value = _parse_entry(item)
        values[key] = value
    missing = sorted(_FIELDS.keys() - values.keys())
    if missing:
        raise ValueError(f"missing required config key {missing[0]!r}")
    return ExperimentConfig(**values)


def serialize_config(config: ExperimentConfig) -> str:
    """Inverse of :func:`parse_config` (up to formatting)."""
    lines = []
    for key in _FIELDS:
        value = getattr(config, key)
        if key == "levels":
            value = ",".join(str(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _write_manifest(out_dir: Path, config: ExperimentConfig, command: str) -> None:
    echo = {key: getattr(config, key) for key in _FIELDS}
    echo["levels"] = list(config.levels)
    payload = {"command": command, "config": echo, "seed": config.seed,
               "version": __version__}
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    return parse_config(Path(args.config).read_text(), args.set or ())


def _cmd_study(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)   # a bad --out fails before the run
    result = run_convergence_study(config, threads=args.threads)
    emit_table(result, out_dir / "table.csv")
    _write_manifest(out_dir, config, "study")
    for row in result.rows:
        rate = "" if row.observed_rate is None else f"  rate {row.observed_rate:.3f}"
        print(f"level {row.level:>6d}  error {row.error:.6g}{rate}")
    print(f"theoretical rate {result.theoretical_rate:.3f}")
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)   # a bad --out fails before the run
    disc = config.discretization(config.levels[-1])
    # the draw fills rows 1..L of the states, and the path steps there
    states = np.empty((disc.n_steps + 1, disc.n_modes))
    fbm.mode_increments(config.hurst, disc.tau, disc.n_steps, config.seed,
                        disc.n_modes, [0], out=states[1:, None])
    solver.run_trajectory(config, disc, states[1:], out=states)
    solver.dump_trajectory(out_dir / "trajectory.bin", states, config, disc,
                           config.seed)
    _write_manifest(out_dir, config, "trajectory")
    print(f"wrote {out_dir / 'trajectory.bin'} "
          f"({disc.n_steps + 1} levels x {disc.n_modes} modes)")
    return 0


# ---------------------------------------------------------------------------
# selftest suites


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
    # the batch's blocked sums (GEMM panels, then a gemv per step) on the
    # installed BLAS; 300 steps cross the 16-step blocks and 256-state panels
    n_steps = 300
    weights = cq.cq_weights(0.4, 0.01, n_steps)
    states = np.random.default_rng(4322).standard_normal((n_steps + 1, 3, 5))
    lags = np.subtract.outer(np.arange(n_steps), np.arange(n_steps))
    toeplitz = np.where(lags >= 1, weights[lags], 0.0)   # row n-1: sum_j d_{n-j} u^j
    expect = toeplitz @ states[1:].reshape(n_steps, -1)
    got = np.array(list(solver._blocked_history_sums(states[1:], weights)))
    blocked = float(np.max(np.abs(got.reshape(n_steps, -1) - expect))
                    / np.max(np.abs(expect)))
    if blocked > 1e-13:
        raise AssertionError(f"blocked batch sum vs dense Toeplitz, rel {blocked:.2e}")
    return f"dense Toeplitz rel {rel:.2e}, width independent, blocked rel {blocked:.2e}"


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


def _cmd_selftest(args: argparse.Namespace) -> int:
    suites = [
        ("fbm sampler statistics", _selftest_fbm),
        ("fbm stream keys", _selftest_fbm_keys),
        ("cq weight table", _selftest_cq),
        ("cq history kernel", _selftest_cq_history),
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


_HANDLERS = {"study": _cmd_study, "trajectory": _cmd_trajectory,
             "selftest": _cmd_selftest}


def _positive_int(raw: str) -> int:
    """argparse type of ``--threads``: an int >= 1, refused at parse time."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {raw!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspde",
        description="convergence studies for a stochastic time-fractional "
                    "diffusion equation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (("study", "run a convergence study"),
                            ("trajectory", "dump one finest-level trajectory")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="max processes that run a study's chunks, this one "
                            "included (default: the usable CPUs); a trajectory "
                            "runs in this process")
    sub.add_parser("selftest", help="run built-in consistency checks")
    return parser


def main(argv=None) -> int:
    """Run one command line invocation; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, solver.SolverError, mlf.MittagLefflerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
