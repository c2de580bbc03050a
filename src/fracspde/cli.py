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
import gc
import json
import sys
from dataclasses import MISSING, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import __version__, fbm, solver
from .experiments import ExperimentConfig, emit_table, run_convergence_study

__all__ = ["parse_config", "main", "run"]

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
    config._check_coupled_errors()               # a refused study makes no --out
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


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import selftest

    return selftest.run()


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
    except (ValueError, OSError, solver.SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Process entry of ``python -m fracspde.cli`` and the ``fracspde``
    script: exits with :func:`main`'s status.

    The objects that importing the package made stay alive until the
    process ends, so ``gc.freeze`` moves them out of the collector's
    reach before the run, as Python's docs advise for a process that
    forks: the run and the collection at exit no longer traverse them,
    and a forked study worker does not write to their pages.  ``main``
    does not freeze, since it is also called in a process that goes on.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
