"""Output checks applied to every benchmark run of the fracspde CLI.

* A study's ``table.csv`` has one row per configured level, every error is
  finite and positive, and, where ``reference.json`` holds the table for
  this workload and seed, every number matches it to the CSV's 6
  significant digits.
* A trajectory's ``trajectory.bin`` round-trips through
  ``solver.load_trajectory`` with the configured shape and header, and its
  summary numbers match the stored reference the same way.

Byte identity across the runs of one seed (any worker count) is checked by
the caller, which sees all of them.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
_HEADER = "level,error,observed_rate,theoretical_rate"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def close6(value: float, reference: float) -> bool:
    """Equal up to one unit in the 6th significant digit of ``reference``."""
    if reference == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(reference))) - 5)
    return abs(value - reference) <= unit * (1.0 + 1e-9)


def table_numbers(text: str) -> list:
    """Every cell of a study table after the header, as floats (None if empty)."""
    lines = text.splitlines()
    return [[float(cell) if cell else None for cell in line.split(",")]
            for line in lines[1:]]


def trajectory_summary(states) -> list:
    """Numbers that stand for one trajectory in the reference file."""
    return [float((states ** 2).sum()), float(abs(states[-1]).sum()),
            float(states[-1, 0])]


def _compare(got: list, want: list, what: str) -> list:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if (g is None) != (w is None) or (g is not None and not close6(g, w)):
            return [f"{what}: value {i} is {g!r}, reference {w!r}"]
    return []


def check_table(text: str, levels, reference: str | None) -> list:
    problems = []
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        return [f"table.csv header is {lines[:1]!r}"]
    try:
        rows = table_numbers(text)
    except ValueError as exc:
        return [f"table.csv has a non-numeric cell: {exc}"]
    if [row[0] for row in rows] != [float(v) for v in levels]:
        problems.append(f"table.csv levels {[row[0] for row in rows]} != {list(levels)}")
    for row in rows:
        error = row[1]
        if error is None or not math.isfinite(error) or error <= 0.0:
            problems.append(f"level {row[0]:g}: error {error!r} is not finite and positive")
    if reference is not None:
        flat = [cell for row in rows for cell in row]
        want = [cell for row in table_numbers(reference) for cell in row]
        problems += _compare(flat, want, "table.csv vs reference")
    return problems


def check_trajectory(path: Path, config: dict, seed: int, reference) -> list:
    import numpy as np
    from fracspde import solver

    try:
        states, meta = solver.load_trajectory(path)
    except (OSError, ValueError) as exc:
        return [f"trajectory.bin does not load: {exc}"]
    n_steps, n_modes = config["levels"][-1], config["fixed_other"]
    problems = []
    if states.shape != (n_steps + 1, n_modes):
        problems.append(f"trajectory shape {states.shape} != {(n_steps + 1, n_modes)}")
    expected = {key: config[key] for key in ("alpha", "s", "hurst", "m", "t_final")}
    expected.update(n_modes=n_modes, n_steps=n_steps, seed=seed,
                    nonlinearity=config.get("nonlinearity", "sin"),
                    tau=config["t_final"] / n_steps)
    for key, value in expected.items():
        if meta.get(key) != value:
            problems.append(f"trajectory header {key}={meta.get(key)!r}, expected {value!r}")
    if not np.all(np.isfinite(states)) or np.any(states[0] != 0.0):
        problems.append("trajectory states are not finite or do not start at zero")
    if reference is not None and not problems:
        problems += _compare(trajectory_summary(states), reference,
                             "trajectory.bin vs reference")
    return problems


def check_output(workload, out_dir: Path, seed: int, reference: dict) -> list:
    """Problems with one run's output (empty list when it is correct)."""
    ref = reference.get(workload.name, {}).get(str(seed))
    path = out_dir / workload.output_file
    if not path.is_file():
        return [f"{workload.output_file} was not written"]
    if workload.command == "study":
        return check_table(path.read_text(), workload.config["levels"], ref)
    return check_trajectory(path, workload.config, seed, ref)
