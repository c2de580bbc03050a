"""Regenerate bench/reference.json: every workload's output for seeds
0..SEEDS-1, from the fracspde sources in ./src.

    python3 bench/make_reference.py

Run it only on a commit whose outputs are known good; the benchmark fails
any later run whose output differs from these at 6 significant digits.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import checks
from workloads import WORKLOADS

SEEDS = 40


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from fracspde import cli, solver

    reference = {}
    with tempfile.TemporaryDirectory() as tmp:
        config, out_dir = Path(tmp) / "workload.cfg", Path(tmp) / "out"
        for name, workload in sorted(WORKLOADS.items()):
            reference[name] = {}
            for seed in range(SEEDS):
                config.write_text(workload.config_text(seed))
                with contextlib.redirect_stdout(io.StringIO()):
                    status = cli.main([workload.command, "--config", str(config),
                                       "--out", str(out_dir), "--threads", "1"])
                if status != 0:
                    raise SystemExit(f"{name} seed {seed}: exit status {status}")
                path = out_dir / workload.output_file
                if workload.command == "study":
                    entry = path.read_text()
                else:
                    states, _ = solver.load_trajectory(path)
                    entry = [float(f"{v:.6g}") for v in checks.trajectory_summary(states)]
                problems = checks.check_output(workload, out_dir, seed, {})
                if problems:
                    raise SystemExit(f"{name} seed {seed}: {problems}")
                reference[name][str(seed)] = entry
            print(f"{name}: {SEEDS} seeds", file=sys.stderr)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
