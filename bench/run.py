"""fracspde benchmark: end-to-end CLI timings or a traced per-layer run.

Run from the root of a source checkout:

    python3 bench/run.py --workload time_study --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the public CLI (``python -m fracspde.cli``) as a child
process, one at a time, alternating the default worker count with
``--threads 1``, and reports the end-to-end metrics.  ``--trace 1`` runs
the same command in-process with ``--threads 1`` under the span tracer and
reports the per-layer metrics.  ``--workload all`` runs every workload in
turn.  The BLAS environment is left as the caller has it and recorded.

Every run's output is checked (see checks.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import checks
import layers
from workloads import WORKLOADS

#: fresh interpreters started per run to time import + config parsing
SETUP_REPS = 5
#: minimum (default workers, --threads 1) pairs, even past --seconds
MIN_PAIRS = 3
#: a single CLI run taking longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 60.0
_SETUP_CODE = ("import pathlib, sys\n"
               "import fracspde.cli as cli\n"
               "cli.parse_config(pathlib.Path(sys.argv[1]).read_text())\n")
#: A fixed job that does not use fracspde: interpreter start, numpy and
#: scipy.fft imports and a little compute.  On a shared machine the cost of
#: starting and importing drifts by tens of percent over minutes; this job's
#: wall time drifts with it, so timings are rescaled by it (see README).
_PROBE_CODE = ("import numpy as np\n"
               "import scipy.fft\n"
               "z = np.random.default_rng(0).standard_normal((25, 512))\n"
               "s = 0.0\n"
               "for i in range(300000):\n"
               "    s += i * 0.5\n"
               "for _ in range(400):\n"
               "    np.fft.ifft(z, axis=-1)\n")
#: probe wall time that the reported timings are scaled to
PROBE_NOMINAL_S = 0.4


def _openblas() -> dict:
    """The OpenBLAS library numpy uses, its build string and thread count."""
    import numpy as np

    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(str(lib))
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                               ("openblas", "64_"), ("openblas", "")):
            get_config = getattr(handle, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.argtypes, get_config.restype = [], ctypes.c_char_p
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return {"library": lib.name, "config": get_config().decode().strip(),
                    "threads": get_threads()}
    return {"library": None, "config": None, "threads": None}


def _llc_bytes():
    """Size of the largest cache level of CPU 0, or None if unknown."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KM")) * scale))
    return best[1]


def environment(root: Path) -> dict:
    import numpy as np
    import scipy

    sha = "unknown (not a git checkout)"
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        sha = done.stdout.strip() or sha
    blas_build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas_build.get('name')} {blas_build.get('version')}",
        "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "llc_bytes": _llc_bytes(),
    }


def _spawn(argv, env, log: Path):
    """Run one child to completion; returns (wall seconds, peak RSS MB, status)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


class Outputs:
    """Checks each run's output and that all runs of the seed are identical."""

    def __init__(self, workload, seed, reference):
        self.workload, self.seed, self.reference = workload, seed, reference
        self.first = None
        self.attempted = self.failed = 0
        self.problems = []

    def check(self, out_dir: Path, status: int, label: str) -> list:
        path = out_dir / self.workload.output_file
        found = [f"exit status {status}"] if status != 0 else []
        if not found:
            found = checks.check_output(self.workload, out_dir, self.seed,
                                        self.reference)
        if not found:
            data = path.read_bytes()
            if self.first is None:
                self.first = data
            elif data != self.first:
                found = [f"{self.workload.output_file} differs from the first run"]
        path.unlink(missing_ok=True)
        self.attempted += 1
        if found:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in found]
        return found


def end_to_end(workload, config: Path, deadline, work: Path, src: Path, outputs) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    log = work / "child.log"

    setup = [_spawn([sys.executable, "-c", _SETUP_CODE, str(config)], env, log)
             for _ in range(SETUP_REPS)]
    if any(status != 0 for _, _, status in setup):
        outputs.problems.append("setup: importing fracspde.cli failed: "
                                + log.read_text(errors="replace")[-2000:])
        outputs.attempted += 1
        outputs.failed += 1

    runs = {"default": [], "1w": []}
    probes = []
    while True:
        start = time.perf_counter()
        probe = _spawn([sys.executable, "-c", _PROBE_CODE], env, log)
        if probe[2] != 0:
            raise RuntimeError("the probe job failed: " + log.read_text(errors="replace"))
        probes.append(probe[0])
        order = ("default", "1w") if len(runs["1w"]) % 2 == 0 else ("1w", "default")
        for label in order:
            out_dir = work / label
            argv = [sys.executable, "-m", "fracspde.cli", workload.command,
                    "--config", str(config), "--out", str(out_dir)]
            if label == "1w":
                argv += ["--threads", "1"]
            wall, rss, status = _spawn(argv, env, log)
            if outputs.check(out_dir, status, label):
                outputs.problems.append(log.read_text(errors="replace")[-2000:])
            runs[label].append((wall, rss))
        pair = time.perf_counter() - start
        if len(runs["1w"]) >= MIN_PAIRS and time.perf_counter() + pair > deadline:
            break

    raw = {"wall_s": statistics.median(w for w, _ in runs["default"]),
           "wall_1w_s": statistics.median(w for w, _ in runs["1w"]),
           "setup_s": statistics.median(w for w, _, _ in setup),
           "probe_s": statistics.median(probes)}
    scale = PROBE_NOMINAL_S / raw["probe_s"]
    wall, wall_1w = raw["wall_s"] * scale, raw["wall_1w_s"] * scale
    metrics = {
        "wall_s": wall,
        "wall_1w_s": wall_1w,
        "worker_speedup": wall_1w / wall,
        "mode_steps_per_s": workload.mode_steps() / wall,
        "peak_rss_mb": statistics.median(r for _, r in runs["default"]),
        "setup_s": raw["setup_s"] * scale,
    }
    return {"metrics": metrics, "raw": raw, "samples": len(runs["default"]),
            "setup_samples": len(setup)}


UNITS = {"wall_s": "s", "wall_1w_s": "s", "worker_speedup": "x",
         "mode_steps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
UNITS.update({m.name: m.unit for m in layers.METRICS})
UNITS.update(dict(layers.TRACE_METRICS))


def run_workload(workload, seed, seconds, trace, root, src, reference) -> dict:
    deadline = time.perf_counter() + seconds
    (root / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=root / ".bench_work"))
    outputs = Outputs(workload, seed, reference)
    try:
        config = work / "workload.cfg"
        config.write_text(workload.config_text(seed))
        if trace:
            out_dir = work / "traced"
            argv = [workload.command, "--config", str(config), "--out",
                    str(out_dir), "--threads", "1"]
            result = layers.run_traced(
                workload, argv,
                lambda status: outputs.check(out_dir, status, "traced"), deadline)
        else:
            result = end_to_end(workload, config, deadline, work, src, outputs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):     # still in use by another run
            work.parent.rmdir()
    result.update(attempted=outputs.attempted, failed=outputs.failed,
                  problems=outputs.problems)
    return result


def report(name, seed, trace, result) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {name}  seed {seed}  trace {trace}")
    if trace:
        print(f"  traced pairs {result['pairs']} (untraced + traced, --threads 1); "
              f"self time by layer in the last traced run:")
        wall = sum(result["breakdown"].values())
        for layer, seconds in sorted(result["breakdown"].items()):
            print(f"    {layer:<16s} {seconds:9.4f} s  {seconds / wall:6.1%}")
    else:
        print(f"  {result['samples']} runs per worker setting and probe runs, "
              f"{result['setup_samples']} setup runs; values are medians")
        print("  unscaled: " + "  ".join(f"{k} {v:.4f} s" for k, v in result["raw"].items())
              + f"; times below are scaled by {PROBE_NOMINAL_S} s / probe_s")
    for metric, value in result["metrics"].items():
        print(f"  {metric:<38s} {value:14.6g} {UNITS[metric]}")
    for metric, reason in result.get("absent", {}).items():
        print(f"  {metric:<38s} ABSENT ({reason})")
    print(f"  failed_frac {failed / attempted:.3g} ({failed} of {attempted} runs)")
    for problem in result["problems"][:10]:
        print(f"  FAILED CHECK {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    src = root / "src"
    if not (src / "fracspde" / "cli.py").is_file():
        print(f"error: {src / 'fracspde'} not found; run from the root of a "
              f"fracspde source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    reference = checks.load_reference()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print("environment " + json.dumps(environment(root), sort_keys=True))
    attempted = failed = 0
    metrics = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              args.trace, root, src, reference)
        report(name, args.seed, args.trace, result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}/" if args.workload == "all" else ""
        metrics.update({prefix + metric: {"value": value, "unit": UNITS[metric]}
                        for metric, value in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
