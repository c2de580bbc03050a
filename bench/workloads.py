"""The benchmark's workloads: one fracspde CLI command and config each.

Sizes are smaller than the acceptance criteria they are modelled on so
that one CLI run takes one to three seconds and a timed run collects
about ten samples of each measurement; the reasons for each choice are in
``why`` and in bench/README.md.
"""
from __future__ import annotations

from dataclasses import dataclass, field

_MODEL = {"alpha": 0.3, "s": 0.7, "m": -1.0, "t_final": 0.01}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # "study" or "trajectory"
    config: dict
    why: str
    #: layer spans this workload's code path must record (missing-span guard)
    expected_spans: frozenset = field(default_factory=frozenset)

    def config_text(self, seed: int) -> str:
        values = dict(self.config, seed=seed)
        lines = []
        for key, value in values.items():
            if key == "levels":
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    @property
    def output_file(self) -> str:
        return "table.csv" if self.command == "study" else "trajectory.bin"

    def mode_steps(self) -> int:
        """Sum over every run of steps x modes x trajectories."""
        cfg = self.config
        if self.command == "trajectory":
            return cfg["levels"][-1] * cfg["fixed_other"]
        all_levels = list(cfg["levels"]) + [2 * cfg["levels"][-1]]
        return sum(level * cfg["fixed_other"] * cfg["n_traj"] for level in all_levels)


_STUDY_SPANS = frozenset({
    "experiments.run_convergence_study", "solver.run_ensemble",
    "fbm.mode_increments", "fbm.sample_fbm_circulant", "fbm.increment_covariance",
    "spectral.synthesize", "spectral.project", "cq.cq_weights",
})
_TRAJECTORY_SPANS = frozenset({
    "solver.run_trajectory", "solver.step", "solver.dump_trajectory",
    "fbm.mode_increments", "fbm.sample_fbm_circulant", "fbm.increment_covariance",
    "spectral.synthesize", "spectral.project", "cq.cq_weights",
})

WORKLOADS = {w.name: w for w in (
    Workload(
        "time_study", "study",
        dict(_MODEL, hurst=0.8, axis="time", levels=(32, 64, 128),
             fixed_other=100, n_traj=50),
        "criterion-2 temporal study (H=0.8, N=100, L to 256), 2 chunks; "
        "fGn sampling and the nonlinear term dominate, history is light",
        _STUDY_SPANS),
    Workload(
        "space_study", "study",
        dict(_MODEL, hurst=0.3, axis="space", levels=(8, 16, 32, 64),
             fixed_other=256, n_traj=50),
        "criterion-3 spatial study (H=0.3, N to 128, L=256), 2 chunks; "
        "history sum plus the N=128 DST-I of prime length 2*257",
        _STUDY_SPANS | {"experiments.pathwise_error"}),
    Workload(
        "trajectory_long", "trajectory",
        dict(_MODEL, hurst=0.8, axis="time", levels=(2048,), fixed_other=128),
        "single-path solver (run_trajectory/step, full history kept, "
        "trajectory.bin written) at L=2048, N=128",
        _TRAJECTORY_SPANS),
)}
