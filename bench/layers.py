"""Per-layer metrics from a traced in-process run of the fracspde CLI.

The traced run wraps the public module attributes each layer is called
through (see ``targets``), runs ``cli.main`` with ``--threads 1`` so every
span lands on one thread, and restores the attributes afterwards.  Runs
alternate untraced and traced so that the tracing overhead is measured on
the same process state.

Missing-span guard: a metric is *absent*, not zero, when one of its spans
could not be wrapped (the attribute was renamed or removed) or when the
workload's code path is expected to call it and did not.  A layer the
workload does not use at all (e.g. ``solver.step`` in a study) reads 0.
"""
from __future__ import annotations

import contextlib
import io
import os
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from tracer import Target, Tracer

RCS = "experiments.run_convergence_study"
PE = "experiments.pathwise_error"
ENS = "solver.run_ensemble"
MI = "fbm.mode_increments"
SFC = "fbm.sample_fbm_circulant"
IC = "fbm.increment_covariance"
SYN = "spectral.synthesize"
PRO = "spectral.project"
CQW = "cq.cq_weights"
TRAJ = "solver.run_trajectory"
STEP = "solver.step"
DUMP = "solver.dump_trajectory"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(counts, args, kwargs, result):
    counts["spectral.rows"] += result.size // result.shape[-1]


def _count_ensemble_history(counts, args, kwargs, result):
    # the history matvec at step n reads n-1 stored states of n_traj*N floats
    n_steps = _arg(args, kwargs, 1, "disc").n_steps
    counts["solver.history_bytes"] += 8 * result.size * n_steps * (n_steps - 1) // 2


def _count_step_history(counts, args, kwargs, result):
    history = _arg(args, kwargs, 0, "history")
    counts["solver.history_bytes"] += 8 * (history.shape[0] - 1) * history.shape[1]


def _count_dump(counts, args, kwargs, result):
    counts["solver.dump_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def targets() -> list:
    """Every wrapped attribute.  Callers outside a module go through the
    importing module's name (``cli.run_convergence_study``,
    ``experiments.run_ensemble``), so those are the attributes wrapped."""
    from fracspde import cli, cq, experiments, fbm, solver, spectral

    return [
        Target(cli, "run_convergence_study", RCS),
        Target(experiments, "run_ensemble", ENS, _count_ensemble_history),
        Target(experiments, "pathwise_error", PE),
        Target(fbm, "mode_increments", MI),
        Target(fbm, "sample_fbm_circulant", SFC),
        Target(fbm, "increment_covariance", IC),
        Target(spectral, "synthesize", SYN, _count_rows),
        Target(spectral, "project", PRO, _count_rows),
        Target(cq, "cq_weights", CQW),
        Target(solver, "run_trajectory", TRAJ),
        Target(solver, "step", STEP, _count_step_history),
        Target(solver, "dump_trajectory", DUMP, _count_dump),
    ]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    spans: tuple
    value: Callable[[Tracer], float]


def _ratio(num, den):
    return num / den if den else 0.0


def _total(span):
    return lambda t: t.total[span]


def _self(span):
    return lambda t: t.self_time[span]


def _calls(span):
    return lambda t: t.calls[span]


METRICS = [
    Metric(f"{RCS}.s", "s", (RCS,), _total(RCS)),
    # total minus the fbm and solver spans; pathwise_error is this layer's own
    Metric("experiments.self_s", "s", (RCS, PE),
           lambda t: t.self_time[RCS] + t.total[PE]),
    Metric(f"{PE}.s", "s", (PE,), _total(PE)),
    Metric("experiments.chunks", "count", (RCS, MI),
           lambda t: t.calls[MI] if t.calls[RCS] else 0),
    Metric(f"{MI}.s", "s", (MI,), _total(MI)),
    # stream setup (SeedSequence + Philox) and the per-stream loop
    Metric(f"{MI}.self_s", "s", (MI, SFC), _self(MI)),
    Metric(f"{SFC}.s", "s", (SFC,), _total(SFC)),
    Metric("fbm.streams", "count", (SFC,), _calls(SFC)),
    Metric(f"{IC}.calls", "count", (IC,), _calls(IC)),
    Metric("fbm.us_per_stream", "us", (MI, SFC),
           lambda t: 1e6 * _ratio(t.total[MI], t.calls[SFC])),
    Metric(f"{SYN}.s", "s", (SYN,), _total(SYN)),
    Metric(f"{PRO}.s", "s", (PRO,), _total(PRO)),
    Metric("spectral.calls", "count", (SYN, PRO),
           lambda t: t.calls[SYN] + t.calls[PRO]),
    Metric("spectral.rows", "count", (SYN, PRO), lambda t: t.counts["spectral.rows"]),
    Metric("spectral.us_per_row", "us", (SYN, PRO),
           lambda t: 1e6 * _ratio(t.total[SYN] + t.total[PRO], t.counts["spectral.rows"])),
    Metric(f"{CQW}.s", "s", (CQW,), _total(CQW)),
    Metric(f"{CQW}.calls", "count", (CQW,), _calls(CQW)),
    Metric(f"{ENS}.s", "s", (ENS,), _total(ENS)),
    # minus the spectral and cq spans: history sum, solve and f(u)
    Metric(f"{ENS}.self_s", "s", (ENS, SYN, PRO, CQW), _self(ENS)),
    Metric("solver.history_bytes_computed", "B", (ENS, STEP),
           lambda t: t.counts["solver.history_bytes"]),
    # bytes derived from call shapes over the stepper time; the arrays fit
    # in a large last-level cache, so this is not a DRAM bandwidth
    Metric("solver.history_gbps_computed", "GB/s", (ENS, STEP),
           lambda t: 1e-9 * _ratio(t.counts["solver.history_bytes"],
                                   t.self_time[ENS] + t.total[STEP])),
    Metric(f"{STEP}.s", "s", (STEP,), _total(STEP)),
    Metric(f"{STEP}.calls", "count", (STEP,), _calls(STEP)),
    Metric(f"{TRAJ}.self_s", "s", (TRAJ, STEP, SYN, PRO, CQW), _self(TRAJ)),
    Metric(f"{DUMP}.s", "s", (DUMP,), _total(DUMP)),
    Metric(f"{DUMP}.bytes", "B", (DUMP,), lambda t: t.counts["solver.dump_bytes"]),
]

#: computed by ``run_traced`` from the traced and untraced wall times
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.coverage", "frac"),
                 ("trace.overhead_frac", "frac")]


def absent_reasons(tracer: Tracer, expected) -> dict:
    """Span name -> reason, for spans whose metrics must not be reported."""
    reasons = dict(tracer.missing)
    for span in expected:
        if span not in reasons and tracer.calls[span] == 0:
            reasons[span] = "expected on this workload's path but never called"
    return reasons


def layer_metrics(tracer: Tracer, expected) -> tuple:
    """(values by metric name, absent metric name -> reason)."""
    reasons = absent_reasons(tracer, expected)
    values, absent = {}, {}
    for metric in METRICS:
        blocked = [span for span in metric.spans if span in reasons]
        if blocked:
            absent[metric.name] = f"span {blocked[0]}: {reasons[blocked[0]]}"
        else:
            values[metric.name] = float(metric.value(tracer))
    return values, absent


def layer_breakdown(tracer: Tracer, wall: float) -> dict:
    """Self time per layer (module), summed over its spans, plus the part
    of ``wall`` outside every span."""
    out = {}
    for span, seconds in tracer.self_time.items():
        layer = span.partition(".")[0]
        out[layer] = out.get(layer, 0.0) + seconds
    out["(outside spans)"] = wall - tracer.covered()
    return out


def run_traced(workload, argv, check, deadline: float) -> dict:
    """Alternate untraced and traced in-process runs of ``cli.main(argv)``
    until ``deadline`` (at least one of each after a warm-up run).

    ``check(status)`` inspects the output after each run.  Returns the
    median of every metric over the traced runs.
    """
    from fracspde import cli

    untraced, traced, samples = [], [], []
    absent, breakdown = {}, {}

    def invoke(tracer):
        with contextlib.redirect_stdout(io.StringIO()), \
                (tracer.patch(targets()) if tracer is not None
                 else contextlib.nullcontext()):
            start = time.perf_counter()
            status = cli.main(argv)
            wall = time.perf_counter() - start
        check(status)
        return wall

    invoke(None)                                  # warm-up: imports, FFT plans
    while True:
        untraced.append(invoke(None))
        tracer = Tracer()
        wall = invoke(tracer)
        traced.append(wall)
        values, absent = layer_metrics(tracer, workload.expected_spans)
        values["trace.wall_s"] = wall
        values["trace.coverage"] = tracer.covered() / wall
        samples.append(values)
        breakdown = layer_breakdown(tracer, wall)
        if time.perf_counter() + wall + untraced[-1] > deadline:
            break

    metrics = {name: statistics.median(s[name] for s in samples)
               for name in samples[0]}
    metrics["trace.overhead_frac"] = (statistics.median(traced)
                                      / statistics.median(untraced) - 1.0)
    return {"metrics": metrics, "absent": absent, "pairs": len(samples),
            "breakdown": breakdown}
