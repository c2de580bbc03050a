"""Tests for the benchmark's span tracer and its missing-span guard.

    python3 -m pytest bench/tests
"""
import contextlib
import io
import types

import pytest

import checks
import layers
from tracer import Target, Tracer


def _fake_module(clock):
    """outer -> (inner -> leaf), leaf; each body advances the fake clock."""
    mod = types.ModuleType("fake")

    def tick(dt):
        clock[0] += dt

    def leaf():
        tick(5.0)

    def inner():
        tick(3.0)
        mod.leaf()

    def outer():
        tick(1.0)
        mod.inner()
        tick(2.0)
        mod.leaf()

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    return mod


def test_self_time_of_nested_spans():
    clock = [0.0]
    mod = _fake_module(clock)
    tracer = Tracer(clock=lambda: clock[0])
    with tracer.patch([Target(mod, name, f"fake.{name}")
                       for name in ("outer", "inner", "leaf")]):
        mod.outer()
    assert tracer.total == {"fake.outer": 16.0, "fake.inner": 8.0, "fake.leaf": 10.0}
    assert tracer.self_time == {"fake.outer": 3.0, "fake.inner": 3.0, "fake.leaf": 10.0}
    assert tracer.calls == {"fake.outer": 1, "fake.inner": 1, "fake.leaf": 2}
    assert tracer.covered() == 16.0


def test_patch_restores_attributes_when_the_body_raises():
    clock = [0.0]
    mod = _fake_module(clock)
    original = mod.leaf
    with pytest.raises(RuntimeError):
        with Tracer().patch([Target(mod, "leaf", "fake.leaf")]):
            assert mod.leaf is not original
            raise RuntimeError("boom")
    assert mod.leaf is original


_STUDY = """alpha = 0.3
s = 0.7
hurst = 0.3
m = -1.0
axis = space
levels = 4,8
fixed_other = 8
n_traj = 3
seed = 5
"""


@pytest.mark.parametrize("command", ["study", "trajectory"])
def test_traced_run_restores_every_wrapped_attribute(tmp_path, command):
    before = [(t.module, t.attr, getattr(t.module, t.attr)) for t in layers.targets()]
    config = tmp_path / "c.cfg"
    config.write_text(_STUDY)
    workload = types.SimpleNamespace(expected_spans=frozenset())
    statuses = []
    result = layers.run_traced(
        workload, [command, "--config", str(config), "--out", str(tmp_path / "out"),
                   "--threads", "1"], statuses.append, deadline=0.0)
    assert statuses and set(statuses) == {0}
    assert result["metrics"]["trace.coverage"] > 0.5
    assert result["metrics"]["spectral.rows"] > 0
    for module, attr, original in before:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_missing_or_uncalled_span_makes_metric_absent_not_zero():
    tracer = Tracer()
    tracer.missing["solver.step"] = "step.step does not exist"
    values, absent = layers.layer_metrics(
        tracer, expected={"solver.step", "fbm.mode_increments"})
    assert "solver.step.s" in absent and "solver.step.s" not in values
    assert "fbm.mode_increments.s" in absent
    assert "fbm.us_per_stream" in absent
    # a layer this workload's path does not use reads as measured: zero
    assert values["solver.dump_trajectory.s"] == 0.0


def test_missing_attribute_is_recorded_and_not_wrapped():
    mod = types.ModuleType("fake")
    tracer = Tracer()
    with tracer.patch([Target(mod, "gone", "fake.gone")]):
        pass
    assert "fake.gone" in tracer.missing
    assert not hasattr(mod, "gone")


def test_table_check_rejects_nonpositive_error_and_reference_drift():
    table = ("level,error,observed_rate,theoretical_rate\n"
             "4,0.00123456,1.5,1.4\n8,0.000432,,1.4\n")
    assert checks.check_table(table, (4, 8), table) == []
    drifted = table.replace("0.00123456", "0.00123458")
    assert checks.check_table(drifted, (4, 8), table)
    assert checks.check_table(table.replace("0.000432", "0"), (4, 8), None)


def test_layer_metric_names_are_unique():
    names = [m.name for m in layers.METRICS] + [n for n, _ in layers.TRACE_METRICS]
    assert len(names) == len(set(names))


def test_cli_output_is_captured_in_traced_run(tmp_path, capsys):
    config = tmp_path / "c.cfg"
    config.write_text(_STUDY)
    workload = types.SimpleNamespace(expected_spans=frozenset())
    with contextlib.redirect_stderr(io.StringIO()):
        layers.run_traced(workload, ["study", "--config", str(config), "--out",
                                     str(tmp_path / "out"), "--threads", "1"],
                          lambda status: None, deadline=0.0)
    assert capsys.readouterr().out == ""


def test_benchmark_json_matches_the_code():
    import json
    from pathlib import Path

    import run
    from workloads import WORKLOADS

    spec = json.loads((Path(run.__file__).parents[1] / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, unit in run.UNITS.items() if "." not in name}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, unit in run.UNITS.items() if "." in name}
