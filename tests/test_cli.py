import gc
import importlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from fracspde import cli, solver
from fracspde.cli import parse_config
from fracspde.experiments import ExperimentConfig
from fracspde.solver import ModelParams
from oracles import serialize_config

MINIMAL = """
# Table-1-style temporal study, desk scale
alpha = 0.3
s = 0.7
hurst = 0.3
m = 0
axis = time
levels = 32,64,128,256
fixed_other = 100
seed = 7
"""


def test_parse_minimal_config_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.alpha == 0.3
    assert cfg.s == 0.7
    assert cfg.hurst == 0.3
    assert cfg.axis == "time"
    assert cfg.levels == (32, 64, 128, 256)
    assert cfg.fixed_other == 100
    # defaults
    assert cfg.t_final == 0.01
    assert cfg.n_traj == 100
    assert cfg.nonlinearity == "sin"


def test_parsed_config_is_model_parameters():
    assert isinstance(parse_config(MINIMAL), ModelParams)


def test_parse_rejects_unknown_key():
    with pytest.raises(ValueError, match="'hurts'"):
        parse_config(MINIMAL + "\nhurts = 0.5\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ValueError, match="duplicate.*'alpha'"):
        parse_config(MINIMAL + "\nalpha = 0.4\n")


def test_parse_reports_missing_key():
    with pytest.raises(ValueError, match="missing required config key 'alpha'"):
        parse_config("s = 0.7\n")


def test_parse_rejects_malformed_number():
    with pytest.raises(ValueError, match="'alpha'"):
        parse_config(MINIMAL.replace("alpha = 0.3", "alpha = zero point three"))


def test_parse_rejects_malformed_line():
    with pytest.raises(ValueError, match="line"):
        parse_config("alpha 0.3\n")


def test_validation_names_offending_key():
    with pytest.raises(ValueError, match="hurst"):
        parse_config(MINIMAL.replace("hurst = 0.3", "hurst = 1.0"))
    with pytest.raises(ValueError, match="hurst"):
        parse_config(MINIMAL.replace("hurst = 0.3", "hurst = 0"))


@pytest.mark.parametrize("key, raw", [("m", "nan"), ("m", "inf"),
                                      ("t_final", "inf"), ("t_final", "nan")])
def test_validation_rejects_non_finite_values(key, raw):
    with pytest.raises(ValueError, match=f"^{key} must be"):
        parse_config(MINIMAL, overrides=(f"{key}={raw}",))


def test_overrides_supersede_file_values():
    cfg = parse_config(MINIMAL, overrides=("n_traj=4", "hurst=0.8"))
    assert cfg.n_traj == 4
    assert cfg.hurst == 0.8
    with pytest.raises(ValueError, match="key=value"):
        parse_config(MINIMAL, overrides=("n_traj",))
    with pytest.raises(ValueError, match="'bogus'"):
        parse_config(MINIMAL, overrides=("bogus=1",))


def test_config_round_trip():
    cfg = parse_config(MINIMAL, overrides=("n_traj=12",))
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    # every key away from both its default and its MINIMAL value
    changed = dict(alpha="0.45", s="0.55", hurst="0.65", m="0.5", axis="space",
                   levels="2,4", fixed_other="16", n_traj="3", seed="123",
                   t_final="0.02", nonlinearity="zero")
    assert changed.keys() == cli._FIELDS.keys()
    cfg = parse_config(MINIMAL, overrides=[f"{k}={v}" for k, v in changed.items()])
    base = parse_config(MINIMAL)
    for f in fields(ExperimentConfig):
        if f.name in changed:
            assert getattr(cfg, f.name) not in (f.default, getattr(base, f.name))
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_keys_are_the_experiment_config_fields(tmp_path):
    expected = {f.name for f in fields(ExperimentConfig)}
    assert set(cli._FIELDS) == expected
    cfg = parse_config(MINIMAL)
    lines = serialize_config(cfg).splitlines()
    assert {line.partition("=")[0].strip() for line in lines} == expected
    cli._write_manifest(tmp_path, cfg, "study")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest["config"]) == expected


def test_noise_amplitude_is_not_a_config_key():
    with pytest.raises(ValueError, match="unknown config key 'noise_amplitude'"):
        parse_config(MINIMAL + "noise_amplitude = 1\n")
    with pytest.raises(ValueError, match="unknown config key 'noise_amplitude'"):
        parse_config(MINIMAL, overrides=("noise_amplitude=1",))


def test_seed_defaults_to_zero():
    assert parse_config(MINIMAL.replace("seed = 7\n", "")).seed == 0


def test_readme_key_table_matches_the_schema():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("Keys and defaults:", 1)[1].strip().splitlines()
    documented = {}
    for line in table[2:]:                      # below the header and rule
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        documented[cells[0].strip("`")] = cells[-1]
    expected = {key: "required" if f.default is MISSING else f"`{f.default}`"
                for key, f in cli._FIELDS.items()}
    assert documented == expected


def _write_tiny_config(tmp_path, **extra):
    lines = {"alpha": 0.3, "s": 0.7, "hurst": 0.8, "m": -1.0, "axis": "time",
             "levels": "4,8", "fixed_other": 6, "n_traj": 3, "seed": 5}
    lines.update(extra)
    text = "\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


def test_study_end_to_end(tmp_path, capsys):
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    table = (out / "table.csv").read_text()
    lines = table.splitlines()
    assert lines[0] == "level,error,observed_rate,theoretical_rate"
    assert len(lines) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["levels"] == [4, 8]
    assert manifest["config"]["n_traj"] == 3
    assert "version" in manifest
    # no wall-clock entropy: manifest carries no timestamp-like keys
    assert not any("time" in k or "date" in k for k in manifest)
    # a second run must be byte-identical
    out2 = tmp_path / "out2"
    assert cli.main(["study", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out2 / "table.csv").read_bytes() == (out / "table.csv").read_bytes()
    assert (out2 / "manifest.json").read_bytes() == (out / "manifest.json").read_bytes()


def test_study_theoretical_rate_in_csv(tmp_path):
    # spatial config with predicted rate exactly 0.2
    cfg_path = _write_tiny_config(tmp_path, alpha=0.6, s=0.7, hurst=0.3, m=0,
                                  axis="space", levels="2,4", fixed_other=4,
                                  n_traj=2)
    out = tmp_path / "out"
    assert cli.main(["study", "--config", str(cfg_path), "--out", str(out)]) == 0
    rows = (out / "table.csv").read_text().splitlines()[1:]
    assert all(r.endswith(",0.2") for r in rows)


def test_set_override_via_main(tmp_path):
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "o"
    rc = cli.main(["study", "--config", str(cfg_path), "--out", str(out),
                   "--set", "n_traj=2", "--set", "seed=9"])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["n_traj"] == 2
    assert manifest["seed"] == 9


@pytest.mark.parametrize("axis", ["time", "space"])
def test_trajectory_command(tmp_path, axis):
    cfg_path = _write_tiny_config(tmp_path, axis=axis)
    out = tmp_path / "traj"
    assert cli.main(["trajectory", "--config", str(cfg_path),
                     "--out", str(out)]) == 0
    states, meta = solver.load_trajectory(out / "trajectory.bin")
    # finest level 8, fixed_other 6: 8 steps x 6 modes in time, 6 x 8 in space
    n_steps, n_modes = (8, 6) if axis == "time" else (6, 8)
    assert states.shape == (n_steps + 1, n_modes)
    assert (meta["n_steps"], meta["n_modes"]) == (n_steps, n_modes)
    assert meta["tau"] == 0.01 / n_steps
    assert meta["hurst"] == 0.8
    assert meta["seed"] == 5
    assert np.all(np.isfinite(states))
    assert (out / "manifest.json").exists()


# The benchmark's traced run (bench/layers.py) wraps these module
# attributes and runs ``cli.main`` in its own process; a layer that stops
# calling one of them through its module reads as a missing span there.
_SPANS = [("cli", "run_convergence_study"), ("experiments", "run_ensemble"),
          ("experiments", "pathwise_error"), ("fbm", "mode_increments"),
          ("fbm", "sample_fbm_circulant"), ("fbm", "increment_covariance"),
          ("spectral", "synthesize"), ("spectral", "project"), ("cq", "cq_weights"),
          ("solver", "run_trajectory"), ("solver", "step"), ("solver", "dump_trajectory")]


def _count_span_calls(monkeypatch) -> Counter:
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module_name, attr in _SPANS:
        module = importlib.import_module(f"fracspde.{module_name}")
        monkeypatch.setattr(module, attr, counted(f"{module_name}.{attr}",
                                                  getattr(module, attr)))
    return calls


def test_trajectory_calls_every_benchmark_span_through_its_module(tmp_path, monkeypatch):
    cfg_path = _write_tiny_config(tmp_path, levels="32,64", fixed_other=8)
    calls = _count_span_calls(monkeypatch)
    assert cli.main(["trajectory", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o"), "--threads", "1"]) == 0
    # L=64 steps of N=8 modes: one step, one synthesis and one projection
    # per step, one sampler call per mode
    assert (calls["solver.step"], calls["spectral.synthesize"],
            calls["spectral.project"], calls["fbm.sample_fbm_circulant"]) == (64, 64, 64, 8)
    for span in ("solver.run_trajectory", "solver.dump_trajectory",
                 "fbm.mode_increments", "cq.cq_weights"):
        assert calls[span] >= 1, span


def _assert_study_calls_every_benchmark_span(tmp_path, monkeypatch, axis):
    cfg_path = _write_tiny_config(tmp_path, axis=axis, levels="2,4", fixed_other=16)
    calls = _count_span_calls(monkeypatch)
    assert cli.main(["study", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o"), "--threads", "1"]) == 0
    for span in ("cli.run_convergence_study", "experiments.run_ensemble",
                 "experiments.pathwise_error", "fbm.mode_increments",
                 "fbm.sample_fbm_circulant"):
        assert calls[span] >= 1, span


# the axes coarsen the draw differently: summed steps or dropped modes
def test_time_study_calls_every_benchmark_span_through_its_module(tmp_path, monkeypatch):
    _assert_study_calls_every_benchmark_span(tmp_path, monkeypatch, "time")


def test_space_study_calls_every_benchmark_span_through_its_module(tmp_path, monkeypatch):
    _assert_study_calls_every_benchmark_span(tmp_path, monkeypatch, "space")


@pytest.mark.parametrize("command", ["study", "trajectory"])
def test_seed_beyond_64_bits_rejected_by_both_commands(tmp_path, capsys, command):
    cfg_path = _write_tiny_config(tmp_path, seed=2 ** 64)
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (out / "trajectory.bin").exists()


def test_only_the_study_is_refused_below_the_coupled_error_floor(tmp_path, capsys):
    # one path has no error to round to 0, so the trajectory runs; the
    # study's coupled error at level 4 would, so it is refused before --out
    cfg_path = _write_tiny_config(tmp_path, hurst=0.5, t_final=1e-300)
    out = tmp_path / "traj"
    assert cli.main(["trajectory", "--config", str(cfg_path), "--out", str(out)]) == 0
    states, _ = solver.load_trajectory(out / "trajectory.bin")
    assert states.shape == (9, 6) and np.all(np.isfinite(states))
    capsys.readouterr()
    out = tmp_path / "study"
    assert cli.main(["study", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: m=-1.0, hurst=0.5, alpha=0.3, s=0.7, t_final=1e-300: the coupled error "
        "at level 4 rounds to 0: the noise underflows, or the two runs differ by "
        "rounding\n")
    assert not out.exists()


def test_largest_seed_round_trips_through_trajectory_header(tmp_path):
    cfg_path = _write_tiny_config(tmp_path, seed=2 ** 64 - 1)
    out = tmp_path / "traj"
    assert cli.main(["trajectory", "--config", str(cfg_path), "--out", str(out)]) == 0
    _, meta = solver.load_trajectory(out / "trajectory.bin")
    assert meta["seed"] == 2 ** 64 - 1


@pytest.mark.parametrize("command, first_work", [
    ("study", "run_convergence_study"), ("trajectory", "fbm.mode_increments")])
def test_out_under_a_regular_file_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                        command, first_work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{first_work} ran before --out was created")

    monkeypatch.setattr(f"fracspde.cli.{first_work}", no_work)
    cfg_path = _write_tiny_config(tmp_path)
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    out = blocker / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert str(out) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["study", "trajectory"])
@pytest.mark.parametrize("raw", ["0", "-2", "1.5", "many"])
def test_threads_not_a_positive_int_exits_2_before_out_is_created(tmp_path, capsys, command, raw):
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg_path), "--out", str(out), "--threads", raw])
    assert exc.value.code == 2
    assert f"argument --threads: must be a positive integer, got '{raw}'" in (
        capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command", ["study", "trajectory"])
def test_threads_one_is_accepted_by_both_commands(tmp_path, command):
    cfg_path = _write_tiny_config(tmp_path)
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--threads", "1"]) == 0


def test_nonexistent_config_path(tmp_path, capsys):
    rc = cli.main(["study", "--config", str(tmp_path / "nope.cfg"),
                   "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "nope.cfg" in capsys.readouterr().err


def test_invalid_override_returns_nonzero(tmp_path, capsys):
    cfg_path = _write_tiny_config(tmp_path)
    rc = cli.main(["study", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"), "--set", "axis=sideways"])
    assert rc == 1
    assert "axis" in capsys.readouterr().err


# at N=64 modes the noise variance k^m overflows above m = 709.78 / ln 64 = 170.7:
# at m=400 the amplitudes k^(m/2) overflow too, at m=250 only the squared errors
@pytest.mark.parametrize("m", [400, 250, 170])
def test_overflowing_m_exits_1_before_out_is_created(tmp_path, capsys, m):
    cfg_path = _write_tiny_config(tmp_path, fixed_other=64)
    out = tmp_path / "o"
    rc = cli.main(["study", "--config", str(cfg_path), "--out", str(out), "--set", f"m={m}"])
    if m == 170:
        assert rc == 0
        errors = [float(row.split(",")[1])
                  for row in (out / "table.csv").read_text().splitlines()[1:]]
        assert np.all(np.isfinite(errors))
    else:
        assert rc == 1
        assert f"m={m}.0 overflows the noise variance k^m at N=64 modes" in (
            capsys.readouterr().err)
        assert not out.exists()


def test_selftest_passes(capsys):
    assert cli.main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("ok ") >= 5
    assert "ok   cq history kernel: " in out
    assert "selftest passed" in out


def _run_module(tmp_path, code_or_args, *, module=True):
    """``python -m fracspde.cli ARGS`` (or ``python -c CODE``) in a fresh
    interpreter with block-buffered output, as a pipe gets it."""
    src = str(Path(cli.__file__).parents[1])
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["-m", "fracspde.cli", *code_or_args] if module else ["-c", code_or_args]
    return subprocess.run([sys.executable, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_writes_a_trajectory_and_exits_0(tmp_path):
    cfg_path = _write_tiny_config(tmp_path)
    out = tmp_path / "o"
    done = _run_module(tmp_path, ["trajectory", "--config", str(cfg_path), "--out", str(out)])
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wrote {out / 'trajectory.bin'} (9 levels x 6 modes)\n"
    assert solver.load_trajectory(out / "trajectory.bin")[0].shape == (9, 6)


def test_module_entry_exits_1_on_a_bad_config_key(tmp_path):
    cfg_path = _write_tiny_config(tmp_path, colour="blue")
    done = _run_module(tmp_path, ["trajectory", "--config", str(cfg_path),
                                  "--out", str(tmp_path / "o")])
    assert done.returncode == 1
    assert done.stderr == "error: unknown config key 'colour'\n"


def test_console_script_and_module_go_through_one_entry_that_freezes(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    module, _, name = pyproject["project"]["scripts"]["fracspde"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.run
    # python -m runs the module as __main__: the entry freezes the
    # import's objects, then exits with main's status
    cfg_path = _write_tiny_config(tmp_path)
    probe = ("import gc, runpy, sys\n"
             f"sys.argv = ['fracspde', 'trajectory', '--config', {str(cfg_path)!r}, "
             f"'--out', {str(tmp_path / 'o')!r}]\n"
             "try:\n"
             "    runpy.run_module('fracspde.cli', run_name='__main__')\n"
             "except SystemExit as exc:\n"
             "    print('exit', exc.code, 'frozen', gc.get_freeze_count() > 0)\n")
    done = _run_module(tmp_path, probe, module=False)
    assert done.stdout.splitlines()[-1] == "exit 0 frozen True", done.stderr


def test_main_leaves_the_collector_as_it_is(tmp_path):
    # main runs in processes that go on: the tests, the traced benchmark
    cfg_path = _write_tiny_config(tmp_path)
    before = gc.get_freeze_count()
    assert cli.main(["trajectory", "--config", str(cfg_path), "--out",
                     str(tmp_path / "o")]) == 0
    assert gc.get_freeze_count() == before
