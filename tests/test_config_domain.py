"""Every config that parses runs to finite errors, or is refused by name.

Tiny studies and trajectories (levels 2,4; two paths) go through
``cli.main`` with warnings raised as errors, over the whole open domain
of every float key: the ends within a few ulps and the extremes of the
float range included.  Each run must either return 1 before ``--out``
exists, with a message naming a key; or return 0 with finite outputs
(positive errors, for a study); or return 1 with the located
``SolverError``.
"""
import contextlib
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from fracspde import cli, solver


def _steps(x: float, toward: float, n: int = 3) -> list:
    """``x`` and the ``n`` floats after it, toward ``toward``."""
    out = [x]
    for _ in range(n):
        out.append(math.nextafter(out[-1], toward))
    return out


def _domain(whole, ends: list, typical):
    """A key's draws: its whole open domain, its ends and extremes, and the
    band that studies use, so that runs are drawn as well as refusals."""
    return whole | st.sampled_from(ends) | typical


_TINY, _MAX = sys.float_info.min, sys.float_info.max
#: (0, 1) within a few ulps of each end, and the end of the normal floats
_UNIT = _domain(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                _steps(math.ulp(0.0), 1.0) + _steps(_TINY, 1.0, 1) + [1e-300, 1e-15]
                + _steps(math.nextafter(1.0, 0.0), 0.0),
                st.floats(0.05, 0.95))
_POSITIVE = _domain(st.floats(0.0, exclude_min=True, allow_infinity=False),
                    _steps(math.ulp(0.0), 1.0) + [_TINY, 1e-300, 1e300] + _steps(_MAX, 0.0),
                    st.floats(1e-4, 1e2))
_REAL = _domain(st.floats(allow_nan=False, allow_infinity=False),
                _steps(_MAX, 0.0) + _steps(-_MAX, 0.0) + [-800.0, 0.0, 100.0],
                st.floats(-4.0, 4.0))

#: a refusal names a config key as ``key=value``
_NAMES_A_KEY = re.compile(r"\b(" + "|".join(cli._FIELDS) + r")=")
#: the located SolverError of a study and of a trajectory
_LOCATED = {"study": re.compile(r"level \d+: non-finite coefficient in trajectory \d+, "
                                r"mode \d+ at time level \d+"),
            "trajectory": re.compile(r"non-finite coefficient in mode \d+ "
                                     r"at time level \d+")}


def _outcome(command: str, config: dict) -> str:
    """Run one command on ``config``; assert it ends one of the three ways."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "run.cfg", Path(tmp) / "out"
        path.write_text("".join(f"{key} = {value}\n" for key, value in config.items()))
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            rc = cli.main([command, "--config", str(path), "--out", str(out),
                           "--threads", "1"])
        message = err.getvalue()
        if rc == 1 and not out.exists():
            assert message.startswith("error: ") and _NAMES_A_KEY.search(message), message
            return "refused"
        if rc == 1:
            assert _LOCATED[command].search(message), message
            return "located"
        assert rc == 0, (rc, message)
        if command == "study":
            rows = (out / "table.csv").read_text().splitlines()[1:]
            errors = np.array([float(row.split(",")[1]) for row in rows])
            assert errors.shape == (2,) and np.all(np.isfinite(errors)), rows
            assert np.all(errors > 0.0), rows
        else:
            states, _ = solver.load_trajectory(out / "trajectory.bin")
            assert np.all(np.isfinite(states))
        return "ran"


#: corners that random draws seldom reach: a forcing below the floats while
#: amp_k tau^H is not, rounding at the two ends of alpha, a sin term that
#: overflows the squared error, and a mode count whose k^m is the limit
_CORNERS = [("study", 1e-15, 0.5, 1e-9, -300.0, 1e300, "space", "zero", 4),
            ("study", 1e-15, 0.5, 0.5, -1.0, 1e200, "space", "sin", 4),
            ("study", 5e-324, 0.5, 0.5, 0.0, 1.0, "space", "sin", 1),
            ("study", 1e-15, 0.5, 0.5, -1.0, 0.01, "time", "zero", 4),
            ("trajectory", 1.0 - 2 ** -53, 0.5, 0.5, -1.0, 1e-300, "time", "sin", 8),
            ("study", 0.3, 0.7, 0.8, 170.0, 0.01, "space", "sin", 8)]


def _corners(test):
    for corner in _CORNERS:
        test = example(*corner)(test)
    return test


@_corners
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(command=st.sampled_from(["study", "trajectory"]), alpha=_UNIT, s=_UNIT,
       hurst=_UNIT, m=_REAL, t_final=_POSITIVE, axis=st.sampled_from(["time", "space"]),
       nonlinearity=st.sampled_from(["sin", "zero"]), fixed_other=st.integers(1, 8))
def test_every_parsed_config_runs_or_is_refused_by_name(command, alpha, s, hurst, m,
                                                        t_final, axis, nonlinearity,
                                                        fixed_other):
    config = dict(alpha=repr(alpha), s=repr(s), hurst=repr(hurst), m=repr(m),
                  t_final=repr(t_final), axis=axis, levels="2,4", fixed_other=fixed_other,
                  n_traj=2, seed=7, nonlinearity=nonlinearity)
    _outcome(command, config)


def test_the_domain_holds_runs_as_well_as_refusals():
    # the property above means something only if both outcomes occur
    base = dict(alpha="0.3", s="0.7", hurst="0.8", m="-1.0", axis="time", levels="2,4",
                fixed_other=4, n_traj=2, seed=7, nonlinearity="sin")
    assert _outcome("study", dict(base, t_final="0.01")) == "ran"
    for t_final, hurst, m in (("1e200", "0.999999", "-1.0"), ("1e-300", "0.5", "-1.0"),
                              ("1e-300", "1e-9", "100.0")):
        assert _outcome("study", dict(base, t_final=t_final, hurst=hurst, m=m)) == "refused"
