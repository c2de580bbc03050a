import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracspde

MODULES = sorted(info.name for info in pkgutil.iter_modules(fracspde.__path__))

#: what the tests import and the command line must not: the oracles'
#: libraries, the property-test framework and the oracles themselves
_TEST_ONLY = ("scipy", "mpmath", "hypothesis", "oracles")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"fracspde.{name}")
    assert [key for key in module.__all__ if not hasattr(module, key)] == []


def test_command_line_imports_no_test_code():
    # a fresh interpreter, with the tests importable, so a package module
    # that imports test code would load it here
    src = str(Path(fracspde.__file__).parents[1])
    tests = str(Path(__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, tests, os.environ.get("PYTHONPATH")])))
    probe = ("import json, sys\nimport fracspde.cli\n"
             "print(json.dumps(sorted({name.partition('.')[0] for name in sys.modules})))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert set(json.loads(out.stdout)) & set(_TEST_ONLY) == set()
