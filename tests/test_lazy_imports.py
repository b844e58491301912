"""The symbolic layers run without numpy.

``import polyhelix`` and ``import polyhelix.cli`` load only ``ratpoly`` and
``frenet``.  The numeric modules (``classify``, ``odelab``, ``spherecurves``,
``acceptance``) load when a command or a package name first needs one, and
numpy with them, except with ``classify``, which decides every system
exactly and imports no numpy.  No command probed here loads ``numpy.random``:
criterion #8 draws its bumps from the standard library's ``random``.  The
load checks run in fresh interpreters, since this test process has imported
every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyhelix
from polyhelix import ratpoly
from polyhelix.cli import dispatch

NUMERIC = ("numpy", "numpy.random", "polyhelix.classify", "polyhelix.odelab",
           "polyhelix.spherecurves", "polyhelix.acceptance")

# runs one statement in a fresh interpreter and prints the exit code of the
# dispatch it may make and the numeric modules loaded afterwards
PROBE = """
import contextlib, io, json, sys
code = None
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    {statement}
print(json.dumps({{"code": code, "loaded": [m for m in {numeric!r} if m in sys.modules]}}))
"""


def probe(statement: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(polyhelix.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(statement=statement, numeric=NUMERIC)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(done.stdout)


def dispatch_statement(argv: list[str]) -> str:
    return f"from polyhelix.cli import dispatch; code = dispatch({argv!r})"


@pytest.mark.parametrize("statement", ["import polyhelix", "import polyhelix.cli"])
def test_import_loads_no_numeric_module(statement):
    assert probe(statement) == {"code": None, "loaded": []}


# explicit ids, so that removing a case renames no other one
@pytest.mark.parametrize("argv, code", [
    pytest.param(["--version"], 0, id="argv0-0"),
    pytest.param(["--help"], 0, id="argv1-0"),
    pytest.param(["tau", "--order", "x"], 2, id="argv2-2"),
    pytest.param(["verify", "--curve", "tri-planar", "--params", "y=2"], 2, id="argv3-2"),
])
def test_help_version_and_usage_errors_load_no_numeric_module(argv, code):
    assert probe(dispatch_statement(argv)) == {"code": code, "loaded": []}


def test_tau_loads_no_numeric_module(tmp_path):
    out = tmp_path / "tau.json"
    argv = ["tau", "--order", "4", "--format", "json", "--out", str(out)]
    assert probe(dispatch_statement(argv)) == {"code": 0, "loaded": []}
    assert json.loads(out.read_text())["command"] == "tau"


def test_classify_loads_classify_alone(tmp_path):
    # every system is decided exactly, and classify imports no numpy
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    argv = ["classify", "--order", "3", "--K", "1", "--json", "--out"]
    assert probe(dispatch_statement(argv + [str(fresh)])) == {
        "code": 0, "loaded": ["polyhelix.classify"],
    }
    assert dispatch(argv + [str(here)]) == 0
    assert fresh.read_bytes() == here.read_bytes()


def test_verify_loads_spherecurves_alone():
    argv = ["verify", "--curve", "tri-planar"]
    assert probe(dispatch_statement(argv)) == {
        "code": 0, "loaded": ["numpy", "polyhelix.spherecurves"],
    }


def test_first_variation_criterion_loads_no_numpy_random():
    # numpy loads numpy.random only on first access, and #8 seeds the
    # standard library's generator
    assert probe(dispatch_statement(["reproduce", "--only", "8"])) == {
        "code": 0,
        "loaded": ["numpy", "polyhelix.classify", "polyhelix.odelab",
                   "polyhelix.spherecurves", "polyhelix.acceptance"],
    }


def test_a_numeric_name_loads_its_module():
    assert probe("import polyhelix; polyhelix.tri_hyperbola_family") == {
        "code": None, "loaded": ["numpy", "polyhelix.spherecurves"],
    }


# -- the public surface ------------------------------------------------------


@pytest.mark.parametrize("name", sorted(set(polyhelix.__all__) - {"__version__"}))
def test_each_exported_name_is_its_defining_module_attribute(name):
    value = getattr(polyhelix, name)
    module = ratpoly if name == "AMBIENT" else sys.modules[value.__module__]
    assert getattr(module, name) is value


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from polyhelix import *", namespace)
    assert set(polyhelix.__all__) <= set(namespace)
    for name in polyhelix.__all__:
        assert namespace[name] is getattr(polyhelix, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        polyhelix.no_such_name
    assert not hasattr(polyhelix, "no_such_name")
