"""The names the benchmark tracer rebinds exist, and tracing leaves no trace.

``benchmark/tracer.py`` looks hefit's functions and methods up by name, so
a rename in ``src/`` breaks the benchmark run.  These checks make it break
the test suite first.
"""

import importlib
import sys
from pathlib import Path

import pytest

import hefit
import hefit.cli  # noqa: F401  (the tracer rebinds names in every loaded hefit module)
from hefit.emulator import EmulatorContext, OpLedger
from hefit.training import Client

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))
tracer = importlib.import_module("tracer")


@pytest.mark.parametrize("module,name,_span", tracer.SPAN_FUNCTIONS)
def test_span_functions_resolve(module, name, _span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize(
    "owner,names",
    [
        (Client, tracer.CLIENT_METHODS),
        (EmulatorContext, tracer.EMULATOR_METHODS),
        (OpLedger, ("record",)),
    ],
)
def test_traced_methods_resolve(owner, names):
    for name in names:
        assert callable(getattr(owner, name)), f"{owner.__name__}.{name}"


def _bindings() -> dict:
    """(owner, attribute) -> bound object, for every hefit module and traced class."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "hefit" or name.startswith("hefit."))]
    owners += [Client, EmulatorContext, OpLedger]
    return {(id(owner), attr): held for owner in owners for attr, held in vars(owner).items()}


def test_install_then_uninstall_restores_every_binding():
    before = _bindings()
    original_softmax = hefit.approx.a_softmax
    t = tracer.Tracer("t")
    t.install()
    try:
        assert hefit.approx.a_softmax is not original_softmax
        assert EmulatorContext.add is not before[(id(EmulatorContext), "add")]
    finally:
        t.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, held in before.items() if after[key] is not held]
    assert changed == []
