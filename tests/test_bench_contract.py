"""The names the benchmark tracer rebinds exist, and tracing leaves no trace.

``benchmark/tracer.py`` looks hefit's functions and methods up by name, so
a rename in ``src/`` breaks the benchmark run.  These checks make it break
the test suite first.
"""

import importlib
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import hefit
import hefit.cli  # noqa: F401  (the tracer rebinds names in every loaded hefit module)
from hefit import training
from hefit.approx import DEFAULTS, a_softmax
from hefit.datasets import make_gaussian_mixture
from hefit.emulator import EmulatorContext, OpLedger
from hefit.encoding import encode
from hefit.plainref import reference_fit
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


# Every call shape ``benchmark/workloads.py`` uses, as (callable, args, kwargs);
# the values are placeholders, only the parameter names and positions count.
_ = None
BENCH_CALLS = [
    (EmulatorContext, (_, _), dict(max_level=_, auto_bootstrap=_)),
    (training.fit, (_,) * 5,
     dict(ctx=_, lr=_, batch_size=_, epochs=_, patience=_, seed=_)),
    (training.Server.process_training_batch, (_, _), {}),
    (hefit.cli.main, (_,), {}),
    (hefit.cli.softmax_error_cell, (_,) * 4, dict(seed_base=_)),
    (hefit.cli.softmax_variants, (_,), {}),
    (hefit.cli.sampling_boxes, (_,), {}),
    (encode, (_, _), dict(tiling=_, level=_)),
    (OpLedger, (), {}),
    (reference_fit, (_,) * 5,
     dict(lr=_, batch_size=_, epochs=_, patience=_, softmax_fn=_, seed=_)),
    (make_gaussian_mixture, (_,) * 4, dict(mean_scale=_)),
    (a_softmax, (_, _), {}),
]


@pytest.mark.parametrize("fn,args,kwargs", BENCH_CALLS, ids=[c[0].__name__ for c in BENCH_CALLS])
def test_benchmark_calls_bind(fn, args, kwargs):
    inspect.signature(fn).bind(*args, **kwargs)


@pytest.mark.parametrize("a_level,algorithm", [(12, "diag_atb_rl"), (5, "diag_atb_pru")])
def test_matmul_span_attrs_read_live_operands(a_level, algorithm):
    # 3 classes run at period 4, which is what the attributes report
    ctx = EmulatorContext(256, 16, max_level=12)
    x = encode(ctx, np.ones((6, 5)))
    w = encode(ctx, np.ones((3, 5)), tiling="vertical")
    residual = encode(ctx, np.ones((6, 3)), tiling="horizontal", level=a_level)
    grid = (16, 16)
    assert tracer.SPAN_ATTRS["matmul.diag_abt"]((x, w), {}) == {
        "algorithm": "diag_abt", "shape": (6, 5, 4), "grid": grid,
    }
    assert tracer.SPAN_ATTRS["matmul.diag_atb"]((residual, x), {}) == {
        "algorithm": algorithm, "shape": (6, 5, 4), "grid": grid,
    }


def test_benchmark_softmax_ranges():
    # the benchmark probes DEFAULTS over its full box and the "prec" variant
    # over R = 128, and divides input margins by each one's max_range
    assert DEFAULTS.max_range == 128
    assert hefit.cli.softmax_variants(128)["prec"].max_range == 128


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
