"""Smoke tests for the measuring scripts under ``scripts/``.

The scripts rebind hefit functions by name to count or time the stages, or
override the emulator context's seams, so a rename in ``src/`` breaks them;
these checks make it break the test suite first.  Each runs one cheap point
of its script: one budget at test scale, or one class count on 256 slots.
"""

import importlib.util
from pathlib import Path

import pytest

from hefit.emulator import EmulatorContext

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_budget_sweep_point_is_pinned():
    # bootstraps and emulated ms per test-scale step at budget 12, the
    # bootstraps of each stage that places them (ROADMAP's open items) and
    # the softmax's early refreshes per step
    boots, ms, per_stage = _load("budget_sweep").sweep_point("test", 12)
    assert boots == 6.0
    assert ms == pytest.approx(1201.741875, rel=1e-12)
    assert per_stage == {
        "sm": 5.25, "res": 0.375, "wv": 0.375, "amax": 2.0, "inv": 1.0, "early": 0.0,
    }
    # budget 13, where the softmax's plan refreshes early in 5 of 8 steps
    boots, ms, per_stage = _load("budget_sweep").sweep_point("test", 13)
    assert boots == 5.875
    assert ms == pytest.approx(1175.923125, rel=1e-12)
    assert per_stage == {
        "sm": 5.375, "res": 0.375, "wv": 0.125, "amax": 1.75, "inv": 1.0, "early": 0.625,
    }


def test_stage_times_sees_every_stage():
    # host times vary; which stages ran in how many steps does not.  At
    # budget 12 the packed W/V refresh runs in 11 of the 16 steps and
    # diag_atb's partial-rotation branch in 13, every other stage in all of
    # them: the kernels' masked totals ("passes") and the softmax's
    # col_sums too.  Planning, before the first step, is not counted
    stage_times = _load("stage_times")
    times = stage_times.stage_times("test")
    assert list(times) == [
        "step", "diag_abt", "a_softmax", "a_max", "extend", "compens", "a_exp", "a_inv",
        "diag_atb", "passes", "col_sums", "prot_up", "boot_tiled",
    ]
    ran = {label: n for label, (_, n) in times.items()}
    sparse = {"boot_tiled": 11, "prot_up": 13}
    assert ran == {label: sparse.get(label, stage_times.STEPS) for label in times}


def test_precision_probe_prints_every_row_and_its_exact_model_is_the_emulator(capsys):
    probe = _load("precision_probe")
    # with both effects off, the model is the plain emulator bit for bit
    for piece in probe.PIECES:
        x = probe.piece_input(piece, 16, 3)
        plain = probe.piece_output(EmulatorContext(256, 16, max_level=12), piece, x)
        exact = probe.piece_output(probe.ProbeContext(256, 16, max_level=12), piece, x)
        assert exact.tobytes() == plain.tobytes()
    probe.probe(256, 16, classes=(3,))
    lines = capsys.readouterr().out.splitlines()
    # one error row per piece and model, a NaN or a refused decode included,
    # then the softmax's bootstrap inputs under each model
    start = lines.index("largest |slot| at each bootstrap input of the softmax:")
    rows = [line.split()[:3] for line in lines[2:start]]
    assert rows == [["3", piece, model] for piece in probe.PIECES for model in probe.MODELS]
    assert [line.split()[:2] for line in lines[start + 1 :]] == [["3", model] for model in probe.MODELS]
    assert all(len(line.split()) > 2 for line in lines[start + 1 :])
