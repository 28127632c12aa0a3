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
    # bootstraps and emulated ms per test-scale step at budget 12, and the
    # bootstraps of each stage that places them (ROADMAP's open items)
    boots, ms, per_stage = _load("budget_sweep").sweep_point("test", 12)
    assert boots == 6.125
    assert ms == pytest.approx(1242.814375, rel=1e-12)
    assert per_stage == {"sm": 5.125, "res": 0.75, "wv": 0.25, "amax": 2.0, "inv": 1.0}


def test_stage_times_sees_every_stage():
    # host times vary; which stages ran in how many steps does not.  At
    # budget 12 the packed W/V refresh and diag_atb's partial-rotation
    # branch run in 4 of the 16 steps, every other stage in all of them:
    # the kernels' masked totals ("passes") and the softmax's col_sums too
    stage_times = _load("stage_times")
    times = stage_times.stage_times("test")
    assert list(times) == [
        "step", "diag_abt", "a_softmax", "a_max", "extend", "compens", "a_exp", "a_inv",
        "diag_atb", "passes", "col_sums", "prot_up", "boot_tiled",
    ]
    ran = {label: n for label, (_, n) in times.items()}
    sparse = {"boot_tiled": 4, "prot_up": 4}
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
