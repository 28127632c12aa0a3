"""Polynomial max/exp/inverse pipelines and the assembled softmax.

Expected values are frozen from direct dense-grid measurements; everything
here is deterministic (fixed seeds), so the pins are tight.
"""

import dataclasses
import functools
import hashlib
import itertools
import runpy
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefit import approx
from hefit._constants import (
    COMP_ROUND_ERR,
    COMP_ROUND_ERR_ARG,
    EXP_FIT_MAX_ERR,
    EXP_POLY,
)
from hefit.approx import (
    _BLOCK_SLOTS,
    BASE_RANGE,
    COMP_F,
    COMP_F_HALF,
    COMP_G,
    COMPENSATION_DEPTH,
    CONTRACTION_DEPTH,
    DEFAULTS,
    DEP_DELTA,
    EXP_FIT_DEPTH,
    EXP_RANGE,
    INV_ITERS,
    INV_RANGE,
    ODD_POLY_DEPTH,
    SoftmaxConfig,
    _dep_compensation,
    _exp_fit,
    _odd_poly,
    _refresh,
    _softmax,
    a_comp,
    a_exp,
    a_inv,
    a_max,
    a_softmax,
    amax_error_bound,
    domain_extend,
    small_domain_eps,
    softmax_plan,
    theorem_beta,
)
from hefit.emulator import OP_KINDS, CipherBlock, EmulatorContext, OpLedger, log2
from hefit.encoding import EncodedMatrix, decode, encode, next_pow2, padded_array
from hefit.errors import DepthExhausted, ShapeMismatch, TilingError
from hefit.plainref import exact_softmax


# -- frozen constants have independent recomputations ---------------------------


def test_exp_poly_matches_a_rederived_fit():
    # the least-squares fit is ill-conditioned, so compare functions, not
    # coefficients: a re-derivation moves the low digits of every one
    script = Path(__file__).resolve().parents[1] / "scripts" / "regen_constants.py"
    coeffs, _ = runpy.run_path(str(script))["exp_fit"]()
    x = np.linspace(-1, 1, 200001)
    polyval = np.polynomial.polynomial.polyval
    assert np.abs(polyval(x, coeffs) - polyval(x, EXP_POLY)).max() <= 1e-12


def test_comp_pair_matches_the_script():
    # the script keeps its own copy of the comparison pair to re-derive
    # COMP_ROUND_ERR; both copies must stay exactly equal
    script = Path(__file__).resolve().parents[1] / "scripts" / "regen_constants.py"
    names = runpy.run_path(str(script))
    assert (names["COMP_F"], names["COMP_G"]) == (COMP_F, COMP_G)


def test_exp_poly_tracks_exp_on_unit_interval():
    x = np.linspace(-1, 1, 200001)
    err = np.abs(np.polynomial.polynomial.polyval(x, EXP_POLY) - np.exp(x)).max()
    assert err <= EXP_FIT_MAX_ERR * 1.01
    assert err > 1e-14  # a degree-12 fit cannot be exact


def test_comp_round_err_is_the_loss_supremum():
    d = np.linspace(0.0, 1.0, 400001)
    w = a_comp(d / 2, -d / 2)
    loss = d * (1.0 - w)
    i = int(loss.argmax())
    assert loss[i] == pytest.approx(COMP_ROUND_ERR, abs=1e-8)
    assert d[i] == pytest.approx(COMP_ROUND_ERR_ARG, abs=1e-4)


# -- comparison ------------------------------------------------------------------


def test_comp_pinned_examples():
    assert 0.99 <= a_comp(np.array([0.4]), np.array([-0.4]))[0] <= 1.0
    assert a_comp(np.array([0.3]), np.array([0.3]))[0] == 0.5
    assert a_comp(np.array([-0.4]), np.array([0.4]))[0] <= 0.01


def test_comp_is_not_monotone_in_the_gap():
    # the composed polynomial dips near the wide end of the transition band,
    # so a larger gap can look *less* resolved
    w = lambda gap: a_comp(np.array([gap / 2]), np.array([-gap / 2]))[0]
    assert w(0.85) > w(COMP_ROUND_ERR_ARG) < w(0.99)
    assert w(COMP_ROUND_ERR_ARG) == pytest.approx(0.994413, abs=1e-5)


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(-0.5, 0.5, allow_nan=False),
    y=st.floats(-0.5, 0.5, allow_nan=False),
)
def test_comp_pair_partitions_unity(x, y):
    a = a_comp(np.array([x]), np.array([y]))[0]
    b = a_comp(np.array([y]), np.array([x]))[0]
    assert a + b == pytest.approx(1.0, abs=1e-12)
    assert -1e-9 <= a <= 1 + 1e-9


# -- row maximum -----------------------------------------------------------------


def test_amax_equal_rows_are_exact():
    m = np.full((3, 8), -1.75)
    np.testing.assert_array_equal(a_max(m, DEFAULTS), m)


def test_amax_pinned_small_domain_example():
    cfg0 = SoftmaxConfig(extension_steps=0, precise=False)  # covers [-4, 4]
    got = a_max(np.array([[3.0, 1.0, 2.0, -5.0]]), cfg0)
    assert got.shape == (1, 4)
    assert np.all(got == got[0, 0])  # broadcast along the row
    assert abs(got[0, 0] - 3.0) <= 0.05
    assert abs(got[0, 0] - 3.0) == pytest.approx(6.479e-4, abs=1e-6)


def test_amax_bracketed_by_max_and_bound(rng):
    cfg = DEFAULTS
    m = rng.uniform(-cfg.max_range, cfg.max_range, size=(10_000, 10))
    got = a_max(m, cfg)[:, 0]
    true = m.max(axis=1)
    under = true - got
    assert under.max() <= amax_error_bound(cfg, 10)
    assert under.min() >= -1e-9  # the blend never overshoots the max


def test_amax_error_bound_formula():
    # rounds * per-round loss, unscaled back to the [-R, R] box
    assert amax_error_bound(DEFAULTS, 10) == pytest.approx(
        4 * 2 * 128 * COMP_ROUND_ERR
    )
    assert amax_error_bound(DEFAULTS, 3) == pytest.approx(2 * 2 * 128 * COMP_ROUND_ERR)


# -- domain extension --------------------------------------------------------------


def test_domain_extend_is_odd_and_clipping():
    cfg = DEFAULTS
    x = np.linspace(-2 * cfg.max_range, 2 * cfg.max_range, 20001).reshape(-1, 1)
    d = domain_extend(x, cfg)
    np.testing.assert_array_equal(domain_extend(-x, cfg), -d)
    assert abs(domain_extend(np.zeros((1, 1)), cfg)[0, 0]) == 0.0
    assert np.all(d[x >= 0] <= x[x >= 0] + 1e-12)  # never amplifies, anywhere
    # the composition lands in the core interval (up to the shrink slack)
    assert np.abs(d).max() <= BASE_RANGE
    # on the core interval itself, the slope stays inside [0, 1]; outside it
    # each cubic step is allowed to fold (its turning point sits at 1.5x the
    # step's core radius), so no global monotonicity is claimed
    core = np.linspace(-BASE_RANGE, BASE_RANGE, 40001).reshape(-1, 1)
    steps = np.diff(domain_extend(core, cfg)[:, 0])
    h = core[1, 0] - core[0, 0]
    assert steps.min() >= -1e-12
    assert steps.max() <= h + 1e-12


# -- exponential and reciprocal -----------------------------------------------------


def test_a_exp_accurate_on_core_interval():
    g = np.linspace(-8.0, 0.0, 100001).reshape(-1, 1)
    err = np.abs(a_exp(g) - np.exp(g)).max()
    assert err <= 5e-13


def test_a_inv_reciprocal_accuracy():
    # a_inv takes its input already divided by INV_RANGE
    y = np.linspace(0.5, 150.0, 100001).reshape(-1, 1) / INV_RANGE
    assert np.abs(a_inv(y) * y - 1.0).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    classes=st.integers(2, 16),
    cfg=st.builds(SoftmaxConfig, st.integers(0, 5), st.booleans()),
    data=st.data(),
)
def test_row_total_fed_to_a_inv_is_at_least_one(classes, cfg, data):
    # a_max never exceeds a row's maximum, so that entry's exp is exp(>= 0):
    # the row total stays >= 1, so the reciprocal's input (that total divided
    # by INV_RANGE) stays >= 1 / INV_RANGE, where INV_ITERS is rounding-exact
    r = cfg.max_range
    row = st.lists(st.floats(-r, r), min_size=classes, max_size=classes)
    logits = np.array(data.draw(st.lists(row, min_size=1, max_size=8)))
    totals = []

    def recording_inv(total, *plan):
        totals.append(total)
        return a_inv(total, *plan)

    with mock.patch.object(approx, "a_inv", recording_inv):
        a_softmax(logits, cfg)
    assert len(totals) == 1
    assert totals[0].min() >= (1.0 - 1e-9) / INV_RANGE


# A search over 10-class rows within +-128 for the largest reciprocal input
# found this row: its normalized row total is 0.94625.
SEARCHED_ROW = (57.408, -26.088, -3.063, -110.166, -72.234,
                -74.395, -72.37, 101.734, -126.046, 107.649)


def test_searched_row_stays_in_the_reciprocal_domain():
    logits = np.array([SEARCHED_ROW])
    totals = []

    def recording_inv(total, *plan):
        totals.append(total)
        return a_inv(total, *plan)

    with mock.patch.object(approx, "a_inv", recording_inv):
        want = a_softmax(logits, DEFAULTS)
    (total,) = totals
    assert 1.0 / INV_RANGE <= total.min() and total.max() < 2.0
    assert total[0, 0] == pytest.approx(0.94625, abs=5e-6)
    ctx = EmulatorContext(256, 16, max_level=12)
    got = decode(a_softmax(encode(ctx, logits, tiling="horizontal"), DEFAULTS))
    np.testing.assert_array_equal(got, want)


def _two_ciphertext_inv(y):
    """The Goldschmidt loop refreshing a and b one ciphertext at a time:
    (1/y, whether some iteration refreshed both)."""
    a = 2.0 - y
    b = 1.0 - y
    both = False
    for _ in range(INV_ITERS):
        both |= a.level < 1 and b.level < min(2, b.ctx.max_level)
        a, b = _refresh(a, 1), _refresh(b, 2)
        b = b * b
        a = a * (b + 1.0)
    return a, both


@pytest.mark.parametrize("classes", [3, 10])
def test_packed_a_inv_never_costs_more_than_two_ciphertexts(classes):
    # every budget the softmax accepts up to 16, at every entry level: the
    # pair refresh pays one bootstrap where the reference refreshes both
    y = np.random.default_rng(classes).uniform(1 / INV_RANGE, 2.0, size=(16, classes))
    for max_level in range(4, 17):
        for level in range(max_level + 1):
            ctx = EmulatorContext(256, 16, max_level=max_level)
            enc = encode(ctx, y, tiling="horizontal", level=level)
            before = ctx.ledger.snapshot()
            out = a_inv(enc)
            boots = ctx.ledger.delta(before)["Bootstrap"]
            before = ctx.ledger.snapshot()
            ref, both = _two_ciphertext_inv(enc)
            ref_boots = ctx.ledger.delta(before)["Bootstrap"]

            want = a_inv(padded_array(enc).real)
            assert padded_array(out).real.tobytes() == want.tobytes()
            assert out.level >= ref.level
            assert boots < ref_boots if both else boots <= ref_boots


# -- evaluation orders ----------------------------------------------------------------


_polyval = np.polynomial.polynomial.polyval


@pytest.mark.parametrize(
    "coeffs,tol", [(COMP_F, 1e-14), (COMP_G, 2e-14)], ids=["COMP_F", "COMP_G"]
)
def test_factored_odd_poly_equals_its_power_form(coeffs, tol):
    # COMP_G's factored form sums a product and an x term that each reach
    # about 28 near |x| = 1 and cancel to below 1, so its rounding is a few
    # ulps of 28 (measured 1.5e-14); COMP_F's terms stay below 3 (2.8e-15)
    x = np.linspace(-1.0, 1.0, 200001)
    a1, a3, a5, a7 = coeffs
    want = _polyval(x, [0.0, a1, 0.0, a3, 0.0, a5, 0.0, a7])
    assert np.abs(_odd_poly(x, coeffs) - want).max() <= tol


def test_exp_fit_equals_horner_of_the_fit():
    x = np.linspace(-1.0, 1.0, 200001)
    assert np.abs(_exp_fit(None, x, False, EXP_POLY) - _polyval(x, EXP_POLY)).max() <= 1e-14


# The pipeline with every constant scaling as a separate op, in the order the
# folds replaced: x 1/(2R) into the tournament, (u + 1) * 1/2 after each
# comparison, x 2R out of it, x 1/B into the exp fit, x 1/INV_RANGE into and
# out of the reciprocal.


def _explicit_comp(x, y):
    u = _odd_poly(_odd_poly(_odd_poly(x - y, COMP_G), COMP_G), COMP_F)
    return (u + 1.0) * 0.5


def _explicit_max(m, cfg):
    rows, classes = m.shape
    period = next_pow2(classes)
    two_r = 2.0 * cfg.max_range
    best = np.zeros((rows, period))
    best[:, :classes] = m
    best = best * (1.0 / two_r)
    best[:, classes:] -= 0.5
    for t in range(log2(period)):
        rival = np.roll(best, -(1 << t), axis=1)
        w = _explicit_comp(best, rival)
        best = best * w + rival * (1.0 - w)
    return np.repeat(best[:, :1], period, axis=1) * two_r


def _explicit_exp(m):
    acc = _exp_fit(None, m * (1.0 / EXP_RANGE), False, EXP_POLY)
    for _ in range(log2(EXP_RANGE)):
        acc = acc * acc
    return acc


def _explicit_softmax(m, cfg):
    classes = m.shape[1]
    period = next_pow2(classes)
    work = np.zeros((m.shape[0], period))
    work[:, :classes] = m
    keep = np.where(np.arange(period) < classes, 1.0, 0.0)[None, :]
    norm = domain_extend((work - _explicit_max(m, cfg)) * keep, cfg)
    if cfg.precise:
        norm = _dep_compensation(norm, cfg)
    expd = _explicit_exp(norm) * keep
    total = expd
    for t in range(log2(period)):
        total = total + np.roll(total, -(1 << t), axis=1)
    y = total[:, :1] * (1.0 / INV_RANGE)
    a, b = 2.0 - y, 1.0 - y
    for _ in range(INV_ITERS):
        b = b * b
        a = a * (b + 1.0)
    return (expd * (a * (1.0 / INV_RANGE)))[:, :classes]


@pytest.mark.parametrize("steps", [0, 5])
@pytest.mark.parametrize("classes", [2, 3, 10, 16])
def test_folded_scalings_match_the_explicit_order(steps, classes):
    # every folded constant but 1/INV_RANGE is a power of two, so the folds
    # are bit-exact; 1/100 is not, which moves the softmax by ulps
    cfg = SoftmaxConfig(extension_steps=steps)
    r = cfg.max_range
    rng = np.random.default_rng(100 * steps + classes)
    m = rng.uniform(-r, r, size=(2000, classes))
    d = rng.uniform(-0.5, 0.5, size=(2, 2000))
    np.testing.assert_array_equal(a_comp(d[0], d[1]), _explicit_comp(d[0], d[1]))
    np.testing.assert_array_equal(a_max(m, cfg), _explicit_max(m, cfg))
    g = rng.uniform(-EXP_RANGE, EXP_RANGE, size=(2000, classes))
    np.testing.assert_array_equal(a_exp(g), _explicit_exp(g))
    want = _explicit_softmax(m, cfg)
    assert np.abs(a_softmax(m, cfg) - want).max() <= 2e-14
    ctx = EmulatorContext(256, 16, max_level=12)
    enc = encode(ctx, m[:8], tiling="horizontal")
    got = decode(a_softmax(enc, cfg), role="observer", tag="test")
    assert np.abs(got - want[:8]).max() <= 2e-14


def test_named_depths_are_what_the_pieces_consume():
    # on a budget no piece exhausts, every named depth is measured, not
    # refreshed: each piece refreshes its input for these names
    ctx = EmulatorContext(256, 16, max_level=10**6)
    x = encode(ctx, np.full((8, 16), 0.25), tiling="horizontal")
    before = ctx.ledger.snapshot()
    measured = {
        "odd poly": (_odd_poly(x, COMP_G), ODD_POLY_DEPTH),
        "comparison": (a_comp(x, 0.125), 3 * ODD_POLY_DEPTH),
        "exp": (a_exp(x), EXP_FIT_DEPTH + log2(EXP_RANGE)),
        "exp fit": (_exp_fit(None, x, False, EXP_POLY), EXP_FIT_DEPTH),
        "contraction": (domain_extend(x, SoftmaxConfig(extension_steps=1)), CONTRACTION_DEPTH),
        "compensation": (_dep_compensation(x, DEFAULTS), COMPENSATION_DEPTH),
    }
    assert ctx.ledger.delta(before)["Bootstrap"] == 0
    for name, (out, depth) in measured.items():
        assert ctx.max_level - out.level == depth, name


# -- assembled softmax ---------------------------------------------------------------


def test_softmax_pinned_example():
    logits = np.array([[8.0, 10.0, 13.0]])
    got = a_softmax(logits, DEFAULTS)
    want = exact_softmax(logits)
    np.testing.assert_allclose(got, [[0.006, 0.047, 0.946]], atol=0.01)
    assert np.abs(got - want).max() <= 1e-3


def test_softmax_uniform_row():
    got = a_softmax(np.full((2, 7), 3.25), DEFAULTS)
    np.testing.assert_allclose(got, 1.0 / 7.0, atol=1e-15)


def test_softmax_rows_sum_to_one(rng):
    x = rng.uniform(-100, 100, size=(20_000, 10))
    sums = a_softmax(x, DEFAULTS).sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.uniform(-20, 20, size=(5000, 5))
    base = a_softmax(x, DEFAULTS)
    assert np.abs(base - a_softmax(x + 40.0, DEFAULTS)).max() <= 3e-3
    assert np.abs(base - a_softmax(x - 37.5, DEFAULTS)).max() <= 3e-3


def test_softmax_small_domain_without_extension(rng):
    cfg0 = SoftmaxConfig(extension_steps=0, precise=False)
    x = rng.uniform(-4, 4, size=(5000, 3))
    err = np.abs(a_softmax(x, cfg0) - exact_softmax(x)).max()
    assert err <= 1e-5


def _edge_rows(classes, r, rng):
    """8 random rows within [-r, r], a tied row, rows at +r and at -r, and a
    row alternating between the two."""
    return np.vstack([
        rng.uniform(-r, r, size=(8, classes)),
        np.full((1, classes), 0.375 * r),
        np.full((1, classes), float(r)),
        np.full((1, classes), -float(r)),
        np.where(np.arange(classes) % 2, -float(r), float(r))[None, :],
    ])


def test_softmax_encrypted_matches_array_bit_exactly():
    # the array carrier computes only the slots the encrypted path reads,
    # with the same arithmetic in the same order: a_softmax and a_max agree
    # bit for bit, the max on every column of the period
    for classes, steps, precise in itertools.product(range(1, 17), (0, 2, 5), (False, True)):
        cfg = SoftmaxConfig(extension_steps=steps, precise=precise)
        logits = _edge_rows(classes, cfg.max_range, np.random.default_rng(classes))
        ctx = EmulatorContext(256, 16, max_level=12)
        enc = encode(ctx, logits, tiling="horizontal")
        got = decode(a_softmax(enc, cfg), role="observer", tag="test")
        np.testing.assert_array_equal(got, a_softmax(logits, cfg))
        wide = a_max(enc, cfg).with_meta(shape=(len(logits), next_pow2(classes)))
        np.testing.assert_array_equal(
            decode(wide, role="observer", tag="test"), a_max(logits, cfg)
        )
        assert ctx.ledger.counts()["Mult"] > 0  # it really ran under encryption


def test_softmax_carrier_rejects_wrong_layout(rng):
    ctx = EmulatorContext(256, 16, max_level=12)
    m = rng.uniform(-1, 1, size=(8, 5))
    with pytest.raises(ShapeMismatch):
        a_softmax(encode(ctx, m), DEFAULTS)  # untiled
    with pytest.raises(ShapeMismatch):
        a_softmax(encode(ctx, m, tiling="vertical"), DEFAULTS)


@pytest.mark.parametrize("stage", [a_softmax, a_max])
@pytest.mark.parametrize("shape", [(3, 0), (0, 0), (4,)])
def test_array_without_class_columns_is_refused(stage, shape):
    # no class column has no period: a typed error, not next_pow2's
    with pytest.raises(ShapeMismatch, match="2D array of 1 or more classes"):
        stage(np.zeros(shape))


# -- row blocking of the array path ---------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    classes=st.integers(2, 16),
    layout=st.sampled_from(["one", "below", "at", "above", "several"]),
    seed=st.integers(0, 2**31 - 1),
    picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=3),
)
def test_blocked_softmax_rows_equal_single_row_calls(classes, layout, seed, picks):
    block = _BLOCK_SLOTS // next_pow2(classes)
    rows = {"one": 1, "below": block - 1, "at": block, "above": block + 1,
            "several": 3 * block + 17}[layout]
    x = np.random.default_rng(seed).uniform(-128, 128, size=(rows, classes))
    got = a_softmax(x, DEFAULTS)
    assert got.shape == (rows, classes)
    np.testing.assert_array_equal(got, _softmax(x, DEFAULTS))
    edges = {0, block - 1, block, rows - 1}
    for r in sorted({r for r in edges if r < rows} | {int(p * rows) for p in picks}):
        np.testing.assert_array_equal(got[r], a_softmax(x[r : r + 1], DEFAULTS)[0])


@pytest.mark.parametrize("classes", [2, 10, 16])
def test_softmax_of_zero_rows_keeps_class_width(classes):
    assert a_softmax(np.zeros((0, classes)), DEFAULTS).shape == (0, classes)


def test_rows_wider_than_a_block_run_one_row_per_block():
    # a period of 16 slots in 8-slot blocks: each block holds one row
    x = np.random.default_rng(8).uniform(-128, 128, size=(5, 10))
    with mock.patch.object(approx, "_BLOCK_SLOTS", 8):
        got = a_softmax(x, DEFAULTS)
    np.testing.assert_array_equal(got, _softmax(x, DEFAULTS))


def test_encrypted_softmax_ledger_is_unchanged(rng):
    ctx = EmulatorContext(256, 16, max_level=12)
    enc = encode(ctx, rng.uniform(-30, 30, size=(8, 5)), tiling="horizontal")
    before = ctx.ledger.snapshot()
    a_softmax(enc, DEFAULTS)
    # the explicit refresh points bootstrap each ciphertext once per piece
    assert ctx.ledger.delta(before) == {
        "Add": 86, "CMult": 40, "Mult": 89, "Rot": 12, "Conj": 1, "Bootstrap": 6,
    }


@pytest.mark.parametrize(
    "slots,grid_rows,rows,classes",
    [
        (256, 16, 29, 5),  # period 8 of 16 columns, two block rows
        (4096, 64, 64, 3),  # period 4 of 64 columns, the test scale
        (16, 4, 6, 3),  # period 4 of 4 columns, two block rows
        (256, 16, 16, 16),  # period 16 of 16 columns
    ],
)
@pytest.mark.parametrize("level", [12, 7, 3])
def test_every_period_copy_runs_its_own_period_local_softmax(slots, grid_rows, rows, classes, level):
    ctx = EmulatorContext(slots, grid_rows, max_level=12)
    logits = np.random.default_rng(classes).uniform(-30, 30, size=(rows, classes))
    out, delta = _encrypted_softmax(ctx, logits, level=level)
    np.testing.assert_array_equal(decode(out), a_softmax(logits, DEFAULTS))
    # each copy computes the first's numbers on its own slots, byte for byte
    p = out.period
    copies = padded_array(out).reshape(-1, ctx.grid_cols // p, p)
    assert copies.tobytes() == np.broadcast_to(copies[:, :1], copies.shape).tobytes()
    # every ladder stays inside one period: per block, one Rot per
    # tournament round, log2(period) each for the max broadcast and the
    # row total's fold and broadcast, and one per re-roll at a pack point
    plan = softmax_plan(level, 12, classes, DEFAULTS)
    rerolls = sum(pack is not None for pack in _pairs(plan, classes))
    blocks = out.grid[0] * out.grid[1]
    assert delta["Rot"] == blocks * (log2(p) + 3 * log2(p) + rerolls)


# The stage functions that timers and counters rebind by module name.
_REBOUND_STAGES = ("a_max", "domain_extend", "_dep_compensation", "a_exp", "a_inv")


@pytest.mark.parametrize("encrypted", [True, False], ids=["encrypted", "array"])
def test_softmax_enters_each_rebound_stage_once(encrypted):
    # the benchmark's tracer and the measuring scripts rebind these
    # functions in the module, the softmax's own name for them: one softmax
    # call, planned from cold caches, enters each once, through that name,
    # and each charges the ops it charged before the executor walked one
    # list of refresh points.  Pinned at train-paper's softmax: 32768
    # slots, 128 x 10 logits entering at level 9 of 12, the residual
    # needing 4
    ctx = EmulatorContext(32768, 128, max_level=12)
    logits = np.random.default_rng(9).uniform(-30, 30, size=(128, 10))
    M = encode(ctx, logits, tiling="horizontal", level=9) if encrypted else logits
    entered, charged = dict.fromkeys(_REBOUND_STAGES, 0), {}

    def rebound(name, stage):
        def run(*args, **kwargs):
            entered[name] += 1
            before = ctx.ledger.snapshot()
            out = stage(*args, **kwargs)
            charged[name] = ctx.ledger.delta(before)
            return out

        return run

    for cache in (softmax_plan, approx._chain, approx._piece_run):
        cache.cache_clear()
    stages = {name: rebound(name, getattr(approx, name)) for name in _REBOUND_STAGES}
    before = ctx.ledger.snapshot()
    with mock.patch.multiple(approx, **stages):
        a_softmax(M, DEFAULTS, 4)
    assert entered == dict.fromkeys(_REBOUND_STAGES, 1)
    if not encrypted:
        return
    ops = lambda *counts: dict(zip(OP_KINDS, counts))
    assert charged == {
        "a_max": ops(60, 27, 56, 9, 1, 3),
        "domain_extend": ops(5, 5, 10, 0, 0, 1),
        "_dep_compensation": ops(2, 2, 3, 0, 0, 1),
        "a_exp": ops(12, 10, 9, 0, 0, 0),
        "a_inv": ops(17, 2, 24, 0, 1, 1),
    }
    assert ctx.ledger.delta(before) == ops(105, 48, 103, 17, 2, 7)


class _WidthContext(EmulatorContext):
    """A context that records the most slots one seam computes at once."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.widest = 0

    def _saw(self, slots):
        self.widest = max(self.widest, np.size(slots))
        return slots

    def _product(self, x, y, k=None, same=False):
        out, level = super()._product(x, y, k, same)
        return self._saw(out), level

    def _sum(self, *args, **kwargs):
        return self._saw(super()._sum(*args, **kwargs))

    def _ladder(self, *args, **kwargs):
        return self._saw(super()._ladder(*args, **kwargs))

    def _conjugated(self, *args, **kwargs):
        return self._saw(super()._conjugated(*args, **kwargs))

    def lrot(self, x, r):
        out = super().lrot(x, r)
        self._saw(out.slots)
        return out

    def bootstrap(self, x):
        out = super().bootstrap(x)
        self._saw(out.slots)
        return out


@pytest.mark.parametrize("slots,grid_rows,classes", [(4096, 64, 3), (32768, 128, 10)])
def test_encrypted_softmax_computes_one_period_copy_per_row(slots, grid_rows, classes):
    # no seam inside the softmax computes more than one period of each row
    # of each block; two block rows, tiled 16 copies wide
    ctx = _WidthContext(slots, grid_rows, max_level=12)
    logits = np.random.default_rng(classes).uniform(-30, 30, size=(2 * grid_rows - 3, classes))
    out, delta = _encrypted_softmax(ctx, logits, level=9)
    blocks, p = out.grid[0], out.period
    assert 0 < ctx.widest <= blocks * grid_rows * p
    assert delta["Bootstrap"] > 0
    np.testing.assert_array_equal(decode(out), a_softmax(logits, DEFAULTS))
    # a softmax that raises inside the narrowed scope restores the geometry
    ctx = _WidthContext(slots, grid_rows, max_level=3)
    widths, plan = [], approx.softmax_plan

    def planning(*args, **kwargs):
        widths.append(ctx.grid_cols)
        return plan(*args, **kwargs)

    with mock.patch.object(approx, "softmax_plan", planning), pytest.raises(DepthExhausted):
        _encrypted_softmax(ctx, logits, level=3)
    assert widths == [p]
    assert (ctx.grid_cols, ctx.slot_count) == (slots // grid_rows, slots)
    full = encode(ctx, logits, tiling="horizontal", level=3)
    assert (full * full).level == 2 and len(full.block) == slots


def test_softmax_refuses_period_copies_that_differ(rng):
    # the softmax computes the first period copy of each row alone, so an
    # input whose copies differ is malformed, refused before any op
    ctx = EmulatorContext(256, 16, max_level=12)
    enc = encode(ctx, rng.uniform(-30, 30, size=(8, 3)), tiling="horizontal")
    slots = np.array(enc.block.slots)
    slots[..., 16 + 4] += 1.0  # row 1, first column of the second copy
    bad = EncodedMatrix(ctx, CipherBlock(slots, enc.level), enc.shape, "horizontal")
    with pytest.raises(TilingError, match="period copy differs"):
        a_softmax(bad, DEFAULTS)
    assert not any(ctx.ledger.counts().values())
    assert (ctx.grid_cols, ctx.slot_count) == (16, 256)


# -- refresh plan ---------------------------------------------------------------------


def _encrypted_softmax(ctx, logits, level=None, need=None, cfg=DEFAULTS):
    enc = encode(ctx, logits, tiling="horizontal", level=level)
    before = ctx.ledger.snapshot()
    out = a_softmax(enc, cfg, need)
    return out, ctx.ledger.delta(before)


def _pairs(plan, classes):
    """A plan's pack point per tournament round: its moves after the
    push-down, one per round."""
    return plan.moves[1 : 1 + log2(next_pow2(classes))]


def test_paper_shaped_softmax_needs_no_fallback_bootstrap(rng):
    # one 32768-slot block of 128 x 10 logits, three levels down as diag_abt
    # leaves them: every refresh is placed by the pipeline itself
    logits = rng.uniform(-8, 8, size=(128, 10))
    outs = {}
    for auto in (False, True):
        ctx = EmulatorContext(32768, 128, max_level=12, auto_bootstrap=auto)
        out, delta = _encrypted_softmax(ctx, logits, level=9)
        outs[auto] = out.block.slots
        assert delta["Bootstrap"] == 7
    np.testing.assert_array_equal(outs[False], outs[True])
    np.testing.assert_array_equal(decode(out), a_softmax(logits, DEFAULTS))


class _GainingContext(EmulatorContext):
    """A context whose every bootstrap must lift its operand's level."""

    def bootstrap(self, x):
        assert x.level < self.max_level, "refreshed a ciphertext already at max_level"
        return super().bootstrap(x)


_BUDGETS_AND_NEEDS = [(m, n) for n in (None, 4) for m in (3, 4, 5, 6, 7, 12)]


@pytest.mark.parametrize(
    "max_level,need", _BUDGETS_AND_NEEDS,
    ids=[f"{m}" if n is None else f"{m}-need{n}" for m, n in _BUDGETS_AND_NEEDS],
)
@pytest.mark.parametrize("classes", [2, 3, 5, 16])
def test_softmax_refresh_plan_covers_every_entry_level(rng, max_level, classes, need):
    # budgets of at least 4 levels (the exp fit or the compensation, the
    # deepest pieces) run on the plan alone; a smaller budget is refused at
    # every entry level before any op
    logits = rng.uniform(-30, 30, size=(8, classes))
    want = a_softmax(logits, DEFAULTS)
    for level in range(max_level + 1):
        ctx = _GainingContext(256, 16, max_level=max_level)
        if max_level < 4:
            with pytest.raises(DepthExhausted):
                _encrypted_softmax(ctx, logits, level=level, need=need)
            assert not any(ctx.ledger.counts().values())
            continue
        out, _ = _encrypted_softmax(ctx, logits, level=level, need=need)
        np.testing.assert_array_equal(decode(out), want)


def test_budget_below_the_deepest_piece_is_refused(rng):
    # a 3-level budget cannot hold the 4-level pieces: every chain of the
    # planner's dry runs exhausts its depth, so the planner names the
    # budget, and the encrypted softmax refuses before any op,
    # whether or not the context would refresh a level-0 operand itself
    with pytest.raises(DepthExhausted, match="budget of 3 levels: its deepest pieces need 4"):
        softmax_plan(3, 3, 3, DEFAULTS)
    logits = rng.uniform(-30, 30, size=(8, 3))
    for auto in (False, True):
        ctx = EmulatorContext(256, 16, max_level=3, auto_bootstrap=auto)
        with pytest.raises(DepthExhausted):
            _encrypted_softmax(ctx, logits, level=3)
        assert not any(ctx.ledger.counts().values())


@pytest.mark.parametrize("classes,depth", [(10, 78), (3, 58)])
def test_deep_budget_never_refreshes(rng, classes, depth):
    ctx = EmulatorContext(4096, 64, max_level=10**6)
    out, delta = _encrypted_softmax(ctx, rng.uniform(-8, 8, size=(64, classes)))
    assert delta["Bootstrap"] == 0
    assert ctx.max_level - out.level == depth


def test_refresh_plan_bootstraps_are_pinned_across_budgets(rng):
    # 10-class logits three levels down, as diag_abt leaves them: the plan's
    # bootstraps per call at every budget from the softmax's minimum of 4.
    # A refresh need set below its piece's depth moves a count here or
    # exhausts a level: best's need at 1 moves budgets 5, 9, 15 and 16, the
    # first-column mask's need at 0 exhausts budget 4, a_inv's entry need
    # at 0 exhausts budgets 5 and 15, its pair's need at 0 every budget but
    # 15, and the tournament pair's need at the blend at 0 budget 6.
    logits = rng.uniform(-30, 30, size=(8, 10))
    counts = {}
    for max_level in range(4, 17):
        ctx = EmulatorContext(256, 16, max_level=max_level)
        _, delta = _encrypted_softmax(ctx, logits, level=max_level - 3)
        counts[max_level] = delta["Bootstrap"]
    assert counts == {
        4: 24, 5: 22, 6: 15, 7: 12, 8: 11, 9: 10, 10: 8,
        11: 8, 12: 7, 13: 6, 14: 6, 15: 5, 16: 5,
    }


def _greedy_a_max(car, cfg, moves=None):
    """a_max refreshing every value alone, for its own next piece: ``best``
    before the roll, the comparison chain before each pass (inside
    ``_odd_poly``) and ``w`` before the blend, as a plan of pack point None
    in every round would.  Of ``moves``, the plan's, it skips a_max's
    (one per point of ``approx._max_points``) unread, so the stages after
    it read theirs; the softmax passes its own carrier."""
    if moves is not None:
        for _ in approx._max_points(cfg, car.classes):
            next(moves)
    r = cfg.max_range
    first = tuple(a / (2 * r) ** (2 * k + 1) for k, a in enumerate(COMP_G))
    best = car.pushed_down(r)
    for t in range(log2(car.period)):
        best, rival = car.knockout_pair(_refresh(best, ODD_POLY_DEPTH), t)
        u = _odd_poly(_odd_poly(_odd_poly(best - rival, first), COMP_G), COMP_F_HALF)
        w = _refresh(u + 0.5, 1)
        best = best * w + rival * (1.0 - w)
    return car.broadcast_col0(_refresh(best, 1))


def _with_consumer(out, delta, need):
    """Bootstraps of a softmax call plus its consumer's refresh, if any."""
    refresh = need is not None and out.level < min(need, out.ctx.max_level)
    return delta["Bootstrap"] + refresh


@pytest.mark.parametrize("need", [None, 4])
@pytest.mark.parametrize("classes", [2, 3, 10, 16])
def test_softmax_plan_predicts_the_ledger_and_never_costs_more(classes, need):
    # every budget from the softmax's minimum of 4 to 24, at every entry
    # level: the plan's prediction is what executes, the output slots are
    # the array path's, and the bootstraps (with the consumer's refresh of
    # an output below ``need``) never exceed refreshing every value alone
    logits = np.random.default_rng(classes).uniform(-30, 30, size=(8, classes))
    want = a_softmax(logits, DEFAULTS)
    for max_level in range(4, 25):
        for level in range(max_level + 1):
            plan = softmax_plan(level, max_level, classes, DEFAULTS, need)
            ctx = EmulatorContext(256, 16, max_level=max_level)
            out, delta = _encrypted_softmax(ctx, logits, level, need)
            assert (delta["Bootstrap"], out.level) == (plan.bootstraps, plan.level)
            np.testing.assert_array_equal(decode(out), want)
            with mock.patch.object(approx, "a_max", _greedy_a_max):
                ref, ref_delta = _encrypted_softmax(ctx, logits, level, need)
            assert _with_consumer(out, delta, need) <= _with_consumer(ref, ref_delta, need)


class _Counted:
    """An iterator over a plan's moves that counts the moves read and the
    reads past the last."""

    def __init__(self, choices):
        self.choices, self.read, self.past = tuple(choices), 0, 0

    def __iter__(self):
        return self

    def __next__(self):
        if self.read == len(self.choices):
            self.past += 1
            raise StopIteration
        self.read += 1
        return self.choices[self.read - 1]


def _ledger_cases():
    """Each shape at the default config, named by the shape alone, then at
    four other configs."""
    shapes = [(256, 16, 29, 5), (4096, 64, 64, 3), (16, 4, 6, 3), (256, 16, 16, 16),
              (4096, 64, 128, 7)]
    cfgs = [SoftmaxConfig(0, False), SoftmaxConfig(1, True), SoftmaxConfig(3, True),
            SoftmaxConfig(5, False)]
    name = lambda shape: "-".join(map(str, shape))
    return [pytest.param(*shape, DEFAULTS, id=name(shape)) for shape in shapes] + [
        pytest.param(*shape, cfg, id=f"{name(shape)}-ext{cfg.extension_steps}"
                     f"-{'prec' if cfg.precise else 'fast'}")
        for cfg in cfgs for shape in shapes
    ]


@pytest.mark.parametrize("slots,grid_rows,rows,classes,cfg", _ledger_cases())
def test_softmax_plan_counts_are_one_blocks_ledger(slots, grid_rows, rows, classes, cfg):
    # the plan's op counts, kind by kind, times the blocks of the input are
    # what the encrypted softmax charges, at any period, block count and
    # config; the executor walks the points the planner prices, all of
    # them, in their order, and reads one move per point, none past the
    # plan's last.  The logits stay inside the config's input range, where
    # a_inv converges
    r = min(30, cfg.max_range)
    logits = np.random.default_rng(rows).uniform(-r, r, size=(rows, classes))
    walk, walked = approx._walk, []

    def recording_walk(car, points, live, moves=None):
        walked.extend(points)
        return walk(car, points, live, moves)

    for max_level, level, need in [(12, 9, 4), (12, 3, 9), (7, 7, None), (21, 18, 12)]:
        plan = softmax_plan(level, max_level, classes, cfg, need)
        counted = _Counted(plan.moves)
        ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
        with mock.patch.object(approx, "softmax_plan", lambda *args: dataclasses.replace(plan, moves=counted)), \
                mock.patch.object(approx, "_walk", recording_walk):
            out, delta = _encrypted_softmax(ctx, logits, level, need, cfg)
        blocks = out.grid[0] * out.grid[1]
        assert delta == {kind: n * blocks for kind, n in zip(OP_KINDS, plan.counts)}
        assert out.level == plan.level
        assert tuple(walked) == approx._softmax_points(cfg, classes)
        assert (counted.read, counted.past) == (len(plan.moves), 0)
        walked.clear()


def test_softmax_plan_spares_the_paper_step_a_refresh():
    # train-paper's softmax: 10 classes entering at level 9 of 12, the
    # residual needing 4.  Refreshing every value alone hands on level 0,
    # so the residual refresh fires; the plan packs best with the first
    # round's blend weight and hands on level 8 for the same 7 bootstraps
    logits = np.random.default_rng(9).uniform(-30, 30, size=(8, 10))
    ctx = EmulatorContext(256, 16, max_level=12)
    out, delta = _encrypted_softmax(ctx, logits, 9, need=4)
    with mock.patch.object(approx, "a_max", _greedy_a_max):
        ref, ref_delta = _encrypted_softmax(ctx, logits, 9, need=4)
    assert (delta["Bootstrap"], out.level) == (7, 8)
    assert (ref_delta["Bootstrap"], ref.level) == (7, 0)
    assert _with_consumer(out, delta, 4) < _with_consumer(ref, ref_delta, 4)
    assert _pairs(softmax_plan(9, 12, 10, DEFAULTS, 4), 10)[0] == 3


def _tail_points(cfg, classes):
    """The softmax's refresh points after the normalization, each as
    ``(piece, first, choices)``."""
    rounds = log2(next_pow2(classes))
    return [point[:3] for point in approx._softmax_points(cfg, classes)[rounds + 3 :]]


def _tail_chains(max_level, cfg, classes, need):
    """The tail's plan from the normalized logits' levels, cached: the
    cheapest chain through the stages of :func:`_tail_points`, with one
    memo for every start."""
    stages = [approx._stage(*point, max_level, classes) for point in _tail_points(cfg, classes)]
    memo = [{} for _ in range(len(stages) + 1)]
    key = approx._plan_key(max_level, need)
    return functools.cache(lambda norm: approx.cheapest(norm, stages, key, memo))


def _oracle_key(max_level, need):
    """The order of softmax plans by their ``(choices, counts, out)``,
    written out: the least ms, then the fewest bootstraps, each counting
    the consumer's refresh of an output below ``need`` as one bootstrap
    more, then the highest level handed on."""
    boot = OP_KINDS.index("Bootstrap")

    def key(chain):
        _, counts, out = chain
        refreshed = need is not None and out < min(need, max_level)
        ops = dict(zip(OP_KINDS, counts))
        ops["Bootstrap"] += refreshed
        handed = 0 if need is None else max_level if refreshed else out
        return OpLedger().estimate_ms(ops), counts[boot] + refreshed, -handed

    return key


@pytest.mark.parametrize("classes", [2, 3, 5, 7])
def test_softmax_plan_is_the_first_cheapest_pack_sequence(classes):
    # an oracle over every pack sequence, budgets 4 to 24, every entry level
    # and need None or 4: the plan is the cheapest by its key (ms, then
    # bootstraps, each with the consumer's refresh, then the level handed
    # on), and of equally cheap sequences the lexicographically first in
    # _ROUND_PACKS' order (approx.cheapest's tie-break); the tail after
    # each sequence is the tail's cheapest chain, whose own oracle is below.
    # Rounds are priced at two classes, as the planner prices them: the
    # ledger tests check that pricing against the executor at every width
    for max_level in range(4, 25):
        for need in (None, 4):
            tails = _tail_chains(max_level, DEFAULTS, classes, need)
            key = _oracle_key(max_level, need)

            def run(piece, levels, choice=None, width=classes):
                return approx._piece_run(piece, levels, max_level, width, choice)

            for level in range(max_level + 1):
                chains = []
                for pairs in itertools.product(approx._ROUND_PACKS, repeat=log2(next_pow2(classes))):
                    push_cost, (x, best) = run(approx._push, (level,))
                    pieces = [push_cost]
                    for pack in pairs:
                        cost, (best,) = run(approx._round, (best,), pack, width=2)
                        pieces.append(cost)
                    broadcast_cost, (best,) = run(approx._broadcast, (best,))
                    norm_cost, norm = run(approx._normalize, (x, best))
                    _, tail_cost, (out,) = tails(norm)
                    counts = tuple(map(sum, zip(*pieces, broadcast_cost, norm_cost, tail_cost)))
                    chains.append((pairs, counts, out))
                plan = softmax_plan(level, max_level, classes, DEFAULTS, need)
                assert (_pairs(plan, classes), plan.counts, plan.level) == min(chains, key=key), (
                    max_level, level, need)
                ms = OpLedger().estimate_ms(dict(zip(OP_KINDS, plan.counts)))
                assert approx.rank(plan.counts) == (ms, plan.bootstraps)


@pytest.mark.parametrize("iters", [2, 3])
def test_tail_plan_is_the_first_cheapest_refresh_sequence(iters):
    # an oracle over every refresh-move sequence of a shortened tail (one
    # contraction, no compensation, 2 or 3 Goldschmidt iterations), at
    # budgets 4 to 9, every level of the normalized logits and need None or
    # 4: the tail's plan is the cheapest by the plan key, and of equally
    # cheap sequences the lexicographically first, no refresh before an
    # early one.  Each sequence is priced piece by piece; every 16th is
    # also walked in one dry run, as the executor walks it, which must
    # charge the same
    cfg = SoftmaxConfig(extension_steps=1, precise=False)
    classes = 3

    def priced(seq, norm, max_level):
        state, counts = (norm,), (0,) * len(OP_KINDS)
        for (piece, first, _), early in zip(points, seq):
            run = approx._piece_run(piece, state[first:], max_level, classes, early)
            if run is None:
                return None
            counts = tuple(map(sum, zip(counts, run[0])))
            state = state[:first] + run[1]
        return counts, state[0]

    def walked(seq, norm, zeros):
        x = zeros((1, classes), "horizontal", norm)
        tail = approx._softmax_points(cfg, classes)[-len(points) :]
        (out,) = approx._walk(approx._Carrier(x), tail, (x,), iter(seq))
        return out.level

    # the tail planner here is the test's own, and a cached dry run prices
    # one piece, which reads no INV_ITERS: so no cache keeps an entry that
    # depends on the patched INV_ITERS, and the plan caches go untouched
    cached = approx._chain.cache_info(), softmax_plan.cache_info()
    with mock.patch.object(approx, "INV_ITERS", iters):
        points = _tail_points(cfg, classes)
        assert len(points) == 1 + 5 + iters + 2
        seqs = list(itertools.product(*(choices for _, _, choices in points)))
        for max_level in range(4, 10):
            for norm in range(max_level + 1):
                chains = []
                for i, seq in enumerate(seqs):
                    run = priced(seq, norm, max_level)
                    if i % 16 == 0:
                        assert run == approx.dry_run(
                            next_pow2(classes), 1, max_level, functools.partial(walked, seq, norm))
                    if run:
                        chains.append((seq, *run))
                for need in (None, 4):
                    plan = _tail_chains(max_level, cfg, classes, need)((norm,))
                    best = min(chains, key=_oracle_key(max_level, need), default=None)
                    assert (plan and (plan[0], plan[1], plan[2][0])) == best, (
                        max_level, norm, need)
    assert (approx._chain.cache_info(), softmax_plan.cache_info()) == cached


@pytest.mark.parametrize("classes", range(2, 11))
def test_one_more_budget_level_never_ranks_worse(classes):
    # at every entry level and every need, a budget one level larger never
    # makes the plan cost more ms, nor more bootstraps at equal ms, with
    # the consumer's refresh counted: budgets 4 to 16
    def cost(level, max_level, need):
        plan = softmax_plan(level, max_level, classes, DEFAULTS, need)
        return approx._plan_key(max_level, need)(plan.counts, (plan.level,))[:2]

    for max_level in range(4, 16):
        for need in (None, *range(4, max_level + 1)):
            for level in range(max_level + 1):
                assert cost(level, max_level + 1, need) <= cost(level, max_level, need), (
                    max_level, need, level)


def _plan_table_digest() -> str:
    """sha256 of every plan's ``(pairs, bootstraps, level)`` at 2, 3, 5, 7,
    10 and 16 classes, budgets 4 to 24, every entry level and ``need`` in
    (None, 4), under the default config; ``pairs`` are its pack points."""
    table = [
        (_pairs(plan, classes), plan.bootstraps, plan.level)
        for classes in (2, 3, 5, 7, 10, 16)
        for max_level in range(4, 25)
        for level in range(max_level + 1)
        for need in (None, 4)
        for plan in [softmax_plan(level, max_level, classes, DEFAULTS, need)]
    ]
    return hashlib.sha256(repr(table).encode()).hexdigest()


def test_plan_table_is_pinned():
    """Which plan is chosen, among equal-cost ones too, at every key.

    The other plan tests pin bootstraps and levels; this one also pins the
    tie-break between plans of equal cost.  To regenerate the digest, run
    from the repository root::

        PYTHONPATH=src:tests python -c "import test_approx as t; print(t._plan_table_digest())"

    A new digest changes plans: CHANGES.md says which and why.
    """
    assert _plan_table_digest() == (
        "3f020511089cec5a1e1c9d0a9f89f42dd9da5997361997bffc696570a7e9d527"
    )


# -- bounds ---------------------------------------------------------------------------


def test_theorem_beta_pinned_and_limiting():
    assert theorem_beta(DEFAULTS, 10) == pytest.approx(0.3361975, abs=1e-6)
    # with no normalization error the delta term vanishes, leaving the two
    # logistic terms, which coincide at 2/(1 + 1/(c-1))
    assert theorem_beta(DEFAULTS, 10, r=0.0) == 2 / (1 + 1 / 9)
    # decreasing in r: a wider clipping radius suppresses dropped tails harder
    assert theorem_beta(DEFAULTS, 10, r=1.0) > theorem_beta(DEFAULTS, 10, r=3.0)
    with pytest.raises(ShapeMismatch):
        theorem_beta(DEFAULTS, 1)


def test_small_domain_eps_is_cached_and_sane():
    a = small_domain_eps(DEFAULTS, 3)
    b = small_domain_eps(DEFAULTS, 3)
    assert a == b
    assert 1e-4 <= a <= 2e-3
    assert a == pytest.approx(1.3052e-3, abs=1e-6)


def test_small_domain_eps_matches_one_unblocked_pass():
    x = np.random.default_rng(411).uniform(-8.0, 8.0, size=(100_000, 3))
    unblocked = np.max(np.abs(_softmax(x, DEFAULTS) - exact_softmax(x)))
    assert small_domain_eps(DEFAULTS, 3) == float(unblocked)


def test_config_coverage_radius():
    assert DEFAULTS.max_range == 128
    assert SoftmaxConfig(extension_steps=0).max_range == 4
    assert DEP_DELTA == pytest.approx(4.0 / (27.0 * 64.0))
