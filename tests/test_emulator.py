"""Ledger accounting, level tracking, and depth errors of the slot emulator."""

import ast
import collections
import math
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import hefit
from hefit.datasets import make_gaussian_mixture
from hefit.emulator import (
    DEFAULT_OP_WEIGHTS_MS,
    OP_KINDS,
    CipherBlock,
    EmulatorContext,
    OpLedger,
    log2,
)
from hefit.encoding import EncodedMatrix, decode, encode, make_mask
from hefit.errors import DepthExhausted, HefitError, LevelError, SlotCountMismatch
from hefit.training import run_steps


def fresh(**kw):
    return EmulatorContext(16, 4, **kw)


def test_block_slots_are_read_only():
    blk = fresh().encrypt(np.arange(16.0))
    with pytest.raises(ValueError):
        blk.slots[0] = 5.0


def test_block_accepts_any_numeric_input():
    blk = CipherBlock(list(range(4)), 3)
    assert blk.slots.dtype == np.float64
    assert len(blk) == 4
    assert blk.encrypted
    assert CipherBlock([1j, 0, 2, 3], 3).slots.dtype == np.complex128


def test_add_counts_and_keeps_level():
    ctx = fresh()
    a = ctx.encrypt(np.ones(16))
    b = ctx.encrypt(np.full(16, 2.0))
    out = ctx.add(a, b)
    np.testing.assert_allclose(out.slots.real, 3.0)
    assert out.level == ctx.max_level
    assert ctx.ledger.counts()["Add"] == 1


def test_sub_costs_one_add():
    ctx = fresh()
    a = ctx.encrypt(np.full(16, 5.0))
    out = ctx.sub(a, 2.0)
    np.testing.assert_allclose(out.slots.real, 3.0)
    assert ctx.ledger.counts() == {
        "Add": 1, "CMult": 0, "Mult": 0, "Rot": 0, "Conj": 0, "Bootstrap": 0,
    }


def test_mult_dispatch_by_encryption():
    ctx = fresh()
    enc = ctx.encrypt(np.full(16, 3.0))
    plain = ctx.pack(np.full(16, 2.0))
    ctx.mult(enc, enc)      # ct x ct
    ctx.mult(enc, plain)    # ct x pt
    ctx.mult(plain, plain)  # pt x pt: free
    counts = ctx.ledger.counts()
    assert counts["Mult"] == 1
    assert counts["CMult"] == 1
    assert ctx.ledger.estimated_ms == pytest.approx(1.6 + 0.9)


def test_mult_consumes_one_level_per_encrypted_operand():
    ctx = fresh()
    a = ctx.encrypt(np.ones(16), level=5)
    b = ctx.encrypt(np.ones(16), level=9)
    assert ctx.mult(a, b).level == 4
    assert ctx.cmult(a, 2.0).level == 4
    assert ctx.add(a, b).level == 5
    plain = ctx.pack(np.ones(16))
    assert ctx.mult(plain, plain).level == math.inf


def test_rotation_semantics_and_free_identity():
    ctx = fresh()
    blk = ctx.encrypt(np.arange(16.0))
    out = ctx.lrot(blk, 3)
    np.testing.assert_allclose(out.slots.real, np.roll(np.arange(16.0), -3))
    assert ctx.lrot(blk, 0) is blk
    assert ctx.lrot(blk, 16) is blk  # full turn, uncounted
    back = ctx.rrot(blk, 5)
    np.testing.assert_allclose(back.slots.real, np.roll(np.arange(16.0), 5))
    assert ctx.ledger.counts()["Rot"] == 2
    assert out.level == blk.level  # rotations are depth-free


def test_conj_counts_and_mul_i_is_free():
    ctx = fresh()
    blk = ctx.encrypt(np.arange(16.0))
    got = ctx.conj(ctx.mul_i(blk))
    np.testing.assert_allclose(got.slots.imag, -np.arange(16.0))
    counts = ctx.ledger.counts()
    assert counts["Conj"] == 1
    assert sum(counts.values()) == 1
    assert got.level == ctx.max_level


def test_mult_at_level_zero_raises():
    ctx = fresh()
    dead = ctx.encrypt(np.ones(16), level=0)
    with pytest.raises(DepthExhausted):
        ctx.mult(dead, 2.0)


def test_auto_bootstrap_restores_then_consumes():
    ctx = fresh(auto_bootstrap=True, max_level=3)
    dead = ctx.encrypt(np.ones(16), level=0)
    out = ctx.mult(dead, 2.0)
    assert out.level == 2
    assert ctx.ledger.counts()["Bootstrap"] == 1
    both = ctx.mult(dead, dead)  # one operand, refreshed once
    assert both.level == 2
    assert ctx.ledger.counts()["Bootstrap"] == 2


def test_grid_ops_ledger_one_op_per_block_of_the_result():
    ctx = fresh(auto_bootstrap=True, max_level=3)
    grid = ctx.encrypt(np.arange(2 * 3 * 16.0).reshape(2, 3, 16))
    row = ctx.encrypt(np.ones((1, 3, 16)), level=0)
    out = ctx.mult(grid, row)  # the one block row broadcasts over both
    np.testing.assert_array_equal(out.slots.real, grid.slots.real)
    assert out.slots.shape == (2, 3, 16) and out.level == 2
    ctx.add(ctx.lrot(grid, 1), 2.0)
    ctx.conj(grid[:, :1])
    # the level-0 row is refreshed once per block it holds, not per product
    assert ctx.ledger.counts() == {
        "Add": 6, "CMult": 0, "Mult": 6, "Rot": 6, "Conj": 2, "Bootstrap": 3,
    }


def test_explicit_bootstrap_keeps_slots():
    ctx = fresh()
    low = ctx.encrypt(np.arange(16.0), level=1)
    up = ctx.bootstrap(low)
    assert up.level == ctx.max_level
    np.testing.assert_array_equal(up.slots, low.slots)
    plain = ctx.pack(np.arange(16.0))
    assert ctx.bootstrap(plain) is plain
    assert ctx.ledger.counts()["Bootstrap"] == 1


def test_plaintext_pipeline_is_unledgered():
    ctx = fresh()
    p = ctx.pack(np.arange(16.0))
    q = ctx.pack(np.ones(16))
    ctx.conj(ctx.lrot(ctx.mult(ctx.add(p, q), q), 2))
    assert all(v == 0 for v in ctx.ledger.counts().values())


def test_estimated_ms_default_weights():
    ledger = OpLedger()
    ledger.record("Mult", 2)
    ledger.record("Rot", 3)
    ledger.record("Bootstrap")
    assert ledger.estimated_ms == pytest.approx(2 * 1.6 + 3 * 1.2 + 159.0)


def test_snapshot_delta_isolates_a_region():
    ctx = fresh()
    a = ctx.encrypt(np.ones(16))
    ctx.add(a, a)
    before = ctx.ledger.snapshot()
    ctx.mult(a, a)
    ctx.lrot(a, 1)
    delta = ctx.ledger.delta(before)
    assert delta == {"Add": 0, "CMult": 0, "Mult": 1, "Rot": 1, "Conj": 0, "Bootstrap": 0}
    assert ctx.ledger.estimate_ms(delta) == pytest.approx(1.6 + 1.2)


def test_geometry_validation():
    with pytest.raises(SlotCountMismatch):
        EmulatorContext(100, 4)
    with pytest.raises(SlotCountMismatch):
        EmulatorContext(16, 32)
    with pytest.raises(ValueError):
        EmulatorContext(16, 4, max_level=0)
    ctx = fresh()
    with pytest.raises(SlotCountMismatch):
        ctx.encrypt(np.ones(8))
    with pytest.raises(ValueError):
        ctx.encrypt(np.ones(16), level=99)


@pytest.mark.parametrize(
    "slot_count,grid_rows",
    [(True, True), (4096, True), (4096, False), (4096.0, 64), (4096, 64.0), ("4096", 64), (4096, None)],
)
def test_geometry_must_be_integers(slot_count, grid_rows):
    # a bool is not a slot count, and a float or a string is refused before
    # the power-of-two checks can trip over it
    with pytest.raises(SlotCountMismatch, match="must be an integer"):
        EmulatorContext(slot_count, grid_rows)


def test_geometry_takes_numpy_integers():
    ctx = EmulatorContext(np.int64(4096), np.int32(64))
    assert (ctx.slot_count, ctx.grid_rows, ctx.grid_cols) == (4096, 64, 64)
    assert all(type(v) is int for v in (ctx.slot_count, ctx.grid_rows, ctx.grid_cols))


@pytest.mark.parametrize("level", [-1, 5, 2.5, 4.0, True, False, "3", math.nan])
def test_encode_rejects_levels_outside_the_budget_or_not_integers(level):
    ctx = EmulatorContext(16, 4, max_level=4)
    for make in (lambda: ctx.encrypt(np.ones(16), level), lambda: encode(ctx, np.ones((2, 2)), level=level)):
        with pytest.raises(LevelError) as err:
            make()
        assert isinstance(err.value, HefitError) and isinstance(err.value, ValueError)
        assert err.value.code == "emulator.level"


@pytest.mark.parametrize("max_level", [0, 2.5, True, np.float64(4.0)])
def test_context_rejects_a_budget_that_is_not_a_positive_integer(max_level):
    with pytest.raises(LevelError):
        EmulatorContext(16, 4, max_level=max_level)


@pytest.mark.parametrize("level", [0, 4, np.int64(2)])
def test_encode_keeps_integer_levels(level):
    e = encode(EmulatorContext(16, 4, max_level=4), np.ones((2, 2)), level=level)
    assert e.level == level and type(e.level) is int


def test_foreign_width_blocks_rejected():
    narrow = EmulatorContext(16, 4).encrypt(np.ones(16))
    wide = EmulatorContext(32, 4)
    with pytest.raises(SlotCountMismatch):
        wide.add(narrow, narrow)


def test_row_width_narrows_blocks_for_its_scope_only():
    ctx = EmulatorContext(64, 4)
    with ctx.row_width(4):
        assert (ctx.grid_cols, ctx.slot_count) == (4, 16)
        assert len(ctx.add(ctx.encrypt(np.ones(16)), 1.0)) == 16
        with pytest.raises(SlotCountMismatch):
            ctx.add(ctx.encrypt(np.ones(16)), np.ones(64))
    assert (ctx.grid_cols, ctx.slot_count) == (16, 64)
    for width in (3, 32):
        with pytest.raises(SlotCountMismatch, match="does not split"), ctx.row_width(width):
            pass
    assert (ctx.grid_cols, ctx.slot_count) == (16, 64)


def test_cmult_rejects_ciphertext_multiplier():
    ctx = fresh()
    a = ctx.encrypt(np.ones(16))
    with pytest.raises(TypeError):
        ctx.cmult(a, a)


def test_ledger_is_thread_safe():
    ledger = OpLedger()

    def hammer():
        for _ in range(10_000):
            ledger.record("Add")

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert ledger.counts()["Add"] == 40_000


def test_decode_audit_trail_by_role():
    ctx = fresh()
    ctx.note_decode("client", "val-logits")
    ctx.note_decode("observer")
    assert ctx.decodes_by("client") == [("client", "val-logits")]
    assert ctx.decodes_by("observer") == [("observer", None)]
    assert ctx.decodes_by("server") == []


@given(st.dictionaries(st.sampled_from(OP_KINDS), st.integers(0, 1000), min_size=1))
def test_estimate_is_weighted_count_sum(counts):
    ledger = OpLedger()
    for kind, n in counts.items():
        ledger.record(kind, n)
    expected = sum(n * DEFAULT_OP_WEIGHTS_MS[k] for k, n in counts.items())
    assert ledger.estimated_ms == pytest.approx(expected)


# shifts within +-2 slot_count, multiples of slot_count among them
LADDER_SHIFTS = st.lists(
    st.one_of(st.integers(-32, 32), st.sampled_from([0, 16, -16, 32, -32])), max_size=5
)


@given(
    shape=st.sampled_from([(16,), (1, 3, 16), (2, 2, 16)]),
    shifts=LADDER_SHIFTS,
    encrypted=st.booleans(),
    seed=st.integers(0, 2**16),
    seams=st.booleans(),
)
@example(shape=(2, 2, 16), shifts=[], encrypted=True, seed=0, seams=False)
@example(shape=(16,), shifts=[16], encrypted=True, seed=0, seams=False)
@example(shape=(1, 3, 16), shifts=[-3], encrypted=True, seed=0, seams=False)
@example(shape=(2, 2, 16), shifts=[1, 0, -32, 7], encrypted=True, seed=0, seams=False)
@example(shape=(2, 2, 16), shifts=[1, 0, -32, 7], encrypted=True, seed=0, seams=True)
@example(shape=(2, 2, 16), shifts=[4, 8], encrypted=False, seed=0, seams=False)
def test_rot_sum_matches_the_add_lrot_loop(shape, shifts, encrypted, seed, seams):
    ctx = (SeamContext if seams else EmulatorContext)(16, 4)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x = ctx.encrypt(values, level=5) if encrypted else ctx.pack(values)

    before = ctx.ledger.snapshot()
    acc = x
    for s in shifts:
        acc = ctx.add(acc, ctx.lrot(acc, s))
    loop_ops = ctx.ledger.delta(before)

    before = ctx.ledger.snapshot()
    got = ctx.rot_sum(x, shifts)
    assert ctx.ledger.delta(before) == loop_ops
    assert got.slots.tobytes() == acc.slots.tobytes()
    assert got.slots.shape == shape
    assert (got.level, got.encrypted) == (acc.level, acc.encrypted)
    assert not got.slots.flags.writeable
    assert x.slots.tobytes() == values.astype(np.complex128).tobytes()


def _totals_ladder(ctx, x, axis, width=None):
    """What totals computes in closed form, as a backend runs it: the wrap
    ladder (axis 0), or the fold over each segment of ``width`` slots (the
    row by default), the mask on each segment's first slot and the
    broadcast."""
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    if axis == 0:
        return ctx.rot_sum(x, [s1 << t for t in range(log2(s0))])
    w = s1 if width is None else width
    first = np.where(np.arange(ctx.slot_count) % w == 0, 1.0, 0.0)
    folded = ctx.rot_sum(x, [1 << t for t in range(log2(w))])
    return ctx.rot_sum(ctx.mult(folded, first), [-(1 << t) for t in range(log2(w))])


def _float_parts(slots):
    """The slots' real (and imaginary) parts as one float64 array."""
    return np.ascontiguousarray(slots).view(np.float64)


@given(
    axis=st.sampled_from([0, 1]),
    shape=st.sampled_from([(256,), (1, 3, 256), (2, 2, 256)]),
    one_block=st.booleans(),
    encrypted=st.booleans(),
    level=st.integers(0, 12),
    complex_slots=st.booleans(),
    seed=st.integers(0, 2**16),
    seams=st.booleans(),
    width=st.sampled_from([None, 1, 2, 4, 8, 16]),
)
@example(axis=0, shape=(2, 2, 256), one_block=False, encrypted=True, level=3, complex_slots=True, seed=0, seams=False, width=None)
@example(axis=1, shape=(1, 3, 256), one_block=True, encrypted=True, level=0, complex_slots=True, seed=1, seams=False, width=None)
@example(axis=1, shape=(1, 3, 256), one_block=True, encrypted=True, level=0, complex_slots=True, seed=1, seams=True, width=None)
@example(axis=1, shape=(2, 2, 256), one_block=False, encrypted=True, level=1, complex_slots=False, seed=2, seams=False, width=None)
@example(axis=1, shape=(2, 2, 256), one_block=False, encrypted=True, level=1, complex_slots=False, seed=2, seams=True, width=None)
@example(axis=1, shape=(2, 2, 256), one_block=False, encrypted=True, level=1, complex_slots=True, seed=3, seams=True, width=2)
@example(axis=1, shape=(1, 3, 256), one_block=False, encrypted=True, level=0, complex_slots=False, seed=4, seams=False, width=4)
@example(axis=1, shape=(256,), one_block=False, encrypted=True, level=2, complex_slots=False, seed=5, seams=False, width=1)
def test_totals_is_its_ladder(axis, shape, one_block, encrypted, level, complex_slots, seed, seams, width):
    ctx = (SeamContext if seams else EmulatorContext)(256, 16)
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    if axis == 0:  # the wrap ladder has no segments
        width = None
    rng = np.random.default_rng(seed)
    # magnitudes over 16 decades, so two summation orders round apart, and
    # zeros of both signs
    values = _real_values(rng, shape)
    if complex_slots:
        values = values + 1j * _real_values(rng, shape)
    values = values * 10.0 ** rng.integers(-8, 8, size=shape)
    if one_block:  # one block broadcast over the grid: a view, ledgered per block
        values = np.broadcast_to(values[(0,) * (len(shape) - 1)], shape)
    x = ctx.encrypt(values, level) if encrypted else ctx.pack(values)

    results = []
    for run in (_totals_ladder, lambda ctx, x, axis, width: ctx.totals(x, axis, width)):
        before = ctx.ledger.snapshot()
        try:
            results.append(run(ctx, x, axis, width))
        except DepthExhausted:  # axis 1 at level 0, after the same ops
            results.append(None)
        results.append(ctx.ledger.delta(before))
    want, want_ops, got, got_ops = results
    assert got_ops == want_ops
    raised = encrypted and axis == 1 and level == 0
    assert (got is None) == (want is None) == raised
    blocks = math.prod(shape[:-1]) if encrypted else 0
    steps = log2(s0) if axis == 0 else log2(width or s1) * (1 if raised else 2)
    cmult = blocks if axis == 1 and not raised else 0
    assert got_ops == {**dict.fromkeys(OP_KINDS, 0), "Add": blocks * steps, "Rot": blocks * steps, "CMult": cmult}
    if got is None:
        return
    assert (got.slots.shape, got.level, got.encrypted) == (shape, want.level, encrypted)
    assert got.slots.dtype == want.slots.dtype
    assert not got.slots.flags.writeable
    if axis == 1 and width is None:
        assert got.slots.tobytes() == want.slots.tobytes()
        return
    if axis == 1:
        # bit for bit, but where a segment's total is a negative zero the
        # ladder may add a positive zero to it (a short segment of the drawn
        # zeros can sum to one)
        g, w = _float_parts(got.slots), _float_parts(want.slots)
        negative_zero = (g == 0) & np.signbit(g)
        assert g[~negative_zero].tobytes() == w[~negative_zero].tobytes()
        assert (w[negative_zero] == 0).all()
        return
    g = got.slots.reshape(*shape[:-1], s0, s1)
    w = want.slots.reshape(*shape[:-1], s0, s1)
    # the first row is the ladder's bit for bit, and every row holds it
    assert g[..., 0, :].tobytes() == w[..., 0, :].tobytes()
    assert (g == g[..., :1, :]).all()
    # both sum each column pairwise, log2(rows) roundings deep, so each lies
    # within log2(rows) * eps * sum|x| of the exact total; the two lie within
    # twice that of each other
    magnitude = np.abs(values).reshape(*shape[:-1], s0, s1).sum(axis=-2, keepdims=True)
    assert (np.abs(g - w) <= 2 * log2(s0) * np.finfo(float).eps * magnitude).all()


def test_totals_checks_the_slot_count_and_the_axis():
    ctx = fresh()
    with pytest.raises(SlotCountMismatch):
        ctx.totals(CipherBlock(np.ones(32), 3), 0)
    with pytest.raises(SlotCountMismatch):
        ctx.totals(np.ones((2, 8)), 1)
    x = ctx.encrypt(np.arange(16.0))
    for bad in (-1, 2, None):
        with pytest.raises(ValueError):
            ctx.totals(x, bad)
    # segments that do not split a row, and segments of the wrap ladder
    for axis, width in ((1, 0), (1, 3), (1, 8), (1, -2), (0, 2), (0, 4)):
        with pytest.raises(ValueError):
            ctx.totals(x, axis, width)
    assert sum(ctx.ledger.counts().values()) == 0


def _place_passes_composition(ctx, products, tiles, axis):
    """What place_passes computes in closed form: each pass's totals, times
    its mask over the whole block, accumulated left to right."""
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    acc = None
    for x, tile in zip(products, tiles):
        totals = ctx.totals(x, axis)
        mask = np.tile(tile, (s0 // len(tile), s1 // len(tile))).reshape(ctx.slot_count)
        term = ctx.mult(totals, mask)
        acc = term if acc is None else ctx.add(acc, term)
    return acc


@given(
    axis=st.sampled_from([0, 1]),
    geometry=st.sampled_from([(16, 4), (256, 16), (256, 4), (512, 32)]),
    c=st.sampled_from([1, 2, 4]),
    shape=st.sampled_from([(), (1, 1), (2, 1), (1, 3)]),
    complex_slots=st.booleans(),
    encrypted=st.booleans(),
    level=st.integers(0, 3),
    scale=st.sampled_from([1.0, -0.5, 0.0, 0.01]),
    seed=st.integers(0, 2**16),
    seams=st.booleans(),
    mixed=st.booleans(),
)
@example(axis=1, geometry=(256, 16), c=4, shape=(2, 1), complex_slots=True, encrypted=True, level=1, scale=1.0, seed=0, seams=False, mixed=False)
@example(axis=1, geometry=(256, 16), c=4, shape=(2, 1), complex_slots=True, encrypted=True, level=2, scale=1.0, seed=0, seams=True, mixed=False)
@example(axis=0, geometry=(256, 16), c=4, shape=(1, 1), complex_slots=True, encrypted=True, level=0, scale=1.0, seed=0, seams=False, mixed=False)
@example(axis=0, geometry=(256, 16), c=4, shape=(2, 1), complex_slots=False, encrypted=True, level=3, scale=1.0, seed=0, seams=False, mixed=True)
def test_place_passes_is_the_composition_bit_for_bit(
    axis, geometry, c, shape, complex_slots, encrypted, level, scale, seed, seams, mixed
):
    ctx = (SeamContext if seams else EmulatorContext)(*geometry)
    c = min(c, ctx.grid_rows, ctx.grid_cols)
    rng = np.random.default_rng(seed)
    full = (*shape, ctx.slot_count)
    passes = max(c // 2, 1)
    # mixed: the later products on a one-block grid, broadcast over the first
    fulls = [full] + [(*(1 for _ in shape), ctx.slot_count) if mixed else full] * (passes - 1)
    values = [_real_values(rng, f) for f in fulls]
    if complex_slots:
        values = [v + 1j * _real_values(rng, f) for v, f in zip(values, fulls)]
    products = [ctx.encrypt(v, level) if encrypted else ctx.pack(v) for v in values]
    tiles = [
        make_mask(ctx, (-k if axis == 0 else k), c, complexified=c > 1, scale=scale)
        for k in range(passes)
    ]

    results = []
    closed_form = lambda ctx, products, tiles, axis: ctx.place_passes(iter(products), tiles, axis)
    for run in (_place_passes_composition, closed_form):
        before = ctx.ledger.snapshot()
        try:
            results.append(run(ctx, products, tiles, axis))
        except DepthExhausted:  # at level 0 (and 1 for axis 1), after the same ops
            results.append(None)
        results.append(ctx.ledger.delta(before))
    want, want_ops, got, got_ops = results
    assert got_ops == want_ops
    assert (got is None) == (want is None) == (encrypted and level < 2 - (axis == 0))
    if got is None:
        return
    assert got.slots.astype(np.complex128).tobytes() == want.slots.astype(np.complex128).tobytes()
    assert (got.slots.shape, got.slots.dtype) == (want.slots.shape, want.slots.dtype)
    assert (got.level, got.encrypted) == (want.level, want.encrypted)
    assert not got.slots.flags.writeable


def test_place_passes_checks_its_arguments():
    ctx = EmulatorContext(256, 16)
    x = ctx.encrypt(np.ones(256))
    eye = np.eye(4)
    with pytest.raises(SlotCountMismatch):
        ctx.place_passes([np.ones(32)], [eye], 0)
    for products, tiles, axis in (
        ([x], [eye], 2),  # no such axis
        ([x], [np.eye(3)], 0),  # 3 does not divide 16
        ([x], [np.ones((4, 2))], 1),  # not square
        ([x, x], [eye, np.eye(2)], 0),  # two periods
        ([], [], 0),  # no passes
        ([x, x], [eye], 0),  # more products than tiles
        ([x], [eye, eye], 1),  # fewer
    ):
        with pytest.raises(ValueError):
            ctx.place_passes(products, tiles, axis)


# -- real and complex slots ------------------------------------------------------


def _real_values(rng, shape):
    """Normal values with zeros of both signs mixed in."""
    v = rng.normal(size=shape)
    v[rng.random(shape) < 0.2] = 0.0
    v[rng.random(shape) < 0.2] = -0.0
    return v


# op(ctx, x, y, s): x and y blocks, s a scalar
REAL_OPS = {
    "add": lambda ctx, x, y, s: ctx.add(x, y),
    "sub": lambda ctx, x, y, s: ctx.sub(x, y),
    "mult": lambda ctx, x, y, s: ctx.mult(x, y),
    "mult_square": lambda ctx, x, y, s: ctx.mult(x, x),
    "add_scalar": lambda ctx, x, y, s: ctx.add(s, x),
    "sub_scalar": lambda ctx, x, y, s: ctx.sub(x, s),
    "mult_scalar": lambda ctx, x, y, s: ctx.mult(x, s),
    "scalar_mult": lambda ctx, x, y, s: ctx.mult(s, x),
    "lrot": lambda ctx, x, y, s: ctx.lrot(x, 3),
    "rrot": lambda ctx, x, y, s: ctx.rrot(x, 5),
    "rot_sum": lambda ctx, x, y, s: ctx.rot_sum(x, [1, -2, 4, 0]),
    "spread": lambda ctx, x, y, s: ctx.spread(x, 1, 4),
    "spread_window": lambda ctx, x, y, s: ctx.spread(x, 4, 4, 2),
    "totals_0": lambda ctx, x, y, s: ctx.totals(x, 0),
    "totals_1": lambda ctx, x, y, s: ctx.totals(x, 1),
    "totals_1_segments": lambda ctx, x, y, s: ctx.totals(x, 1, 2),
    "place_passes_0": lambda ctx, x, y, s: ctx.place_passes([x, y], [np.eye(2), -np.eye(2)[::-1]], 0),
    "place_passes_1": lambda ctx, x, y, s: ctx.place_passes([x, y], [np.eye(2), np.ones((2, 2))], 1),
    "conj": lambda ctx, x, y, s: ctx.conj(x),
    "bootstrap": lambda ctx, x, y, s: ctx.bootstrap(x),
}


@given(
    op=st.sampled_from(sorted(REAL_OPS)),
    shape=st.sampled_from([(16,), (1, 3, 16), (2, 2, 16)]),
    one_block_y=st.booleans(),
    x_encrypted=st.booleans(),
    y_encrypted=st.booleans(),
    scalar=st.sampled_from([2.5, -0.75, 0.0, -0.0, 3, np.float64(-1.5), True]),
    seed=st.integers(0, 2**16),
    seams=st.booleans(),
)
def test_real_operands_give_the_real_part_of_the_complex_composition(
    op, shape, one_block_y, x_encrypted, y_encrypted, scalar, seed, seams
):
    ctx = (SeamContext if seams else EmulatorContext)(16, 4)
    rng = np.random.default_rng(seed)
    xv = _real_values(rng, shape)
    yv = _real_values(rng, (16,) if one_block_y else shape)

    def block(values, encrypted):
        return ctx.encrypt(values, level=5) if encrypted else ctx.pack(values)

    def run(x, y, s):
        before = ctx.ledger.snapshot()
        return REAL_OPS[op](ctx, x, y, s), ctx.ledger.delta(before)

    got, got_ops = run(block(xv, x_encrypted), block(yv, y_encrypted), scalar)
    # the same values held as complex128 with +0 imaginary parts, as every
    # slot was held before slots could be real
    want, want_ops = run(
        block(xv.astype(np.complex128), x_encrypted),
        block(yv.astype(np.complex128), y_encrypted),
        complex(scalar),
    )
    assert want.slots.dtype == np.complex128
    assert not want.slots.imag.any()
    assert got.slots.dtype == np.float64
    assert got.slots.tobytes() == np.ascontiguousarray(want.slots.real).tobytes()
    assert (got.slots.shape, got.level, got.encrypted) == (want.slots.shape, want.level, want.encrypted)
    assert got_ops == want_ops
    assert not got.slots.flags.writeable


def test_mul_i_and_complex_plaintexts_give_complex_slots():
    ctx = fresh()
    x = ctx.encrypt(np.arange(16.0))
    assert x.slots.dtype == np.float64
    assert ctx.mul_i(x).slots.dtype == np.complex128
    assert ctx.mult(x, 0.5j).slots.dtype == np.complex128
    assert ctx.add(x, ctx.pack(np.full(16, 1j))).slots.dtype == np.complex128
    assert ctx.mult(x, np.full(16, 1 + 0j)).slots.dtype == np.complex128


@given(
    shape=st.sampled_from([(16,), (1, 3, 16), (2, 2, 16)]),
    encrypted=st.booleans(),
    seed=st.integers(0, 2**16),
    seams=st.booleans(),
)
def test_conj_add_is_the_real_part_of_the_recombination(shape, encrypted, seed, seams):
    ctx = (SeamContext if seams else EmulatorContext)(16, 4)
    rng = np.random.default_rng(seed)
    values = _real_values(rng, shape) + 1j * _real_values(rng, shape)
    x = ctx.encrypt(values, level=3) if encrypted else ctx.pack(values)

    before = ctx.ledger.snapshot()
    want = ctx.add(x, ctx.conj(x))
    want_ops = ctx.ledger.delta(before)
    before = ctx.ledger.snapshot()
    got = ctx.conj_add(x)
    assert ctx.ledger.delta(before) == want_ops
    assert not want.slots.imag.any()
    assert got.slots.dtype == np.float64
    assert got.slots.tobytes() == np.ascontiguousarray(want.slots.real).tobytes()
    assert (got.slots.shape, got.level, got.encrypted) == (want.slots.shape, want.level, want.encrypted)

    # a real operand doubles
    real = ctx.encrypt(values.real, level=3)
    assert ctx.conj_add(real).slots.tobytes() == (values.real + values.real).tobytes()


@pytest.mark.parametrize("bad", [complex(1.0, np.nan), complex(2.0, np.inf), complex(0.0, -np.inf)])
def test_conj_add_keeps_a_non_finite_imaginary_part_for_decode_to_reject(bad):
    ctx = EmulatorContext(256, 16)
    e = encode(ctx, np.ones((2, 2)))
    slots = e.block.slots.astype(np.complex128)
    slots[0, 0, 1] = bad
    x = CipherBlock(slots, e.level, True)
    with np.errstate(invalid="ignore"):  # inf - inf
        want = ctx.add(x, ctx.conj(x))
        got = ctx.conj_add(x)
    assert got.slots.dtype == np.complex128
    assert got.slots.tobytes() == want.slots.tobytes()
    with pytest.raises(HefitError, match="imaginary residue nan"):
        decode(EncodedMatrix(ctx, got, e.shape))
    # a non-finite real part with a finite imaginary one stays real, as
    # the composition's real part
    slots = slots.copy()  # the block took the first copy over, read-only
    slots[0, 0, 1] = complex(np.inf, 1.0)
    x = CipherBlock(slots, e.level, True)
    got = ctx.conj_add(x)
    assert got.slots.dtype == np.float64
    assert got.slots.tobytes() == np.ascontiguousarray(ctx.add(x, ctx.conj(x)).slots.real).tobytes()


# -- the seams: one per op kind, closed forms included ---------------------------

# the op kinds each seam owns
SEAM_KINDS = {
    "_product": {"Mult", "CMult", "Bootstrap"},  # Bootstrap: the level-0 fallback
    "_sum": {"Add"},
    "_ladder": {"Add", "Rot"},
    "_conjugated": {"Conj"},
    "lrot": {"Rot"},
    "bootstrap": {"Bootstrap"},
}
# a shift per seam, distinct so that no two cancel (a ladder's shift times a
# -1 mask, plus the product's own)
SEAM_SHIFTS = dict(zip(SEAM_KINDS, (1 / 3, 1 / 5, 1 / 7, 1 / 11, 1 / 13, 1 / 17)))


class _SeamLedger(OpLedger):
    """A ledger that takes a record only from inside exactly one seam, of a
    kind that seam owns."""

    def __init__(self, open_seams: list[str]):
        super().__init__()
        self.open_seams = open_seams
        self.records = 0

    def record(self, kind, n=1):
        assert len(self.open_seams) == 1, f"{kind} charged inside seams {self.open_seams}"
        assert kind in SEAM_KINDS[self.open_seams[0]], f"{self.open_seams[0]} charged {kind}"
        self.records += 1
        super().record(kind, n)


def _seam(name):
    def seam(self, *args, **kwargs):
        records = self.ledger.records
        self.open_seams.append(name)
        try:
            out = getattr(EmulatorContext, name)(self, *args, **kwargs)
        finally:
            self.open_seams.pop()
        if not self.shift or self.ledger.records == records:
            return out
        # the seam charged an op: move what it returns
        d = SEAM_SHIFTS[name]
        if isinstance(out, CipherBlock):
            return CipherBlock(out.slots + d, out.level, out.encrypted)
        return (out[0] + d, out[1]) if name == "_product" else out + d

    return seam


class SeamContext(EmulatorContext):
    """A context that overrides only the seams.  Its ledger checks that each
    charge comes from inside one seam, of a kind the seam owns; with
    ``shift`` on, every seam that charged an op adds its own constant to the
    slots it returns, as a noise model would add its error."""

    shift = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.open_seams: list[str] = []
        self.ledger = _SeamLedger(self.open_seams)

    _product = _seam("_product")
    _sum = _seam("_sum")
    _ladder = _seam("_ladder")
    _conjugated = _seam("_conjugated")
    lrot = _seam("lrot")
    bootstrap = _seam("bootstrap")


def test_shifted_seams_move_every_slot_of_every_ledgered_op():
    # every public primitive and closed form that ledgers an op on encrypted
    # input computes its slots through the seams: shifting them moves every
    # slot, and charges the same ops; x at level 0 reaches the fallback
    # refresh inside the product seam
    rng = np.random.default_rng(7)
    xv = _real_values(rng, (2, 2, 16)) + 1j * _real_values(rng, (2, 2, 16))
    yv = _real_values(rng, (2, 2, 16))
    ops = {**REAL_OPS, "conj_add": lambda ctx, x, y, s: ctx.conj_add(x)}
    for name, op in ops.items():
        for level, auto in ((5, False), (0, True)):
            runs = []
            for shift in (False, True):
                ctx = SeamContext(16, 4, max_level=12, auto_bootstrap=auto)
                ctx.shift = shift
                out = op(ctx, ctx.encrypt(xv, level), ctx.encrypt(yv, 5), 2.5)
                runs.append((out, ctx.ledger.counts()))
            (want, want_ops), (got, got_ops) = runs
            assert got_ops == want_ops and any(want_ops.values()), name
            assert (got.slots != want.slots).all(), (name, level)


def test_seam_ledger_refuses_a_charge_outside_a_seam():
    ctx = SeamContext(16, 4)
    with pytest.raises(AssertionError, match="inside seams"):
        ctx._charge("Add", 1)
    with pytest.raises(AssertionError, match="_sum charged Rot"):
        ctx.open_seams.append("_sum")
        ctx._charge("Rot", 1)


# every public primitive that can ledger an op
LEDGERED_PRIMITIVES = (
    "add", "sub", "mult", "cmult", "lrot", "rrot", "rot_sum", "spread", "totals",
    "place_passes", "conj", "conj_add", "bootstrap",
)


def _shift_every_ledgered_call(ctx: SeamContext) -> collections.Counter:
    """Rebind ``ctx``'s primitives so that each call that ledgers an op runs
    a second time with the seams shifted, on a fresh ledger: it must charge
    the same ops and move every slot.  Returns the calls checked, by name."""
    checked = collections.Counter()

    def checking(name, run):
        def call(*args, **kwargs):
            if ctx.shift:  # inside a second run
                return run(*args, **kwargs)
            if name == "place_passes":  # run twice: keep the products
                args = (list(args[0]), *args[1:])
            before = ctx.ledger.snapshot()
            out = run(*args, **kwargs)
            ops = ctx.ledger.delta(before)
            if any(ops.values()):
                ledger, ctx.ledger, ctx.shift = ctx.ledger, _SeamLedger(ctx.open_seams), True
                try:
                    shifted = run(*args, **kwargs)
                    assert ctx.ledger.counts() == ops, name
                finally:
                    ctx.ledger, ctx.shift = ledger, False
                assert (shifted.slots != out.slots).all(), name
                checked[name] += 1
            return out

        return call

    for name in LEDGERED_PRIMITIVES:
        setattr(ctx, name, checking(name, getattr(ctx, name)))
    return checked


@pytest.mark.parametrize(
    "slots,grid_rows,features,classes,batch",
    [(4096, 64, 16, 3, 64), (32768, 128, 768, 10, 128)],
    ids=["test", "paper"],
)
def test_seams_see_every_op_of_training_steps(slots, grid_rows, features, classes, batch):
    # 8 steps at budget 12 at both north-star scales: every charge comes from
    # one seam of its kind, the seams move every slot of every ledgered
    # call, and with the shifts off the run is the plain context's bit for bit
    x, y = make_gaussian_mixture(batch * 2, classes, features, 3, mean_scale=0.1)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    runs = []
    for context in (EmulatorContext, SeamContext):
        ctx = context(slots, grid_rows, max_level=12)
        if context is SeamContext:
            checked = _shift_every_ledgered_call(ctx)
        weights = run_steps(x, y, classes, 8, ctx=ctx, lr=0.1, batch_size=batch)
        runs.append((np.array(weights).tobytes(), ctx.ledger.counts()))
    assert runs[1] == runs[0]
    # every primitive ran, closed forms and refreshes included, but cmult,
    # which nothing in the package calls, and rot_sum, the dense fold's
    # ladder, which training does not run
    assert set(checked) == set(LEDGERED_PRIMITIVES) - {"cmult", "rot_sum"}


def test_ledger_record_has_one_caller():
    # every charge goes through EmulatorContext._charge, so a closed form
    # cannot bypass the seams a noise model or a per-level ledger overrides
    src = Path(hefit.__file__).parent
    sites = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Attribute)
                    and node.attr == "record"
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "ledger"
                ):
                    sites.append((path.name, func.name))
    assert sites == [("emulator.py", "_charge")]
