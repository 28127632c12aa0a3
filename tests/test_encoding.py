"""Packing, tilings, masks, and the structural rotation/fold helpers."""

import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefit.emulator import CipherBlock, EmulatorContext, log2, tree_sum
from hefit.encoding import (
    EncodedMatrix,
    bootstrap_pair,
    bootstrap_tiled,
    col_range_mask,
    col_sums,
    decode,
    encode,
    first_period,
    make_mask,
    next_pow2,
    padded_array,
    pattern_matrix,
    prot_up,
    rot_left,
    rot_up,
    row_sums,
)
from hefit.errors import (
    DataError,
    DepthExhausted,
    ResidualImaginary,
    ShapeMismatch,
    TilingError,
)


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 4, 5, 769)] == [1, 2, 4, 4, 8, 1024]


def test_roundtrip_untiled_with_padding(ctx, rng):
    m = rng.normal(size=(5, 7))
    e = encode(ctx, m)
    assert e.grid == (1, 1)
    assert e.shape == (5, 7)
    assert padded_array(e).shape == (16, 16)
    np.testing.assert_array_equal(decode(e), m)
    # padding is zero
    full = padded_array(e)
    assert np.all(full[5:, :] == 0) and np.all(full[:5, 7:] == 0)


def test_roundtrip_multiblock(ctx, rng):
    m = rng.normal(size=(20, 33))
    e = encode(ctx, m)
    assert e.grid == (2, 3)
    np.testing.assert_array_equal(decode(e), m)


def test_vertical_tiling_replicates_rows(ctx, rng):
    m = rng.normal(size=(3, 5))
    e = encode(ctx, m, tiling="vertical")
    assert e.tiling == "vertical"
    assert e.period == 4
    full = padded_array(e).real
    for copy in range(4):
        np.testing.assert_array_equal(full[4 * copy : 4 * copy + 3, :5], m)
        assert np.all(full[4 * copy + 3, :] == 0)
    np.testing.assert_array_equal(decode(e), m)


def test_horizontal_tiling_replicates_cols(ctx, rng):
    m = rng.normal(size=(6, 3))
    e = encode(ctx, m, tiling="horizontal")
    assert e.period == 4
    full = padded_array(e).real
    for copy in range(4):
        np.testing.assert_array_equal(full[:6, 4 * copy : 4 * copy + 3], m)
    np.testing.assert_array_equal(decode(e), m)


def test_tiling_errors(ctx):
    with pytest.raises(TilingError):
        encode(ctx, np.ones((17, 2)), tiling="vertical")  # next_pow2(17) > 16
    with pytest.raises(TilingError):
        encode(ctx, np.ones((2, 17)), tiling="horizontal")
    with pytest.raises(TilingError):
        encode(ctx, np.ones((2, 2)), tiling="diagonal")
    with pytest.raises(ShapeMismatch):
        encode(ctx, np.ones(4))  # 1D


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_encode_rejects_non_finite_values(ctx, bad):
    values = np.ones((3, 2))
    values[1, 0] = bad
    with pytest.raises(DataError, match="finite"):
        encode(ctx, values)


@pytest.mark.parametrize(
    "bad",
    [np.array([[1 + 2j, 3]]), [[1.0, 0j]], [["a", "b"]], [["1.5", "2"]], [[1.0, None]]],
    ids=["complex", "complex-zero-imag", "strings", "numeric-strings", "none"],
)
def test_encode_rejects_complex_and_non_numeric_values(ctx, bad):
    # raised before any cast: no ComplexWarning, no imaginary part dropped
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="real numbers"):
            encode(ctx, bad)


@pytest.mark.parametrize("bad", [[[1, 2], [3]], [[1.0], [2.0, 3.0]], [[1, [2]], [3, 4]]])
def test_encode_rejects_ragged_rows(ctx, bad):
    with pytest.raises(ShapeMismatch, match="ragged"):
        encode(ctx, bad)


def test_encode_takes_integers_and_booleans_as_reals(ctx):
    e = encode(ctx, [[1, 2], [True, False]])
    assert e.block.slots.dtype == np.float64
    np.testing.assert_array_equal(decode(e), [[1.0, 2.0], [1.0, 0.0]])


def test_encode_level_and_plaintext(ctx):
    e = encode(ctx, np.ones((2, 2)), level=7)
    assert e.level == 7
    p = encode(ctx, np.ones((2, 2)), encrypted=False)
    assert not p.encrypted
    assert p.level == np.inf
    before = ctx.ledger.snapshot()
    decode(p)
    assert ctx.decode_events == []  # plaintext decode is not audited
    assert ctx.ledger.delta(before)["Add"] == 0


def test_elementwise_arithmetic_matches_numpy(ctx, rng):
    a = rng.normal(size=(9, 11))
    b = rng.normal(size=(9, 11))
    ea, eb = encode(ctx, a), encode(ctx, b)
    np.testing.assert_allclose(decode(ea + eb), a + b)
    np.testing.assert_allclose(decode(ea - eb), a - b)
    np.testing.assert_allclose(decode(ea * eb), a * b)
    np.testing.assert_allclose(decode(1.0 - ea), 1.0 - a)
    np.testing.assert_allclose(decode(ea * -2.5), -2.5 * a)
    assert (ea * eb).level == ctx.max_level - 1
    assert (ea * 2.0).level == ctx.max_level - 1
    assert (ea + eb).level == ctx.max_level


def test_reflected_operators_and_numpy_operands(ctx, rng):
    a = rng.normal(size=(9, 11))
    ea = encode(ctx, a)
    before = ctx.ledger.snapshot()
    np.testing.assert_allclose(decode(3.0 + ea), 3.0 + a)
    np.testing.assert_allclose(decode(np.float64(-2.5) * ea), -2.5 * a)
    np.testing.assert_allclose(decode(np.full(ctx.slot_count, 2.0) * ea), 2.0 * a)
    assert ctx.ledger.delta(before) == {
        "Add": 1, "CMult": 2, "Mult": 0, "Rot": 0, "Conj": 0, "Bootstrap": 0,
    }


def test_grid_mismatch_raises(ctx):
    # (2, 1) with (1, 2) would need a (2, 2) grid neither operand has, and
    # 2 block rows with 3 do not broadcast at all
    tall = encode(ctx, np.ones((20, 4)))
    wide = encode(ctx, np.ones((4, 20)))
    taller = encode(ctx, np.ones((40, 4)))
    assert (tall.grid, wide.grid, taller.grid) == ((2, 1), (1, 2), (3, 1))
    for a, b in ((tall, wide), (wide, tall), (tall, taller), (taller, tall)):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(ShapeMismatch):
                op(a, b)


def test_operands_from_two_contexts_raise_before_any_op(rng):
    # same geometry at two budgets, and two block geometries of one slot
    # count: no pair mixes, and neither ledger records an op
    base = EmulatorContext(256, 16, max_level=12)
    shallow = EmulatorContext(256, 16, max_level=3)
    tall = EmulatorContext(256, 32, max_level=12)
    a = encode(base, rng.normal(size=(4, 4)))
    for other_ctx in (shallow, tall):
        b = encode(other_ctx, rng.normal(size=(4, 4)))
        for x, y in ((a, b), (b, a)):
            for op in (operator.add, operator.sub, operator.mul):
                with pytest.raises(ShapeMismatch, match="different contexts"):
                    op(x, y)
        assert sum(other_ctx.ledger.counts().values()) == 0
    assert sum(base.ledger.counts().values()) == 0


GRIDS = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


@settings(max_examples=120, deadline=None)
@given(
    grids=st.tuples(st.sampled_from(GRIDS), st.sampled_from(GRIDS)),
    op=st.sampled_from(sorted(OPS)),
    encrypted=st.tuples(st.booleans(), st.booleans()),
    levels=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    seed=st.integers(0, 2**16),
)
def test_grids_broadcast_a_one_block_axis(grids, op, encrypted, levels, seed):
    ctx = EmulatorContext(64, 8, max_level=12)
    rng = np.random.default_rng(seed)
    (ga, gb), fn = grids, OPS[op]
    # distinct shapes on each grid, so the kept metadata names its operand
    a, b = (
        encode(ctx, rng.normal(size=(8 * g[0] - k, 8 * g[1] - k - 1)), encrypted=enc, level=lv)
        for g, k, enc, lv in zip(grids, (1, 3), encrypted, levels)
    )
    assert (a.grid, b.grid) == grids
    out_grid = (max(ga[0], gb[0]), max(ga[1], gb[1]))
    if out_grid not in grids or any(p != q and 1 not in (p, q) for p, q in zip(ga, gb)):
        with pytest.raises(ShapeMismatch):
            fn(a, b)
        return

    before = ctx.ledger.snapshot()
    out = fn(a, b)
    want = fn(a.block.slots, b.block.slots)
    assert out.block.slots.shape == want.shape == (*out_grid, ctx.slot_count)
    assert out.block.slots.tobytes() == want.tobytes()

    blocks = out_grid[0] * out_grid[1]
    kind = "Add" if op != "mul" else "Mult" if all(encrypted) else "CMult"
    want_delta = {k: 0 for k in ("Add", "CMult", "Mult", "Rot", "Conj", "Bootstrap")}
    if any(encrypted):
        want_delta[kind] = blocks
    assert ctx.ledger.delta(before) == want_delta

    keep = a if out_grid == ga else b
    assert (out.shape, out.tiling, out.period) == (keep.shape, keep.tiling, keep.period)
    assert out.encrypted == any(encrypted)
    level = min(lv if enc else np.inf for lv, enc in zip(levels, encrypted))
    assert out.level == level - (op == "mul" and any(encrypted))


def test_decode_audits_encrypted_reads(ctx):
    e = encode(ctx, np.ones((2, 2)))
    decode(e, role="client", tag="weights")
    decode(e)
    assert ctx.decodes_by("client") == [("client", "weights")]
    assert ctx.decodes_by("observer") == [("observer", None)]


def test_decode_rejects_imaginary_residue(ctx):
    e = encode(ctx, np.ones((2, 2)))
    rotated = e.mul_i()
    with pytest.raises(ResidualImaginary):
        decode(rotated)


def test_decode_rejects_nan_residue(ctx):
    e = encode(ctx, np.ones((2, 2)))
    slots = e.block.slots.astype(np.complex128)
    slots[0, 0, 0] = complex(1.0, np.nan)
    with pytest.raises(ResidualImaginary, match="imaginary residue nan"):
        decode(EncodedMatrix(ctx, CipherBlock(slots, e.level, True), e.shape))


def test_pattern_matrix_and_masks(ctx):
    i = np.arange(16)[:, None]
    j = np.arange(16)[None, :]
    # make_mask gives the 8 x 8 tile, which repeats over the block
    assert make_mask(ctx, shift=2, modulus=8).shape == (8, 8)
    mask = pattern_matrix(ctx, np.tile(make_mask(ctx, shift=2, modulus=8), (2, 2)))
    expect = ((j - i - 2) % 8 == 0).astype(float)
    np.testing.assert_array_equal(padded_array(mask).real, expect)
    assert not mask.encrypted

    twin = pattern_matrix(ctx, np.tile(make_mask(ctx, shift=1, modulus=8, complexified=True, scale=2.0), (2, 2)))
    full = padded_array(twin)
    main = ((j - i - 1) % 8 == 0).astype(float)
    pair = ((j - i - 5) % 8 == 0).astype(float)
    np.testing.assert_allclose(full.real, 2.0 * 0.5 * main)
    np.testing.assert_allclose(full.imag, -2.0 * 0.5 * pair)

    with pytest.raises(ShapeMismatch):
        make_mask(ctx, 0, 5)  # 5 does not divide 16
    # a pattern that does not broadcast to 16 x 16, a tile that divides it
    # included
    for bad in (np.ones((3, 3)), np.ones((4, 5)), np.ones((2, 2, 2)), np.ones((2, 4)), np.ones(8)):
        with pytest.raises(ShapeMismatch):
            pattern_matrix(ctx, bad)

    cr = col_range_mask(ctx, 3)
    full = padded_array(cr).real
    assert np.all(full[:, :3] == 1.0) and np.all(full[:, 3:] == 0.0)

    # masks are one block, whatever grid they will multiply; a pattern may
    # be one row or one column that repeats over the block
    assert mask.grid == twin.grid == cr.grid == (1, 1)
    row = pattern_matrix(ctx, np.arange(16.0))
    col = pattern_matrix(ctx, np.arange(16.0)[:, None])
    np.testing.assert_array_equal(padded_array(row).real, np.tile(np.arange(16.0), (16, 1)))
    np.testing.assert_array_equal(padded_array(col).real, padded_array(row).real.T)


@pytest.mark.parametrize("slots,rows", [(256, 16), (4096, 64), (32768, 128)])
def test_make_mask_matches_its_index_grid_definition(slots, rows):
    # the tile is written by index; these are the selector's defining index
    # grids over the whole block, and the slot bytes must agree exactly
    ctx = EmulatorContext(slots, rows)
    i = np.arange(ctx.grid_rows)[:, None]
    j = np.arange(ctx.grid_cols)[None, :]
    for shift, modulus, complexified, scale in (
        (0, 1, False, 0.1 / 128),
        (2, 4, False, 2.0),
        (1, 2, True, 0.0),  # a zero learning rate: zeros keep their sign
        (-3, 8, True, 0.03 / 64),
        (5, 16, True, 1.0),
    ):
        main = ((j - i - shift) % modulus == 0).astype(np.complex128)
        if complexified:
            twin = ((j - i - shift - modulus // 2) % modulus == 0).astype(np.complex128)
            main = 0.5 * main - 0.5j * twin
        tile = make_mask(ctx, shift, modulus, complexified=complexified, scale=scale)
        assert tile.shape == (modulus, modulus)
        got = pattern_matrix(ctx, np.tile(tile, (ctx.grid_rows // modulus, ctx.grid_cols // modulus)))
        assert got.block.slots.dtype == (np.complex128 if complexified else np.float64)
        assert got.block.slots.astype(np.complex128).tobytes() == (main * scale).tobytes()


def test_rot_up_rolls_block_rows(ctx, rng):
    m = rng.normal(size=(16, 16))  # fill the block so the roll is visible
    e = encode(ctx, m)
    before = ctx.ledger.snapshot()
    out = rot_up(e, 3)
    delta = ctx.ledger.delta(before)
    np.testing.assert_array_equal(decode(out), np.roll(m, -3, axis=0))
    assert delta["Rot"] == 1 and delta["CMult"] == 0
    assert out.level == e.level  # depth-free
    assert rot_up(e, 0) is e


def test_rot_left_rolls_block_cols(ctx, rng):
    m = rng.normal(size=(16, 16))
    e = encode(ctx, m)
    before = ctx.ledger.snapshot()
    out = rot_left(e, 5)
    delta = ctx.ledger.delta(before)
    np.testing.assert_allclose(decode(out), np.roll(m, -5, axis=1))
    assert delta["CMult"] == 1 and delta["Rot"] == 2
    assert out.level == e.level - 1
    assert rot_left(e, 0) is e


def test_rot_left_is_per_block(ctx, rng):
    m = rng.normal(size=(16, 32))  # two block columns
    e = encode(ctx, m)
    before = ctx.ledger.snapshot()
    out = rot_left(e, 2)
    delta = ctx.ledger.delta(before)
    expect = np.concatenate(
        [np.roll(m[:, :16], -2, axis=1), np.roll(m[:, 16:], -2, axis=1)], axis=1
    )
    np.testing.assert_allclose(decode(out), expect)
    assert delta["CMult"] == 2 and delta["Rot"] == 4  # 1 + 2 per block


def test_prot_up_shifts_only_the_tail(ctx, rng):
    m = rng.normal(size=(16, 16))
    e = encode(ctx, m)
    before = ctx.ledger.snapshot()
    out = prot_up(e, 5)
    delta = ctx.ledger.delta(before)
    expect = m.copy()
    expect[:, 11:] = np.roll(m, -1, axis=0)[:, 11:]  # tail columns come from the row below
    np.testing.assert_allclose(decode(out), expect)
    assert delta["CMult"] == 1 and delta["Rot"] == 1
    assert out.level == e.level - 1


def test_col_sums_broadcasts_row_totals(ctx, rng):
    m = rng.normal(size=(16, 30))  # two block columns fold into one
    e = encode(ctx, m)
    before = ctx.ledger.snapshot()
    out = col_sums(e)
    delta = ctx.ledger.delta(before)
    got = decode(out)
    assert got.shape == (16, 16)
    np.testing.assert_allclose(got, np.tile(m.sum(axis=1, keepdims=True), (1, 16)))
    assert delta["Rot"] == 2 * 4 and delta["CMult"] == 1  # 2*log2(s1) per block row
    assert out.level == e.level - 1


def _ladder_sum_spread(ctx, x, mask, width):
    """col_sums' ladder as a backend runs it: fold, mask, broadcast."""
    folded = ctx.rot_sum(x, [1 << t for t in range(log2(width))])
    return ctx.rot_sum(ctx.mult(folded, mask), [-(1 << t) for t in range(log2(width))])


def _ladder_spread(ctx, x, mask, shifts):
    """A replication as a backend runs it: the window mask, then the ladder."""
    return ctx.rot_sum(ctx.mult(x, mask), shifts)


def _replication_sites(ctx, period=4):
    """(site, mask, step, copies, window, the ladder's shifts) of every
    replication that runs in closed form, with the mask and the shifts it
    ran before."""
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    first_col = col_range_mask(ctx, 1).block
    first_period = pattern_matrix(ctx, np.arange(s0)[:, None] < period).block[0, 0]
    width, k = period * s1, s0 // period
    return [
        ("broadcast_col0", first_col, 1, s1, 0, [-(1 << t) for t in range(log2(s1))]),
        ("row_major_atb", first_col, 1, s1, 0, [-(1 << t) for t in range(log2(s1))]),
        ("bootstrap_tiled", first_period, width, k, 0, [-(width << t) for t in range(log2(k))]),
        (
            "col_major_abt",
            pattern_matrix(ctx, np.arange(s0)[:, None] == 3).block,
            s1, s0, 3, [(1 << t) * s1 for t in range(log2(s0))],
        ),
    ]


def _slots(ctx, rng, grid, encrypted, level):
    values = rng.normal(size=(*grid, ctx.slot_count)) + 1j * rng.normal(size=(*grid, ctx.slot_count))
    values[..., : ctx.grid_cols] = 0.0  # a zero row, as padding leaves
    return ctx.encrypt(values, level) if encrypted else ctx.pack(values)


def _same_run(ctx, closed, ladder):
    """Run both; assert equal slot bytes, level, flag and ledger delta."""
    before = ctx.ledger.snapshot()
    want = ladder()
    want_ops = ctx.ledger.delta(before)
    before = ctx.ledger.snapshot()
    got = closed()
    assert ctx.ledger.delta(before) == want_ops
    assert got.slots.tobytes() == want.slots.tobytes()
    assert (got.slots.shape, got.level, got.encrypted) == (want.slots.shape, want.level, want.encrypted)
    assert not got.slots.flags.writeable


@pytest.mark.parametrize("grid", [(1, 1), (2, 3)])
@pytest.mark.parametrize("encrypted", [True, False])
@pytest.mark.parametrize("level", [1, 12])
def test_closed_forms_equal_their_ladders(ctx, rng, grid, encrypted, level):
    x = _slots(ctx, rng, grid, encrypted, level)
    mask = col_range_mask(ctx, 1).block
    _same_run(
        ctx,
        lambda: ctx.totals(x, axis=1),
        lambda: _ladder_sum_spread(ctx, x, mask, ctx.grid_cols),
    )
    for _, mask, step, copies, window, shifts in _replication_sites(ctx):
        _same_run(
            ctx,
            lambda: ctx.spread(x, step, copies, window),
            lambda: _ladder_spread(ctx, x, mask, shifts),
        )


@pytest.mark.parametrize("encrypted", [True, False])
def test_spread_copies_every_window_of_a_wrapping_segment(ctx, rng, encrypted):
    # step s1 and s0 copies: the segment is the whole vector, so the ladder
    # copies whichever row the mask keeps
    x = _slots(ctx, rng, (2, 3), encrypted, 5)
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    shifts = [-(s1 << t) for t in range(log2(s0))]
    for j in range(s0):
        mask = pattern_matrix(ctx, np.arange(s0)[:, None] == j).block
        _same_run(
            ctx,
            lambda: ctx.spread(x, s1, s0, window=j),
            lambda: _ladder_spread(ctx, x, mask, shifts),
        )


@pytest.mark.parametrize("grid", [(1, 1), (2, 3)])
@pytest.mark.parametrize("encrypted", [True, False])
def test_col_sums_equals_the_block_column_fold_and_its_ladder(ctx, rng, grid, encrypted):
    e = encode(ctx, rng.normal(size=(16 * grid[0] - 3, 16 * grid[1] - 5)), encrypted=encrypted)

    def ladder():
        acc = e.block[:, :1]
        for q in range(1, e.grid[1]):
            acc = ctx.add(acc, e.block[:, q : q + 1])
        return _ladder_sum_spread(ctx, acc, col_range_mask(ctx, 1).block, ctx.grid_cols)

    _same_run(ctx, lambda: col_sums(e).block, ladder)


def test_closed_forms_at_level_zero_raise_as_their_ladders(ctx, rng):
    x = _slots(ctx, rng, (2, 3), True, 0)

    def same_raise(ladder, closed):
        deltas = []
        for run in (ladder, closed):
            before = ctx.ledger.snapshot()
            with pytest.raises(DepthExhausted):
                run()
            deltas.append(ctx.ledger.delta(before))
        assert deltas[0] == deltas[1]

    mask = col_range_mask(ctx, 1).block
    same_raise(
        lambda: _ladder_sum_spread(ctx, x, mask, ctx.grid_cols),
        lambda: ctx.totals(x, axis=1),
    )
    for _, mask, step, copies, window, shifts in _replication_sites(ctx):
        same_raise(
            lambda: _ladder_spread(ctx, x, mask, shifts),
            lambda: ctx.spread(x, step, copies, window),
        )


def test_spread_rejects_a_window_the_ladder_does_not_copy(ctx, rng):
    x = _slots(ctx, rng, (1, 1), True, 5)
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    # a window other than the first is fine only where the ladder wraps
    # around the whole vector
    ctx.spread(x, s1, s0, window=3)
    before = ctx.ledger.snapshot()
    for step, copies, window in (
        (1, s1, 1),  # a row segment: the ladder copies only its first slot
        (s1, s0 // 2, 3),  # half the vector: only its first row
        (s1, s0, s0),  # past the last window
        (s1, s0, -1),
        (3, 4, 0),  # windows that do not tile the vector
    ):
        with pytest.raises(ValueError):
            ctx.spread(x, step, copies, window)
    assert ctx.ledger.counts() == before


def test_tree_sum_is_the_doubling_ladders_first_slot(ctx, rng):
    x = ctx.pack(rng.normal(size=(2, ctx.slot_count)) * 10.0 ** rng.integers(-8, 8, size=ctx.slot_count))
    folded = ctx.rot_sum(x, [1 << t for t in range(log2(ctx.grid_cols))]).slots
    rows = folded.reshape(2, ctx.grid_rows, ctx.grid_cols)[..., :1]
    got = tree_sum(x.slots.reshape(2, ctx.grid_rows, ctx.grid_cols))
    assert got.tobytes() == rows.tobytes()


def test_row_sums_is_maskless_and_depth_free(ctx, rng):
    m = rng.normal(size=(30, 16))  # two block rows fold into one
    e = encode(ctx, m)
    before = ctx.ledger.snapshot()
    out = row_sums(e)
    delta = ctx.ledger.delta(before)
    got = decode(out)
    assert got.shape == (16, 16)
    np.testing.assert_allclose(got, np.tile(m.sum(axis=0, keepdims=True), (16, 1)))
    assert delta["Rot"] == 4 and delta["CMult"] == 0  # log2(s0) per block col
    assert out.level == e.level


@pytest.mark.parametrize("grid", [(1, 1), (2, 3)])
@pytest.mark.parametrize("encrypted", [True, False])
def test_row_sums_is_the_ladders_first_row_in_every_row(ctx, rng, grid, encrypted):
    e = encode(ctx, rng.normal(size=(16 * grid[0] - 3, 16 * grid[1] - 5)), encrypted=encrypted)

    def ladder():
        acc = e.block[:1]
        for p in range(1, e.grid[0]):
            acc = ctx.add(acc, e.block[p : p + 1])
        return ctx.rot_sum(acc, [ctx.grid_cols << t for t in range(log2(ctx.grid_rows))])

    before = ctx.ledger.snapshot()
    want = ladder()
    want_ops = ctx.ledger.delta(before)
    before = ctx.ledger.snapshot()
    got = row_sums(e)
    assert ctx.ledger.delta(before) == want_ops
    assert (got.grid, got.level, got.encrypted) == (want.slots.shape[:2], want.level, want.encrypted)
    rows = got.block.slots.reshape(*got.grid, ctx.grid_rows, ctx.grid_cols)
    first = want.slots.reshape(rows.shape)[..., :1, :]
    assert (rows == first).all() and rows[..., :1, :].tobytes() == first.tobytes()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
def test_roundtrip_any_shape(rows, cols, seed):
    ctx = EmulatorContext(256, 16)
    m = np.random.default_rng(seed).normal(size=(rows, cols))
    np.testing.assert_array_equal(decode(encode(ctx, m)), m)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 16),
    cols=st.integers(1, 12),
    tiling=st.sampled_from(["vertical", "horizontal"]),
    seed=st.integers(0, 2**16),
)
def test_roundtrip_tiled(rows, cols, tiling, seed):
    ctx = EmulatorContext(256, 16)
    m = np.random.default_rng(seed).normal(size=(rows, cols))
    e = encode(ctx, m, tiling=tiling)
    np.testing.assert_array_equal(decode(e), m)
    assert e.period == next_pow2(rows if tiling == "vertical" else cols)


# -- packed refresh of tiled matrices --------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    log_period=st.integers(0, 3),
    mats=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 12), st.booleans()), min_size=1, max_size=3
    ),
    seed=st.integers(0, 2**16),
)
def test_packed_refresh_returns_tiled_slots_exactly(log_period, mats, seed):
    # (block columns, entry level, handed over already cut) per matrix
    ctx = EmulatorContext(256, 16, max_level=12)
    rng = np.random.default_rng(seed)
    period = 1 << log_period
    rows = period // 2 + 1  # pads up to the period
    tiled = [
        encode(ctx, rng.normal(size=(rows, 16 * cols - 3)), tiling="vertical", level=level)
        for cols, level, _ in mats
    ]
    ins = [first_period(e) if cut else e for e, (_, _, cut) in zip(tiled, mats)]

    before = ctx.ledger.snapshot()
    outs = bootstrap_tiled(*ins)
    delta = ctx.ledger.delta(before)

    # B blocks, k copies per block, P = ceil(B / k) packed ciphertexts: a cut
    # (CMult) per block not handed over cut, B - P rotate-adds to pack, P
    # bootstraps, B - P rotations and B masks to unpack, log2(k) rotate-add
    # doublings per block to re-tile
    k = 16 // period
    blocks = sum(cols for cols, _, _ in mats)
    uncut = sum(cols for cols, _, cut in mats if not cut)
    packs = -(-blocks // k)
    ladder = blocks * (4 - log_period)
    assert delta == {
        "Add": blocks - packs + ladder,
        "CMult": uncut + blocks,
        "Mult": 0,
        "Rot": 2 * (blocks - packs) + ladder,
        "Conj": 0,
        "Bootstrap": packs,
    }
    for e, out in zip(tiled, outs):
        np.testing.assert_array_equal(out.block.slots, e.block.slots)
        assert (out.shape, out.tiling, out.period) == (e.shape, "vertical", period)
        assert out.level == ctx.max_level - 1


def test_packed_refresh_bootstraps_one_copy_matrices_directly(ctx, rng):
    # a 9-row matrix tiles at period 16 = grid rows: one copy, nothing to pack
    mats = [encode(ctx, rng.normal(size=(9, 20)), tiling="vertical", level=0) for _ in range(2)]
    before = ctx.ledger.snapshot()
    outs = bootstrap_tiled(*mats)
    assert ctx.ledger.delta(before) == {
        "Add": 0, "CMult": 0, "Mult": 0, "Rot": 0, "Conj": 0, "Bootstrap": 4,
    }
    for e, out in zip(mats, outs):
        np.testing.assert_array_equal(out.block.slots, e.block.slots)
        assert (out.tiling, out.period, out.level) == ("vertical", 16, ctx.max_level)


def test_packed_refresh_passes_plaintext_through(ctx, rng):
    e = encode(ctx, rng.normal(size=(3, 20)), tiling="vertical", encrypted=False)
    before = ctx.ledger.snapshot()
    (out,) = bootstrap_tiled(e)
    assert out is e
    assert ctx.ledger.counts() == before


def test_packed_refresh_needs_a_level_and_one_period(boot_ctx, rng):
    # the cut is part of the refresh: no fallback bootstrap stands in for it
    low = encode(boot_ctx, rng.normal(size=(3, 5)), tiling="vertical", level=0)
    with pytest.raises(DepthExhausted):
        bootstrap_tiled(low)
    assert boot_ctx.ledger.counts()["Bootstrap"] == 0

    four = encode(boot_ctx, rng.normal(size=(3, 5)), tiling="vertical")
    eight = encode(boot_ctx, rng.normal(size=(5, 5)), tiling="vertical")
    with pytest.raises(TilingError):
        bootstrap_tiled(four, eight)
    with pytest.raises(TilingError):
        bootstrap_tiled(encode(boot_ctx, rng.normal(size=(3, 5)), tiling="horizontal"))


# -- complex-packed refresh of a real pair -------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    grid=st.sampled_from([(1, 1), (1, 3), (2, 2)]),
    levels=st.tuples(st.integers(0, 12), st.integers(0, 12)),
    seed=st.integers(0, 2**16),
)
def test_pair_refresh_returns_both_real_slots_exactly(grid, levels, seed):
    ctx = EmulatorContext(256, 16, max_level=12)
    rng = np.random.default_rng(seed)
    shape = (16 * grid[0] - 3, 16 * grid[1] - 5)
    a, b = (encode(ctx, rng.normal(size=shape), tiling="none", level=lv) for lv in levels)

    before = ctx.ledger.snapshot()
    out_a, out_b = bootstrap_pair(a, b)
    blocks = grid[0] * grid[1]
    # pack a + i b (1 Add), bootstrap, conjugate, then (p + conj p) * 1/2 and
    # (p - conj p) * (-i/2): 2 Add and 2 CMult
    assert ctx.ledger.delta(before) == {
        "Add": 3 * blocks, "CMult": 2 * blocks, "Mult": 0, "Rot": 0,
        "Conj": blocks, "Bootstrap": blocks,
    }
    for e, out in ((a, out_a), (b, out_b)):
        assert out.block.slots.dtype == np.float64
        assert out.block.slots.real.tobytes() == e.block.slots.real.tobytes()
        assert (out.shape, out.tiling, out.encrypted) == (e.shape, e.tiling, True)
        assert out.level == ctx.max_level - 1


def test_pair_refresh_passes_plaintext_through_and_checks_grids(ctx, rng):
    plain = [encode(ctx, rng.normal(size=(5, 20)), encrypted=False) for _ in range(2)]
    arrays = [rng.normal(size=(5, 20)) for _ in range(2)]
    before = ctx.ledger.snapshot()
    for pair in (plain, arrays):
        out = bootstrap_pair(*pair)
        assert out[0] is pair[0] and out[1] is pair[1]
    assert ctx.ledger.counts() == before

    one = encode(ctx, rng.normal(size=(5, 20)), level=0)
    two = encode(ctx, rng.normal(size=(5, 40)), level=0)
    # a one-block grid broadcasts in + and *, but a pair shares one grid
    single = encode(ctx, rng.normal(size=(5, 10)), level=0)
    assert (one.grid, two.grid, single.grid) == ((1, 2), (1, 3), (1, 1))
    for pair in ((one, two), (one, single), (single, one)):
        with pytest.raises(ShapeMismatch):
            bootstrap_pair(*pair)


def test_pair_refresh_keeps_a_half_that_overflowed_complex(ctx):
    # 2 * 1e308 overflows in p + conj p, and inf * 0 leaves a NaN imaginary
    # part, which stays for decode to reject
    a = encode(ctx, np.full((2, 2), 1e308), level=0)
    b = encode(ctx, np.ones((2, 2)), level=0)
    with np.errstate(over="ignore", invalid="ignore"):
        out_a, out_b = bootstrap_pair(a, b)
    assert out_a.block.slots.dtype == np.complex128
    assert out_b.block.slots.dtype == np.float64
    with pytest.raises(ResidualImaginary, match="imaginary residue nan"):
        decode(out_a)
    np.testing.assert_array_equal(decode(out_b), np.ones((2, 2)))


def test_pair_refresh_leaks_an_imaginary_residue_of_b_into_a(ctx):
    # the contract is real slots: p = a + i (b_re + i b_im) = (a - b_im) + i b_re,
    # so an imaginary residue of b is subtracted from a, and b keeps its real part
    a = EncodedMatrix(ctx, ctx.encrypt(np.full((1, 1, 256), 2.0), level=0), (16, 16))
    b = EncodedMatrix(ctx, ctx.encrypt(np.full((1, 1, 256), 1.0 + 0.25j), level=0), (16, 16))
    out_a, out_b = bootstrap_pair(a, b)
    np.testing.assert_array_equal(out_a.block.slots, np.full((1, 1, 256), 1.75))
    np.testing.assert_array_equal(out_b.block.slots, np.full((1, 1, 256), 1.0))
