"""Ledger accounting, level tracking, and depth errors of the slot emulator."""

import math
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hefit.emulator import (
    DEFAULT_OP_WEIGHTS_MS,
    OP_KINDS,
    CipherBlock,
    EmulatorContext,
    OpLedger,
)
from hefit.encoding import encode
from hefit.errors import DepthExhausted, HefitError, LevelError, SlotCountMismatch


def fresh(**kw):
    return EmulatorContext(16, 4, **kw)


def test_block_slots_are_read_only():
    blk = fresh().encrypt(np.arange(16.0))
    with pytest.raises(ValueError):
        blk.slots[0] = 5.0


def test_block_accepts_any_numeric_input():
    blk = CipherBlock(list(range(4)), 3)
    assert blk.slots.dtype == np.complex128
    assert len(blk) == 4
    assert blk.encrypted


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
)
@example(shape=(2, 2, 16), shifts=[], encrypted=True, seed=0)
@example(shape=(16,), shifts=[16], encrypted=True, seed=0)
@example(shape=(1, 3, 16), shifts=[-3], encrypted=True, seed=0)
@example(shape=(2, 2, 16), shifts=[1, 0, -32, 7], encrypted=True, seed=0)
@example(shape=(2, 2, 16), shifts=[4, 8], encrypted=False, seed=0)
def test_rot_sum_matches_the_add_lrot_loop(shape, shifts, encrypted, seed):
    ctx = fresh()
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
