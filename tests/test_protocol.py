"""Wire-format round trips and framing errors on the in-memory channel."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefit.emulator import EmulatorContext
from hefit.encoding import decode, encode, padded_array
from hefit.errors import ProtocolError
from hefit.matmul import diag_abt
from hefit.protocol import (
    DECISION_CONTINUE,
    DECISION_IMPROVED,
    DECISION_STOP,
    MSG_STOP,
    MSG_VAL_LOGITS,
    channel_pair,
    pack_matrix,
    unpack_matrix,
)

# Byte offsets into the documented matrix header layout (u8 version at 0,
# u32 rows/cols, u8 tiling at 9).  The layout is part of the wire contract.
_VERSION_BYTE = 0
_SHAPE_OFFSET = 1  # u32 rows, u32 cols
_TILING_BYTE = 9
_PERIOD_OFFSET = 10
_GRID_OFFSET = 14  # u32 grid_rows, u32 grid_cols
_ENCRYPTED_BYTE = 30
_FIRST_LEVEL_OFFSET = 31  # f64 level of block (0, 0), right after the header
_LEVEL_SIZE = 8  # each block record: f64 level, then slot_count complex128 slots


def patched(matrix, offset, fmt, *values):
    data = bytearray(pack_matrix(matrix))
    struct.pack_into(fmt, data, offset, *values)
    return bytes(data)


def roundtrip(ctx, matrix):
    data = pack_matrix(matrix)
    got, pos = unpack_matrix(ctx, data)
    assert pos == len(data)
    return got


def assert_same_matrix(got, orig):
    assert got.shape == orig.shape
    assert got.tiling == orig.tiling
    assert got.period == orig.period
    assert got.grid == orig.grid
    assert got.encrypted == orig.encrypted
    assert got.level == orig.level
    np.testing.assert_array_equal(got.block.slots, orig.block.slots)


# -- matrix serialization ---------------------------------------------------------


def test_roundtrip_untiled_multiblock(ctx, rng):
    orig = encode(ctx, rng.normal(size=(20, 33)))
    got = roundtrip(ctx, orig)
    assert_same_matrix(got, orig)
    np.testing.assert_array_equal(padded_array(got), padded_array(orig))


@pytest.mark.parametrize("tiling,shape", [("vertical", (4, 33)), ("horizontal", (20, 8))])
def test_roundtrip_tiled(ctx, rng, tiling, shape):
    orig = encode(ctx, rng.normal(size=shape), tiling=tiling)
    got = roundtrip(ctx, orig)
    assert_same_matrix(got, orig)


def test_roundtrip_plaintext_keeps_infinite_level(ctx, rng):
    orig = encode(ctx, rng.normal(size=(5, 5)), encrypted=False)
    got = roundtrip(ctx, orig)
    assert not got.encrypted
    assert got.level == math.inf
    assert_same_matrix(got, orig)


def test_unpack_rejects_mixed_block_levels(ctx, rng):
    base = encode(ctx, rng.normal(size=(20, 33)))  # grid (2, 3)
    record = _LEVEL_SIZE + 16 * ctx.slot_count
    data = patched(base, _FIRST_LEVEL_OFFSET + 5 * record, "<d", 3.0)  # block (1, 2)
    with pytest.raises(ProtocolError, match="block levels differ within one grid: 12.0 and 3.0"):
        unpack_matrix(ctx, data)


def test_roundtrip_level_zero(ctx, rng):
    orig = encode(ctx, rng.normal(size=(3, 3)), level=0)
    got = roundtrip(ctx, orig)
    assert got.level == 0 and isinstance(got.block.level, int)


def test_two_matrices_share_one_buffer(ctx, rng):
    a = encode(ctx, rng.normal(size=(4, 4)))
    b = encode(ctx, rng.normal(size=(9, 2)), tiling="horizontal")
    data = pack_matrix(a) + pack_matrix(b)
    got_a, pos = unpack_matrix(ctx, data)
    got_b, pos = unpack_matrix(ctx, data, pos)
    assert pos == len(data)
    assert_same_matrix(got_a, a)
    assert_same_matrix(got_b, b)


def test_unpack_rejects_truncated_header(ctx):
    with pytest.raises(ProtocolError, match="truncated matrix header"):
        unpack_matrix(ctx, b"\x01\x02\x03")


def test_unpack_rejects_unknown_version(ctx, rng):
    data = bytearray(pack_matrix(encode(ctx, rng.normal(size=(2, 2)))))
    data[_VERSION_BYTE] = 9
    with pytest.raises(ProtocolError, match="version 9"):
        unpack_matrix(ctx, bytes(data))


def test_unpack_rejects_unknown_tiling_code(ctx, rng):
    data = bytearray(pack_matrix(encode(ctx, rng.normal(size=(2, 2)))))
    data[_TILING_BYTE] = 7
    with pytest.raises(ProtocolError, match="tiling code 7"):
        unpack_matrix(ctx, bytes(data))


def test_unpack_rejects_foreign_context(ctx, rng):
    data = pack_matrix(encode(ctx, rng.normal(size=(2, 2))))
    other = EmulatorContext(1024, 32, max_level=12)
    with pytest.raises(ProtocolError, match="context mismatch"):
        unpack_matrix(other, data)


def test_unpack_rejects_truncated_body(ctx, rng):
    data = pack_matrix(encode(ctx, rng.normal(size=(2, 2))))
    with pytest.raises(ProtocolError, match="truncated matrix body"):
        unpack_matrix(ctx, data[:-8])


@pytest.mark.parametrize("level", [math.nan, 99.0, -3.0, 2.5, math.inf])
def test_unpack_rejects_bad_encrypted_level(ctx, rng, level):
    data = patched(encode(ctx, rng.normal(size=(2, 2))), _FIRST_LEVEL_OFFSET, "<d", level)
    with pytest.raises(ProtocolError, match="encrypted block level"):
        unpack_matrix(ctx, data)


def test_unpack_rejects_bad_encrypted_flag(ctx, rng):
    data = bytearray(pack_matrix(encode(ctx, rng.normal(size=(2, 2)))))
    data[_ENCRYPTED_BYTE] = 2
    with pytest.raises(ProtocolError, match="encrypted flag 2 is neither 0 nor 1"):
        unpack_matrix(ctx, bytes(data))


def test_unpack_rejects_finite_plaintext_level(ctx, rng):
    plain = encode(ctx, rng.normal(size=(2, 2)), encrypted=False)
    data = patched(plain, _FIRST_LEVEL_OFFSET, "<d", 3.0)
    with pytest.raises(ProtocolError, match="plaintext block carries level 3.0"):
        unpack_matrix(ctx, data)


def test_unpack_rejects_empty_block_grid(ctx, rng):
    data = patched(encode(ctx, rng.normal(size=(2, 2))), _GRID_OFFSET, "<II", 0, 0)
    with pytest.raises(ProtocolError, match="on a 1x1 grid, frame says 0 on 0x0"):
        unpack_matrix(ctx, data)


def test_unpack_rejects_shape_beyond_grid(rng):
    small = EmulatorContext(16, 4, max_level=12)
    data = patched(encode(small, rng.normal(size=(2, 2))), _SHAPE_OFFSET, "<II", 100, 100)
    with pytest.raises(ProtocolError, match="100x100 matrix tiled 'none' has period 0 on a 25x25 "
                                            "grid, frame says 0 on 1x1"):
        unpack_matrix(small, data)


@pytest.mark.parametrize("period", [3, 0])
def test_unpack_rejects_non_pow2_tiling_period(ctx, rng, period):
    tiled = encode(ctx, rng.normal(size=(4, 3)), tiling="horizontal")
    data = patched(tiled, _PERIOD_OFFSET, "<I", period)
    with pytest.raises(ProtocolError, match=f"has period 4 on a 1x1 grid, frame says {period} on"):
        unpack_matrix(ctx, data)


# One case per header field that encode derives from the shape and tiling:
# (tiling of an encoded 3x5 matrix, header patches (offset, format, values),
# message).
_UNENCODABLE = {
    "empty shape": ("vertical", [(_SHAPE_OFFSET, "<II", (0, 5))], "empty logical shape 0x5"),
    "period untiled": ("none", [(_PERIOD_OFFSET, "<I", (4,))],
                       "tiled 'none' has period 0 on a 1x1 grid, frame says 4 on 1x1"),
    "period beyond block": ("vertical", [(_PERIOD_OFFSET, "<I", (32,))], "frame says 32 on"),
    "period above next pow2": ("vertical", [(_PERIOD_OFFSET, "<I", (8,))], "frame says 8 on"),
    "period below rows": ("vertical", [(_PERIOD_OFFSET, "<I", (2,))],
                          "tiled 'vertical' has period 4 on a 1x1 grid, frame says 2 on 1x1"),
    "rows beyond block": (
        "none",
        [(_SHAPE_OFFSET, "<II", (20, 5)), (_TILING_BYTE, "<B", (1,)),
         (_PERIOD_OFFSET, "<I", (32,)), (_GRID_OFFSET, "<II", (2, 1))],
        "cannot tile 20 rows vertically in a 16-row grid",
    ),
    "grid rows": ("vertical", [(_GRID_OFFSET, "<II", (2, 1))], "frame says 4 on 2x1"),
    "grid cols": ("none", [(_GRID_OFFSET, "<II", (1, 2))], "frame says 0 on 1x2"),
}


@pytest.mark.parametrize("case", sorted(_UNENCODABLE))
def test_unpack_rejects_headers_encode_never_writes(ctx, rng, case):
    tiling, patches, match = _UNENCODABLE[case]
    data = bytearray(pack_matrix(encode(ctx, rng.normal(size=(3, 5)), tiling=tiling)))
    for offset, fmt, values in patches:
        struct.pack_into(fmt, data, offset, *values)
    with pytest.raises(ProtocolError, match=match):
        unpack_matrix(ctx, bytes(data))


def test_reframed_period_would_have_fed_a_wrong_product(ctx, rng):
    # the same slots under period 2 decode to the same W, but diag_abt then
    # pairs the wrong rows: the wire rejects the frame before that
    x, w = rng.normal(size=(6, 5)), rng.normal(size=(3, 5))
    honest = encode(ctx, w, tiling="vertical")
    data = patched(honest, _PERIOD_OFFSET, "<I", 2)
    reframed = honest.with_meta(period=2)
    np.testing.assert_array_equal(decode(reframed), w)
    np.testing.assert_allclose(decode(diag_abt(encode(ctx, x), honest)), x @ w.T, atol=1e-12)
    assert not np.allclose(decode(diag_abt(encode(ctx, x), reframed)), x @ w.T, atol=1e-3)
    with pytest.raises(ProtocolError, match="frame says 2"):
        unpack_matrix(ctx, data)


def test_pack_rejects_a_layout_unpack_would_reject(ctx, rng):
    # the reframed W of the case above: the sender refuses it before any
    # byte reaches the channel
    reframed = encode(ctx, rng.normal(size=(3, 5)), tiling="vertical").with_meta(period=2)
    with pytest.raises(ProtocolError, match="has period 4 on a 1x1 grid, frame says 2 on 1x1"):
        pack_matrix(reframed)
    a, b = channel_pair()
    with pytest.raises(ProtocolError, match="frame says 2"):
        a.send_weights(reframed)
    with pytest.raises(ProtocolError, match="no message pending"):
        b.recv()


# -- channel framing -------------------------------------------------------------


def test_channel_carries_messages_both_ways(ctx, rng):
    a, b = channel_pair()
    wa = encode(ctx, rng.normal(size=(3, 4)))
    wb = encode(ctx, rng.normal(size=(2, 2)))
    a.send_weights(wa)
    b.send_weights(wb)
    assert_same_matrix(b.recv_weights(ctx), wa)
    assert_same_matrix(a.recv_weights(ctx), wb)


def test_channel_is_fifo(ctx, rng):
    a, b = channel_pair()
    first = encode(ctx, rng.normal(size=(2, 2)))
    a.send_val_logits(first)
    a.send_stop_signal(DECISION_STOP)
    assert_same_matrix(b.recv_val_logits(ctx), first)
    assert b.recv_stop_signal() == DECISION_STOP
    with pytest.raises(ProtocolError):
        b.recv()


def test_recv_on_empty_channel_raises():
    _, b = channel_pair()
    with pytest.raises(ProtocolError, match="no message pending"):
        b.recv()


def test_recv_wrong_type_names_both_sides(ctx, rng):
    a, b = channel_pair()
    a.send_stop_signal(DECISION_CONTINUE)
    with pytest.raises(ProtocolError, match="expected EncryptedValLogits, got StopSignal"):
        b.recv_val_logits(ctx)


def test_send_unknown_message_type_rejected():
    a, _ = channel_pair()
    with pytest.raises(ProtocolError, match="unknown message type 42"):
        a.send(42)


def test_recv_unknown_message_type_rejected():
    a, b = channel_pair()
    a.send(MSG_STOP, bytes([DECISION_CONTINUE]))
    # corrupt the type byte in flight (offset 4, after the u32 length)
    a._tx[4] = 99
    with pytest.raises(ProtocolError, match="unknown message type 99"):
        b.recv()


def test_recv_truncated_frame_rejected():
    a, b = channel_pair()
    a._tx += (100).to_bytes(4, "little")  # declares 100 bytes, delivers none
    with pytest.raises(ProtocolError, match="truncated frame"):
        b.recv()


@pytest.mark.parametrize("decision", [DECISION_CONTINUE, DECISION_IMPROVED, DECISION_STOP])
def test_stop_signal_roundtrip(decision):
    a, b = channel_pair()
    a.send_stop_signal(decision)
    assert b.recv_stop_signal() == decision


def test_stop_signal_rejects_bad_decision_on_send():
    a, _ = channel_pair()
    with pytest.raises(ProtocolError, match="invalid stop-signal decision 7"):
        a.send_stop_signal(7)


def test_stop_signal_rejects_malformed_payload():
    a, b = channel_pair()
    a.send(MSG_STOP, bytes([DECISION_STOP, 0]))  # too long
    with pytest.raises(ProtocolError, match="malformed stop signal"):
        b.recv_stop_signal()
    a.send(MSG_STOP, bytes([9]))  # not a decision
    with pytest.raises(ProtocolError, match="malformed stop signal"):
        b.recv_stop_signal()


def test_batch_roundtrip_and_stray_byte_detection(ctx, rng):
    a, b = channel_pair()
    feats = encode(ctx, rng.normal(size=(8, 5)))
    labels = encode(ctx, rng.normal(size=(3, 8)), tiling="horizontal")
    a.send_batch(feats, labels)
    got_f, got_l = b.recv_batch(ctx)
    assert_same_matrix(got_f, feats)
    assert_same_matrix(got_l, labels)

    a.send(1, pack_matrix(feats) + pack_matrix(labels) + b"\x00\x00")
    with pytest.raises(ProtocolError, match="2 stray bytes"):
        b.recv_batch(ctx)


def test_single_matrix_stray_byte_detection(ctx, rng):
    a, b = channel_pair()
    a.send(MSG_VAL_LOGITS, pack_matrix(encode(ctx, rng.normal(size=(2, 2)))) + b"\xff")
    with pytest.raises(ProtocolError, match="1 stray bytes"):
        b.recv_val_logits(ctx)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    level=st.sampled_from([0, 1, 7, 12]),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_matrices_roundtrip(rows, cols, level, seed):
    ctx = EmulatorContext(256, 16, max_level=12)
    vals = np.random.default_rng(seed).normal(size=(rows, cols))
    orig = encode(ctx, vals, level=level)
    got = roundtrip(ctx, orig)
    assert_same_matrix(got, orig)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    tiling=st.sampled_from(["none", "vertical", "horizontal"]),
    level=st.sampled_from([0, 5, 12, None]),
    edits=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 255)), max_size=3),
    cut=st.none() | st.integers(0, 2**16),
    seed=st.integers(0, 2**31 - 1),
)
def test_damaged_frames_roundtrip_or_raise_protocol_error(
    rows, cols, tiling, level, edits, cut, seed
):
    """Truncated or byte-mutated frames never escape as another exception."""
    ctx = EmulatorContext(64, 8, max_level=12)
    vals = np.random.default_rng(seed).normal(size=(rows, cols))
    encrypted = level is not None
    orig = encode(ctx, vals, tiling=tiling if max(rows, cols) <= 8 else "none",
                  encrypted=encrypted, level=level)
    data = bytearray(pack_matrix(orig))
    for pos, byte in edits:
        data[pos % len(data)] = byte
    if cut is not None:
        del data[cut % (len(data) + 1):]
    try:
        got, end = unpack_matrix(ctx, bytes(data))
    except ProtocolError:
        return
    assert end <= len(data)
    again = roundtrip(ctx, got)
    assert_same_matrix(again, got)

