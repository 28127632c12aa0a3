"""Wire-format round trips and framing errors on the in-memory channel."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefit.emulator import EmulatorContext
from hefit.encoding import encode, padded_array
from hefit.errors import ProtocolError
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
_LEVEL_OFFSET = 18  # u32 level of the whole grid
_HEADER_SIZE = 22  # then slot_count float64 slots per block, row-major


def patched(matrix, offset, fmt, *values):
    data = bytearray(pack_matrix(matrix))
    struct.pack_into(fmt, data, offset, *values)
    return bytes(data)


def roundtrip(ctx, matrix):
    data = pack_matrix(matrix)
    got, pos = unpack_matrix(ctx, data)
    assert pos == len(data)
    assert len(data) == _HEADER_SIZE + 8 * ctx.slot_count * got.grid[0] * got.grid[1]
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


def test_unpack_rejects_a_v2_frame(ctx, rng):
    # the previous format: an encrypted flag, an f64 level, complex128 slots
    orig = encode(ctx, rng.normal(size=(2, 2)), level=5)
    head = struct.pack("<BIIBIIBd", 2, 2, 2, 0, ctx.slot_count, ctx.grid_rows, 1, 5.0)
    data = head + orig.block.slots.astype("<c16").tobytes()
    with pytest.raises(ProtocolError, match="unsupported matrix format version 2"):
        unpack_matrix(ctx, data)


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


@pytest.mark.parametrize("level", [13, 99, 2**32 - 1])  # the context's max_level is 12
def test_unpack_rejects_bad_encrypted_level(ctx, rng, level):
    data = patched(encode(ctx, rng.normal(size=(2, 2))), _LEVEL_OFFSET, "<I", level)
    with pytest.raises(ProtocolError, match=f"block level {level} outside 0..12"):
        unpack_matrix(ctx, data)


def test_unpack_rejects_shape_beyond_grid(rng):
    # the receiver derives a 25x25 grid from the shape; the body holds one block
    small = EmulatorContext(16, 4, max_level=12)
    data = patched(encode(small, rng.normal(size=(2, 2))), _SHAPE_OFFSET, "<II", 100, 100)
    with pytest.raises(ProtocolError, match="truncated matrix body: need 80000 bytes, have 128"):
        unpack_matrix(small, data)


@pytest.mark.parametrize("offset", [0, 8])  # slot 0, slot 1
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_unpack_rejects_non_finite_slots(ctx, rng, offset, value):
    data = patched(encode(ctx, rng.normal(size=(3, 5))), _HEADER_SIZE + offset, "<d", value)
    with pytest.raises(ProtocolError, match="NaN or infinite slot"):
        unpack_matrix(ctx, data)


def test_unpack_accepts_finite_slots_whose_sum_overflows(ctx):
    huge = encode(ctx, np.full((3, 5), 1e308))
    assert_same_matrix(roundtrip(ctx, huge), huge)


@pytest.mark.parametrize("tiling,shape", [("none", (20, 33)), ("vertical", (4, 33))])
def test_real_slots_go_out_as_float64_bytes_and_come_back_bit_exact(ctx, rng, tiling, shape):
    values = rng.normal(size=shape)
    values[0, :3] = (0.0, -0.0, 1e308)
    orig = encode(ctx, values, tiling=tiling)
    data = pack_matrix(orig)
    assert data[_HEADER_SIZE:] == orig.block.slots.astype("<f8").tobytes()
    got = roundtrip(ctx, orig)
    assert got.block.slots.dtype == np.float64
    assert got.block.slots.tobytes() == orig.block.slots.tobytes()
    assert_same_matrix(got, orig)


_NOT_A_REAL_CIPHERTEXT = {
    "plaintext": (lambda ctx, v: encode(ctx, v, encrypted=False), "a plaintext 3x5 matrix"),
    "complex slots": (lambda ctx, v: encode(ctx, v).mul_i(), "a 3x5 matrix with complex slots"),
}


@pytest.mark.parametrize("case", sorted(_NOT_A_REAL_CIPHERTEXT))
def test_pack_refuses_what_is_not_a_real_ciphertext(ctx, rng, case):
    make, match = _NOT_A_REAL_CIPHERTEXT[case]
    matrix = make(ctx, rng.normal(size=(3, 5)))
    with pytest.raises(ProtocolError, match=f"{match} cannot go on the wire"):
        pack_matrix(matrix)
    a, b = channel_pair()
    with pytest.raises(ProtocolError, match="cannot go on the wire"):
        a.send_weights(matrix)
    with pytest.raises(ProtocolError, match="no message pending"):
        b.recv()


# Headers encode never writes, set through the shape and tiling fields:
# (tiling of an encoded 3x5 matrix, header patches (offset, format, values),
# message).
_UNENCODABLE = {
    "empty shape": ("vertical", [(_SHAPE_OFFSET, "<II", (0, 5))], "empty logical shape 0x5"),
    "rows beyond block": (
        "none",
        [(_SHAPE_OFFSET, "<II", (20, 5)), (_TILING_BYTE, "<B", (1,))],
        "cannot tile 20 rows vertically in a 16-row grid",
    ),
    "columns beyond block": (
        "none",
        [(_SHAPE_OFFSET, "<II", (3, 17)), (_TILING_BYTE, "<B", (2,))],
        "cannot tile 17 columns horizontally in a 16-column grid",
    ),
}


@pytest.mark.parametrize("case", sorted(_UNENCODABLE))
def test_unpack_rejects_headers_encode_never_writes(ctx, rng, case):
    tiling, patches, match = _UNENCODABLE[case]
    data = bytearray(pack_matrix(encode(ctx, rng.normal(size=(3, 5)), tiling=tiling)))
    for offset, fmt, values in patches:
        struct.pack_into(fmt, data, offset, *values)
    with pytest.raises(ProtocolError, match=match):
        unpack_matrix(ctx, bytes(data))


def test_pack_rejects_a_layout_unpack_would_reject(ctx, rng):
    # a 3x5 matrix relabelled 40x5 still sits on one block, where the shape
    # says 3x1: the receiver would read three blocks, so the sender refuses
    # it before any byte reaches the channel
    relabelled = encode(ctx, rng.normal(size=(3, 5))).with_meta(shape=(40, 5))
    with pytest.raises(ProtocolError, match="a 40x5 matrix tiled 'none' has a 3x1 grid, not 1x1"):
        pack_matrix(relabelled)
    a, b = channel_pair()
    with pytest.raises(ProtocolError, match="has a 3x1 grid"):
        a.send_weights(relabelled)
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
    tiling=st.sampled_from(["none", "vertical", "horizontal"]),
    level=st.sampled_from([0, 1, 7, 12]),
    seed=st.integers(0, 2**31 - 1),
)
def test_random_matrices_roundtrip(rows, cols, tiling, level, seed):
    ctx = EmulatorContext(256, 16, max_level=12)
    vals = np.random.default_rng(seed).normal(size=(rows, cols))
    orig = encode(ctx, vals, tiling=tiling if max(rows, cols) <= 16 else "none", level=level)
    got = roundtrip(ctx, orig)
    assert_same_matrix(got, orig)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    tiling=st.sampled_from(["none", "vertical", "horizontal"]),
    level=st.sampled_from([0, 5, 12]),
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
    orig = encode(ctx, vals, tiling=tiling if max(rows, cols) <= 8 else "none", level=level)
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

