"""Length-prefixed binary channel between the training parties.

Every record on the wire is::

    u32 little-endian length   (length of everything after this field)
    u8  message type
    payload bytes

The payload of matrix-bearing messages is one or more serialized
:class:`~hefit.encoding.EncodedMatrix` values, each self-describing:

    u8  format version (1)
    u32 rows, u32 cols            logical shape
    u8  tiling (0 none / 1 vertical / 2 horizontal)
    u32 period
    u32 grid_rows, u32 grid_cols  block-grid dimensions
    u32 slot_count, u32 block_rows   (context compatibility check)
    u8  encrypted flag
    then per block, row-major:
      f64 level (+inf for plaintext blocks; equal across the grid)
      slot_count * complex128, little-endian

A grid carries one level, so :func:`unpack_matrix` rejects a body whose
blocks disagree on it, and a header :func:`~hefit.encoding.encode` could not
have written: an empty shape, or a period or grid other than its
:func:`~hefit.encoding.layout`.

The in-process :func:`channel_pair` endpoints speak exactly this format
over shared byte buffers, so swapping in a socket later is a transport
change only.
"""

from __future__ import annotations

import struct

import numpy as np

from .emulator import PLAINTEXT_LEVEL, CipherBlock, EmulatorContext
from .encoding import EncodedMatrix, layout
from .errors import ProtocolError, TilingError

# Message types.
MSG_BATCH = 1  # EncryptedBatch: features matrix + one-hot labels matrix
MSG_VAL_LOGITS = 2  # EncryptedValLogits: one logits matrix
MSG_STOP = 3  # StopSignal: one decision byte (see DECISION_*)
MSG_WEIGHTS = 4  # FinalWeights: one weights matrix

MESSAGE_NAMES = {
    MSG_BATCH: "EncryptedBatch",
    MSG_VAL_LOGITS: "EncryptedValLogits",
    MSG_STOP: "StopSignal",
    MSG_WEIGHTS: "FinalWeights",
}

# StopSignal decision byte.
DECISION_CONTINUE = 0  # validation loss did not improve; keep training
DECISION_IMPROVED = 1  # improved; server should snapshot current weights
DECISION_STOP = 2  # patience exhausted; send the best snapshot back

_MATRIX_VERSION = 1
_TILING_CODES = {"none": 0, "vertical": 1, "horizontal": 2}
_TILING_NAMES = {v: k for k, v in _TILING_CODES.items()}

_HEAD = struct.Struct("<BIIBIIIIIB")
_FRAME_LEN = struct.Struct("<I")


def _body_dtype(slot_count: int) -> np.dtype:
    """One record per block: its level, then its slots."""
    return np.dtype([("level", "<f8"), ("slots", "<c16", (slot_count,))])


def _check_layout(ctx: EmulatorContext, rows: int, cols: int, tiling: str, period: int, grid):
    """Raise :class:`ProtocolError` unless a ``rows x cols`` matrix tiled
    ``tiling`` has the period (0 for none) and grid that
    :func:`~hefit.encoding.encode` writes (:func:`~hefit.encoding.layout`)."""
    if rows == 0 or cols == 0:
        raise ProtocolError(f"empty logical shape {rows}x{cols}")
    # a period below the tiled dimension would decode fine and then feed
    # the kernels wrong products: take only the layout encode writes
    try:
        want_period, want_grid = layout(ctx, rows, cols, tiling)
    except TilingError as exc:
        raise ProtocolError(str(exc)) from None
    if (period, grid) != (want_period or 0, want_grid):
        raise ProtocolError(
            f"a {rows}x{cols} matrix tiled {tiling!r} has period {want_period or 0} on a "
            f"{want_grid[0]}x{want_grid[1]} grid, frame says {period} on {grid[0]}x{grid[1]}"
        )


def pack_matrix(matrix: EncodedMatrix) -> bytes:
    """Serialize an encoded matrix; every block record carries the grid's level.

    A matrix whose layout :func:`unpack_matrix` would reject raises
    :class:`ProtocolError` before any byte is written.
    """
    ctx = matrix.ctx
    rows, cols = matrix.shape
    gr, gc = matrix.grid
    _check_layout(ctx, rows, cols, matrix.tiling, matrix.period or 0, matrix.grid)
    dtype = _body_dtype(ctx.slot_count)
    frame = bytearray(_HEAD.size + gr * gc * dtype.itemsize)
    _HEAD.pack_into(
        frame,
        0,
        _MATRIX_VERSION,
        rows,
        cols,
        _TILING_CODES[matrix.tiling],
        matrix.period or 0,
        gr,
        gc,
        ctx.slot_count,
        ctx.grid_rows,
        int(matrix.encrypted),
    )
    body = np.frombuffer(frame, dtype=dtype, offset=_HEAD.size)
    body["level"] = float(matrix.level)
    body["slots"] = matrix.block.slots.reshape(gr * gc, ctx.slot_count)
    return bytes(frame)


def unpack_matrix(ctx: EmulatorContext, data: bytes, offset: int = 0) -> tuple[EncodedMatrix, int]:
    """Rebuild a matrix from :func:`pack_matrix` bytes; returns (matrix, next offset)."""
    try:
        (version, rows, cols, tcode, period, gr, gc, slots, block_rows, enc) = _HEAD.unpack_from(
            data, offset
        )
    except struct.error as exc:
        raise ProtocolError(f"truncated matrix header: {exc}") from None
    if version != _MATRIX_VERSION:
        raise ProtocolError(f"unsupported matrix format version {version}")
    if tcode not in _TILING_NAMES:
        raise ProtocolError(f"unknown tiling code {tcode}")
    if enc not in (0, 1):
        raise ProtocolError(f"encrypted flag {enc} is neither 0 nor 1")
    if slots != ctx.slot_count or block_rows != ctx.grid_rows:
        raise ProtocolError(
            f"context mismatch: message packed for {slots} slots x {block_rows} rows, "
            f"receiver uses {ctx.slot_count} x {ctx.grid_rows}"
        )
    tiling = _TILING_NAMES[tcode]
    _check_layout(ctx, rows, cols, tiling, period, (gr, gc))
    pos = offset + _HEAD.size
    dtype = _body_dtype(slots)
    need = gr * gc * dtype.itemsize
    if len(data) - pos < need:
        raise ProtocolError(f"truncated matrix body: need {need} bytes, have {len(data) - pos}")
    body = np.frombuffer(data, dtype=dtype, count=gr * gc, offset=pos)
    levels = body["level"]
    level = _block_level(ctx, float(levels[0]), bool(enc))
    odd = levels[levels != levels[0]]
    if odd.size:
        raise ProtocolError(f"block levels differ within one grid: {levels[0]} and {odd[0]}")
    block = CipherBlock(body["slots"].reshape(gr, gc, slots).copy(), level, bool(enc))
    matrix = EncodedMatrix(
        ctx=ctx,
        block=block,
        shape=(rows, cols),
        tiling=tiling,
        period=period or None,
    )
    return matrix, pos + need


def _block_level(ctx: EmulatorContext, raw: float, encrypted: bool) -> float:
    """Validate a wire level: an integer in [0, max_level], +inf for plaintext."""
    if not encrypted:
        if raw != PLAINTEXT_LEVEL:
            raise ProtocolError(f"plaintext block carries level {raw}, expected inf")
        return PLAINTEXT_LEVEL
    if not (raw.is_integer() and 0 <= raw <= ctx.max_level):
        raise ProtocolError(f"encrypted block level {raw} outside 0..{ctx.max_level}")
    return int(raw)


class ChannelEndpoint:
    """One side of a duplex, length-prefix-framed byte channel."""

    def __init__(self, rx: bytearray, tx: bytearray):
        self._rx = rx
        self._tx = tx

    def send(self, msg_type: int, payload: bytes = b"") -> None:
        if msg_type not in MESSAGE_NAMES:
            raise ProtocolError(f"unknown message type {msg_type}")
        self._tx += _FRAME_LEN.pack(1 + len(payload))
        self._tx.append(msg_type)
        self._tx += payload

    def recv(self) -> tuple[int, bytes]:
        if len(self._rx) < _FRAME_LEN.size:
            raise ProtocolError("no message pending")
        (length,) = _FRAME_LEN.unpack_from(self._rx, 0)
        if length < 1 or len(self._rx) < _FRAME_LEN.size + length:
            raise ProtocolError(f"truncated frame: declared {length} bytes")
        start = _FRAME_LEN.size
        msg_type = self._rx[start]
        payload = bytes(self._rx[start + 1 : start + length])
        del self._rx[: start + length]
        if msg_type not in MESSAGE_NAMES:
            raise ProtocolError(f"unknown message type {msg_type}")
        return msg_type, payload

    # Typed helpers so call sites read like the protocol description.

    def send_batch(self, features: EncodedMatrix, labels: EncodedMatrix) -> None:
        self.send(MSG_BATCH, pack_matrix(features) + pack_matrix(labels))

    def send_val_logits(self, logits: EncodedMatrix) -> None:
        self.send(MSG_VAL_LOGITS, pack_matrix(logits))

    def send_stop_signal(self, decision: int) -> None:
        if decision not in (DECISION_CONTINUE, DECISION_IMPROVED, DECISION_STOP):
            raise ProtocolError(f"invalid stop-signal decision {decision}")
        self.send(MSG_STOP, bytes([decision]))

    def send_weights(self, weights: EncodedMatrix) -> None:
        self.send(MSG_WEIGHTS, pack_matrix(weights))

    def recv_batch(self, ctx: EmulatorContext) -> tuple[EncodedMatrix, EncodedMatrix]:
        payload = self._expect(MSG_BATCH)
        features, pos = unpack_matrix(ctx, payload)
        labels, pos = unpack_matrix(ctx, payload, pos)
        if pos != len(payload):
            raise ProtocolError(f"{len(payload) - pos} stray bytes after batch payload")
        return features, labels

    def recv_val_logits(self, ctx: EmulatorContext) -> EncodedMatrix:
        return self._expect_matrix(MSG_VAL_LOGITS, ctx)

    def recv_stop_signal(self) -> int:
        payload = self._expect(MSG_STOP)
        if len(payload) != 1 or payload[0] not in (
            DECISION_CONTINUE,
            DECISION_IMPROVED,
            DECISION_STOP,
        ):
            raise ProtocolError("malformed stop signal")
        return payload[0]

    def recv_weights(self, ctx: EmulatorContext) -> EncodedMatrix:
        return self._expect_matrix(MSG_WEIGHTS, ctx)

    def _expect(self, msg_type: int) -> bytes:
        got, payload = self.recv()
        if got != msg_type:
            raise ProtocolError(
                f"expected {MESSAGE_NAMES[msg_type]}, got {MESSAGE_NAMES.get(got, got)}"
            )
        return payload

    def _expect_matrix(self, msg_type: int, ctx: EmulatorContext) -> EncodedMatrix:
        payload = self._expect(msg_type)
        matrix, pos = unpack_matrix(ctx, payload)
        if pos != len(payload):
            raise ProtocolError(f"{len(payload) - pos} stray bytes after matrix payload")
        return matrix


def channel_pair() -> tuple[ChannelEndpoint, ChannelEndpoint]:
    """Two connected endpoints sharing in-memory byte streams."""
    a_to_b = bytearray()
    b_to_a = bytearray()
    return ChannelEndpoint(b_to_a, a_to_b), ChannelEndpoint(a_to_b, b_to_a)
