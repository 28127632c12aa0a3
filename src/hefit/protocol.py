"""Length-prefixed binary channel between the training parties.

Every record on the wire is::

    u32 little-endian length   (length of everything after this field)
    u8  message type
    payload bytes

The payload of matrix-bearing messages is one or more serialized
:class:`~hefit.encoding.EncodedMatrix` ciphertexts, each self-describing:

    u8  format version (3)
    u32 rows, u32 cols            logical shape
    u8  tiling (0 none / 1 vertical / 2 horizontal)
    u32 slot_count, u32 block_rows   (context compatibility check)
    u32 level (one level for the whole grid)
    then the grid's blocks, row-major:
      slot_count * float64, little-endian

Only ciphertexts travel between the parties, and every slot a party sends
is real, so :func:`pack_matrix` refuses a plaintext matrix and complex
slots before it writes a byte.

The tiling period and the block grid are not sent: the receiver derives
both from the shape and tiling (:func:`~hefit.encoding.layout`), so a frame
cannot state a layout :func:`~hefit.encoding.encode` would not write.
:func:`unpack_matrix` rejects another format version, an empty shape, a
tiling the block cannot hold, a level above the receiver's ``max_level``, a
body shorter than the derived grid, and any NaN or infinite slot.

The in-process :func:`channel_pair` endpoints speak exactly this format
over shared byte buffers, so swapping in a socket later is a transport
change only.
"""

from __future__ import annotations

import struct

import numpy as np

from .emulator import CipherBlock, EmulatorContext
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

_MATRIX_VERSION = 3
_TILING_CODES = {"none": 0, "vertical": 1, "horizontal": 2}
_TILING_NAMES = {v: k for k, v in _TILING_CODES.items()}

_HEAD = struct.Struct("<BIIBIII")
_SLOT = np.dtype("<f8")
_FRAME_LEN = struct.Struct("<I")


def _grid(ctx: EmulatorContext, rows: int, cols: int, tiling: str) -> tuple[int, int]:
    """The block grid :func:`~hefit.encoding.layout` gives a ``rows x cols``
    matrix tiled ``tiling``; :class:`ProtocolError` where
    :func:`~hefit.encoding.encode` could not write one."""
    if rows == 0 or cols == 0:
        raise ProtocolError(f"empty logical shape {rows}x{cols}")
    try:
        return layout(ctx, rows, cols, tiling)[1]
    except TilingError as exc:
        raise ProtocolError(str(exc)) from None


def pack_matrix(matrix: EncodedMatrix) -> bytes:
    """Serialize an encrypted matrix: its header, then its grid's slots as
    float64.

    A plaintext matrix, complex slots, or a block grid other than the one
    the shape and tiling give (it would be misread) raise
    :class:`ProtocolError` before any byte is written.
    """
    ctx = matrix.ctx
    rows, cols = matrix.shape
    if not matrix.encrypted:
        raise ProtocolError(f"a plaintext {rows}x{cols} matrix cannot go on the wire")
    if np.iscomplexobj(matrix.block.slots):
        raise ProtocolError(f"a {rows}x{cols} matrix with complex slots cannot go on the wire")
    grid = _grid(ctx, rows, cols, matrix.tiling)
    if matrix.grid != grid:
        raise ProtocolError(
            f"a {rows}x{cols} matrix tiled {matrix.tiling!r} has a {grid[0]}x{grid[1]} grid, "
            f"not {matrix.grid[0]}x{matrix.grid[1]}"
        )
    head = _HEAD.pack(
        _MATRIX_VERSION,
        rows,
        cols,
        _TILING_CODES[matrix.tiling],
        ctx.slot_count,
        ctx.grid_rows,
        matrix.level,
    )
    # one copy of the slots, straight into the frame
    return b"".join((head, memoryview(np.ascontiguousarray(matrix.block.slots, dtype=_SLOT))))


def unpack_matrix(ctx: EmulatorContext, data: bytes, offset: int = 0) -> tuple[EncodedMatrix, int]:
    """Rebuild a ciphertext from :func:`pack_matrix` bytes; returns (matrix, next offset)."""
    try:
        (version, rows, cols, tcode, slots, block_rows, level) = _HEAD.unpack_from(data, offset)
    except struct.error as exc:
        raise ProtocolError(f"truncated matrix header: {exc}") from None
    if version != _MATRIX_VERSION:
        raise ProtocolError(f"unsupported matrix format version {version}")
    if tcode not in _TILING_NAMES:
        raise ProtocolError(f"unknown tiling code {tcode}")
    if slots != ctx.slot_count or block_rows != ctx.grid_rows:
        raise ProtocolError(
            f"context mismatch: message packed for {slots} slots x {block_rows} rows, "
            f"receiver uses {ctx.slot_count} x {ctx.grid_rows}"
        )
    if level > ctx.max_level:
        raise ProtocolError(f"block level {level} outside 0..{ctx.max_level}")
    tiling = _TILING_NAMES[tcode]
    gr, gc = _grid(ctx, rows, cols, tiling)
    pos = offset + _HEAD.size
    count = gr * gc * slots
    need = count * _SLOT.itemsize
    if len(data) - pos < need:
        raise ProtocolError(f"truncated matrix body: need {need} bytes, have {len(data) - pos}")
    # a copy, so the block never aliases the caller's (possibly mutable) buffer
    body = np.frombuffer(data, dtype=_SLOT, count=count, offset=pos).reshape(gr, gc, slots).copy()
    # the sum is finite when every slot is, and needs no slot-sized mask
    # (a paper-scale batch's mask raised train-paper's peak RSS by 0.3 MiB);
    # only a sum that overflowed needs the slot-wise scan
    with np.errstate(over="ignore", invalid="ignore"):
        total = body.sum()
    if not (np.isfinite(total) or np.isfinite(body).all()):
        raise ProtocolError("matrix body carries a NaN or infinite slot")
    block = CipherBlock(body, level)
    return EncodedMatrix(ctx=ctx, block=block, shape=(rows, cols), tiling=tiling), pos + need


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
