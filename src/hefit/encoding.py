"""Packing real matrices into slot grids.

A matrix is carved into ``grid_rows x grid_cols`` blocks (zero padded), each
block packed row-major into one slot vector; the whole grid is one
:class:`~hefit.emulator.CipherBlock` of shape ``(gr, gc, slot_count)``, so
every grid operation is a single emulator call over all blocks.  Small
matrices can be *tiled*: replicated vertically (each block holds ``s0/c'``
copies of the rows, period ``c'``) or horizontally (``s1/c'`` copies of the
columns).  Tiling periods are powers of two, which is what lets the
rotation-based algorithms treat indices cyclically.

This module also provides the structural slot operations the matrix-product
routines are built from: block-cyclic row/column rotations, the masked
per-row/per-column sums, and the diagonal mask family.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .emulator import CipherBlock, EmulatorContext, log2
from .errors import DataError, ResidualImaginary, ShapeMismatch, TilingError

IMAG_TOLERANCE = 1e-9


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError(f"next_pow2 needs n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class EncodedMatrix:
    """A block grid with its logical shape and tiling metadata.

    ``block`` holds the whole grid as one :class:`~hefit.emulator.CipherBlock`
    of shape ``(grid_rows, grid_cols, slot_count)``.  ``shape`` is the true
    (unpadded, untiled) matrix shape; ``tiling`` is one of
    ``"none" | "vertical" | "horizontal"`` and ``period`` the replication
    period ``c'`` (power of two) when tiled.

    ``+``, ``-`` and ``*`` apply the homomorphic op to every block at once.
    The other operand is a scalar, or a matrix on the same grid whose
    metadata is dropped.  numpy arrays defer to these operators, so
    arithmetic written once runs on both an encoded matrix and a plain array.
    """

    ctx: EmulatorContext
    block: CipherBlock
    shape: tuple[int, int]
    tiling: str = "none"
    period: int | None = None

    __array_ufunc__ = None

    @property
    def grid(self) -> tuple[int, int]:
        return self.block.slots.shape[:2]

    @property
    def encrypted(self) -> bool:
        return self.block.encrypted

    @property
    def level(self) -> float:
        return self.block.level

    # -- grid-wide operations ------------------------------------------------

    def _block_of(self, other):
        if isinstance(other, EncodedMatrix):
            if other.grid != self.grid:
                raise ShapeMismatch(f"grid mismatch: {self.grid} vs {other.grid}")
            return other.block
        return other

    def _with(self, block: CipherBlock) -> "EncodedMatrix":
        return EncodedMatrix(self.ctx, block, self.shape, self.tiling, self.period)

    def __add__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.add(self.block, self._block_of(other)))

    def __radd__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.add(other, self.block))

    def __sub__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.sub(self.block, self._block_of(other)))

    def __rsub__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.sub(other, self.block))

    def __mul__(self, other) -> "EncodedMatrix":
        """Elementwise product; a scalar multiplier costs one CMult per block."""
        return self._with(self.ctx.mult(self.block, self._block_of(other)))

    def __rmul__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.mult(other, self.block))

    def lrot(self, r: int) -> "EncodedMatrix":
        return self._with(self.ctx.lrot(self.block, r))

    def rrot(self, r: int) -> "EncodedMatrix":
        return self._with(self.ctx.rrot(self.block, r))

    def conj(self) -> "EncodedMatrix":
        return self._with(self.ctx.conj(self.block))

    def mul_i(self) -> "EncodedMatrix":
        return self._with(self.ctx.mul_i(self.block))

    def bootstrap(self) -> "EncodedMatrix":
        return self._with(self.ctx.bootstrap(self.block))

    def with_meta(self, shape=None, tiling=None, period=None) -> "EncodedMatrix":
        return replace(
            self,
            shape=self.shape if shape is None else tuple(shape),
            tiling=self.tiling if tiling is None else tiling,
            period=self.period if period is None else period,
        )


# -- encode / decode ----------------------------------------------------------


def encode(
    ctx: EmulatorContext,
    values,
    tiling: str = "none",
    encrypted: bool = True,
    level: int | None = None,
) -> EncodedMatrix:
    """Pack a real matrix into a block grid.

    Padding is always zero.  ``tiling="vertical"`` pads the rows up to
    ``c' = next_pow2(rows)`` and replicates them ``grid_rows/c'`` times
    inside a single block row (requires ``rows <= grid_rows``);
    ``"horizontal"`` does the same along columns.  NaN or infinite values
    raise :class:`~hefit.errors.DataError`.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"encode expects a non-empty 2D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("encode expects finite values, got NaN or infinity")
    rows, cols = arr.shape
    s0, s1 = ctx.grid_rows, ctx.grid_cols

    period = None
    if tiling == "vertical":
        period = next_pow2(rows)
        if period > s0:
            raise TilingError(f"cannot tile {rows} rows vertically in a {s0}-row grid")
        tile = np.zeros((period, cols))
        tile[:rows] = arr
        arr = np.tile(tile, (s0 // period, 1))
        rows = s0
    elif tiling == "horizontal":
        period = next_pow2(cols)
        if period > s1:
            raise TilingError(f"cannot tile {cols} columns horizontally in a {s1}-column grid")
        tile = np.zeros((rows, period))
        tile[:, :cols] = arr
        arr = np.tile(tile, (1, s1 // period))
        cols = s1
    elif tiling != "none":
        raise TilingError(f"unknown tiling {tiling!r}")

    gr = -(-rows // s0)
    gc = -(-cols // s1)
    padded = np.zeros((gr * s0, gc * s1))
    padded[:rows, :cols] = arr
    slots = padded.reshape(gr, s0, gc, s1).swapaxes(1, 2).reshape(gr, gc, s0 * s1)

    block = ctx.encrypt(slots, level) if encrypted else ctx.pack(slots)
    shape = np.asarray(values).shape
    return EncodedMatrix(ctx, block, (int(shape[0]), int(shape[1])), tiling, period)


def padded_array(E: EncodedMatrix) -> np.ndarray:
    """Reassemble the full padded slot grid (complex, introspection only)."""
    s0, s1 = E.ctx.grid_rows, E.ctx.grid_cols
    gr, gc = E.grid
    return E.block.slots.reshape(gr, gc, s0, s1).swapaxes(1, 2).reshape(gr * s0, gc * s1)


def decode(E: EncodedMatrix, role: str = "observer", tag: str | None = None) -> np.ndarray:
    """Recover the logical matrix: first tile copy, padding stripped.

    Decoding encrypted data is the privacy boundary, so every such call is
    recorded on the context's audit trail under ``role``.  Raises
    :class:`~hefit.errors.ResidualImaginary` if the logical region carries
    imaginary residue at or above 1e-9.
    """
    if E.encrypted:
        E.ctx.note_decode(role, tag)
    full = padded_array(E)
    logical = full[: E.shape[0], : E.shape[1]]
    worst = float(np.max(np.abs(logical.imag))) if logical.size else 0.0
    if worst >= IMAG_TOLERANCE:
        raise ResidualImaginary(
            f"imaginary residue {worst:.3e} in decoded {E.shape} matrix"
        )
    return np.array(logical.real, dtype=np.float64)


# -- mask builders -------------------------------------------------------------


def pattern_matrix(ctx: EmulatorContext, pattern: np.ndarray, grid=(1, 1)) -> EncodedMatrix:
    """Replicate one s0 x s1 plaintext block pattern across a grid."""
    pattern = np.asarray(pattern)
    if pattern.shape != (ctx.grid_rows, ctx.grid_cols):
        raise ShapeMismatch(
            f"pattern must be {(ctx.grid_rows, ctx.grid_cols)}, got {pattern.shape}"
        )
    gr, gc = grid
    flat = pattern.astype(np.complex128).ravel()
    block = ctx.pack(np.broadcast_to(flat, (gr, gc, ctx.slot_count)))
    return EncodedMatrix(ctx, block, (gr * ctx.grid_rows, gc * ctx.grid_cols))


def make_mask(
    ctx: EmulatorContext,
    shift: int,
    modulus: int,
    grid=(1, 1),
    complexified: bool = False,
    scale: float = 1.0,
) -> EncodedMatrix:
    """Diagonal selector mask: 1 at (i, j) with j = i + shift (mod modulus).

    The complexified variant packs two diagonals into one mask,
    ``(1/2) M(shift) - (i/2) M(shift + modulus/2)``, so one CMult recombines
    a complex-packed pair.  ``modulus`` must divide both grid dimensions so
    the pattern is uniform across blocks; ``scale`` rides the mask for free.
    """
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    if modulus < 1 or s0 % modulus or s1 % modulus:
        raise ShapeMismatch(f"mask modulus {modulus} must divide grid dims {(s0, s1)}")
    shift = int(shift) % modulus
    i = np.arange(s0)[:, None]
    j = np.arange(s1)[None, :]
    main = ((j - i - shift) % modulus == 0).astype(np.complex128)
    if complexified:
        twin = ((j - i - shift - modulus // 2) % modulus == 0).astype(np.complex128)
        pattern = 0.5 * main - 0.5j * twin
    else:
        pattern = main
    return pattern_matrix(ctx, pattern * scale, grid)


def col_range_mask(ctx: EmulatorContext, stop: int, grid=(1, 1)) -> EncodedMatrix:
    """Plaintext mask keeping block columns ``j < stop``."""
    pattern = np.where(np.arange(ctx.grid_cols) < stop, 1.0, 0.0)
    return pattern_matrix(ctx, np.broadcast_to(pattern, (ctx.grid_rows, ctx.grid_cols)), grid)


# -- structural rotations -------------------------------------------------------


def rot_up(E: EncodedMatrix, k: int) -> EncodedMatrix:
    """Rotate each block's rows up cyclically by k (depth-free, one Rot/block)."""
    k = int(k) % E.ctx.grid_rows
    if k == 0:
        return E
    return E.lrot(k * E.ctx.grid_cols)

def rot_left(E: EncodedMatrix, k: int) -> EncodedMatrix:
    """Rotate each block's columns left cyclically by k, rows kept intact.

    A flat left rotation drags the overflowing tail of each row into the row
    above; masking the clean head and shifting the tail back down one row
    repairs it.  Costs 1 CMult + 2 Rot per block and one level.
    """
    s1 = E.ctx.grid_cols
    k = int(k) % s1
    if k == 0:
        return E
    a1 = E.lrot(k)
    head = a1 * col_range_mask(E.ctx, s1 - k, E.grid)
    return head + (a1 - head).rrot(s1)


def prot_up(E: EncodedMatrix, k: int) -> EncodedMatrix:
    """Partial row rotation: columns j >= s1-k come from the next row up.

    The masked tail is shifted one full row (1 CMult + 1 Rot per block, one
    level); the head stays put.
    """
    s1 = E.ctx.grid_cols
    k = int(k) % s1
    if k == 0:
        return E
    head = E * col_range_mask(E.ctx, s1 - k, E.grid)
    return head + (E - head).lrot(s1)


def col_sums(E: EncodedMatrix) -> EncodedMatrix:
    """Broadcast each row's slot sum to every column of that row.

    Block columns are pre-added, then per block: a left-rotation doubling
    ladder accumulates the row total into column 0, a column-0 mask isolates
    it, and a right-rotation ladder broadcasts it.  Costs
    ``2*log2(s1)`` Rot + 1 CMult per surviving block and one level.
    """
    ctx = E.ctx
    s1 = ctx.grid_cols
    acc = ctx.cmult(fold_columns(E), col_range_mask(ctx, 1).block)
    for t in range(log2(s1)):
        acc = ctx.add(acc, ctx.rrot(acc, 1 << t))
    return EncodedMatrix(ctx, acc, (E.shape[0], s1))


def fold_columns(E: EncodedMatrix) -> CipherBlock:
    """Each row's slot total in column 0 (other columns hold partial sums).

    Block columns are added left to right, then a left-rotation doubling
    ladder folds each row.  Returns a one-block-column grid; costs
    ``log2(s1)`` Rot per block row and no level.
    """
    ctx = E.ctx
    acc = E.block[:, :1]
    for q in range(1, E.grid[1]):
        acc = ctx.add(acc, E.block[:, q : q + 1])
    for t in range(log2(ctx.grid_cols)):
        acc = ctx.add(acc, ctx.lrot(acc, 1 << t))
    return acc


def row_sums(E: EncodedMatrix) -> EncodedMatrix:
    """Broadcast each column's total to every row (maskless, depth-free).

    Block rows are pre-added, then a row-rotation doubling ladder sums the
    s0 rows of each block; every row ends up holding the column totals.
    Costs ``log2(s0)`` Rot per surviving block.

    The ladder runs one block column at a time, so its log2(s0) dependent
    passes stay in cache: over a whole multi-block grid of 32768-slot
    blocks it made a paper-scale training step about 8% slower.
    """
    ctx = E.ctx
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    acc = E.block[:1]
    for p in range(1, E.grid[0]):
        acc = ctx.add(acc, E.block[p : p + 1])
    cols = []
    for q in range(E.grid[1]):
        col = acc[:, q : q + 1]
        for t in range(log2(s0)):
            col = ctx.add(col, ctx.lrot(col, (1 << t) * s1))
        cols.append(col.slots)
    out = CipherBlock(np.concatenate(cols, axis=1), col.level, col.encrypted)
    return EncodedMatrix(ctx, out, (s0, E.shape[1]))
