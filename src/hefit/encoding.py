"""Packing real matrices into slot grids.

A matrix is carved into ``grid_rows x grid_cols`` blocks (zero padded), each
block packed row-major into one :class:`~hefit.emulator.CipherBlock`.  Small
matrices can be *tiled*: replicated vertically (each block holds ``s0/c'``
copies of the rows, period ``c'``) or horizontally (``s1/c'`` copies of the
columns).  Tiling periods are powers of two, which is what lets the
rotation-based algorithms treat indices cyclically.

This module also provides the structural slot operations the matrix-product
routines are built from: block-cyclic row/column rotations, the masked
per-row/per-column sums, and the diagonal mask family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .emulator import CipherBlock, EmulatorContext
from .errors import DataError, ResidualImaginary, ShapeMismatch, TilingError

IMAG_TOLERANCE = 1e-9


def next_pow2(n: int) -> int:
    if n < 1:
        raise ValueError(f"next_pow2 needs n >= 1, got {n}")
    return 1 << (n - 1).bit_length()


def _log2(n: int) -> int:
    return int(math.log2(n))


@dataclass(frozen=True)
class EncodedMatrix:
    """A block grid with its logical shape and tiling metadata.

    ``shape`` is the true (unpadded, untiled) matrix shape; ``tiling`` is
    one of ``"none" | "vertical" | "horizontal"`` and ``period`` the
    replication period ``c'`` (power of two) when tiled.
    """

    ctx: EmulatorContext
    blocks: tuple[tuple[CipherBlock, ...], ...]
    shape: tuple[int, int]
    tiling: str = "none"
    period: int | None = None

    @property
    def grid(self) -> tuple[int, int]:
        return len(self.blocks), len(self.blocks[0])

    @property
    def padded_shape(self) -> tuple[int, int]:
        gr, gc = self.grid
        return gr * self.ctx.grid_rows, gc * self.ctx.grid_cols

    @property
    def encrypted(self) -> bool:
        return self.blocks[0][0].encrypted

    @property
    def level(self) -> float:
        return min(b.level for row in self.blocks for b in row)

    @property
    def copies(self) -> int:
        if self.tiling == "vertical":
            return self.ctx.grid_rows // self.period
        if self.tiling == "horizontal":
            return self.ctx.grid_cols // self.period
        return 1

    # -- block-wise combinators ----------------------------------------------

    def map_blocks(self, fn) -> "EncodedMatrix":
        new = tuple(tuple(fn(b) for b in row) for row in self.blocks)
        return replace(self, blocks=new)

    def _zip(self, other, fn) -> "EncodedMatrix":
        if isinstance(other, EncodedMatrix):
            if other.grid != self.grid:
                raise ShapeMismatch(f"grid mismatch: {self.grid} vs {other.grid}")
            new = tuple(
                tuple(fn(a, b) for a, b in zip(ra, rb))
                for ra, rb in zip(self.blocks, other.blocks)
            )
        else:
            new = tuple(tuple(fn(a, other) for a in row) for row in self.blocks)
        return replace(self, blocks=new)

    def add(self, other) -> "EncodedMatrix":
        return self._zip(other, self.ctx.add)

    def sub(self, other) -> "EncodedMatrix":
        return self._zip(other, self.ctx.sub)

    def rsub(self, other) -> "EncodedMatrix":
        """other - self, for scalar/plaintext minuends."""
        return self._zip(other, lambda a, b: self.ctx.sub(b, a))

    def mul(self, other) -> "EncodedMatrix":
        """Elementwise product; ciphertext/plaintext routing happens per block."""
        return self._zip(other, self.ctx.mult)

    def scale(self, t: float) -> "EncodedMatrix":
        """Multiply every slot by a scalar (one CMult per encrypted block)."""
        return self.map_blocks(lambda b: self.ctx.cmult(b, t))

    def lrot(self, r: int) -> "EncodedMatrix":
        return self.map_blocks(lambda b: self.ctx.lrot(b, r))

    def rrot(self, r: int) -> "EncodedMatrix":
        return self.map_blocks(lambda b: self.ctx.rrot(b, r))

    def conj(self) -> "EncodedMatrix":
        return self.map_blocks(self.ctx.conj)

    def bootstrap(self) -> "EncodedMatrix":
        return self.map_blocks(self.ctx.bootstrap)

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

    make = (lambda v: ctx.encrypt(v, level)) if encrypted else ctx.pack
    blocks = tuple(
        tuple(
            make(padded[p * s0 : (p + 1) * s0, q * s1 : (q + 1) * s1].ravel())
            for q in range(gc)
        )
        for p in range(gr)
    )
    shape = np.asarray(values).shape
    return EncodedMatrix(ctx, blocks, (int(shape[0]), int(shape[1])), tiling, period)


def padded_array(E: EncodedMatrix) -> np.ndarray:
    """Reassemble the full padded slot grid (complex, introspection only)."""
    s0, s1 = E.ctx.grid_rows, E.ctx.grid_cols
    gr, gc = E.grid
    out = np.empty((gr * s0, gc * s1), dtype=np.complex128)
    for p in range(gr):
        for q in range(gc):
            out[p * s0 : (p + 1) * s0, q * s1 : (q + 1) * s1] = E.blocks[p][q].slots.reshape(
                s0, s1
            )
    return out


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
    block = ctx.pack(pattern.ravel())
    gr, gc = grid
    blocks = tuple(tuple(block for _ in range(gc)) for _ in range(gr))
    return EncodedMatrix(ctx, blocks, (gr * ctx.grid_rows, gc * ctx.grid_cols), "none", None)


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


def col_range_mask(ctx: EmulatorContext, stop: int, grid=(1, 1), start: int = 0) -> EncodedMatrix:
    """Plaintext mask keeping block columns ``start <= j < stop``."""
    j = np.arange(ctx.grid_cols)
    pattern = np.where((j >= start) & (j < stop), 1.0, 0.0)
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
    ctx = E.ctx
    s1 = ctx.grid_cols
    k = int(k) % s1
    if k == 0:
        return E
    keep = col_range_mask(ctx, s1 - k).blocks[0][0]

    def fix(b):
        a1 = ctx.lrot(b, k)
        head = ctx.cmult(a1, keep)
        tail = ctx.sub(a1, head)
        return ctx.add(head, ctx.rrot(tail, s1))

    return E.map_blocks(fix)


def prot_up(E: EncodedMatrix, k: int) -> EncodedMatrix:
    """Partial row rotation: columns j >= s1-k come from the next row up.

    The masked tail is shifted one full row (1 CMult + 1 Rot per block, one
    level); the head stays put.
    """
    ctx = E.ctx
    s1 = ctx.grid_cols
    k = int(k) % s1
    if k == 0:
        return E
    keep = col_range_mask(ctx, s1 - k).blocks[0][0]

    def fix(b):
        head = ctx.cmult(b, keep)
        tail = ctx.sub(b, head)
        return ctx.add(head, ctx.lrot(tail, s1))

    return E.map_blocks(fix)


def col_sums(E: EncodedMatrix) -> EncodedMatrix:
    """Broadcast each row's slot sum to every column of that row.

    Block columns are pre-added, then per block: a left-rotation doubling
    ladder accumulates the row total into column 0, a column-0 mask isolates
    it, and a right-rotation ladder broadcasts it.  Costs
    ``2*log2(s1)`` Rot + 1 CMult per surviving block and one level.
    """
    ctx = E.ctx
    s1 = ctx.grid_cols
    gr, gc = E.grid
    col0 = np.zeros((ctx.grid_rows, s1))
    col0[:, 0] = 1.0
    col0_block = ctx.pack(col0.ravel())
    rows = []
    for p in range(gr):
        acc = E.blocks[p][0]
        for q in range(1, gc):
            acc = ctx.add(acc, E.blocks[p][q])
        for t in range(_log2(s1)):
            acc = ctx.add(acc, ctx.lrot(acc, 1 << t))
        acc = ctx.cmult(acc, col0_block)
        for t in range(_log2(s1)):
            acc = ctx.add(acc, ctx.rrot(acc, 1 << t))
        rows.append((acc,))
    return EncodedMatrix(ctx, tuple(rows), (E.shape[0], s1), "none", None)


def row_sums(E: EncodedMatrix) -> EncodedMatrix:
    """Broadcast each column's total to every row (maskless, depth-free).

    Block rows are pre-added, then a row-rotation doubling ladder sums the
    s0 rows of each block; every row ends up holding the column totals.
    Costs ``log2(s0)`` Rot per surviving block.
    """
    ctx = E.ctx
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    gr, gc = E.grid
    cols = []
    for q in range(gc):
        acc = E.blocks[0][q]
        for p in range(1, gr):
            acc = ctx.add(acc, E.blocks[p][q])
        for t in range(_log2(s0)):
            acc = ctx.add(acc, ctx.lrot(acc, (1 << t) * s1))
        cols.append(acc)
    return EncodedMatrix(ctx, (tuple(cols),), (s0, E.shape[1]), "none", None)
