"""Packing real matrices into slot grids.

A matrix is carved into ``grid_rows x grid_cols`` blocks (zero padded), each
block packed row-major into one slot vector; the whole grid is one
:class:`~hefit.emulator.CipherBlock` of shape ``(gr, gc, slot_count)``, so
every grid operation is a single emulator call over all blocks.  Grids
broadcast: an operand with one block on an axis spreads over the other
operand's grid, so a mask is one block and the matrix kernels combine
grids with ``+``, ``-`` and ``*`` alone.  Small matrices can be *tiled*:
replicated vertically (each block holds ``s0/c'`` copies of the rows,
period ``c'``) or horizontally (``s1/c'`` copies of the columns).  Tiling
periods are powers of two, which is what lets the rotation-based
algorithms treat indices cyclically.

This module also provides the structural slot operations the matrix-product
routines are built from: block-cyclic row/column rotations, the masked
per-row/per-column sums, and the diagonal mask family; and the packed
refreshes: of vertically tiled matrices, which bootstraps only their
distinct slots (:func:`bootstrap_tiled`), and of two real matrices as the
real and imaginary parts of one ciphertext (:func:`bootstrap_pair`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .emulator import CipherBlock, EmulatorContext, log2
from .errors import DataError, DepthExhausted, ResidualImaginary, ShapeMismatch, TilingError

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
    ``"none" | "vertical" | "horizontal"``.  ``period``, the replication
    period ``c'`` of a tiled matrix, follows from those two as it does in
    :func:`layout`: ``next_pow2`` of the tiled dimension, None untiled.

    ``+``, ``-`` and ``*`` apply the homomorphic op to every block at once.
    The other operand is a scalar or a matrix whose grid broadcasts: a
    one-block axis spreads over the other's.  The result keeps the metadata
    of the operand whose grid it has (the left one on equal grids); other
    grid pairs, and operands from two contexts, raise
    :class:`~hefit.errors.ShapeMismatch`.  numpy arrays
    defer to these operators, so arithmetic written once runs on both an
    encoded matrix and a plain array.
    """

    ctx: EmulatorContext
    block: CipherBlock
    shape: tuple[int, int]
    tiling: str = "none"

    __array_ufunc__ = None

    @property
    def period(self) -> int | None:
        return _tiling_period(self.shape, self.tiling)

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

    def _with(self, block: CipherBlock) -> "EncodedMatrix":
        return EncodedMatrix(self.ctx, block, self.shape, self.tiling)

    def _binary(self, op, other) -> "EncodedMatrix":
        """``op(self, other)`` over the broadcast grid, operand order kept."""
        if not isinstance(other, EncodedMatrix):
            return self._with(op(self.block, other))
        if other.ctx is not self.ctx:
            raise ShapeMismatch("operands from different contexts")
        (p0, p1), (q0, q1) = self.grid, other.grid
        if q0 in (p0, 1) and q1 in (p1, 1):
            return self._with(op(self.block, other.block))
        if p0 in (q0, 1) and p1 in (q1, 1):
            return other._with(op(self.block, other.block))
        raise ShapeMismatch(f"grids {self.grid} and {other.grid} do not broadcast")

    def __add__(self, other) -> "EncodedMatrix":
        return self._binary(self.ctx.add, other)

    def __radd__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.add(other, self.block))

    def __sub__(self, other) -> "EncodedMatrix":
        return self._binary(self.ctx.sub, other)

    def __rsub__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.sub(other, self.block))

    def __mul__(self, other) -> "EncodedMatrix":
        """Elementwise product; a scalar multiplier costs one CMult per block."""
        return self._binary(self.ctx.mult, other)

    def __rmul__(self, other) -> "EncodedMatrix":
        return self._with(self.ctx.mult(other, self.block))

    def lrot(self, r: int) -> "EncodedMatrix":
        return self._with(self.ctx.lrot(self.block, r))

    def rrot(self, r: int) -> "EncodedMatrix":
        return self._with(self.ctx.rrot(self.block, r))

    def spread(self, step: int, copies: int, window: int = 0) -> "EncodedMatrix":
        """Window ``window`` of each segment copied over the segment
        (:meth:`~hefit.emulator.EmulatorContext.spread`)."""
        return self._with(self.ctx.spread(self.block, step, copies, window))

    def conj(self) -> "EncodedMatrix":
        return self._with(self.ctx.conj(self.block))

    def conj_add(self) -> "EncodedMatrix":
        """``self + self.conj()``, real
        (:meth:`~hefit.emulator.EmulatorContext.conj_add`)."""
        return self._with(self.ctx.conj_add(self.block))

    def mul_i(self) -> "EncodedMatrix":
        return self._with(self.ctx.mul_i(self.block))

    def bootstrap(self) -> "EncodedMatrix":
        return self._with(self.ctx.bootstrap(self.block))

    def with_meta(self, shape=None, tiling=None) -> "EncodedMatrix":
        return replace(
            self,
            shape=self.shape if shape is None else tuple(shape),
            tiling=self.tiling if tiling is None else tiling,
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
    raise :class:`~hefit.errors.DataError`, as do complex and non-numeric
    values (strings, ``None``); rows of different lengths raise
    :class:`~hefit.errors.ShapeMismatch`.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # numpy refuses nested sequences of unequal lengths
        raise ShapeMismatch("encode expects a rectangular matrix, got ragged rows") from None
    if arr.dtype.kind not in "biuf":
        raise DataError(f"encode expects real numbers, got {arr.dtype} values")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ShapeMismatch(f"encode expects a non-empty 2D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise DataError("encode expects finite values, got NaN or infinity")
    rows, cols = arr.shape
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    period, (gr, gc) = layout(ctx, rows, cols, tiling)
    padded = np.zeros((gr * s0, gc * s1))
    # a copy at every period of the tiled axis, one copy otherwise
    row_step = period if tiling == "vertical" else gr * s0
    col_step = period if tiling == "horizontal" else gc * s1
    for r in range(0, gr * s0, row_step):
        for c in range(0, gc * s1, col_step):
            padded[r : r + rows, c : c + cols] = arr
    slots = padded.reshape(gr, s0, gc, s1).swapaxes(1, 2).reshape(gr, gc, s0 * s1)

    block = ctx.encrypt(slots, level) if encrypted else ctx.pack(slots)
    return EncodedMatrix(ctx, block, (rows, cols), tiling)


def _tiling_period(shape: tuple[int, int], tiling: str) -> int | None:
    """The replication period ``c'`` of a ``shape`` matrix tiled ``tiling``:
    ``next_pow2`` of its tiled dimension, None untiled."""
    axis = {"vertical": 0, "horizontal": 1}.get(tiling)
    return None if axis is None else next_pow2(shape[axis])


def layout(ctx: EmulatorContext, rows: int, cols: int, tiling: str = "none"):
    """``(period, grid)`` that :func:`encode` gives a ``rows x cols`` matrix;
    a tiling that does not fit the block raises :class:`~hefit.errors.TilingError`."""
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    period = _tiling_period((rows, cols), tiling)
    if tiling == "vertical":
        if period > s0:
            raise TilingError(f"cannot tile {rows} rows vertically in a {s0}-row grid")
        rows = s0
    elif tiling == "horizontal":
        if period > s1:
            raise TilingError(f"cannot tile {cols} columns horizontally in a {s1}-column grid")
        cols = s1
    elif tiling != "none":
        raise TilingError(f"unknown tiling {tiling!r}")
    return period, (-(-rows // s0), -(-cols // s1))


def padded_array(E: EncodedMatrix) -> np.ndarray:
    """Reassemble the full padded slot grid, in the slots' dtype (float64
    or complex128; introspection only)."""
    s0, s1 = E.ctx.grid_rows, E.ctx.grid_cols
    gr, gc = E.grid
    return E.block.slots.reshape(gr, gc, s0, s1).swapaxes(1, 2).reshape(gr * s0, gc * s1)


def decode(E: EncodedMatrix, role: str = "observer", tag: str | None = None) -> np.ndarray:
    """Recover the logical matrix: first tile copy, padding stripped.

    Decoding encrypted data is the privacy boundary, so every such call is
    recorded on the context's audit trail under ``role``.  Raises
    :class:`~hefit.errors.ResidualImaginary` if the logical region of
    complex slots carries imaginary residue at or above 1e-9 (or NaN);
    real slots have none to scan.
    """
    if E.encrypted:
        E.ctx.note_decode(role, tag)
    full = padded_array(E)
    logical = full[: E.shape[0], : E.shape[1]]
    if logical.dtype.kind == "c":
        worst = float(np.max(np.abs(logical.imag))) if logical.size else 0.0
        if not worst < IMAG_TOLERANCE:
            raise ResidualImaginary(
                f"imaginary residue {worst:.3e} in decoded {E.shape} matrix"
            )
    return np.array(logical.real, dtype=np.float64)


def leading_copies(E: EncodedMatrix, copies: int = 1) -> EncodedMatrix:
    """The first ``copies`` period copies of each block of a tiled matrix:
    its first ``copies * period`` rows if vertically tiled, the first
    ``copies * period`` columns of every row if horizontally tiled.

    The result keeps E's metadata, and its blocks hold that many rows or
    columns: ops run on it in :meth:`~hefit.emulator.EmulatorContext.narrowed`
    blocks of its size.  A copy stands for every copy only if each is the
    first bit for bit, so one that differs (as any slot, a zero's sign or a
    NaN's payload) raises :class:`~hefit.errors.TilingError`.
    """
    ctx, p = E.ctx, E.period
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    slots = E.block.slots
    # per tiled axis: (number of copies, slots of one copy within the
    # block) and the slots' bits, as many words per slot as the dtype has
    if E.tiling == "vertical":
        lead, copy = (s0 // p,), p * s1
    elif E.tiling == "horizontal":
        lead, copy = (s0, s1 // p), p
    else:
        raise TilingError(f"leading_copies needs a tiled matrix, got {E.tiling!r}")
    bits = np.ascontiguousarray(slots).view(np.uint64)
    tiles = bits.reshape(*E.grid, *lead, bits.shape[-1] // ctx.slot_count * copy)
    if not (tiles == tiles[..., :1, :]).all():
        raise TilingError(f"{E.tiling}ly tiled matrix: a period copy differs from the first")
    first = slots.reshape(*E.grid, *lead, copy)[..., :copies, :]
    return E._with(CipherBlock(first.reshape(*E.grid, -1), E.level, E.encrypted))


# -- packed refresh of vertically tiled matrices ------------------------------


def first_period(E: EncodedMatrix, scale: float = 1.0) -> EncodedMatrix:
    """Untile a vertically tiled matrix: its first period of rows, times ``scale``.

    The result is laid out as an untiled :func:`encode` would lay it out.
    Costs 1 CMult per block and one level, so an encrypted input needs level
    1.
    """
    if E.tiling != "vertical":
        raise TilingError(f"first_period needs a vertically tiled matrix, got {E.tiling!r}")
    if E.encrypted and E.level < 1:
        raise DepthExhausted(f"first_period: mask needs level 1, operand at {E.level}")
    rows = np.arange(E.ctx.grid_rows)[:, None]
    cut = E * pattern_matrix(E.ctx, np.where(rows < E.period, scale, 0.0))
    return EncodedMatrix(E.ctx, cut.block, E.shape)


def bootstrap_tiled(*mats: EncodedMatrix) -> list[EncodedMatrix]:
    """Bootstrap vertically tiled matrices through packed ciphertexts.

    A tiled block repeats one period of rows ``k = grid_rows / period``
    times, so only ``period * grid_cols`` of its slots are distinct.  Each
    block is cut to its first period (:func:`first_period`; an untiled input
    is taken as that cut already), the pieces are rotated to disjoint
    offsets and summed, ``k`` to a ciphertext, and each sum is bootstrapped
    once.  Unpacking rotates every piece back, masks it to its first period
    and re-tiles it with ``log2(k)`` rotate-add doublings, block by block;
    the emulator computes the mask and the doublings as copies of that
    first window (:meth:`~hefit.emulator.EmulatorContext.spread`).  This is
    how sparse-slot bootstrapping is used: compact the distinct slots,
    refresh, expand.

    The inputs share one period and have one block row.  With ``B`` blocks
    in ``P = ceil(B / k)`` packed ciphertexts the refresh costs ``P``
    Bootstrap, ``2B`` CMult (one less per block of an untiled input),
    ``2(B - P) + B log2(k)`` Rot and ``(B - P) + B log2(k)`` Add, and returns
    the matrices tiled at level ``max_level - 1``.  One-copy matrices
    (``k = 1``) have nothing to pack and are bootstrapped directly.
    Plaintext inputs come back unchanged.
    """
    if not any(m.encrypted for m in mats):
        return list(mats)
    ctx = mats[0].ctx
    periods = {next_pow2(m.shape[0]) for m in mats}
    if (
        len(periods) != 1
        or any(m.tiling not in ("vertical", "none") or m.grid[0] != 1 for m in mats)
    ):
        raise TilingError(
            f"bootstrap_tiled needs vertically tiled or untiled matrices with one "
            f"block row and one period, got {[(m.tiling, m.shape, m.grid) for m in mats]}"
        )
    period = periods.pop()
    k = ctx.grid_rows // period
    if k == 1:
        return [m.bootstrap().with_meta(tiling="vertical") for m in mats]

    heads = [m if m.tiling == "none" else first_period(m) for m in mats]
    width = period * ctx.grid_cols  # slots of one piece
    packed: list[CipherBlock] = []
    for j, piece in enumerate(h.block[0, q] for h in heads for q in range(h.grid[1])):
        piece = ctx.rrot(piece, (j % k) * width)
        if j % k:
            packed[-1] = ctx.add(packed[-1], piece)
        else:
            packed.append(piece)
    packed = [ctx.bootstrap(p) for p in packed]

    # unpacked and re-tiled block by block, each piece from its own rotation
    out, j = [], 0
    for h in heads:
        blocks = []
        for _ in range(h.grid[1]):
            piece = ctx.spread(ctx.lrot(packed[j // k], (j % k) * width), width, k)
            blocks.append(piece.slots)
            j += 1
        block = CipherBlock(np.stack(blocks)[None], piece.level, True)
        out.append(EncodedMatrix(ctx, block, h.shape, "vertical"))
    return out


def bootstrap_pair(a, b):
    """Bootstrap two real matrices on one grid as one complex ciphertext.

    Bootstrapping refreshes complex slots, so ``p = a + i b`` carries both:
    after one bootstrap, ``(p + conj p) / 2`` is ``a`` and
    ``(p - conj p) / (2i)`` is ``b``.  Multiplying by ``i`` is depth-free,
    so either input may be at level 0.  Costs 1 Bootstrap, 1 Conj, 3 Add
    and 2 CMult per block and returns both, with their own metadata, at
    ``max_level - 1``.  Both halves are real by construction, so they come
    back as float64 slots (:func:`_real`).  Slots must be real: an
    imaginary part of ``b`` leaks into ``a`` (and one of ``a`` into ``b``).
    Plaintext matrices and numpy arrays come back unchanged; matrices on
    different grids raise :class:`~hefit.errors.ShapeMismatch`, even where
    one would broadcast.
    """
    if not any(isinstance(m, EncodedMatrix) and m.encrypted for m in (a, b)):
        return a, b
    if a.grid != b.grid:
        raise ShapeMismatch(f"bootstrap_pair: grids differ, {a.grid} vs {b.grid}")
    p = (a + b.mul_i()).bootstrap()
    pc = p.conj()
    return _real((p + pc) * 0.5), b._with(_real((p - pc) * -0.5j).block)


def _real(E: EncodedMatrix) -> EncodedMatrix:
    """E with float64 slots, its real parts, where every imaginary part is
    zero (of either sign); otherwise, a NaN among them included, E itself.

    For finite slots each half :func:`bootstrap_pair` unpacks has zero
    imaginary parts, so this drops only zeros and moves no real part.
    """
    slots = E.block.slots
    if slots.imag.any():
        return E
    return E._with(CipherBlock(np.ascontiguousarray(slots.real), E.level, E.encrypted))


# -- mask builders -------------------------------------------------------------


def pattern_matrix(ctx: EmulatorContext, pattern: np.ndarray) -> EncodedMatrix:
    """One plaintext block holding an s0 x s1 pattern; its grid broadcasts
    over any other.  The pattern may be any array that broadcasts to
    s0 x s1, such as one row of s1 values or one column of s0."""
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    try:
        pattern = np.broadcast_to(pattern, (s0, s1))
    except ValueError:
        raise ShapeMismatch(
            f"pattern must broadcast to {(s0, s1)}, got {np.shape(pattern)}"
        ) from None
    # one C-order copy, none if the pattern already is one: astype keeps a
    # broadcast row's layout, and the reshape then copies it again; real
    # patterns stay real
    dtype = np.complex128 if np.iscomplexobj(pattern) else np.float64
    block = ctx.pack(np.ascontiguousarray(pattern, dtype).reshape(1, 1, ctx.slot_count))
    return EncodedMatrix(ctx, block, (ctx.grid_rows, ctx.grid_cols))


def make_mask(
    ctx: EmulatorContext,
    shift: int,
    modulus: int,
    complexified: bool = False,
    scale: float = 1.0,
) -> np.ndarray:
    """Diagonal selector mask: 1 at (i, j) with j = i + shift (mod modulus).

    The pattern depends only on ``(i mod modulus, j mod modulus)``, so this
    returns its ``modulus x modulus`` tile, which the diagonal kernels hand
    to :meth:`~hefit.emulator.EmulatorContext.place_passes`.  The
    complexified variant packs two diagonals into one mask,
    ``(1/2) M(shift) - (i/2) M(shift + modulus/2)``, so one CMult recombines
    a complex-packed pair.  ``modulus`` must divide both grid dimensions so
    the pattern is uniform across blocks; ``scale`` rides the mask for free.
    Only the complexified tile is complex.
    """
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    if modulus < 1 or s0 % modulus or s1 % modulus:
        raise ShapeMismatch(f"mask modulus {modulus} must divide grid dims {(s0, s1)}")
    shift = int(shift) % modulus
    # column r sits on the diagonal of row i when r = i + shift
    tile = np.zeros((modulus, modulus), dtype=np.complex128 if complexified else np.float64)
    rows = np.arange(modulus)
    if complexified:
        tile[rows, (rows + shift) % modulus] = 0.5 * scale
        # += keeps the real zero positive (-0.5j * scale may carry -0.0)
        tile[rows, (rows + shift + modulus // 2) % modulus] += -0.5j * scale
    else:
        tile[rows, (rows + shift) % modulus] = scale
    return tile


def col_range_mask(ctx: EmulatorContext, stop: int) -> EncodedMatrix:
    """Plaintext mask keeping block columns ``j < stop``."""
    return pattern_matrix(ctx, np.where(np.arange(ctx.grid_cols) < stop, 1.0, 0.0))


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
    head = a1 * col_range_mask(E.ctx, s1 - k)
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
    head = E * col_range_mask(E.ctx, s1 - k)
    return head + (E - head).lrot(s1)


def col_sums(E: EncodedMatrix) -> EncodedMatrix:
    """Broadcast each row's slot sum to every column of that row; of a
    horizontally tiled matrix, each period's sum to every column of that
    period.

    Block columns are added left to right.  Then, per block, the ladder a
    backend runs over each segment of ``w`` columns (the whole row, or one
    period of a tiled matrix): a left-rotation doubling ladder accumulates
    the segment's total into its first column, a mask on that column
    isolates it, and a right-rotation ladder broadcasts it.  The emulator
    computes that in closed form
    (:meth:`~hefit.emulator.EmulatorContext.totals`, ``axis=1``): each
    segment's total by the fold's halving tree, written to every column of
    the segment.  Costs ``2*log2(w)`` Rot + 1 CMult per surviving block and
    one level.  The softmax's row totals run this on its tiled exps, so
    every period copy takes its own total;
    :meth:`~hefit.emulator.EmulatorContext.place_passes` runs the whole-row
    reduction inside ``diag_abt``.
    """
    ctx = E.ctx
    width = E.period if E.tiling == "horizontal" else None
    acc = ctx.totals(_add_blocks(E, 1), axis=1, width=width)
    return EncodedMatrix(ctx, acc, (E.shape[0], ctx.grid_cols))


def fold_columns(E: EncodedMatrix) -> EncodedMatrix:
    """Each row's slot total in column 0 (other columns hold partial sums).

    Block columns are added left to right, then a left-rotation doubling
    ladder (``rot_sum``) folds each row.  Returns an untiled ``(rows, 1)``
    matrix on one block column; costs ``log2(s1)`` Rot per block row and no
    level.
    """
    ctx = E.ctx
    acc = ctx.rot_sum(_add_blocks(E, 1), [1 << t for t in range(log2(ctx.grid_cols))])
    return EncodedMatrix(ctx, acc, (E.shape[0], 1))


def _add_blocks(E: EncodedMatrix, axis: int) -> CipherBlock:
    """The sum of E's blocks along grid ``axis`` (0: block rows, 1: block
    columns), added in order: one block on that axis."""
    head = (slice(None),) * axis
    acc = E.block[(*head, slice(0, 1))]
    for q in range(1, E.grid[axis]):
        acc = E.ctx.add(acc, E.block[(*head, slice(q, q + 1))])
    return acc


def row_sums(E: EncodedMatrix) -> EncodedMatrix:
    """Broadcast each column's total to every row (maskless, depth-free).

    Block rows are pre-added, then a backend runs a row-rotation doubling
    ladder that wraps around each block, ``rot_sum`` by ``s1, 2 s1, ...,
    s0 s1 / 2``; every row ends up holding the column totals.  The emulator
    computes that in closed form
    (:meth:`~hefit.emulator.EmulatorContext.totals`, ``axis=0``): each
    column's total once, written to every row, so all rows are equal (the
    ladder's row 0 bit for bit; its other rows differ by rounding).  Costs ``log2(s0)``
    Rot per surviving block.  ``row_major_atb`` runs this;
    :meth:`~hefit.emulator.EmulatorContext.place_passes` runs the same
    reduction inside ``diag_atb``.
    """
    ctx = E.ctx
    acc = ctx.totals(_add_blocks(E, 0), axis=0)
    return EncodedMatrix(ctx, acc, (ctx.grid_rows, E.shape[1]))
