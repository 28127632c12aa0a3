"""Matrix products over encoded operands.

Four routines, two packings each of ``A B^T`` (shapes ``(a,b) x (c,b)``) and
``A^T B`` (shapes ``(a,c) x (a,b)``):

* :func:`diag_abt` / :func:`diag_atb` — complex-packed diagonal extraction
  against a tiled operand; c/2 diagonal passes recombined by conjugation
  (``x + conj(x)``, :meth:`~hefit.encoding.EncodedMatrix.conj_add`), which
  returns the real product as real slots.  Each pass's product is reduced
  to row totals (``col_sums``) or column totals (``row_sums``) and masked
  to the pass's diagonals.  The kernels build the packed tiled operand on
  its distinct slots (:func:`~hefit.encoding.leading_copies`) and one
  ``c x c`` mask tile per pass (:func:`~hefit.encoding.make_mask`);
  :meth:`~hefit.emulator.EmulatorContext.place_passes` runs the passes in
  closed form from them, one pass's product at a time.
* :func:`col_major_abt` / :func:`row_major_atb` — one mask-replicate-reduce
  pass per row/column of the small dimension; simpler, rotation-heavier.

All four are written in :class:`~hefit.encoding.EncodedMatrix` operators,
which broadcast the one-block masks and a one-block row or column.

:data:`KERNELS` states how each executed kernel is called; :data:`ALGORITHMS`
adds the ``jin_*`` baselines, which are priced but never executed.
:func:`count_formula` gives the exact closed-form ledger cost (CMult, Mult,
Rot) of each routine for a given shape and slot grid; the executed ledgers
match it operation for operation, which the test suite pins with zero
tolerance.
"""

from __future__ import annotations

import numpy as np

from .emulator import log2
from .encoding import (
    EncodedMatrix,
    col_range_mask,
    fold_columns,
    leading_copies,
    make_mask,
    next_pow2,
    pattern_matrix,
    rot_left,
    rot_up,
    row_sums,
)
from .errors import ShapeMismatch


def _check_pair(A: EncodedMatrix, B: EncodedMatrix, a_tiling: str, b_tiling: str, name: str):
    if A.ctx is not B.ctx:
        raise ShapeMismatch(f"{name}: operands from different contexts")
    if A.tiling != a_tiling or B.tiling != b_tiling:
        raise ShapeMismatch(
            f"{name}: expected tilings ({a_tiling}, {b_tiling}), "
            f"got ({A.tiling}, {B.tiling})"
        )


# -- diagonal-extraction pair ---------------------------------------------------


def diag_abt(A: EncodedMatrix, B: EncodedMatrix) -> EncodedMatrix:
    """``A B^T`` for A (a x b) untiled, B (c x b) vertically tiled.

    The tiled B is complex-packed (rows k and k+c/2 share a slot), so only
    c/2 rotated copies are needed; each pass multiplies, sums each row
    (``col_sums``), and masks the pair of diagonals it contributes.  B's
    blocks repeat its first c rows, so B is packed on those rows alone
    (:func:`~hefit.encoding.leading_copies`), and the passes run in closed
    form from them (:meth:`~hefit.emulator.EmulatorContext.place_passes`).
    A final conjugation doubles the real part; at c = 1 the one diagonal
    needs neither packing nor conjugation.  Output: (a x c) horizontally
    tiled, period c; consumes 3 levels.
    """
    _check_pair(A, B, "none", "vertical", "diag_abt")
    if A.shape[1] != B.shape[1]:
        raise ShapeMismatch(f"diag_abt: inner dims differ, {A.shape} vs {B.shape}")
    ctx = A.ctx
    c = B.period
    if c > ctx.grid_cols:
        raise ShapeMismatch(f"diag_abt: period {c} exceeds block columns {ctx.grid_cols}")

    # B has one block row, which multiplies every block row of A
    period = leading_copies(B)
    with ctx.narrowed(rows=c):
        packed = period if c == 1 else period + rot_up(period, c // 2).mul_i()
    tiles = [make_mask(ctx, k, c, complexified=c > 1) for k in range(max(c // 2, 1))]
    acc = A._with(ctx.place_passes(A.block, packed.block, tiles, axis=1))
    out = acc if c == 1 else acc.conj_add()
    return out.with_meta(shape=(A.shape[0], B.shape[0]), tiling="horizontal")


def diag_atb(A: EncodedMatrix, B: EncodedMatrix, scale: float = 1.0) -> EncodedMatrix:
    """``scale * A^T B`` for A (a x c) horizontally tiled, B (a x b) untiled.

    ``scale`` rides the diagonal masks for free; the trainer folds lr/N into it.

    A is complex-packed via a columnwise rotation; each diagonal pass aligns
    operands either by rotating A cleanly (costs a level per pass) or, when
    A sits at the lower level, by flat-rotating A and partially row-rotating
    B instead (the rotation-heavy branch saves A's budget), multiplies,
    sums each column (``row_sums``) and masks its diagonals.  A's rows
    repeat its first c columns, but the last copy of a row reads the next
    row where a rotation wraps, so A is packed on its first two copies
    (:func:`~hefit.encoding.leading_copies`), the first standing for all but
    the last, and the passes run in closed form from them
    (:meth:`~hefit.emulator.EmulatorContext.place_passes`).  As in
    :func:`diag_abt`, c = 1 skips the packing and the conjugation.  Output:
    (c x b) vertically tiled, period c.
    """
    _check_pair(A, B, "horizontal", "none", "diag_atb")
    if A.shape[0] != B.shape[0]:
        raise ShapeMismatch(f"diag_atb: outer dims differ, {A.shape} vs {B.shape}")
    ctx = A.ctx
    c = A.period
    if c > ctx.grid_rows:
        raise ShapeMismatch(f"diag_atb: period {c} exceeds block rows {ctx.grid_rows}")

    # A has one block column, which multiplies every block column of B
    width = min(2 * c, ctx.grid_cols)
    period = leading_copies(A, width // c)
    with ctx.narrowed(cols=width):
        packed = period if c == 1 else period + rot_left(period, c // 2).mul_i()
    tiles = [make_mask(ctx, -k, c, complexified=c > 1, scale=scale) for k in range(max(c // 2, 1))]
    acc = B._with(ctx.place_passes(B.block, packed.block, tiles, axis=0, partial=A.level < B.level))
    out = acc if c == 1 else acc.conj_add()
    return out.with_meta(shape=(A.shape[1], B.shape[1]), tiling="vertical")


# -- mask-replicate-reduce pair -------------------------------------------------


def col_major_abt(A: EncodedMatrix, B: EncodedMatrix) -> EncodedMatrix:
    """``A B^T`` with both operands untiled; one pass per row of B.

    Row j of B is isolated, replicated to every block row, multiplied into
    A, and the row sums are parked in output column j.  Output: (a x c)
    untiled; consumes 3 levels (isolate, product, park).
    """
    _check_pair(A, B, "none", "none", "col_major_abt")
    if A.shape[1] != B.shape[1]:
        raise ShapeMismatch(f"col_major_abt: inner dims differ, {A.shape} vs {B.shape}")
    ctx = A.ctx
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    c = B.shape[0]
    if B.grid[0] != 1 or c > s1:
        raise ShapeMismatch(f"col_major_abt: B rows {c} must fit one block and {s1} columns")

    col0 = col_range_mask(ctx, 1)

    acc = None
    for j in range(c):
        picked = B.spread(s1, s0, window=j)
        term = (fold_columns(A * picked) * col0).rrot(j)
        acc = term if acc is None else acc + term
    return acc.with_meta(shape=(A.shape[0], c))


def row_major_atb(A: EncodedMatrix, B: EncodedMatrix) -> EncodedMatrix:
    """``A^T B`` with both operands untiled; one pass per column of A.

    Column j of A is pulled into column 0, broadcast across each row,
    multiplied into B, and the column totals are masked into output row j.
    Output: (c x b) untiled; consumes 3 levels (isolate, product, park).
    """
    _check_pair(A, B, "none", "none", "row_major_atb")
    if A.shape[0] != B.shape[0]:
        raise ShapeMismatch(f"row_major_atb: outer dims differ, {A.shape} vs {B.shape}")
    ctx = A.ctx
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    c = A.shape[1]
    if A.grid[1] != 1 or c > s0:
        raise ShapeMismatch(f"row_major_atb: A columns {c} must fit one block and {s0} rows")

    acc = None
    for j in range(c):
        picked = A.lrot(j).spread(1, s1)
        sums = row_sums(picked * B)
        term = sums * pattern_matrix(ctx, np.arange(s0)[:, None] == j)
        acc = term if acc is None else acc + term
    return acc.with_meta(shape=(c, B.shape[1]))


# -- kernel table ---------------------------------------------------------------

# name -> (function, computes A B^T rather than A^T B, A's tiling, B's tiling,
# A enters one level below B: diag_atb's partial-rotation branch)
KERNELS = {
    "diag_abt": (diag_abt, True, "none", "vertical", False),
    "diag_atb_rl": (diag_atb, False, "horizontal", "none", False),
    "diag_atb_pru": (diag_atb, False, "horizontal", "none", True),
    "col_major": (col_major_abt, True, "none", "none", False),
    "row_major": (row_major_atb, False, "none", "none", False),
}

# the executed kernels, then the priced-only baselines
ALGORITHMS = (*KERNELS, "jin_abt", "jin_atb")


# -- closed-form ledger costs ---------------------------------------------------


def count_formula(algorithm: str, shape: tuple[int, int, int], s0: int, s1: int) -> dict[str, int]:
    """Exact {CMult, Mult, Rot} cost of one product on an (s0, s1) slot grid.

    ``shape = (a, b, c)`` with the small dimension c (classes).  The diagonal
    kernels run at the padded period ``next_pow2(c)`` and are priced there.
    The ``diag_atb_*`` variants name the two alignment branches.  ``jin_*`` are
    the per-sample-packing baseline estimates (never executed here): ABᵀ
    needs b*c plain products and no rotations; AᵀB rotates every product
    down its block, log2(s0*s1) steps each.
    """
    a, b, c = (int(v) for v in shape)
    if min(a, b, c) < 1:
        raise ShapeMismatch(f"count_formula: bad shape {shape}")
    m = -(-a // s0)
    n = -(-b // s1)
    ls0, ls1 = log2(s0), log2(s1)
    cp = next_pow2(c)
    h = cp // 2

    if algorithm == "diag_abt":
        if c == 1:
            return {"CMult": 2 * m, "Mult": m * n, "Rot": 2 * m * ls1}
        return {"CMult": cp * m, "Mult": h * m * n, "Rot": h * (n + 2 * m * ls1)}
    if algorithm == "diag_atb_rl":
        if c == 1:
            return {"CMult": n, "Mult": m * n, "Rot": n * ls0}
        return {"CMult": h * (m + n), "Mult": h * m * n, "Rot": h * (2 * m + n * ls0)}
    if algorithm == "diag_atb_pru":
        if c == 1:
            return {"CMult": n, "Mult": m * n, "Rot": n * ls0}
        return {
            "CMult": m + (h - 1) * m * n + h * n,
            "Mult": h * m * n,
            "Rot": 2 * m + (h - 1) * (m + m * n) + h * n * ls0,
        }
    if algorithm in ("col_major", "row_major"):
        return {
            "CMult": c * (n + m),
            "Mult": c * m * n,
            "Rot": c * (n * ls0 + m * ls1 + m) - m,
        }
    if algorithm == "jin_abt":
        return {"CMult": 0, "Mult": b * c, "Rot": 0}
    if algorithm == "jin_atb":
        return {"CMult": 0, "Mult": b * c, "Rot": b * c * log2(s0 * s1)}
    raise ShapeMismatch(f"count_formula: unknown algorithm {algorithm!r}")
