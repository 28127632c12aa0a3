"""Slot-level emulator for leveled homomorphic arithmetic on packed vectors.

A ciphertext is modeled as a fixed-width vector of slots plus a remaining
multiplicative budget (its *level*).  CKKS slots are complex, but most of
what a training step computes is real by construction, so a slot array is
float64 where its values are real and complex128 only where a packing
makes them complex (:meth:`EmulatorContext.mul_i`, complex plaintexts such
as the complexified diagonal masks).  Real operands give real results,
numpy promotes a mixed pair to complex, and the conjugate recombination
``x + conj(x)`` (:meth:`EmulatorContext.conj_add`) turns a complex value
back into float64 slots.  The real part of every slot is what complex128
slots would hold (an exact zero may differ in sign), so the dtype moves no
decoded value and no ledger entry; it only spares real slots complex
arithmetic.  A :class:`CipherBlock` may
hold a whole grid of such vectors, ``slots`` of shape ``(..., slot_count)``
with one level for all of them: every primitive is then one numpy call that
broadcasts its operands over the leading axes and ledgers one op per block
of the result.  The rotate-and-sum ladders the matrix products and the
softmax are built from (``acc = acc + lrot(acc, s)`` per step) run as one
primitive, :meth:`EmulatorContext.rot_sum`, which ledgers the same ops as
that loop but writes each step into a preallocated buffer.  Three closed
forms take the shape of a ladder, not a mask to inspect:
:meth:`EmulatorContext.spread` copies one window of each segment across
the segment (a window mask, then a broadcast ladder);
:meth:`EmulatorContext.totals` writes each column's total to every row
(the ladder that wraps around the whole vector; the ladder's bit for bit in
its first row, up to rounding in the others) or the total of each row, or
of each segment of a row, to every slot it sums (a fold, a first-slot mask
and a broadcast, bit for bit); and
:meth:`EmulatorContext.place_passes` is a diagonal matrix product's passes
from the distinct slots of its tiled operand: each pass aligns that one
period, forms its product against the other operand with the period laid
over its copies, and takes its totals; the totals times the diagonal masks
are summed on one period of the result and tiled.  All of them ledger what
the composition would, op for op.  :meth:`EmulatorContext.narrowed` makes
blocks of fewer rows or columns for a scope and restores them on exit: the
softmax computes one period copy of its horizontally tiled input there and
tiles the result once, and ``place_passes`` aligns its period there; since
every op ledgers per block, not per slot, the ledger is the full blocks'.
Each op kind has one seam, a method that ledgers it (when encrypted) and
computes its slots: ``_product`` (Mult, CMult and the fallback Bootstrap),
``_sum`` (Add), ``_ladder`` (a ladder's Adds and Rots), ``_conjugated``
(Conj), ``lrot`` (Rot) and ``bootstrap`` (Bootstrap).  The primitives and the closed forms compute their slots only
through the seams, on the arrays they reduce, and ``_charge`` is the one
caller of :meth:`OpLedger.record`, so a subclass overriding the seams sees
every op.  Slot arithmetic is exact IEEE double precision — the library
has no noise model; ``scripts/precision_probe.py`` adds one by subclassing
the context — so a plaintext computation that mirrors the same operation
order is a bit-exact oracle for the emulated one.  What the emulator does
track faithfully:

* level bookkeeping (multiplications consume one level; a multiply at level 0
  raises :class:`~hefit.errors.DepthExhausted` unless auto-bootstrap is on;
  the pipelines refresh explicitly and never turn it on: the softmax runs
  at every budget of at least 4 levels, training at every budget of at
  least 5),
* an operation ledger priced with fixed per-op cost weights, giving a latency
  estimate for the sequence of homomorphic ops that a real backend would
  execute.

Plaintext blocks (``encrypted=False``) flow through the same code paths with
an infinite level and are never ledgered, which lets any pipeline double as
its own reference implementation.
"""

from __future__ import annotations

import contextlib
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DepthExhausted, LevelError, SlotCountMismatch

OP_KINDS = ("Add", "CMult", "Mult", "Rot", "Conj", "Bootstrap")

# Per-op latency estimates in milliseconds.  Conjugation is a Galois
# automorphism like a rotation, so it shares the rotation weight.
DEFAULT_OP_WEIGHTS_MS = {
    "Add": 0.085,
    "CMult": 0.9,
    "Mult": 1.6,
    "Rot": 1.2,
    "Conj": 1.2,
    "Bootstrap": 159.0,
}

PLAINTEXT_LEVEL = math.inf


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def log2(n: int) -> int:
    return int(math.log2(n))


def tree_sum(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Totals over ``axis``, a power of two long, kept as a length-1 axis.

    Adjacent pairs are added, then adjacent pairs of those, and so on: the
    order in which a doubling ladder ``rot_sum(x, [1, 2, 4, ...])`` sums its
    first slot, so the totals over the last axis equal that slot bit for
    bit.  Over the rows of a block (``axis=-2``) it pairs the slots that
    the ladder wrapping around the whole vector,
    ``rot_sum(x, [s1, 2 s1, ..., slot_count / 2])``, pairs in its first row
    (:meth:`EmulatorContext.totals`).
    """
    head = (slice(None),) * (axis % a.ndim)
    while a.shape[axis] > 1:
        a = a[(*head, slice(0, None, 2))] + a[(*head, slice(1, None, 2))]
    return a


_REAL, _COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)


def _as_slots(values) -> np.ndarray:
    """``values`` as complex128 if complex, float64 otherwise; no copy when
    they already are one of the two."""
    # every op passes a fresh array of one of the two: the fast path
    if type(values) is np.ndarray and (values.dtype is _REAL or values.dtype is _COMPLEX):
        return values
    arr = np.asarray(values)
    return arr.astype(_COMPLEX if arr.dtype.kind == "c" else _REAL, copy=False)


def _integer_level(value, what: str) -> int:
    """``value`` as an int; a bool or a non-integer raises :class:`LevelError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise LevelError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class CipherBlock:
    """Packed slot vectors, shape ``(..., slot_count)``, sharing one budget.

    The leading axes index the blocks of a grid; a bare ``(slot_count,)``
    vector is a single block.  The array may be a view, such as a mask
    broadcast over a grid.  Slots are float64 for real input (integers and
    booleans included) and complex128 for complex input (see the module
    docstring).  Instances are immutable: the slot array is made read-only
    on construction, an array already of one of those dtypes is taken over
    without a copy, and every operation returns a fresh block.
    """

    slots: np.ndarray
    level: float
    encrypted: bool = True

    def __post_init__(self) -> None:
        arr = _as_slots(self.slots)
        arr.setflags(write=False)
        object.__setattr__(self, "slots", arr)

    def __len__(self) -> int:
        return int(self.slots.shape[-1])

    def __getitem__(self, index) -> "CipherBlock":
        """The blocks at ``index`` over the leading axes, at the same level."""
        return CipherBlock(self.slots[index], self.level, self.encrypted)


class OpLedger:
    """Thread-safe counters for every homomorphic operation executed."""

    def __init__(self):
        self._counts = {kind: 0 for kind in OP_KINDS}
        self._lock = threading.Lock()

    def record(self, kind: str, n: int = 1) -> None:
        with self._lock:
            self._counts[kind] += n

    def counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    # `snapshot`/`delta` make "count exactly what this call executed" checks
    # one-liners in tests and benches.
    def snapshot(self) -> dict[str, int]:
        return self.counts()

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        now = self.counts()
        return {kind: now[kind] - before.get(kind, 0) for kind in OP_KINDS}

    @property
    def estimated_ms(self) -> float:
        return self.estimate_ms(self.counts())

    def estimate_ms(self, counts: dict[str, int]) -> float:
        """Latency of ``counts`` priced with :data:`DEFAULT_OP_WEIGHTS_MS`."""
        return float(sum(counts.get(k, 0) * DEFAULT_OP_WEIGHTS_MS[k] for k in OP_KINDS))


class EmulatorContext:
    """Holds the slot geometry, the ledger, and all primitive operations.

    Slots are viewed as a ``grid_rows x grid_cols`` matrix in row-major order
    (``slot_count = grid_rows * grid_cols``, all powers of two).  Rotations
    are cyclic over the flat slot vector.

    ``auto_bootstrap=False`` means a multiplicative op on a level-0 operand
    raises; with ``True`` the operand is restored to ``max_level`` for that
    op only, charged one Bootstrap per block of the operand (``mult(x, x)``
    charges once).  The softmax and the trainer complete without it at every
    ``max_level >= 5`` (a run config's minimum), and nothing in the package
    turns it on: the planners' dry runs (:func:`hefit.approx.dry_run`) find
    no softmax plan at budgets below 4, which raise instead.
    """

    def __init__(
        self,
        slot_count: int = 4096,
        grid_rows: int = 64,
        *,
        max_level: int = 12,
        auto_bootstrap: bool = False,
    ):
        for name, value in (("slot_count", slot_count), ("grid_rows", grid_rows)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SlotCountMismatch(f"{name} must be an integer, got {value!r}")
        slot_count, grid_rows = int(slot_count), int(grid_rows)
        if not is_pow2(slot_count):
            raise SlotCountMismatch(f"slot_count must be a power of two, got {slot_count}")
        if not is_pow2(grid_rows) or grid_rows > slot_count:
            raise SlotCountMismatch(
                f"grid_rows must be a power of two <= slot_count, got {grid_rows}"
            )
        if _integer_level(max_level, "max_level") < 1:
            raise LevelError(f"max_level must be >= 1, got {max_level}")
        self.slot_count = slot_count
        self.grid_rows = grid_rows
        self.grid_cols = slot_count // grid_rows
        self.max_level = int(max_level)
        self.auto_bootstrap = auto_bootstrap
        self.ledger = OpLedger()
        # (role, tag) pairs recorded for every decode of encrypted data.
        self.decode_events: list[tuple[str, str | None]] = []

    @contextlib.contextmanager
    def narrowed(self, rows: int | None = None, cols: int | None = None):
        """Blocks of ``rows x cols`` slots within the scope, each a power of
        two dividing the context's own (kept where None), restored on exit,
        also when the scope raises.  Ops ledger per block at any size:
        :func:`hefit.approx.a_softmax` computes one period copy of each row
        here, and the diagonal kernels the period of their tiled operand
        (:meth:`place_passes`)."""
        rows = self.grid_rows if rows is None else rows
        cols = self.grid_cols if cols is None else cols
        for n, full in ((rows, self.grid_rows), (cols, self.grid_cols)):
            if not (is_pow2(n) and full % n == 0):
                raise SlotCountMismatch(
                    f"{rows} x {cols} blocks do not split "
                    f"{self.grid_rows} x {self.grid_cols} ones"
                )
        saved = self.grid_rows, self.grid_cols, self.slot_count
        self.grid_rows, self.grid_cols, self.slot_count = rows, cols, rows * cols
        try:
            yield
        finally:
            self.grid_rows, self.grid_cols, self.slot_count = saved

    # -- block construction -------------------------------------------------

    def _slot_array(self, values) -> np.ndarray:
        arr = _as_slots(values)
        if arr.ndim == 0 or arr.shape[-1] != self.slot_count:
            raise SlotCountMismatch(
                f"expected {self.slot_count} slots, got shape {arr.shape}"
            )
        return arr

    def encrypt(self, values, level: int | None = None) -> CipherBlock:
        """An encrypted block at ``level`` (``max_level`` by default).

        A level that is not an integer (a bool included) or lies outside
        ``[0, max_level]`` raises :class:`~hefit.errors.LevelError`.
        """
        lvl = self.max_level if level is None else _integer_level(level, "level")
        if not (0 <= lvl <= self.max_level):
            raise LevelError(f"level must be in [0, {self.max_level}], got {lvl}")
        return CipherBlock(self._slot_array(values), lvl, True)

    def pack(self, values) -> CipherBlock:
        """Pack plaintext values into a block usable by all ops (unledgered)."""
        return CipherBlock(self._slot_array(values), PLAINTEXT_LEVEL, False)

    # -- operand plumbing ----------------------------------------------------

    def _operand(self, v):
        """Normalize an op argument to (values, encrypted, level)."""
        if isinstance(v, CipherBlock):
            if len(v) != self.slot_count:
                raise SlotCountMismatch(
                    f"block has {len(v)} slots, context expects {self.slot_count}"
                )
            return v.slots, v.encrypted, v.level
        if isinstance(v, (int, float, np.integer, np.floating)):
            return float(v), False, PLAINTEXT_LEVEL
        if isinstance(v, (complex, np.complexfloating)):
            return complex(v), False, PLAINTEXT_LEVEL
        return self._slot_array(v), False, PLAINTEXT_LEVEL

    def _blocks(self, slots: np.ndarray) -> int:
        return slots.size // self.slot_count

    # -- seams: each charges its op kind and computes its slots ---------------

    def _charge(self, kind: str, blocks: int) -> None:
        """Ledger ``blocks`` ops of ``kind``: the one call of ``ledger.record``."""
        self.ledger.record(kind, blocks)

    def _product(self, x, y, k=None, same=False) -> tuple[np.ndarray, float]:
        """The slots and level of the product of operands ``(values,
        encrypted, level)``: a Mult for two ciphertexts, a CMult for one,
        free for plaintexts, over ``k`` blocks (the result's, unless a closed
        form passes its own).  A level-0 operand raises or, with
        ``auto_bootstrap``, is refreshed (see the class), once if ``same``."""
        out, level = x[0] * y[0], min(x[2], y[2])
        if level < 1:  # at level 0, as a ciphertext can be (a plaintext's is inf)
            operands = (x,) if same else (x, y)
            for v, e, lvl in operands:
                if e and lvl < 1:
                    if not self.auto_bootstrap:
                        raise DepthExhausted(f"mult: operand at level {int(lvl)} cannot be multiplied")
                    # per block of the operand itself, not of the broadcast result
                    self._charge("Bootstrap", self._blocks(v) if k is None else k)
            level = min(self.max_level if e and lvl < 1 else lvl for _, e, lvl in operands)
        if x[1] or y[1]:
            self._charge("Mult" if x[1] and y[1] else "CMult", self._blocks(out) if k is None else k)
            level -= 1
        return out, level

    def _sum(self, vx, vy, encrypted: bool, k=None, sign=1) -> np.ndarray:
        """``vx + vy`` (``vx - vy`` for ``sign=-1``: negation is a free sign
        flip), one Add per block (of the result, or ``k``) if encrypted."""
        out = vx - vy if sign < 0 else vx + vy
        if encrypted:
            self._charge("Add", self._blocks(out) if k is None else k)
        return out

    def _ladder(self, values, k: int, steps: int, encrypted: bool, rots=None):
        """``values``, unchanged: a closed form's result of a rotate-and-sum
        ladder over ``k`` blocks, ledgered as one Add per block per step and
        one Rot per block per rotating step (``rots``, every step by
        default), if encrypted.  A noise model applies the ladder's error
        here in aggregate: each later step adds a rotation's error from two
        slots, doubling its variance, so independent noise of deviation
        sigma per slot per rotation reaches every slot at ``sigma *
        sqrt(2**rots - 1)`` when the ladder sums ``2**steps`` distinct slots."""
        if encrypted:
            self._charge("Add", k * steps)
            self._charge("Rot", k * (steps if rots is None else rots))
        return values

    def _conjugated(self, vx, encrypted: bool) -> np.ndarray:
        """The slots' complex conjugates, one Conj per block if encrypted."""
        if encrypted:
            self._charge("Conj", self._blocks(vx))
        return np.conj(vx) if vx.dtype.kind == "c" else vx

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y) -> CipherBlock:
        vx, ex, lx = self._operand(x)
        vy, ey, ly = self._operand(y)
        return CipherBlock(self._sum(vx, vy, ex or ey), min(lx, ly), ex or ey)

    def sub(self, x, y) -> CipherBlock:
        """Subtraction; costs one Add."""
        vx, ex, lx = self._operand(x)
        vy, ey, ly = self._operand(y)
        return CipherBlock(self._sum(vx, vy, ex or ey, sign=-1), min(lx, ly), ex or ey)

    def mult(self, x, y) -> CipherBlock:
        """Elementwise product.  Two ciphertexts cost a Mult, a ciphertext and
        a plaintext cost a CMult, two plaintexts are free.  Consumes one level
        of every encrypted operand."""
        ox, oy = self._operand(x), self._operand(y)
        # mult(x, x) refreshes its one operand once
        out, level = self._product(ox, oy, same=y is x)
        return CipherBlock(out, level, ox[1] or oy[1])

    def cmult(self, x, y) -> CipherBlock:
        """Multiply by plaintext (scalar, array, or plaintext block)."""
        if isinstance(y, CipherBlock) and y.encrypted:
            raise TypeError("cmult expects a plaintext second operand")
        return self.mult(x, y)

    def lrot(self, x: CipherBlock, r: int) -> CipherBlock:
        """Cyclic left rotation of the flat slot vector by r positions.

        Rotation by 0 (mod slot_count) is an uncounted no-op; negative r is a
        right rotation.  Rotations never consume a level."""
        vx, ex, lx = self._operand(x)
        r = int(r) % self.slot_count
        if r == 0:
            return x if isinstance(x, CipherBlock) else CipherBlock(vx, lx, ex)
        if ex:
            self._charge("Rot", self._blocks(vx))
        out = np.empty(vx.shape, vx.dtype)
        out[..., : self.slot_count - r] = vx[..., r:]
        out[..., self.slot_count - r :] = vx[..., :r]
        return CipherBlock(out, lx, ex)

    def rrot(self, x: CipherBlock, r: int) -> CipherBlock:
        return self.lrot(x, -int(r))

    def rot_sum(self, x: CipherBlock, shifts) -> CipherBlock:
        """Rotate-and-sum ladder: ``acc = acc + lrot(acc, s)`` for each s.

        Ledgers what that loop of :meth:`add` and :meth:`lrot` would: one
        Add per block per step, plus one Rot unless s is 0 (mod
        slot_count); negative s rotates right, and the level is kept.  Each
        step is two sliced additions into one of two preallocated buffers,
        so the ladder makes no rolled copy.  This is the general ladder, for
        dense reductions such as ``fold_columns``; the ladders of a mask
        that leaves them only zeros to add run in closed form as
        :meth:`spread` and :meth:`totals`, and the passes of a diagonal
        product as :meth:`place_passes`.
        """
        vx, ex, lx = self._operand(x)
        n = self.slot_count
        shifts = [int(s) % n for s in shifts]
        if not shifts:
            return x if isinstance(x, CipherBlock) else CipherBlock(vx, lx, ex)
        # the second buffer only when a step reads the first
        bufs = [np.empty(vx.shape, vx.dtype)]
        if len(shifts) > 1:
            bufs.append(np.empty_like(bufs[0]))
        acc = vx
        for i, s in enumerate(shifts):
            out = bufs[i % 2]
            np.add(acc[..., : n - s], acc[..., s:], out=out[..., : n - s])
            np.add(acc[..., n - s :], acc[..., :s], out=out[..., n - s :])
            acc = out
        rots = sum(1 for s in shifts if s)
        return CipherBlock(self._ladder(acc, self._blocks(vx), len(shifts), ex, rots), lx, ex)

    def spread(self, x, step: int, copies: int, window: int = 0) -> CipherBlock:
        """``rot_sum(mult(x, M), [-(step << t) for t < log2(copies)])`` in
        closed form, where the plaintext mask ``M`` is 1 on window
        ``window`` of every segment and 0 elsewhere.

        The slots split into segments of ``copies`` windows of ``step``
        slots, and the ladder adds to each slot the ``copies - 1`` slots at
        multiples of ``step`` before it.  With the first window kept, or any
        one where a segment is the whole vector (the ladder wraps around
        it), every such sum is one masked value plus zeros: the ladder
        copies the window across its segment.  This multiplies the window
        alone by 1 and writes the copies; any other window raises
        ``ValueError``.

        Ledgers what the composition would: the product's CMult and level,
        then one Add and one Rot per block per ladder step.  For finite
        slots the result is the ladder's bit for bit, except that where a
        kept slot is a negative zero the ladder may add a positive zero to
        it.
        """
        vx, ex, lx = self._operand(x)
        n, span = self.slot_count, step * copies
        if not (is_pow2(step) and is_pow2(copies) and span <= n):
            raise ValueError(f"spread: {copies} windows of {step} slots do not tile {n}")
        if not 0 <= window < copies or (window and span < n):
            raise ValueError(f"spread: the ladder does not copy window {window} of {copies}")
        lead, k = vx.shape[:-1], self._blocks(vx)
        # the product keeps its multiply: a complex slot times 1 may turn a
        # -0.0 part into +0.0
        kept = vx.reshape(*lead, n // span, copies, step)[..., window : window + 1, :]
        kept, level = self._product((kept, ex, lx), (1.0, False, PLAINTEXT_LEVEL), k)
        kept = self._ladder(kept, k, log2(copies), ex)
        out = np.broadcast_to(kept, (*lead, n // span, copies, step))
        return CipherBlock(out.reshape(vx.shape), level, ex)

    def totals(self, x, axis: int, width: int | None = None) -> CipherBlock:
        """Each column's total in every row (``axis=0``) or each row
        segment's total in every slot of the segment (``axis=1``) of every
        block, in closed form.

        ``axis=0`` is the ladder that wraps around the whole vector,
        ``rot_sum(x, [s1, 2 s1, ..., slot_count / 2])``; it ledgers one Add
        and one Rot per block per step and keeps the level.  Every column
        is summed once, by :func:`tree_sum` over the rows (adjacent rows,
        then pairs of pairs), and written to every row: the ladder's first
        row bit for bit; the ladder sums each later row in its own cyclic
        order, so the other rows differ from it by rounding.

        ``axis=1`` splits each row into segments of ``width`` slots (the
        whole row by default; a power of two dividing it) and is the fold,
        the first-slot mask and the broadcast, ``rot_sum(mult(rot_sum(x,
        [1, 2, ..., w/2]), M), [-1, -2, ..., -w/2])`` with ``M`` 1 on the
        first slot of every segment: the fold leaves each segment's
        :func:`tree_sum` in its first slot, and the broadcast copies it
        across the segment.  For finite slots this is the composition bit
        for bit, except that where a total is a negative zero the ladder
        may add a positive zero to it.  It ledgers the fold, the CMult and
        the broadcast in that order, ``log2(w)`` Adds and Rots each, so an
        encrypted ``x`` at level 0 raises
        :class:`~hefit.errors.DepthExhausted` once the fold is charged.  A
        width with ``axis=0``, or one that does not split the row, raises
        ``ValueError``.
        """
        if axis not in (0, 1):
            raise ValueError(f"totals: axis must be 0 or 1, got {axis}")
        s0, s1 = self.grid_rows, self.grid_cols
        w = s1 if width is None else width
        if (axis == 0 and width is not None) or not (is_pow2(w) and s1 % w == 0):
            raise ValueError(f"totals: {width}-slot segments along axis {axis} do not split a row")
        vx, ex, lx = self._operand(x)
        sums, level = self._totals(vx, ex, lx, axis, w)
        lead = vx.shape[:-1]
        out = np.broadcast_to(sums, (*lead, s0, s1) if axis == 0 else (*lead, s0, s1 // w, w))
        return CipherBlock(out.reshape(vx.shape), level, ex)

    def _totals(self, vx, ex, lx, axis: int, width: int) -> tuple[np.ndarray, float]:
        """The totals of :meth:`totals` on one period, ``(..., 1, s1)`` for
        ``axis=0`` or ``(..., s0, s1 / width, 1)`` for ``axis=1``, and their
        level, ledgered as the ladders that compute them."""
        s0, s1 = self.grid_rows, self.grid_cols
        k = self._blocks(vx)
        if axis == 0:
            block = vx.reshape(*vx.shape[:-1], s0, s1)
            return self._ladder(tree_sum(block, axis=-2), k, log2(s0), ex), lx
        steps = log2(width)
        segments = vx.reshape(*vx.shape[:-1], s0, s1 // width, width)
        sums = self._ladder(tree_sum(segments), k, steps, ex)
        # the first-slot product keeps its multiply: a complex total times 1
        # may turn a -0.0 part into +0.0
        sums, level = self._product((sums, ex, lx), (1.0, False, PLAINTEXT_LEVEL), k)
        return self._ladder(sums, k, steps, ex), level

    def place_passes(self, x, period, tiles, axis: int, partial: bool = False) -> CipherBlock:
        """The passes of a diagonal matrix product, ``sum_k mult(R(p_k),
        M_k)``, in closed form from one period of its tiled operand.

        ``x`` is the untiled operand, a grid of ``(grid rows, grid columns,
        slot_count)`` slots, and ``period`` the distinct slots of the tiled
        one, packed (below).  Pass k's product ``p_k`` multiplies ``x`` by
        the tiled operand aligned by k; ``R`` adds the product's blocks along
        grid ``axis`` in order and takes :meth:`totals` along ``axis``;
        ``M_k[i, j] = tiles[k][i mod c, j mod c]`` is the pass's plaintext
        mask (:func:`~hefit.encoding.make_mask`), one ``c x c`` tile per pass
        and at most ``c/2`` passes (one at ``c = 1``), as the kernels run.

        * ``axis=1`` (``diag_abt``): ``period`` holds the first ``c`` rows of
          each block of a vertically tiled operand with one block row.  Pass
          k rotates its rows up by k (``rot_up``), and ``R`` is ``col_sums``.
        * ``axis=0`` (``diag_atb``): ``period`` holds the first ``w = min(2c,
          grid_cols)`` columns of each row of a horizontally tiled operand
          with one block column: the row's first copy and its last.  Pass k
          rotates each row left by k (``rot_left``); with ``partial`` it
          rotates the flat slots left by k instead and multiplies by the
          partial row rotation of ``x`` (``prot_up``), whose last k columns
          come from the next row.  ``R`` is ``row_sums``.  A row's copies
          compute alike but for the last, which reads the next row at the
          row's end: so every copy but the last is the first.  The last
          copy may differ from the first only in its last ``c/2`` columns,
          as the packing's rotation leaves it.

        Each pass aligns the period in blocks of its own size
        (:meth:`narrowed`), forms its product from the aligned period laid
        over its copies against the whole of ``x``, and reduces it to its
        totals (:meth:`totals`); the masks, the accumulating adds and the
        result then run on one period (``c`` rows, or ``c`` columns of every
        row) and are tiled.  Every op is the composition's numpy op on the
        same slots, so this is the composition bit for bit, signed zeros
        included.  It holds one pass's product at a time.

        Ledgers the composition op for op, pass by pass, in its order: the
        alignment (``partial``: and x's row rotation, whose mask, subtraction,
        rotation and add run on the whole grid in pass 1 and, since from one
        pass to the next only column ``grid_cols - k`` moves, on that column
        alone after it, charged for the whole grid), the product, the adds
        of its blocks, R's ladders (for ``axis=1`` also its column-0 CMult),
        the mask's CMult and one Add per block of the sum for each pass after
        the first.  An encrypted operand with no level left for a product
        raises :class:`~hefit.errors.DepthExhausted` once the ops before it
        are charged.  A bad axis (``partial`` with ``axis=1`` among them), no
        tiles, tiles of other shapes, more passes than ``c/2`` or a period of
        another shape raise ``ValueError``.
        """
        s0, s1 = self.grid_rows, self.grid_cols
        if axis not in (0, 1) or (partial and axis):
            raise ValueError(f"place_passes: axis must be 0, or 1 without partial, got {axis}")
        c = len(tiles[0]) if len(tiles) else 0
        if not c or s0 % c or s1 % c or any(np.shape(t) != (c, c) for t in tiles):
            raise ValueError(f"place_passes: tiles must be c x c, c dividing {s0} and {s1}")
        if len(tiles) > max(c // 2, 1):
            raise ValueError(f"place_passes: {len(tiles)} passes for a period of {c}")
        vx, ex, lx = self._operand(x)
        if vx.ndim != 3:
            raise ValueError(f"place_passes: x must be one grid, got slots {vx.shape}")
        gr, gc = vx.shape[:2]
        want = (1, gc, c * s1) if axis else (gr, 1, s0 * min(2 * c, s1))
        if not isinstance(period, CipherBlock) or period.slots.shape != want:
            raise ValueError(f"place_passes: a {gr} x {gc} grid takes a period of shape {want}")
        acc, encrypted, acc_level = None, False, PLAINTEXT_LEVEL
        moved = vx, ex, lx  # x, with partial rotated for the pass
        for k, tile in enumerate(tiles):
            if axis:
                prod, e, lp = self._row_pass(vx, ex, lx, period, c, k)
            else:
                if partial and k:
                    moved = self._rows_up(vx, ex, lx, moved[0], k)
                prod, e, lp = self._column_pass(period, c, k, partial, moved)
            lead, k_blocks = prod.shape[:-1], self._blocks(prod)
            sums, lp = self._totals(prod, e, lp, axis, s1)
            del prod  # let the next product reuse the memory
            if axis == 0:
                totals = sums.reshape(*lead, 1, s1 // c, c)
                period_of = tile[:, None, :]  # -> (..., c rows, s1 / c, c)
            else:
                totals = sums.reshape(*lead, s0 // c, c, 1)
                period_of = tile  # -> (..., s0 / c, c, c columns)
            term, level = self._product((totals, e, lp), (period_of, False, PLAINTEXT_LEVEL), k_blocks)
            acc = term if acc is None else self._sum(acc, term, encrypted or e, k_blocks)
            encrypted, acc_level = encrypted or e, min(acc_level, level)
        if axis == 0:
            out = np.broadcast_to(acc.reshape(*lead, 1, c, s1), (*lead, s0 // c, c, s1))
        else:
            out = np.broadcast_to(acc.reshape(*lead, s0, 1, c), (*lead, s0, s1 // c, c))
        return CipherBlock(out.reshape(*lead, self.slot_count), acc_level, encrypted)

    def _row_pass(self, vx, ex, lx, period, c, k):
        """Pass k of :meth:`place_passes` along axis 1: x times the period's
        rows rotated up by k, its block columns added left to right."""
        s0, s1 = self.grid_rows, self.grid_cols
        gr, gc = vx.shape[:2]
        with self.narrowed(rows=c):
            rolled = self.lrot(period, k * s1)
        # the rolled rows broadcast over the block's copies of them; whole
        # blocks, so that the seam counts their blocks
        copies = (gr, gc, s0 // c, c * s1)
        tiled = np.broadcast_to(rolled.slots.reshape(1, gc, 1, c * s1), (1, *copies[1:]))
        prod, level = self._product((vx.reshape(copies), ex, lx), (tiled, rolled.encrypted, rolled.level))
        e = ex or rolled.encrypted
        return self._add_grid(prod.reshape(vx.shape), 1, e), e, level

    def _column_pass(self, period, c, k, partial, x):
        """Pass k of :meth:`place_passes` along axis 0: the period's rows
        rotated left by k (``partial``: its flat slots), laid over the row,
        times x; the product's block rows added top to bottom."""
        s0, s1 = self.grid_rows, self.grid_cols
        vx, ex, lx = x
        gr = vx.shape[0]
        w = period.slots.shape[-1] // s0
        with self.narrowed(cols=w):
            if not k:
                aligned = period
            elif partial:
                aligned = self.lrot(period, k)
            else:
                aligned = self._rot_left(period, k)
        copies = aligned.slots.reshape(gr, 1, s0, w)
        row = np.empty((gr, 1, s0, s1), copies.dtype)
        row.reshape(gr, 1, s0, s1 // c, c)[..., :-1, :] = copies[..., None, :c]
        row[..., s1 - c :] = copies[..., w - c :]
        prod, level = self._product(
            (row.reshape(gr, 1, self.slot_count), aligned.encrypted, aligned.level), (vx, ex, lx)
        )
        e = ex or aligned.encrypted
        return self._add_grid(prod, 0, e), e, level

    def _add_grid(self, slots, axis: int, encrypted: bool) -> np.ndarray:
        """A grid's blocks added along grid ``axis`` in order, one Add per
        block of each sum, as ``col_sums`` (axis 1) and ``row_sums`` (axis 0)
        add them: one block on that axis."""
        head = (slice(None),) * axis
        acc = slots[(*head, slice(0, 1))]
        for q in range(1, slots.shape[axis]):
            acc = self._sum(acc, slots[(*head, slice(q, q + 1))], encrypted)
        return acc

    def _rot_left(self, x, k: int) -> CipherBlock:
        """Each row's slots rotated left by k on this geometry, as
        :func:`~hefit.encoding.rot_left` composes it: a flat rotation, a
        mask on the row's head, and its tail moved back from the next row."""
        s1 = self.grid_cols
        a1 = self.lrot(x, k)
        head = self.mult(a1, np.tile(np.arange(s1) < s1 - k, self.grid_rows).astype(np.float64))
        return self.add(head, self.rrot(self.sub(a1, head), s1))

    def _rows_up(self, vx, ex, lx, moved, k: int):
        """x's partial row rotation for pass k >= 1 of :meth:`place_passes`,
        as :func:`~hefit.encoding.prot_up` composes it: a mask keeping the
        first ``grid_cols - k`` columns, the rest moved one row up by a
        subtraction, a rotation and an add.  Pass 1 computes the whole grid;
        pass k computes column ``grid_cols - k`` alone, as blocks of one
        column, and writes it into the previous pass's ``moved``."""
        s0, s1 = self.grid_rows, self.grid_cols
        if k == 1:
            slots, keep, cols = vx, np.tile(np.arange(s1) < s1 - 1, s0).astype(np.float64), s1
        else:
            slots, keep, cols = vx.reshape(*vx.shape[:-1], s0, s1)[..., s1 - k], np.zeros(s0), 1
        with self.narrowed(cols=cols):
            head, level = self._product((slots, ex, lx), (keep, False, PLAINTEXT_LEVEL))
            level = min(level, lx)  # of the subtraction from x, refreshed or not
            up = self.lrot(CipherBlock(self._sum(slots, head, ex, sign=-1), level, ex), cols)
            out = self._sum(head, up.slots, ex)
        if k == 1:
            return np.require(out, requirements="WO"), ex, level
        moved.reshape(*moved.shape[:-1], s0, s1)[..., s1 - k] = out
        return moved, ex, level

    def conj(self, x: CipherBlock) -> CipherBlock:
        vx, ex, lx = self._operand(x)
        return CipherBlock(self._conjugated(vx, ex), lx, ex)

    def conj_add(self, x: CipherBlock) -> CipherBlock:
        """The conjugate recombination ``x + conj(x)``: twice the real part.

        Ledgers what :meth:`conj` then :meth:`add` would, one Conj and one
        Add per block, and keeps the level.  The sum is real by
        construction, so it is returned as float64 slots ``Re x + Re x``,
        equal bit for bit to the real part of the composition.  Where an
        imaginary part is not finite the composition's imaginary part is
        NaN, so it is returned instead, complex, for a decode to reject.
        """
        vx, ex, lx = self._operand(x)
        if vx.dtype.kind != "c" or np.isfinite(vx.imag).all():
            vx = vx.real  # whose conjugate is itself
        return CipherBlock(self._sum(vx, self._conjugated(vx, ex), ex), lx, ex)

    def mul_i(self, x: CipherBlock) -> CipherBlock:
        """Multiply every slot by the imaginary unit.

        This is a packing trick, not a homomorphic multiplication: it is
        depth-free and unledgered.  The result is complex128."""
        vx, ex, lx = self._operand(x)
        return CipherBlock(vx * 1j, lx, ex)

    def bootstrap(self, x: CipherBlock) -> CipherBlock:
        """Restore a ciphertext to max_level.  Slots are unchanged (the
        emulator is noise-free); plaintext blocks pass through untouched."""
        if not isinstance(x, CipherBlock) or not x.encrypted:
            return x
        self._charge("Bootstrap", self._blocks(x.slots))
        return CipherBlock(x.slots, self.max_level, True)

    # -- audit ----------------------------------------------------------------

    def note_decode(self, role: str, tag: str | None = None) -> None:
        self.decode_events.append((role, tag))

    def decodes_by(self, role: str) -> list[tuple[str, str | None]]:
        return [ev for ev in self.decode_events if ev[0] == role]

