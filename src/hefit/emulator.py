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
that loop but writes each step into a preallocated buffer.  Where a mask
leaves the ladder nothing to add but zeros, :meth:`EmulatorContext.spread`
and :meth:`EmulatorContext.sum_spread` compute its result in closed form
and ledger it op for op as the ladder.  Arithmetic on
slots is exact IEEE double precision — there is no noise model — so a
plaintext computation that mirrors the same operation order is a bit-exact
oracle for the emulated one.  What the emulator does track faithfully:

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


def tree_sum(a: np.ndarray) -> np.ndarray:
    """Totals over the last axis, a power of two wide, as shape ``(..., 1)``.

    Adjacent pairs are added, then adjacent pairs of those, and so on: the
    order in which a doubling ladder ``rot_sum(x, [1, 2, 4, ...])`` sums its
    first slot, so the totals equal that slot bit for bit.
    """
    while a.shape[-1] > 1:
        a = a[..., 0::2] + a[..., 1::2]
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
    turns it on: the softmax planner's pricing context (``approx._dry_run``)
    raises at budgets below 4 instead.
    """

    def __init__(
        self,
        slot_count: int = 4096,
        grid_rows: int = 64,
        *,
        max_level: int = 12,
        auto_bootstrap: bool = False,
    ):
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

    def _depth_ready(self, slots: np.ndarray, level: float, op: str) -> float:
        """Check an encrypted operand can afford one level.

        A level-0 operand is refreshed only as a fallback (``auto_bootstrap``),
        charged one Bootstrap per block of the operand itself, not of the
        broadcast result.  The refreshed value is not kept, so the pipelines
        place their refreshes explicitly instead of relying on this.
        """
        if level >= 1:
            return level
        if self.auto_bootstrap:
            self.ledger.record("Bootstrap", self._blocks(slots))
            return self.max_level
        raise DepthExhausted(f"{op}: operand at level {int(level)} cannot be multiplied")

    def _blocks(self, slots: np.ndarray) -> int:
        return slots.size // self.slot_count

    # -- arithmetic ----------------------------------------------------------

    def add(self, x, y) -> CipherBlock:
        vx, ex, lx = self._operand(x)
        vy, ey, ly = self._operand(y)
        out = vx + vy
        encrypted = ex or ey
        if encrypted:
            self.ledger.record("Add", self._blocks(out))
        return CipherBlock(out, min(lx, ly), encrypted)

    def sub(self, x, y) -> CipherBlock:
        """Subtraction; costs one Add (negation is a free sign flip)."""
        vx, ex, lx = self._operand(x)
        vy, ey, ly = self._operand(y)
        out = vx - vy
        encrypted = ex or ey
        if encrypted:
            self.ledger.record("Add", self._blocks(out))
        return CipherBlock(out, min(lx, ly), encrypted)

    def mult(self, x, y) -> CipherBlock:
        """Elementwise product.  Two ciphertexts cost a Mult, a ciphertext and
        a plaintext cost a CMult, two plaintexts are free.  Consumes one level
        of every encrypted operand."""
        vx, ex, lx = self._operand(x)
        vy, ey, ly = self._operand(y)
        out = vx * vy
        # mult(x, x) refreshes its one operand once
        level = self._charge_product((vx, ex, lx), (vy, ey, ly), self._blocks(out), y is x)
        return CipherBlock(out, level, ex or ey)

    def _charge_product(self, x, y, k: int, same: bool = False) -> float:
        """Ledger a product of ``k`` blocks of the operands ``(values,
        encrypted, level)`` and return its level (see :meth:`mult`)."""
        (vx, ex, lx), (vy, ey, ly) = x, y
        if ex:
            lx = self._depth_ready(vx, lx, "mult")
        if ey:
            ly = lx if same else self._depth_ready(vy, ly, "mult")
        if ex and ey:
            self.ledger.record("Mult", k)
        elif ex or ey:
            self.ledger.record("CMult", k)
        level = min(lx, ly)
        return level - 1 if ex or ey else level

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
            self.ledger.record("Rot", self._blocks(vx))
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
        dense reductions such as ``row_sums`` and ``fold_columns``; a ladder
        right after a mask that leaves it only zeros to add runs in closed
        form as :meth:`spread` or :meth:`sum_spread`.
        """
        vx, ex, lx = self._operand(x)
        n = self.slot_count
        shifts = [int(s) % n for s in shifts]
        if not shifts:
            return x if isinstance(x, CipherBlock) else CipherBlock(vx, lx, ex)
        if ex:
            k = self._blocks(vx)
            self.ledger.record("Add", k * len(shifts))
            self.ledger.record("Rot", k * sum(1 for s in shifts if s))
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
        return CipherBlock(acc, lx, ex)

    def spread(self, x, mask, step: int, copies: int) -> CipherBlock:
        """``rot_sum(mult(x, mask), [-(step << t) for t < log2(copies)])`` in
        closed form, for a mask that keeps one window.

        The slots split into segments of ``copies`` windows of ``step``
        slots, and the ladder adds to each slot the ``copies - 1`` slots at
        multiples of ``step`` before it.  When the mask's nonzero slots lie
        in the first window of each segment, or in any one window where a
        segment is the whole vector (the ladder wraps around it), every such
        sum is one masked value plus zeros: the ladder copies the window
        across its segment.  This multiplies the window alone and writes the
        copies; a mask with nonzero slots elsewhere raises ``ValueError``.

        Ledgers what the composition would: the product's CMult (Mult for an
        encrypted mask) and level, then one Add and one Rot per block of the
        product per ladder step.  For finite slots the result is the
        ladder's bit for bit, except that where a masked window slot is a
        negative zero the ladder may add a positive zero to it.
        """
        vx, ex, lx = self._operand(x)
        vm, em, lm = self._operand(mask)
        n, span = self.slot_count, step * copies
        if not (is_pow2(step) and is_pow2(copies) and span <= n):
            raise ValueError(f"spread: {copies} windows of {step} slots do not tile {n}")
        held = np.flatnonzero(_windows(vm, n // span, copies, step).any(axis=-1))
        windows = np.unique(held % copies)
        if len(windows) > 1 or (span < n and windows.any()):
            raise ValueError(f"spread: the mask keeps window(s) {list(windows)}, not one")
        w = int(windows[0]) if len(windows) else 0
        kept = _windows(vx, n // span, copies, step)[..., w, :]
        kept = kept * _windows(vm, n // span, copies, step)[..., w, :]
        return self._copies(kept, (vx, ex, lx), (vm, em, lm), copies)

    def sum_spread(self, x, mask, width: int) -> CipherBlock:
        """Each ``width``-slot segment's total in all of its slots: in closed
        form, ``rot_sum(mult(rot_sum(x, [1, 2, ..., width/2]), mask),
        [-1, -2, ..., -width/2])`` for a mask nonzero only at the first slot
        of each segment.

        The first ladder leaves in each segment's first slot the total that
        :func:`tree_sum` computes, bit for bit; the mask keeps only that
        slot, and the second ladder copies it across the segment (see
        :meth:`spread`).  Ledgers both ladders and the product as the
        composition does, in its order: an encrypted ``x`` at level 0 has
        its first ladder charged before the product raises.  A mask with a
        nonzero slot elsewhere raises ``ValueError``.
        """
        vx, ex, lx = self._operand(x)
        vm, em, lm = self._operand(mask)
        n = self.slot_count
        if not (is_pow2(width) and width <= n):
            raise ValueError(f"sum_spread: width {width} does not tile {n}")
        mask_rows = _windows(vm, n // width, width, 1)
        if mask_rows[..., 1:, :].any():
            raise ValueError("sum_spread: the mask has nonzero slots past a segment's first")
        if ex:
            k = self._blocks(vx)
            self.ledger.record("Add", k * log2(width))
            self.ledger.record("Rot", k * log2(width))
        totals = tree_sum(vx.reshape(*vx.shape[:-1], n // width, width))
        kept = totals * mask_rows[..., 0, :]
        return self._copies(kept, (vx, ex, lx), (vm, em, lm), width)

    def _copies(self, kept: np.ndarray, x, mask, copies: int) -> CipherBlock:
        """Ledger the product of ``x`` and ``mask`` and a ``copies``-step
        spreading ladder over it; return ``kept``, shape ``(..., segments,
        window)``, copied ``copies`` times across each segment."""
        (vx, ex, _), (vm, em, _) = x, mask
        k = math.prod(np.broadcast_shapes(vx.shape[:-1], vm.shape[:-1]))
        level = self._charge_product(x, mask, k)
        if ex or em:
            self.ledger.record("Add", k * log2(copies))
            self.ledger.record("Rot", k * log2(copies))
        *lead, segments, width = kept.shape
        out = np.broadcast_to(kept[..., None, :], (*lead, segments, copies, width))
        return CipherBlock(out.reshape(*lead, self.slot_count), level, ex or em)

    def conj(self, x: CipherBlock) -> CipherBlock:
        vx, ex, lx = self._operand(x)
        if ex:
            self.ledger.record("Conj", self._blocks(vx))
        return CipherBlock(np.conj(vx), lx, ex)

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
        if ex:
            k = self._blocks(vx)
            self.ledger.record("Conj", k)
            self.ledger.record("Add", k)
        if vx.dtype.kind == "c" and not np.isfinite(vx.imag).all():
            return CipherBlock(vx + np.conj(vx), lx, ex)
        re = vx.real
        return CipherBlock(re + re, lx, ex)

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
        self.ledger.record("Bootstrap", self._blocks(x.slots))
        return CipherBlock(x.slots, self.max_level, True)

    # -- audit ----------------------------------------------------------------

    def note_decode(self, role: str, tag: str | None = None) -> None:
        self.decode_events.append((role, tag))

    def decodes_by(self, role: str) -> list[tuple[str, str | None]]:
        return [ev for ev in self.decode_events if ev[0] == role]


def _windows(slots: np.ndarray, segments: int, copies: int, step: int) -> np.ndarray:
    """``slots`` viewed as ``(..., segments, copies, step)``: the windows of
    :meth:`EmulatorContext.spread`."""
    return np.reshape(slots, (*np.shape(slots)[:-1], segments, copies, step))
