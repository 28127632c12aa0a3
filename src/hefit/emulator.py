"""Slot-level emulator for leveled homomorphic arithmetic on packed vectors.

A ciphertext is modeled as a fixed-width vector of complex slots plus a
remaining multiplicative budget (its *level*).  A :class:`CipherBlock` may
hold a whole grid of such vectors, ``slots`` of shape ``(..., slot_count)``
with one level for all of them: every primitive is then one numpy call that
broadcasts its operands over the leading axes and ledgers one op per block
of the result.  Arithmetic on slots is exact
IEEE double precision — there is no noise model — so a plaintext computation
that mirrors the same operation order is a bit-exact oracle for the emulated
one.  What the emulator does track faithfully:

* level bookkeeping (multiplications consume one level; a multiply at level 0
  raises :class:`~hefit.errors.DepthExhausted` unless auto-bootstrap is on;
  the pipelines refresh explicitly and complete without it: the softmax at
  every budget of at least 4 levels, training at every budget of at least 5),
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

from .errors import DepthExhausted, SlotCountMismatch

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


@dataclass(frozen=True)
class CipherBlock:
    """Packed slot vectors, shape ``(..., slot_count)``, sharing one budget.

    The leading axes index the blocks of a grid; a bare ``(slot_count,)``
    vector is a single block.  The array may be a view, such as a mask
    broadcast over a grid.  Instances are immutable: the slot array is made
    read-only on construction and every operation returns a fresh block.
    """

    slots: np.ndarray
    level: float
    encrypted: bool = True

    def __post_init__(self) -> None:
        arr = np.asarray(self.slots, dtype=np.complex128)
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
    charges once).  The softmax and the trainer place their own refreshes
    and complete without it at every ``max_level >= 5`` (the softmax's
    deepest pieces need 4 levels, a training step 5, and a run config
    requires that many), so
    nothing in the package turns it on.
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
        if max_level < 1:
            raise ValueError(f"max_level must be >= 1, got {max_level}")
        self.slot_count = slot_count
        self.grid_rows = grid_rows
        self.grid_cols = slot_count // grid_rows
        self.max_level = max_level
        self.auto_bootstrap = auto_bootstrap
        self.ledger = OpLedger()
        # (role, tag) pairs recorded for every decode of encrypted data.
        self.decode_events: list[tuple[str, str | None]] = []

    # -- block construction -------------------------------------------------

    def _slot_array(self, values) -> np.ndarray:
        arr = np.asarray(values, dtype=np.complex128)
        if arr.ndim == 0 or arr.shape[-1] != self.slot_count:
            raise SlotCountMismatch(
                f"expected {self.slot_count} slots, got shape {arr.shape}"
            )
        return arr

    def encrypt(self, values, level: int | None = None) -> CipherBlock:
        lvl = self.max_level if level is None else level
        if not (0 <= lvl <= self.max_level):
            raise ValueError(f"level must be in [0, {self.max_level}], got {lvl}")
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
        if isinstance(v, (int, float, complex, np.integer, np.floating, np.complexfloating)):
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
        k = self._blocks(out)
        if ex:
            lx = self._depth_ready(vx, lx, "mult")
        if ey:
            # mult(x, x) refreshes its one operand once
            ly = lx if y is x else self._depth_ready(vy, ly, "mult")
        if ex and ey:
            self.ledger.record("Mult", k)
        elif ex or ey:
            self.ledger.record("CMult", k)
        level = min(lx, ly)
        if ex or ey:
            level = level - 1
        return CipherBlock(out, level, ex or ey)

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
        return CipherBlock(np.roll(vx, -r, axis=-1), lx, ex)

    def rrot(self, x: CipherBlock, r: int) -> CipherBlock:
        return self.lrot(x, -int(r))

    def conj(self, x: CipherBlock) -> CipherBlock:
        vx, ex, lx = self._operand(x)
        if ex:
            self.ledger.record("Conj", self._blocks(vx))
        return CipherBlock(np.conj(vx), lx, ex)

    def mul_i(self, x: CipherBlock) -> CipherBlock:
        """Multiply every slot by the imaginary unit.

        This is a packing trick, not a homomorphic multiplication: it is
        depth-free and unledgered."""
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
