"""Row-wise approximate softmax built from slot-friendly polynomial pieces.

The pipeline normalizes each row by an approximate maximum (a comparison
tournament), folds wide inputs into the exponential's base range with a
cubic contraction chain, optionally compensates the contraction's bias,
evaluates exp as a fitted polynomial raised to a power-of-two, sums the
exponentials, and multiplies by an iteratively computed reciprocal.

Every routine here accepts either an :class:`~hefit.encoding.EncodedMatrix`
(one block column, horizontally tiled) or a plain 2D numpy array of logits.
The polynomial steps are written once, as ``+``/``-``/``*`` arithmetic that
both carriers implement; only the layout-dependent steps (masks, the
tournament's operand pairs, column sums, broadcasts) live in ``_Carrier``.
The array carrier runs the same arithmetic, in the same order, on every
slot the encrypted path reads, and only on those: the tournament keeps only
the columns a later round reads, the tail runs on the class columns, and
the row total and the reciprocal on one column per row.  So the array path
is a bit-faithful mirror of the encrypted one, cheap enough for
million-sample error measurement.  :func:`a_softmax` evaluates array
inputs in cache-sized row blocks (``_BLOCK_SLOTS``); every step works
within a row, so the output is bit-identical to a single pass over all rows.

Constant scalings spend no level of their own: the comparison's
(u + 1) / 2, the tournament's 1/(2 max_range) and the exp's 1/EXP_RANGE
live in polynomial coefficients, and the reciprocal's 1/INV_RANGE in the
mask that keeps the classes.  The pipeline is still far deeper than one
level budget (79 levels at 10 classes), so it places its own bootstraps:
before each piece of known depth it calls :func:`_refresh`, which
bootstraps an encrypted input only when its level is below what the piece
consumes.  Each piece's depth is a named constant next to its evaluator:
each odd comparison polynomial (``ODD_POLY_DEPTH``, 3 levels, factored;
three per comparison), the tournament's ``best`` before the roll (the
same need, so its rival inherits the fresh level), each contraction step
(``CONTRACTION_DEPTH``, 2), the compensation (``COMPENSATION_DEPTH``, 4),
the baby-step/giant-step exp fit (``EXP_FIT_DEPTH``, 4) and the squarings
after it (``log2(EXP_RANGE)``), the Goldschmidt pair (refreshed together,
one complex-packed bootstrap for both: :func:`_refresh_pair`), and the
one-level glue products.  Each ciphertext is refreshed at most once per
piece, a budget that already suffices never refreshes, and the array path
passes through unchanged.  The deepest pieces need 4 levels, so any
budget of at least 4 runs the whole pipeline without the context's
``auto_bootstrap`` fallback.

The tournament is the one place with two live values: the running
maximum ``best`` and its comparison chain.  Where the chain needs a
refresh, :func:`a_max` may refresh it alone or together with ``best`` as
one complex-packed ciphertext, which also lifts ``best`` and so every
piece after it.  :func:`softmax_plan` picks these choices by a dynamic
program over levels, pricing the pieces after the tournament from the
named depths (the same refresh rule, run on levels alone).  It minimises
bootstraps, then emulated ms; given the levels the output's consumer
needs, it counts the consumer's refresh too and prefers the highest level
handed on before ms.  The pieces after the tournament form a chain of one
value each, where refreshing only below the next piece's need is already
optimal, so they keep :func:`_refresh`.  Every bootstrap is value-exact,
so the plan moves levels and the ledger, never a slot.

Only two knobs are configurable (:class:`SoftmaxConfig`): the number of
extension steps and the compensation.  The exp and reciprocal parameters
and the contraction base are module constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._constants import COMP_ROUND_ERR, EXP_POLY
from .emulator import DEFAULT_OP_WEIGHTS_MS, log2
from .encoding import EncodedMatrix, bootstrap_pair, col_sums, next_pow2, pattern_matrix
from .errors import ShapeMismatch
from .plainref import exact_softmax

# Odd degree-7 pair composed as step(x) ~ sign(x): two passes of the sharp
# inner polynomial, one smoothing outer pass.  Coefficients are (a1, a3,
# a5, a7) of a1*x + a3*x^3 + a5*x^5 + a7*x^7.
COMP_F = (35 / 16, -35 / 16, 21 / 16, -5 / 16)
COMP_G = (4589 / 1024, -16577 / 1024, 25614 / 1024, -12860 / 1024)
# COMP_F halved: a_comp's last pass absorbs the 1/2 of its (u + 1) / 2 map,
# exactly, since halving commutes with rounding.
COMP_F_HALF = tuple(a / 2 for a in COMP_F)

# Half-width the exponential is accurate on, and the ratio of each
# contraction step of the domain extension.
BASE_RANGE = 8.0
EXTENSION_BASE = 2.0
# Strength of the widest contraction step, 4 / (27 BASE_RANGE^2).
DEP_DELTA = 4.0 / (27.0 * BASE_RANGE**2)
# a_exp evaluates its fit at x / EXP_RANGE and squares log2(EXP_RANGE) times.
EXP_RANGE = 8
# EXP_POLY with coefficient k divided by EXP_RANGE^k: the fit at x / EXP_RANGE
# as a polynomial in x, exact term by term since EXP_RANGE is a power of two.
EXP_POLY_UNSCALED = tuple(c / EXP_RANGE**k for k, c in enumerate(EXP_POLY))
# The softmax divides its exps by INV_RANGE, so a_inv receives a normalized
# row total, and runs INV_ITERS Goldschmidt iterations on it.
INV_RANGE = 100.0
INV_ITERS = 12


@dataclass(frozen=True)
class SoftmaxConfig:
    """The two knobs of the approximate softmax pipeline.

    ``extension_steps`` contractions of ratio ``EXTENSION_BASE`` widen the
    covered input box to ``max_range = BASE_RANGE * EXTENSION_BASE**steps / 2``
    per coordinate (the contraction chain itself absorbs twice that, which
    is exactly what normalization produces: values in [-2*max_range, 0]).
    ``precise`` turns on the degree-5 compensation of the contraction bias.
    """

    extension_steps: int = 5
    precise: bool = True

    @property
    def max_range(self) -> int:
        full = BASE_RANGE * EXTENSION_BASE**self.extension_steps
        return int(math.ceil(full / 2))


DEFAULTS = SoftmaxConfig()


# Slots per row block of the array-path softmax, counted in the padded
# tournament input (65 536 float64 slots, 512 KiB: 4096 rows at 10 classes);
# every later work array is narrower, holding only the slots the encrypted
# path reads.  Of 8192 to 131 072 slots, this ran a 250k x 10 softmax
# fastest on a 2-vCPU Xeon with 2 MiB of L2 per core.  Every step works
# within a row, so blocking leaves each output row bit-identical.
_BLOCK_SLOTS = 65_536


def _array_layout(M):
    """(float64 array, classes, period) of an array carrier, validated."""
    arr = np.asarray(M, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"softmax expects a 2D array, got shape {arr.shape}")
    return arr, arr.shape[1], next_pow2(arr.shape[1])


class _Carrier:
    """Layout facts and layout-dependent steps for one input matrix.

    The encrypted carrier works on whole slot grids.  The array carrier
    holds the unpadded ``(rows, classes)`` logits and computes only the
    slots the encrypted path reads: its masks are scalars, the tournament
    keeps only the columns a later round reads, and the row total leaves
    one ``(rows, 1)`` column, which numpy broadcasts over the row.  Padding
    exists only inside the tournament and the row total.
    """

    def __init__(self, M):
        if isinstance(M, EncodedMatrix):
            if M.tiling != "horizontal" or M.grid[1] != 1:
                raise ShapeMismatch(
                    "softmax expects a horizontally tiled single-block-column matrix"
                )
            self.classes = M.shape[1]
            self.period = M.period
            self.ctx = M.ctx
            self.encrypted = True
            self.matrix = M
        else:
            self.matrix, self.classes, self.period = _array_layout(M)
            self.ctx = None
            self.encrypted = False

    def _pattern(self, row_fn) -> EncodedMatrix:
        """Mask whose value depends only on the column index."""
        return pattern_matrix(self.ctx, row_fn(np.arange(self.ctx.grid_cols)))

    def _padded(self, x, fill: float):
        """An array widened to the period, its padded columns set to ``fill``."""
        if self.classes == self.period:
            return x
        out = np.full((x.shape[0], self.period), fill)
        out[:, : self.classes] = x
        return out

    def keep_classes_mask(self, value: float = 1.0):
        """``value`` on the class columns, 0 on the padded ones; an array
        has no padded columns, so there it is the scalar ``value``."""
        if not self.encrypted:
            return value
        c = self.classes
        return self._pattern(lambda j: np.where(j < c, value, 0.0))

    def pushed_down(self, r: float):
        """The logits with every padded column lowered by r."""
        if self.classes == self.period:
            return self.matrix
        if not self.encrypted:
            return self._padded(self.matrix, -float(r))
        c, cp = self.classes, self.period
        return self.matrix - self._pattern(lambda j: np.where((j % cp) >= c, r, 0.0))

    def knockout_pair(self, best, t: int):
        """``(best, rival)`` of tournament round t: each slot and the slot
        ``1 << t`` to its right.  An array keeps only the columns whose
        results a later round reads, the multiples of ``2 << t``, so each
        round halves ``best`` and pairs adjacent columns; after the last
        round ``best`` is column 0 alone."""
        if self.encrypted:
            return best, best.lrot(1 << t)
        return best[:, 0::2], best[:, 1::2]

    def first_col_mask(self):
        if not self.encrypted:
            return 1.0
        return self._pattern(lambda j: np.where(j == 0, 1.0, 0.0))

    def broadcast_col0(self, x):
        """Spread column 0 of each row to every column (x is col-0 masked);
        an array's tournament already left column 0 alone."""
        if self.encrypted:
            return x.rot_sum([-(1 << t) for t in range(log2(self.ctx.grid_cols))])
        return x

    def row_total(self, x):
        """Each row's column total, summed in the encrypted tree order: in
        every slot of the row when encrypted, as a ``(rows, 1)`` column for
        an array, whose zero pads keep the tree's order."""
        if self.encrypted:
            return col_sums(x)
        s = self._padded(x, 0.0)
        for _ in range(log2(self.period)):
            s = s[:, 0::2] + s[:, 1::2]
        return s

    def retile(self, x):
        """Fill the remaining block width with copies of the first period."""
        if not self.encrypted:
            return x
        reps = self.ctx.grid_cols // self.period
        return x.rot_sum([-self.period * (1 << t) for t in range(log2(reps))])


# -- refresh points -------------------------------------------------------------


def _refresh(x, need: int):
    """Bootstrap an encrypted matrix whose level is below ``need``.

    ``need`` is the depth of the piece about to consume ``x``, capped at the
    context's ``max_level``.  A matrix that already has it, a plaintext
    matrix and a numpy array come back unchanged, so both carriers run the
    same pipeline code and a deep enough budget never refreshes.
    """
    return x.bootstrap() if _below(x, need) else x


def _refresh_pair(a, b, need: int):
    """:func:`_refresh` for two real matrices consumed together.

    If either is an encrypted matrix below ``need``, both are refreshed
    through one complex-packed bootstrap (:func:`bootstrap_pair`), which
    returns them at ``max_level - 1``; otherwise both come back unchanged.
    """
    return bootstrap_pair(a, b) if _below(a, need) or _below(b, need) else (a, b)


def _below(x, need: int) -> bool:
    """Whether x is an encrypted matrix whose level is below ``need``,
    capped at the context's ``max_level``."""
    return isinstance(x, EncodedMatrix) and x.level < min(need, x.ctx.max_level)


# -- polynomial pieces ----------------------------------------------------------


# Levels one comparison polynomial consumes.
ODD_POLY_DEPTH = 3


def _odd_poly(x, coeffs):
    """a1 x + a3 x^3 + a5 x^5 + a7 x^7 in ODD_POLY_DEPTH levels (4 Mult +
    2 CMult).

    Uses the monic factorisation (a7 x)(y + alpha)(y^2 + beta) + (a7 gamma) x
    with y = x^2, alpha = a5/a7, beta = a3/a7 and gamma = a1/a7 - alpha beta,
    so the deepest product is three levels below x instead of Horner's five.
    """
    x = _refresh(x, ODD_POLY_DEPTH)
    a1, a3, a5, a7 = coeffs
    alpha, beta = a5 / a7, a3 / a7
    gamma = a1 / a7 - alpha * beta
    y = x * x
    y2 = y * y
    lead = (x * a7) * (y + alpha)
    return lead * (y2 + beta) + x * (a7 * gamma)


def _comp(d, first):
    """Soft comparison of a difference d, its first pass through ``first``.

    ``(u + 1) / 2`` of the composition u is ``u / 2 + 1/2``, with the half
    folded into :data:`COMP_F_HALF`, so the map costs no level:
    3 * ODD_POLY_DEPTH in all.
    """
    u = _odd_poly(_odd_poly(_odd_poly(d, first), COMP_G), COMP_F_HALF)
    return u + 0.5


def a_comp(x, y):
    """Soft comparison of two slot values scaled to [-1/2, 1/2].

    Returns ~1 where x exceeds y by a clear margin, ~0 in the opposite
    case, exactly 1/2 at equality (odd composition through zero).
    """
    return _comp(x - y, COMP_G)


def a_max(M, cfg: SoftmaxConfig = DEFAULTS, pairs=None):
    """Row-wise approximate maximum, broadcast into every slot of the row.

    The comparison sees each difference scaled into [-1, 1] by 1/(2R),
    R = max_range, but the tournament itself runs unscaled: the scale lives
    in the first comparison pass's coefficients (a_k / (2R)^k for the odd
    power k), which is exact because 2R is a power of two.  Padded columns
    are pushed down by R (periodically with the tiling, so every copy
    behaves alike) and can never win.  log2(period) knockout rounds blend
    each slot with its partner ``1 << t`` to the right through the
    comparison; column 0 of each row then holds the winner, which is
    isolated and broadcast.  The result never exceeds the true maximum (the
    blends are convex), and it equals, bit for bit, a tournament on inputs
    scaled by 1/(2R) whose winner is scaled back by 2R.

    Each round refreshes ``best`` for the first comparison polynomial before
    the roll, so ``rival`` inherits the fresh level.  Each round has two
    live values: ``best`` loses one level per round, at the blend, and the
    comparison chain ``best - rival`` three passes of ``ODD_POLY_DEPTH``.
    ``pairs`` holds one ``(pass 1, pass 2, pass 3, blend)`` flag tuple per
    round (:attr:`SoftmaxPlan.pairs`).  Where a flag is set, the chain is
    refreshed together with ``best`` as one complex-packed ciphertext
    (:func:`_refresh_pair`) instead of alone, and the round re-rolls
    ``rival`` from the refreshed ``best`` (one Rot) so the blend sees both
    at the fresh level.  Without ``pairs`` every refresh is the chain's own,
    and a bootstrap is value-exact either way, so the flags move levels and
    the ledger, never a slot; an array has neither and ignores them.

    An array carrier evaluates each round only on the columns a later round
    reads (:meth:`_Carrier.knockout_pair`), 2^k - 1 column evaluations for
    a period of 2^k instead of k 2^k.  An array input returns a ``(rows,
    period)`` array; :func:`_softmax` passes its own carrier and gets the
    ``(rows, 1)`` column its tail reads.
    """
    car = M if isinstance(M, _Carrier) else _Carrier(M)
    r = cfg.max_range
    first = tuple(a / (2 * r) ** (2 * k + 1) for k, a in enumerate(COMP_G))
    if pairs is None or not car.encrypted:
        pairs = ((False,) * 4,) * log2(car.period)
    best = car.pushed_down(r)
    for t, flags in enumerate(pairs):
        best = _refresh(best, ODD_POLY_DEPTH)
        best, rival = car.knockout_pair(best, t)
        chain = best - rival
        for coeffs, packed in zip((first, COMP_G, COMP_F_HALF), flags):
            if packed:
                chain, best = _refresh_pair(chain, best, ODD_POLY_DEPTH)
            chain = _odd_poly(chain, coeffs)
        w = chain + 0.5
        if flags[3]:
            w, best = _refresh_pair(w, best, 1)
        else:
            w = _refresh(w, 1)
        if any(flags):
            best, rival = car.knockout_pair(best, t)
        best = best * w + rival * (1.0 - w)
    best = car.broadcast_col0(_refresh(best, 1) * car.first_col_mask())
    if car.encrypted or M is car:
        return best
    return np.repeat(best, car.period, axis=1)


# Levels one contraction step consumes.
CONTRACTION_DEPTH = 2


def domain_extend(M, cfg: SoftmaxConfig = DEFAULTS):
    """Contract [-max_range, max_range] into [-BASE_RANGE, BASE_RANGE].

    Applies the cubic x - delta_i x^3 from the widest scale inward; each
    iteration costs one CMult and two Mults (two levels).
    """
    for i in range(cfg.extension_steps - 1, -1, -1):
        delta_i = DEP_DELTA * EXTENSION_BASE ** (-2 * i)
        M = _refresh(M, CONTRACTION_DEPTH)
        square = M * M
        scaled = M * delta_i
        M = M - square * scaled
    return M


# Levels the contraction-bias compensation consumes.
COMPENSATION_DEPTH = 4


def _dep_compensation(M, cfg: SoftmaxConfig):
    """Degree-5 correction approximating the inverse of the contraction.

    ``x + (4/27) K (x^3/R^2 - x^5/R^4)`` with K the closed-form sum of the
    per-step contraction strengths; adds back the cubic shrinkage and trims
    the fifth-order overshoot.
    """
    L2 = EXTENSION_BASE**2
    Ln = L2**cfg.extension_steps
    K = L2 * (Ln - 1.0) / (Ln * (L2 - 1.0))
    R = BASE_RANGE
    c3 = (4.0 / 27.0) * K / R**2
    c5 = (4.0 / 27.0) * K / R**4
    M = _refresh(M, COMPENSATION_DEPTH)
    square = M * M
    cube = square * M
    fifth = cube * square
    return M + (cube * c3 - fifth * c5)


# Levels the baby-step/giant-step evaluation of the exp fit consumes.
EXP_FIT_DEPTH = 4


def _exp_fit(z, c):
    """Degree-12 polynomial of coefficients c (c[k] of z^k) at z in
    EXP_FIT_DEPTH levels (6 Mult + 10 CMult).

    Baby steps z, z^2, z^3 build three degree-3 chunks q0, q1, q2; giant
    steps z^4, z^8 combine them as q0 + z^4 q1 + z^8 (q2 + c12 z^4)
    (Paterson-Stockmeyer), so the fit costs four levels instead of Horner's
    twelve.
    """
    z = _refresh(z, EXP_FIT_DEPTH)
    z2 = z * z
    z3 = z2 * z
    z4 = z2 * z2

    def chunk(k):
        return z * c[k + 1] + c[k] + z2 * c[k + 2] + z3 * c[k + 3]

    # the top term first, so fewer chunks and powers are alive at once
    top = (z4 * z4) * (chunk(8) + z4 * c[12])
    return chunk(0) + z4 * chunk(4) + top


def a_exp(M):
    """exp on [-EXP_RANGE, EXP_RANGE]: fitted polynomial at x/B, squared log2(B) times.

    The 1/B lives in the coefficients (:data:`EXP_POLY_UNSCALED`), so the
    fit reads x itself and a_exp costs EXP_FIT_DEPTH + log2(B) levels, bit
    for bit the value of EXP_POLY at x/B.  The degree-12 fit carries ~3e-13
    of error on [-1, 1]; squaring preserves the relative error, so accuracy
    is near machine precision across the whole base range.
    """
    B = EXP_RANGE
    acc = _exp_fit(M, EXP_POLY_UNSCALED)
    acc = _refresh(acc, log2(B))
    for _ in range(log2(B)):
        acc = acc * acc
    return acc


def a_inv(y):
    """Goldschmidt reciprocal 1/y of an input already divided by INV_RANGE.

    Relative error after k iterations is (1 - y)^(2^(k+1)), degrading as y
    approaches 0; inputs outside (0, 2) make the iteration diverge, which
    is documented, not trapped.  The normalization is the caller's: the
    softmax divides its exps by INV_RANGE in the mask that keeps the
    classes, so their row total is already y and the reciprocal multiplies
    them back to the softmax without a further scaling.  The row's largest
    exp is exp(>= 0) because :func:`a_max` never exceeds the true maximum,
    so y is at least 1/INV_RANGE (uniform logits within +-128 at 3 to 16
    classes read up to 0.89, a searched 10-class row 0.946).  On
    [0.01, 1.99] the INV_ITERS = 12 iterations leave at most
    0.99^8192 ~ e^-82 of relative error, below rounding.

    Each iteration squares ``b`` first, then refreshes the pair ``(a, b)``
    together (:func:`_refresh_pair`): both are real, so one bootstrap of
    ``a + i b`` refreshes both, and the halving that unpacks them costs the
    level the square would have cost after a plain bootstrap.  The levels
    stay in lockstep, so the pair refreshes where two separate refreshes of
    ``a`` and ``b`` would, lands at the same levels, and pays 1 bootstrap
    instead of 2.  ``y`` is refreshed for the first square.
    """
    y = _refresh(y, 1)
    a = 2.0 - y
    b = 1.0 - y
    for _ in range(INV_ITERS):
        b = b * b
        a, b = _refresh_pair(a, b, 1)
        a = a * (b + 1.0)
    return a


# -- refresh plan ---------------------------------------------------------------


@dataclass(frozen=True)
class SoftmaxPlan:
    """Where one encrypted softmax refreshes, and what that predicts.

    ``pairs`` holds :func:`a_max`'s choices, one ``(pass 1, pass 2, pass 3,
    blend)`` flag tuple per tournament round: a set flag refreshes the
    comparison chain together with ``best`` (one packed bootstrap), a clear
    one the chain alone.  ``bootstraps`` (per block) and ``level`` are what
    the softmax executes and hands on, on any budget of at least 4 levels.
    """

    pairs: tuple[tuple[bool, bool, bool, bool], ...]
    bootstraps: int
    level: int


# Emulated ms per block of one refresh, one packed refresh (bootstrap_pair's
# Conj, 3 Add and 2 CMult on top) and one re-rolled rival.
_BOOT_MS = DEFAULT_OP_WEIGHTS_MS["Bootstrap"]
_PAIR_MS = _BOOT_MS + sum(
    n * DEFAULT_OP_WEIGHTS_MS[kind] for kind, n in (("Conj", 1), ("Add", 3), ("CMult", 2))
)
_ROLL_MS = DEFAULT_OP_WEIGHTS_MS["Rot"]
# (need, levels spent) at a round's refresh points: the three comparison
# passes, then the blend, whose weight w must have a level to multiply.
_ROUND_POINTS = ((ODD_POLY_DEPTH, ODD_POLY_DEPTH),) * 3 + ((1, 0),)


def _round_options(best: int, top: int):
    """Each way one tournament round can refresh, from ``best``'s level.

    Yields ``(flags, best's level after, bootstraps, ms)`` for a budget of
    ``top`` levels.  A point whose chain already has its need refreshes
    nothing, so only points that refresh branch, and a pair is offered only
    where its ``top - 1`` levels meet the need.
    """
    boots = 0
    if best < min(ODD_POLY_DEPTH, top):
        best, boots = top, 1
    ways = [((), best, best, boots, boots * _BOOT_MS)]
    for need, spent in _ROUND_POINTS:
        grown = []
        for flags, chain, b, k, ms in ways:
            if chain >= min(need, top):
                grown.append((flags + (False,), chain - spent, b, k, ms))
                continue
            grown.append((flags + (False,), top - spent, b, k + 1, ms + _BOOT_MS))
            if top - 1 >= need:
                grown.append((flags + (True,), top - 1 - spent, top - 1, k + 1, ms + _PAIR_MS))
        ways = grown
    for flags, w, b, k, ms in ways:
        yield flags, min(b, w) - 1, k, ms + (_ROLL_MS if any(flags) else 0.0)


def _tail(best: int, entry: int, top: int, cfg: SoftmaxConfig):
    """(bootstraps, ms, output level) of the softmax after the tournament
    rounds, from ``best``'s level: :func:`_refresh`'s rule run on levels
    and the named depths alone, in :func:`_softmax`'s order."""
    boots = pairs = 0

    def lift(level, need):
        nonlocal boots
        if level < min(need, top):
            boots += 1
            return top
        return level

    level = lift(best, 1) - 1  # a_max's first-column mask
    level = lift(min(entry, level), 1) - 1  # the keep-classes mask
    for _ in range(cfg.extension_steps):
        level = lift(level, CONTRACTION_DEPTH) - CONTRACTION_DEPTH
    if cfg.precise:
        level = lift(level, COMPENSATION_DEPTH) - COMPENSATION_DEPTH
    level = lift(level, EXP_FIT_DEPTH) - EXP_FIT_DEPTH
    level = lift(level, log2(EXP_RANGE)) - log2(EXP_RANGE)
    expd = lift(lift(level, 1) - 1, 1)
    a = b = lift(expd - 1, 1)  # col_sums' column-0 mask
    for _ in range(INV_ITERS):
        b -= 1
        if min(a, b) < min(1, top):
            a = b = top - 1
            pairs += 1
        a = min(a, b) - 1
    out = min(expd, lift(a, 1)) - 1
    return boots + pairs, boots * _BOOT_MS + pairs * _PAIR_MS, out


@functools.lru_cache(maxsize=1024)
def softmax_plan(
    entry_level: int, max_level: int, classes: int, cfg: SoftmaxConfig = DEFAULTS,
    need: int | None = None,
) -> SoftmaxPlan:
    """The refresh plan of one encrypted softmax entering at ``entry_level``.

    A dynamic program over ``best``'s level between tournament rounds keeps,
    for each level, the cheapest choices (fewest bootstraps, then least
    emulated ms) that reach it; the pieces after the tournament are priced
    by :func:`_tail`.  Without ``need`` the plan has the fewest bootstraps,
    then the least ms, so it never costs more than refreshing every chain
    alone.  ``need`` is the levels the consumer of the output will need: an
    output below it counts the consumer's refresh, then the plan hands on
    the highest level (``max_level`` where the consumer refreshes), then the
    least ms.  Cached per key; planning reads levels only, never slots.
    """
    top = max_level
    frontier = {entry_level: ((), 0, 0.0)}
    for _ in range(log2(next_pow2(classes))):
        reached = {}
        for best, (pairs, boots, ms) in frontier.items():
            for flags, after, k, cost in _round_options(best, top):
                way = (pairs + (flags,), boots + k, ms + cost)
                held = reached.get(after)
                if held is None or way[1:] < held[1:]:
                    reached[after] = way
        frontier = reached

    ranked = []
    for best, (pairs, boots, ms) in frontier.items():
        k, cost, out = _tail(best, entry_level, top, cfg)
        plan = SoftmaxPlan(pairs, boots + k, out)
        if need is None:
            ranked.append(((plan.bootstraps, ms + cost), plan))
        else:
            refreshed = out < min(need, top)
            handed = top if refreshed else out
            ranked.append(((plan.bootstraps + refreshed, -handed, ms + cost), plan))
    return min(ranked, key=lambda item: item[0])[1]


def a_softmax(M, cfg: SoftmaxConfig = DEFAULTS, need: int | None = None):
    """Row-wise approximate softmax.

    Encrypted in: one-block-column, horizontally tiled logits (the product
    layout); out: the same layout, padded columns zero, later periods exact
    copies, refreshed by :func:`softmax_plan` for a consumer that needs
    ``need`` levels of the output (none by default).  Array in: (rows,
    classes) logits; out: (rows, classes) rows, evaluated in row blocks of
    ``_BLOCK_SLOTS // period`` rows.
    Inputs must lie within [-max_range, max_range] (mild overshoot from the
    max underestimation is tolerated by the contraction chain).
    """
    if isinstance(M, EncodedMatrix):
        return _softmax(M, cfg, need)
    arr, classes, period = _array_layout(M)
    block = _BLOCK_SLOTS // period
    if arr.shape[0] <= block:
        return _softmax(arr, cfg)
    out = np.empty((arr.shape[0], classes))
    for start in range(0, arr.shape[0], block):
        out[start : start + block] = _softmax(arr[start : start + block], cfg)
    return out


def _softmax(M, cfg: SoftmaxConfig, need: int | None = None):
    """One unblocked pass of :func:`a_softmax` over all rows of M."""
    car = _Carrier(M)
    work = car.matrix
    pairs = None
    if car.encrypted and M.encrypted:
        pairs = softmax_plan(M.level, car.ctx.max_level, car.classes, cfg, need).pairs
    best = a_max(car, cfg, pairs)
    norm = _refresh(work - best, 1) * car.keep_classes_mask()
    norm = domain_extend(norm, cfg)
    if cfg.precise:
        norm = _dep_compensation(norm, cfg)
    # exps / INV_RANGE: their row total is a_inv's normalized input
    keep_scaled = car.keep_classes_mask(1.0 / INV_RANGE)
    expd = _refresh(_refresh(a_exp(norm), 1) * keep_scaled, 1)
    recip = a_inv(car.row_total(expd))
    out = car.retile(expd * _refresh(recip, 1))
    if car.encrypted:
        return out.with_meta(shape=(M.shape[0], car.classes), tiling="horizontal")
    return out


# -- bounds and measured constants ----------------------------------------------


def amax_error_bound(cfg: SoftmaxConfig, classes: int) -> float:
    """Worst-case a_max underestimation: per-round comparison loss (measured
    supremum, unscaled by 2*max_range) summed over the tournament rounds."""
    rounds = log2(next_pow2(classes))
    return rounds * 2.0 * cfg.max_range * COMP_ROUND_ERR


def theorem_beta(cfg: SoftmaxConfig, classes: int, r: float | None = None) -> float:
    """Closed-form bound on the softmax error added by normalization error r
    plus the contraction chain (independent of the number of steps).

    With r defaulting to :func:`amax_error_bound`, the guarantee is
    ``max |a_softmax - softmax| < beta + eps`` for inputs within
    [-max_range, max_range], eps the small-domain approximation error.
    """
    if classes < 2:
        raise ShapeMismatch("theorem_beta needs at least two classes")
    if r is None:
        r = amax_error_bound(cfg, classes)
    L2 = EXTENSION_BASE**2
    shrink = DEP_DELTA * L2 / (L2 - 1.0)
    t1 = 1.0 / (1.0 + math.exp(min(r, 700.0)) / (classes - 1))
    t2 = 1.0 / (1.0 + math.exp(min(r - shrink * r**3, 700.0)) / (classes - 1))
    t3 = DEP_DELTA * r**3 * L2 / (2.0 * (L2 - 1.0))
    return t1 + t2 + t3


_EPS_CACHE: dict[tuple, float] = {}


def small_domain_eps(cfg: SoftmaxConfig, classes: int) -> float:
    """Measured max error of the full pipeline on [-BASE_RANGE, BASE_RANGE]^c.

    This is the empirical stand-in for the polynomial approximation's
    small-domain minimax error, over 100 000 uniform rows (seed 411);
    cached per (config, classes)."""
    key = (cfg, classes)
    if key not in _EPS_CACHE:
        rng = np.random.default_rng(411)
        x = rng.uniform(-BASE_RANGE, BASE_RANGE, size=(100_000, classes))
        exact = exact_softmax(x)
        approx = a_softmax(x, cfg)
        _EPS_CACHE[key] = float(np.max(np.abs(approx - exact)))
    return _EPS_CACHE[key]
