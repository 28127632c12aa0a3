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
The encrypted carrier runs every step on every period copy of its tiled
input, with ladders that stay inside one period: the tournament's partners
from a period's first column lie in that period, and the max broadcast and
the row total each span one period, so every copy ends equal to the first,
byte for byte, and nothing re-tiles the output.  The array carrier runs the
same arithmetic, in the same order, on every slot the encrypted path reads
of one copy, and only on those: the tournament keeps only the columns a
later round reads, the tail runs on the class columns, and the row total
and the reciprocal on one column per row.  So the array path is a
bit-faithful mirror of the encrypted one, cheap enough for million-sample
error measurement.  :func:`a_softmax` evaluates array inputs in
cache-sized row blocks (``_BLOCK_SLOTS``); every step works within a row,
so the output is bit-identical to a single pass over all rows.

Constant scalings spend no level of their own: the comparison's
(u + 1) / 2, the tournament's 1/(2 max_range) and the exp's 1/EXP_RANGE
live in polynomial coefficients, and the reciprocal's 1/INV_RANGE in the
mask that keeps the classes.  The pipeline is still far deeper than one
level budget (79 levels at 10 classes), so it places its own bootstraps:
before each piece of known depth it calls :func:`_refresh`, which
bootstraps an encrypted input only when its level is below what the piece
consumes.  Each piece's depth is a named constant next to its evaluator:
each pass of the comparison chain ``COMP_PASSES`` (``ODD_POLY_DEPTH``, 3
levels, factored), the tournament's ``best`` before the roll (the
same need, so its rival inherits the fresh level), each contraction step
(``CONTRACTION_DEPTH``, 2), the compensation (``COMPENSATION_DEPTH``, 4),
the baby-step/giant-step exp fit (``EXP_FIT_DEPTH``, 4) and the squarings
after it (``log2(EXP_RANGE)``), the Goldschmidt pair (refreshed together,
one complex-packed bootstrap for both: :func:`_refresh_pair`), and the
one-level glue products.  Each ciphertext is refreshed at most once per
piece, a budget that already suffices never refreshes, and the array path
passes through unchanged.  The deepest pieces need 4 levels, so any
budget of at least 4 runs the whole pipeline on its own refreshes, and
:func:`softmax_plan` refuses a smaller one with
:class:`~hefit.errors.DepthExhausted`.

The tournament is the one place with two live values: the running maximum
``best`` and its comparison chain.  The chain refreshes alone, except at
most at one point per round, its pack point, where it refreshes together
with ``best`` as one complex-packed ciphertext, which also lifts ``best``
and so every piece after it.  :func:`softmax_plan` picks the pack points
with the package's one refresh planner, :func:`cheapest` over moves priced
by :func:`dry_run`, on the pipeline's own code (:func:`_round`,
:func:`_tail`), so the refresh rule and the depths live in the pipeline
alone.  The pieces after the tournament, a chain of one value each, keep
:func:`_refresh`.  Every bootstrap is value-exact, so a plan moves levels
and the ledger, never a slot.

Only two knobs are configurable (:class:`SoftmaxConfig`): the number of
extension steps and the compensation.  The exp and reciprocal parameters
and the contraction base are module constants.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._constants import COMP_ROUND_ERR, EXP_POLY
from .emulator import DEFAULT_OP_WEIGHTS_MS, OP_KINDS, EmulatorContext, log2, tree_sum
from .encoding import (
    EncodedMatrix, bootstrap_pair, col_sums, encode, next_pow2, pattern_matrix,
)
from .errors import DepthExhausted, ShapeMismatch
from .plainref import exact_softmax

# Odd degree-7 pair composed as step(x) ~ sign(x): two passes of the sharp
# inner polynomial, one smoothing outer pass.  Coefficients are (a1, a3,
# a5, a7) of a1*x + a3*x^3 + a5*x^5 + a7*x^7.
COMP_F = (35 / 16, -35 / 16, 21 / 16, -5 / 16)
COMP_G = (4589 / 1024, -16577 / 1024, 25614 / 1024, -12860 / 1024)
# COMP_F halved: a_comp's last pass absorbs the 1/2 of its (u + 1) / 2 map,
# exactly, since halving commutes with rounding.
COMP_F_HALF = tuple(a / 2 for a in COMP_F)
# The comparison chain's passes, in order (:func:`_comp`).
COMP_PASSES = (COMP_G, COMP_G, COMP_F_HALF)

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

    The encrypted carrier works on whole slot grids, each period copy of
    the horizontally tiled input alike: its masks repeat with the period
    and its ladders stay inside one.  The array carrier holds the unpadded
    ``(rows, classes)`` logits and computes only the slots the encrypted
    path reads: its masks are scalars, the tournament keeps only the
    columns a later round reads, and the row total leaves one ``(rows, 1)``
    column, which numpy broadcasts over the row.  Padding exists only
    inside the tournament and the row total.
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
        """``value`` on the class columns of every period copy, 0 on the
        padded ones; an array has no padded columns, so there it is the
        scalar ``value``."""
        if not self.encrypted:
            return value
        c, cp = self.classes, self.period
        return self._pattern(lambda j: np.where((j % cp) < c, value, 0.0))

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

    def broadcast_col0(self, x):
        """The first column of each period copy in every column of that
        copy: a first-column mask and the right-rotation ladder that copies
        it across the period, in closed form (:meth:`EncodedMatrix.spread`
        of window 0); one level, refreshed for the mask.  An array's
        tournament already left column 0 alone."""
        if not self.encrypted:
            return x
        return _refresh(x, 1).spread(1, self.period)

    def row_total(self, x):
        """Each row's column total, summed in the encrypted tree order
        (:func:`~hefit.emulator.tree_sum`): in every slot of each period
        copy when encrypted (:func:`~hefit.encoding.col_sums` of the tiled
        exps), as a ``(rows, 1)`` column for an array, whose zero pads keep
        the tree's order."""
        if self.encrypted:
            return col_sums(x)
        return tree_sum(self._padded(x, 0.0))


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


def _comp(d, first, pack=None, best=None):
    """Soft comparison of a difference d through :data:`COMP_PASSES`, the
    first pass through ``first``; returns ``(w, best)``.

    ``(u + 1) / 2`` of the composition u is ``u / 2 + 1/2``, with the half
    folded into the last pass, so the map costs no level.  Before
    ``COMP_PASSES[pack]`` the chain refreshes together with ``best``
    (:func:`_refresh_pair`).
    """
    for i, coeffs in enumerate((first, *COMP_PASSES[1:])):
        if i == pack:
            d, best = _refresh_pair(d, best, ODD_POLY_DEPTH)
        d = _odd_poly(d, coeffs)
    return d + 0.5, best


def a_comp(x, y):
    """Soft comparison of two slot values scaled to [-1/2, 1/2].

    Returns ~1 where x exceeds y by a clear margin, ~0 in the opposite
    case, exactly 1/2 at equality (odd composition through zero).
    """
    return _comp(x - y, COMP_PASSES[0])[0]


def a_max(M, cfg: SoftmaxConfig = DEFAULTS, pairs=None):
    """Row-wise approximate maximum, broadcast into every slot of the row.

    The comparison sees each difference scaled into [-1, 1] by 1/(2R),
    R = max_range, but the tournament itself runs unscaled: the scale lives
    in the first comparison pass's coefficients (a_k / (2R)^k for the odd
    power k), which is exact because 2R is a power of two.  Padded columns
    are pushed down by R (periodically with the tiling, so every copy
    behaves alike) and can never win.  log2(period) knockout rounds blend
    each slot with its partner ``1 << t`` to the right through the
    comparison; the first column of each period copy then holds the
    winner, having read only slots of its own period, and it is isolated
    and broadcast across that period.  The result never exceeds the true
    maximum (the blends are convex), and it equals, bit for bit, a
    tournament on inputs scaled by 1/(2R) whose winner is scaled back by
    2R.  ``pairs`` holds
    one pack point per round (:func:`_round`, :attr:`SoftmaxPlan.pairs`);
    without it every refresh is the comparison chain's own, and an array
    ignores it.

    An array carrier evaluates each round only on the columns a later round
    reads (:meth:`_Carrier.knockout_pair`), 2^k - 1 column evaluations for
    a period of 2^k instead of k 2^k.  An array input returns a ``(rows,
    period)`` array; :func:`_softmax` passes its own carrier and gets the
    ``(rows, 1)`` column its tail reads.
    """
    car = M if isinstance(M, _Carrier) else _Carrier(M)
    r = cfg.max_range
    first = tuple(a / (2 * r) ** (2 * k + 1) for k, a in enumerate(COMP_PASSES[0]))
    if pairs is None or not car.encrypted:
        pairs = (None,) * log2(car.period)
    best = car.pushed_down(r)
    for t, pack in enumerate(pairs):
        best = _round(car, best, t, first, pack)
    best = car.broadcast_col0(best)
    if car.encrypted or M is car:
        return best
    return np.repeat(best, car.period, axis=1)


def _round(car: _Carrier, best, t: int, first, pack: int | None):
    """Knockout round t of :func:`a_max`, its first comparison pass through
    ``first``.

    ``best`` is refreshed for the first comparison polynomial before the
    roll, so ``rival`` inherits the fresh level.  ``best`` then loses one
    level, at the blend, and the chain ``best - rival`` one ``ODD_POLY_DEPTH``
    per pass (:func:`_comp`).  At ``pack`` (i before pass i + 1,
    ``len(COMP_PASSES)`` before the blend, None nowhere) the chain refreshes
    together with ``best`` as one complex-packed ciphertext, not alone, and
    ``rival`` is re-rolled from the fresh ``best`` (one Rot).  A pack before
    pass 1 would never fire: the chain starts at ``best``'s fresh level.
    Bootstraps are value-exact, so ``pack`` moves levels and the ledger,
    never a slot; an array has no levels.
    """
    best = _refresh(best, ODD_POLY_DEPTH)
    best, rival = car.knockout_pair(best, t)
    w, best = _comp(best - rival, first, pack, best)
    blend_pack = pack == len(COMP_PASSES)
    w, best = _refresh_pair(w, best, 1) if blend_pack else (_refresh(w, 1), best)
    if pack is not None:
        best, rival = car.knockout_pair(best, t)
    return best * w + rival * (1.0 - w)


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


_BOOTSTRAPS = OP_KINDS.index("Bootstrap")
_WEIGHTS = tuple(DEFAULT_OP_WEIGHTS_MS[kind] for kind in OP_KINDS)


def rank(counts: tuple[int, ...]) -> tuple[int, float]:
    """The order of refresh plans by their op counts: the fewest bootstraps,
    then the least :meth:`~hefit.emulator.OpLedger.estimate_ms` (the same
    sum, term by term), so equal counts tie exactly."""
    return counts[_BOOTSTRAPS], float(sum(map(operator.mul, counts, _WEIGHTS)))


def dry_run(slots: int, grid_rows: int, max_level: int, step):
    """Op counts, in :data:`~hefit.emulator.OP_KINDS` order, and result of
    ``step(zeros)`` in a fresh context of ``slots`` slots in ``grid_rows``
    rows on a budget of ``max_level``, ``zeros(shape, tiling, level)``
    encoding a zero matrix; None where a level runs out.  Planners price
    their moves so, and cache levels and counts, never ciphertexts."""
    ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
    try:
        out = step(lambda shape, tiling, level=None:
                   encode(ctx, np.zeros(shape), tiling, level=level))
    except DepthExhausted:
        return None
    counts = ctx.ledger.counts()
    return tuple(counts[kind] for kind in OP_KINDS), out


def cheapest(start, stages, key=lambda counts, end: rank(counts)):
    """The cheapest chain of moves through ``stages`` from ``start``:
    ``(choices, counts, end)``, one choice per stage, the summed op counts
    and the end state; None where no chain gets through.

    ``stages[t](state)`` gives stage t's moves as ``(choice, counts,
    next_state)``, counts as from :func:`dry_run`; ``key(counts, end)``
    orders chains, by default by :func:`rank`.  A finite-horizon backward
    dynamic program: from the last stage back, each state reachable from
    ``start`` keeps its cheapest rest of the chain, and of moves of equal
    key the first, so of equally cheap chains the plan is the
    lexicographically first in each stage's move order.  This is the one
    tie-break rule of every refresh plan in the package.
    """
    frontiers = [{start}]
    for stage in stages:
        frontiers.append({nxt for state in frontiers[-1] for _, _, nxt in stage(state)})
    # rest[state]: (key, counts, end, choices) of the cheapest rest of the
    # chain from ``state``, choices as nested (choice, rest) pairs; past the
    # last stage, every state is free
    rest = {state: (None, (0,) * len(OP_KINDS), state, ()) for state in frontiers.pop()}
    for stage, states in zip(reversed(stages), reversed(frontiers)):
        here = {}
        for state in states:
            for choice, counts, nxt in stage(state):
                if nxt in rest:
                    _, after, end, choices = rest[nxt]
                    counts = tuple(map(operator.add, counts, after))
                    k = key(counts, end)
                    if state not in here or k < here[state][0]:
                        here[state] = (k, counts, end, (choice, choices))
        rest = here
    if start not in rest:
        return None
    _, counts, end, link = rest[start]
    choices = []
    while link:
        choice, link = link
        choices.append(choice)
    return tuple(choices), counts, end


@dataclass(frozen=True)
class SoftmaxPlan:
    """Where one encrypted softmax refreshes, and what that predicts.

    ``pairs`` holds :func:`a_max`'s choices, one pack point per tournament
    round (:func:`_round`): where the comparison chain refreshes together
    with ``best`` (one packed bootstrap), or None where every refresh is the
    chain's alone.  ``counts`` (op counts per block, in
    :data:`~hefit.emulator.OP_KINDS` order) and ``level`` are what the
    softmax executes and hands on, on any budget of at least 4 levels;
    ``bootstraps`` is the count of bootstraps among them.
    """

    pairs: tuple[int | None, ...]
    counts: tuple[int, ...]
    level: int

    @property
    def bootstraps(self) -> int:
        return self.counts[_BOOTSTRAPS]


# A round's pack points, None first: of equal-cost moves the plan keeps the
# first, so a pack that changes nothing is not made.  Two packs in one round
# are never cheaper: at budgets 1 to 24, from every level of ``best``, one of
# these reaches as high a level for no more bootstraps and no more ms.
_ROUND_PACKS = (None, *range(1, len(COMP_PASSES) + 1))


def _period_run(top: int, classes: int, step, *levels: int):
    """:func:`dry_run` of ``step`` on carriers of ``(1, classes)`` zeros at
    ``levels`` whose one row is one period, so its counts are one block's
    ledger of any tiled input; the result is the output's level."""
    return dry_run(next_pow2(classes), 1, top, lambda zeros: step(
        *(_Carrier(zeros((1, classes), "horizontal", lv)) for lv in levels)).level)


@functools.lru_cache(maxsize=None)
def _round_run(best: int, top: int, pack: int | None):
    """:func:`_round` from ``best``'s level, dry; its ledger depends on
    neither the round's index, nor its coefficients, nor the period."""
    first = COMP_PASSES[0]
    return _period_run(top, 2, lambda car: _round(car, car.matrix, 0, first, pack), best)


def _normalize(x: _Carrier, best):
    """The logits less the tournament's broadcast winner ``best``, after
    :func:`a_max`'s Sub that pushes the padded columns down: every op of
    the softmax outside its tournament rounds and its tail."""
    x.pushed_down(1.0)
    return x.matrix - x.broadcast_col0(best)


@functools.lru_cache(maxsize=None)
def _norm_run(best: int, entry: int, top: int, classes: int):
    """:func:`_normalize` of logits at ``entry`` by a winner at ``best``, dry."""
    return _period_run(top, classes, lambda x, car: _normalize(x, car.matrix), entry, best)


@functools.lru_cache(maxsize=None)
def _tail_run(norm: int, top: int, cfg: SoftmaxConfig, classes: int):
    """:func:`_tail` from the normalized logits' level, dry."""
    return _period_run(top, classes, lambda car: _tail(car, car.matrix, cfg), norm)


def _move(choice, run):
    """A stage's move ``choice``, priced by the dry run ``run``; none where it ran out."""
    return ((choice, *run),) if run else ()


@functools.lru_cache(maxsize=1024)
def softmax_plan(
    entry_level: int, max_level: int, classes: int, cfg: SoftmaxConfig = DEFAULTS,
    need: int | None = None,
) -> SoftmaxPlan:
    """The refresh plan of one encrypted softmax entering at ``entry_level``.

    The cheapest chain (:func:`cheapest`) through one stage per tournament
    round, whose moves are :data:`_ROUND_PACKS`, then the normalization and
    :func:`_tail`, each move a dry run of the pipeline's own code.  ``need``
    is the levels the output's consumer will need (the trainer's residual,
    :func:`hefit.training.plan_steps`): an output below it counts the
    consumer's refresh, then the plan hands on the highest level
    (``max_level`` where the consumer refreshes), then the least ms.
    Without it, the fewest bootstraps, then the least ms, so it never costs
    more than refreshing every chain alone.  Cached per key.  A budget
    below the deepest pieces' ``EXP_FIT_DEPTH`` levels leaves no chain and
    raises :class:`~hefit.errors.DepthExhausted`.
    """
    top = max_level

    def rounds(best):
        return [m for pack in _ROUND_PACKS for m in _move(pack, _round_run(best, top, pack))]

    def key(counts, out):
        bootstraps, ms = rank(counts)
        if need is None:
            return bootstraps, ms
        refreshed = out < min(need, top)
        return bootstraps + refreshed, -(top if refreshed else out), ms

    stages = [rounds] * log2(next_pow2(classes)) + [
        lambda best: _move(None, _norm_run(best, entry_level, top, classes)),
        lambda norm: _move(None, _tail_run(norm, top, cfg, classes)),
    ]
    chain = cheapest(entry_level, stages, key)
    if chain is None:
        raise DepthExhausted(
            f"the softmax cannot run on a budget of {max_level} levels: its deepest "
            f"pieces need {EXP_FIT_DEPTH}"
        )
    choices, counts, level = chain
    return SoftmaxPlan(choices[:-2], counts, level)


def a_softmax(M, cfg: SoftmaxConfig = DEFAULTS, need: int | None = None):
    """Row-wise approximate softmax.

    Encrypted in: one-block-column, horizontally tiled logits (the product
    layout); out: the same layout, padded columns zero, every period copy
    computed alike and so equal to the first byte for byte, refreshed by
    :func:`softmax_plan` for a consumer that needs ``need`` levels of the
    output (none by default; a training step passes the need its step plan
    chose, :class:`hefit.training.StepPlan`).  Array in: (rows, classes)
    logits; out: (rows, classes) rows, evaluated in row blocks of
    ``_BLOCK_SLOTS // period`` rows, at least one.
    Inputs must lie within [-max_range, max_range] (mild overshoot from the
    max underestimation is tolerated by the contraction chain).
    """
    if isinstance(M, EncodedMatrix):
        return _softmax(M, cfg, need)
    arr, classes, period = _array_layout(M)
    block = max(1, _BLOCK_SLOTS // period)
    out = np.empty((arr.shape[0], classes))
    for start in range(0, arr.shape[0], block):
        out[start : start + block] = _softmax(arr[start : start + block], cfg)
    return out


def _softmax(M, cfg: SoftmaxConfig, need: int | None = None):
    """One unblocked pass of :func:`a_softmax` over all rows of M."""
    car = _Carrier(M)
    pairs = None
    if car.encrypted and M.encrypted:
        pairs = softmax_plan(M.level, car.ctx.max_level, car.classes, cfg, need).pairs
    out = _tail(car, car.matrix - a_max(car, cfg, pairs), cfg)
    if car.encrypted:
        return out.with_meta(shape=(M.shape[0], car.classes), tiling="horizontal")
    return out


def _tail(car: _Carrier, norm, cfg: SoftmaxConfig):
    """The softmax after the tournament, from the normalized logits
    ``norm`` = x - max: padded columns masked, contracted, compensated,
    exponentiated, and multiplied by the reciprocal of the row total."""
    norm = _refresh(norm, 1) * car.keep_classes_mask()
    norm = domain_extend(norm, cfg)
    if cfg.precise:
        norm = _dep_compensation(norm, cfg)
    # exps / INV_RANGE: their row total is a_inv's normalized input
    keep_scaled = car.keep_classes_mask(1.0 / INV_RANGE)
    expd = _refresh(_refresh(a_exp(norm), 1) * keep_scaled, 1)
    recip = a_inv(car.row_total(expd))
    return expd * _refresh(recip, 1)


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


@functools.lru_cache(maxsize=None)
def small_domain_eps(cfg: SoftmaxConfig, classes: int) -> float:
    """Measured max error of the full pipeline on [-BASE_RANGE, BASE_RANGE]^c.

    This is the empirical stand-in for the polynomial approximation's
    small-domain minimax error, over 100 000 uniform rows (seed 411);
    cached per (config, classes)."""
    rng = np.random.default_rng(411)
    x = rng.uniform(-BASE_RANGE, BASE_RANGE, size=(100_000, classes))
    return float(np.max(np.abs(a_softmax(x, cfg) - exact_softmax(x))))
