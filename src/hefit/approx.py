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
The encrypted carrier's ladders stay inside one period: the tournament's
partners from a period's first column lie in that period, and the max
broadcast and the row total each span one period.  So each period copy of
its horizontally tiled input would compute the first copy's numbers, byte
for byte, and :func:`a_softmax` computes the first copy of each row alone,
in a scope where the context's rows are one period wide
(:meth:`_Carrier.one_period`), then tiles the result across the row once.
The ledger counts blocks, not slots, so it is the full width's.  The array
carrier runs the same arithmetic, in the same order, on every slot the
encrypted path reads of one copy, and only on those: the tournament keeps
only the columns a later round reads, the tail runs on the class columns,
and the row total and the reciprocal on one column per row.  So the array path is a
bit-faithful mirror of the encrypted one, cheap enough for million-sample
error measurement.  :func:`a_softmax` evaluates array inputs in
cache-sized row blocks (``_BLOCK_SLOTS``); every step works within a row,
so the output is bit-identical to a single pass over all rows.

Constant scalings spend no level of their own: the comparison's
(u + 1) / 2, the tournament's 1/(2 max_range) and the exp's 1/EXP_RANGE
live in polynomial coefficients, and the reciprocal's 1/INV_RANGE in the
mask that keeps the classes.  The pipeline is still far deeper than one
level budget (78 levels at 10 classes), so it places its own bootstraps:
before each piece of known depth it calls :func:`_refresh`, which
bootstraps an encrypted input when its level is below what the piece
consumes, or where the plan says so.  Each piece's depth is a named
constant next to its evaluator: each pass of the comparison chain
``COMP_PASSES`` (``ODD_POLY_DEPTH``, 3 levels, factored), the
tournament's ``best`` before the roll (the same need, so its rival
inherits the fresh level), each contraction step (``CONTRACTION_DEPTH``,
2), the compensation (``COMPENSATION_DEPTH``, 4), the baby-step/giant-step
exp fit (``EXP_FIT_DEPTH``, 4) and the squarings after it
(``log2(EXP_RANGE)``), the Goldschmidt pair (refreshed together, one
complex-packed bootstrap for both: :func:`_refresh_pair`), and the
one-level glue products.  Each ciphertext is refreshed at most once per
piece, a plan takes no early refresh on a budget that already suffices,
and the array path passes through unchanged.  The deepest pieces need 4
levels, so any budget of at least 4 runs the whole pipeline on its own
refreshes, and :func:`softmax_plan` refuses a smaller one with
:class:`~hefit.errors.DepthExhausted`.

The softmax is stated once, as one list of refresh points
(:func:`_softmax_points`), each a piece of the pipeline's own code and its
moves.  A tournament round's moves are its pack points: the comparison
chain refreshes alone, or at most at one point per round together with
the running maximum ``best``, as one complex-packed ciphertext, which also
lifts ``best`` and so every piece after it.  After the tournament a value
may also refresh early, although its level suffices, where that lifts the
pieces after it for less than it costs.  The executor walks the list
(:func:`_walk`), each stage function its own slice, with the plan's moves
or, without a plan, each point's first.  :func:`softmax_plan` picks the
moves with the package's one refresh planner, :func:`cheapest` over moves
priced by :func:`dry_run` of each piece (:func:`_piece_run`), and ranks
plans by :func:`rank`, the estimated ms first, so the refresh rule and the
depths live in the pipeline alone.  Every bootstrap is value-exact, so a
plan moves levels and the ledger, never a slot.

Only two knobs are configurable (:class:`SoftmaxConfig`): the number of
extension steps and the compensation.  The exp and reciprocal parameters
and the contraction base are module constants.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._constants import COMP_ROUND_ERR, EXP_POLY
from .emulator import (
    DEFAULT_OP_WEIGHTS_MS, OP_KINDS, CipherBlock, EmulatorContext, log2, tree_sum,
)
from .encoding import (
    EncodedMatrix, bootstrap_pair, col_sums, encode, leading_copies, next_pow2, pattern_matrix,
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
    if arr.ndim != 2 or not arr.shape[1]:
        raise ShapeMismatch(f"softmax expects a 2D array of 1 or more classes, got shape {arr.shape}")
    return arr, arr.shape[1], next_pow2(arr.shape[1])


class _Carrier:
    """Layout facts and layout-dependent steps for one input matrix.

    The encrypted carrier works on whole slot grids: its masks repeat with
    the period and its ladders stay inside one, so each period copy of the
    horizontally tiled input computes alike.  :meth:`one_period` narrows it
    to the first copy of each row for a scope, and :meth:`tiled` copies a
    result computed there back across the row.  The array carrier holds
    the unpadded ``(rows, classes)`` logits and computes only the slots
    the encrypted path reads: its masks are scalars, the tournament keeps
    only the columns a later round reads, and the row total leaves one
    ``(rows, 1)`` column, which numpy broadcasts over the row.  Padding exists only
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

    @contextlib.contextmanager
    def one_period(self):
        """An encrypted carrier on the first period copy of each row, for
        the scope: ``matrix`` holds ``grid_rows x period`` slots per block
        and the context's rows are one period wide
        (:meth:`~hefit.emulator.EmulatorContext.narrowed`).

        Every copy computes the first copy's numbers, so the first alone
        stands for all; an input whose copies are not all the first, bit
        for bit, is malformed and raises :class:`~hefit.errors.TilingError`
        (:func:`~hefit.encoding.leading_copies`).
        """
        M = self.matrix
        self.matrix = leading_copies(M)
        try:
            with self.ctx.narrowed(cols=self.period):
                yield
        finally:
            self.matrix = M

    def tiled(self, out: EncodedMatrix) -> EncodedMatrix:
        """A result computed in :meth:`one_period`, copied across each row,
        in the input's layout."""
        ctx, p, M = self.ctx, self.period, self.matrix
        rows = out.block.slots.reshape(out.grid[0], 1, ctx.grid_rows, 1, p)
        wide = np.broadcast_to(rows, (*rows.shape[:3], ctx.grid_cols // p, p))
        slots = wide.reshape(*rows.shape[:2], ctx.slot_count)
        block = CipherBlock(slots, out.level, out.encrypted)
        return EncodedMatrix(ctx, block, (M.shape[0], self.classes), "horizontal")

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

    def keep_classes_mask(self, value: float):
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


def _refresh(x, need: int, early: bool = False):
    """Bootstrap an encrypted matrix whose level is below ``need``.

    ``need`` is the depth of the piece about to consume ``x``, capped at the
    context's ``max_level``.  A matrix that already has it, a plaintext
    matrix and a numpy array come back unchanged, so both carriers run the
    same pipeline code and a deep enough budget never refreshes.  ``early``
    (a refresh point's move, :attr:`SoftmaxPlan.moves`) raises the need to
    ``max_level``: refresh now, although the level suffices.
    """
    return x.bootstrap() if _below(x, math.inf if early else need) else x


def _refresh_pair(a, b, need: int, early: bool = False):
    """:func:`_refresh` for two real matrices consumed together.

    If either is an encrypted matrix below ``need`` (``max_level`` if
    ``early``), both are refreshed through one complex-packed bootstrap
    (:func:`bootstrap_pair`), which returns them at ``max_level - 1``;
    otherwise both come back unchanged.
    """
    if early:
        need = math.inf
    return bootstrap_pair(a, b) if _below(a, need) or _below(b, need) else (a, b)


def _below(x, need: int) -> bool:
    """Whether x is an encrypted matrix whose level is below ``need``,
    capped at the context's ``max_level``."""
    return isinstance(x, EncodedMatrix) and x.level < min(need, x.ctx.max_level)


# A refresh point's moves: its one, or no early refresh, then an early one.
_NONE = (None,)
_FLAG = (False, True)


def _walk(car, points, live, moves=None):
    """Run the refresh points ``points`` (:func:`_softmax_points`) from the
    values ``live``; returns the values alive after the last.

    At each ``(piece, first, choices, coeffs)``, ``piece(car,
    *live[first:], move, **coeffs)`` hands on the values after
    ``live[:first]``; ``first`` counts from the end, so a stage's slice
    runs alone as within the whole list.  ``move`` is the next of
    ``moves``, the plan's (:attr:`SoftmaxPlan.moves`), which the stages of
    one softmax share, or without a plan the point's first choice.
    """
    for piece, first, choices, coeffs in points:
        out = piece(car, *live[first:], choices[0] if moves is None else next(moves), **coeffs)
        live = live[:first] + (out if isinstance(out, tuple) else (out,))
    return live


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


def a_max(M, cfg: SoftmaxConfig = DEFAULTS, moves=None):
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
    2R.  ``moves`` yields a plan's move at each of :func:`_max_points`
    (:func:`_walk`); without it every refresh is the comparison chain's
    own.

    An array carrier evaluates each round only on the columns a later round
    reads (:meth:`_Carrier.knockout_pair`), 2^k - 1 column evaluations for
    a period of 2^k instead of k 2^k.  An array input returns a ``(rows,
    period)`` array; :func:`_softmax` passes its own carrier and gets the
    ``(rows, 1)`` column its tail reads.
    """
    car = M if isinstance(M, _Carrier) else _Carrier(M)
    _, best = _walk(car, _max_points(cfg, car.classes), (car.matrix,), moves)
    if car.encrypted or M is car:
        return best
    return np.repeat(best, car.period, axis=1)


@functools.cache
def _max_points(cfg: SoftmaxConfig, classes: int):
    """:func:`a_max`'s refresh points, on the logits and, after the first,
    ``best`` beside them: the push-down of the padded columns, one
    :func:`_round` per tournament round and the winner's broadcast."""
    r = cfg.max_range
    first_pass = tuple(a / (2 * r) ** (2 * k + 1) for k, a in enumerate(COMP_PASSES[0]))
    rounds = ((_round, -1, _ROUND_PACKS, {"t": t, "first_pass": first_pass})
              for t in range(log2(next_pow2(classes))))
    return ((_push, -1, _NONE, {"r": r}), *rounds, (_broadcast, -1, _NONE, {}))


def _push(car: _Carrier, x, move, r: float = 1.0):
    """The logits x, and ``best``: x with its padded columns lowered by r."""
    return x, car.pushed_down(r)


# A round's pack points, None first: of equal-cost moves the plan keeps the
# first, so a pack that changes nothing is not made.  Two packs in one round
# are never cheaper: at budgets 1 to 24, from every level of ``best``, one of
# these reaches as high a level for no more bootstraps and no more ms.
_ROUND_PACKS = (None, *range(1, len(COMP_PASSES) + 1))


def _round(car: _Carrier, best, pack: int | None, t: int = 0, first_pass=COMP_PASSES[0]):
    """Knockout round t of :func:`a_max`, its first comparison pass through
    ``first_pass``.

    ``best`` is refreshed for the first comparison polynomial before the
    roll, so ``rival`` inherits the fresh level.  ``best`` then loses one
    level, at the blend, and the chain ``best - rival`` one ``ODD_POLY_DEPTH``
    per pass (:func:`_comp`).  At ``pack``, the round's move (i before pass
    i + 1, ``len(COMP_PASSES)`` before the blend, None nowhere), the chain
    refreshes together with ``best`` as one complex-packed ciphertext, not
    alone, and ``rival`` is re-rolled from the fresh ``best`` (one Rot).  A
    pack before pass 1 would never fire: the chain starts at ``best``'s
    fresh level.  ``pack`` moves levels and the ledger, never a slot; the
    array path takes none.
    """
    best = _refresh(best, ODD_POLY_DEPTH)
    best, rival = car.knockout_pair(best, t)
    w, best = _comp(best - rival, first_pass, pack, best)
    blend_pack = pack == len(COMP_PASSES)
    w, best = _refresh_pair(w, best, 1) if blend_pack else (_refresh(w, 1), best)
    if pack is not None:
        best, rival = car.knockout_pair(best, t)
    return best * w + rival * (1.0 - w)


def _broadcast(car: _Carrier, best, move):
    """The winner in every column of its period copy."""
    return car.broadcast_col0(best)


# Levels one contraction step consumes.
CONTRACTION_DEPTH = 2


def domain_extend(M, cfg: SoftmaxConfig = DEFAULTS, moves=None):
    """Contract [-max_range, max_range] into [-BASE_RANGE, BASE_RANGE].

    Applies the cubic x - delta_i x^3 from the widest scale inward
    (:func:`_contract`); each step costs one CMult and two Mults (two
    levels).  ``moves`` as :func:`a_max`'s, at :func:`_extend_points`.
    """
    return _walk(None, _extend_points(cfg), (M,), moves)[0]


@functools.cache
def _extend_points(cfg: SoftmaxConfig):
    """:func:`domain_extend`'s refresh points, the widest scale first."""
    return tuple((_contract, -1, _FLAG, {"delta": DEP_DELTA * EXTENSION_BASE ** (-2 * i)})
                 for i in reversed(range(cfg.extension_steps)))


def _contract(car, M, early: bool, delta: float = DEP_DELTA):
    """One contraction step of :func:`domain_extend`, x - delta x^3, in
    CONTRACTION_DEPTH levels."""
    M = _refresh(M, CONTRACTION_DEPTH, early)
    square = M * M
    scaled = M * delta
    return M - square * scaled


# Levels the contraction-bias compensation consumes.
COMPENSATION_DEPTH = 4


def _dep_compensation(M, cfg: SoftmaxConfig, moves=None):
    """Degree-5 correction approximating the inverse of the contraction
    (:func:`_compensate`); ``moves`` as :func:`a_max`'s."""
    return _walk(None, _compensation_points(cfg), (M,), moves)[0]


def _compensation_points(cfg: SoftmaxConfig):
    """:func:`_dep_compensation`'s one refresh point."""
    return ((_compensate, -1, _FLAG, {"cfg": cfg}),)


def _compensate(car, M, early: bool, cfg: SoftmaxConfig = DEFAULTS):
    """``x + (4/27) K (x^3/R^2 - x^5/R^4)`` with K the closed-form sum of
    the per-step contraction strengths; adds back the cubic shrinkage and
    trims the fifth-order overshoot."""
    L2 = EXTENSION_BASE**2
    Ln = L2**cfg.extension_steps
    K = L2 * (Ln - 1.0) / (Ln * (L2 - 1.0))
    R = BASE_RANGE
    c3 = (4.0 / 27.0) * K / R**2
    c5 = (4.0 / 27.0) * K / R**4
    M = _refresh(M, COMPENSATION_DEPTH, early)
    square = M * M
    cube = square * M
    fifth = cube * square
    return M + (cube * c3 - fifth * c5)


# Levels the baby-step/giant-step evaluation of the exp fit consumes.
EXP_FIT_DEPTH = 4


def _exp_fit(car, z, early: bool, c=EXP_POLY_UNSCALED):
    """Degree-12 polynomial of coefficients c (c[k] of z^k) at z in
    EXP_FIT_DEPTH levels (6 Mult + 10 CMult).

    Baby steps z, z^2, z^3 build three degree-3 chunks q0, q1, q2; giant
    steps z^4, z^8 combine them as q0 + z^4 q1 + z^8 (q2 + c12 z^4)
    (Paterson-Stockmeyer), so the fit costs four levels instead of Horner's
    twelve.
    """
    z = _refresh(z, EXP_FIT_DEPTH, early)
    z2 = z * z
    z3 = z2 * z
    z4 = z2 * z2

    def chunk(k):
        return z * c[k + 1] + c[k] + z2 * c[k + 2] + z3 * c[k + 3]

    # the top term first, so fewer chunks and powers are alive at once
    top = (z4 * z4) * (chunk(8) + z4 * c[12])
    return chunk(0) + z4 * chunk(4) + top


def a_exp(M, moves=None):
    """exp on [-EXP_RANGE, EXP_RANGE]: fitted polynomial at x/B, squared log2(B) times.

    The 1/B lives in the coefficients (:data:`EXP_POLY_UNSCALED`), so the
    fit reads x itself and a_exp costs EXP_FIT_DEPTH + log2(B) levels, bit
    for bit the value of EXP_POLY at x/B.  The degree-12 fit carries ~3e-13
    of error on [-1, 1]; squaring preserves the relative error, so accuracy
    is near machine precision across the whole base range.  ``moves`` as
    :func:`a_max`'s, at the fit and the squarings (:data:`_EXP_POINTS`).
    """
    return _walk(None, _EXP_POINTS, (M,), moves)[0]


def _squarings(car, acc, early: bool):
    """acc^EXP_RANGE, by log2(EXP_RANGE) squarings: a_exp after its fit."""
    acc = _refresh(acc, log2(EXP_RANGE), early)
    for _ in range(log2(EXP_RANGE)):
        acc = acc * acc
    return acc


_EXP_POINTS = ((_exp_fit, -1, _FLAG, {}), (_squarings, -1, _FLAG, {}))


def a_inv(y, moves=None):
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
    instead of 2.  ``y`` is refreshed for the first square.  ``moves`` as
    :func:`a_max`'s, at :func:`_inv_points`.
    """
    return _walk(None, _inv_points(), (y,), moves)[0]


def _inv_points():
    """:func:`a_inv`'s refresh points: ``y`` for the first square, then
    each iteration's pair; the last hands on ``a`` alone."""
    iters = ((_goldschmidt, -2, _FLAG, {}),) * (INV_ITERS - 1)
    return ((_inv_pair, -1, _FLAG, {}), *iters, (_last_goldschmidt, -2, _FLAG, {}))


def _inv_pair(car, y, early: bool):
    """:func:`a_inv`'s starting pair ``(2 - y, 1 - y)``, ``y`` refreshed
    for the first square."""
    y = _refresh(y, 1, early)
    return 2.0 - y, 1.0 - y


def _goldschmidt(car, a, b, early: bool):
    """One iteration of :func:`a_inv` on the pair ``(a, b)``."""
    b = b * b
    a, b = _refresh_pair(a, b, 1, early)
    return a * (b + 1.0), b


def _last_goldschmidt(car, a, b, early: bool):
    """:func:`a_inv`'s last iteration, whose ``b`` nothing reads."""
    return _goldschmidt(car, a, b, early)[0]


# -- refresh plan ---------------------------------------------------------------


_BOOTSTRAPS = OP_KINDS.index("Bootstrap")
_WEIGHTS = tuple(DEFAULT_OP_WEIGHTS_MS[kind] for kind in OP_KINDS)


def rank(counts: tuple[int, ...]) -> tuple[float, int]:
    """The order of refresh plans by their op counts: the least
    :meth:`~hefit.emulator.OpLedger.estimate_ms` (the same sum, term by
    term, so equal counts tie exactly), then the fewest bootstraps.  A
    bootstrap is priced in the ms already, so a plan takes one more where
    it saves more than its price in other ops."""
    return float(sum(map(operator.mul, counts, _WEIGHTS))), counts[_BOOTSTRAPS]


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


def cheapest(start, stages, key=lambda counts, end: rank(counts), memo=None):
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

    ``memo``, one dict per stage and one past the last, keeps those rests
    for a caller that plans the same stages under the same key from many
    starts, so each call plans only the states no earlier call met.  The
    keys in use add up a chain's counts and then look at its end alone, so
    the cheapest rest from a state does not depend on how it was reached.
    """
    if memo is None:
        memo = [{} for _ in range(len(stages) + 1)]
    # layers[t][state]: stage t's moves from each state it can be entered
    # in and whose rest is not known yet
    layers, states = [], {start} - memo[0].keys()
    for stage, known in zip(stages, memo[1:]):
        layers.append({state: tuple(stage(state)) for state in states})
        states = {nxt for moves in layers[-1].values() for _, _, nxt in moves} - known.keys()
    # memo[t][state]: (key, counts, end, choices) of the cheapest rest of
    # the chain from ``state`` at stage t, choices as nested (choice, rest)
    # pairs; past the last stage, every state is free
    memo[-1].update((state, (None, (0,) * len(OP_KINDS), state, ())) for state in states)
    for t in reversed(range(len(layers))):
        rest, here = memo[t + 1], memo[t]
        for state, moves in layers[t].items():
            for choice, counts, nxt in moves:
                if nxt in rest:
                    _, after, end, choices = rest[nxt]
                    counts = tuple(map(operator.add, counts, after))
                    k = key(counts, end)
                    if state not in here or k < here[state][0]:
                        here[state] = (k, counts, end, (choice, choices))
    if start not in memo[0]:
        return None
    _, counts, end, link = memo[0][start]
    choices = []
    while link:
        choice, link = link
        choices.append(choice)
    return tuple(choices), counts, end


@dataclass(frozen=True)
class SoftmaxPlan:
    """Where one encrypted softmax refreshes, and what that predicts.

    ``moves`` holds one move per refresh point (:func:`_softmax_points`):
    a tournament round's pack point (:func:`_round`), or None where every
    refresh is the comparison chain's alone; after the tournament, True
    where the value refreshes although its level suffices for the piece
    ahead; None at the points of one move.  ``counts`` (op counts per
    block, in :data:`~hefit.emulator.OP_KINDS` order) and ``level`` are
    what the softmax executes and hands on, on any budget of at least 4
    levels; ``bootstraps`` is the count of bootstraps among them.
    """

    moves: tuple
    counts: tuple[int, ...]
    level: int

    @property
    def bootstraps(self) -> int:
        return self.counts[_BOOTSTRAPS]


def _softmax_points(cfg: SoftmaxConfig, classes: int):
    """The encrypted softmax's refresh points in its order (:func:`_walk`),
    ``choices`` in tie-break order: each stage function's slice as
    :func:`_softmax` enters it, and the softmax's own points between them.
    :func:`softmax_plan` prices them."""
    compensation = _compensation_points(cfg) * cfg.precise
    return (_max_points(cfg, classes) + _NORM + _extend_points(cfg) + compensation
            + _EXP_POINTS + _TOTAL + _inv_points() + _PRODUCT)


@functools.lru_cache(maxsize=None)
def _piece_run(piece, levels: tuple[int, ...], top: int, classes: int, move):
    """:func:`dry_run` of a refresh point's ``piece`` with ``move`` and its
    default coefficients, since no ledger depends on one (a round is priced
    as the first, a contraction as the widest), from ``(1, classes)`` zeros
    at ``levels`` whose one row is one period: its counts are one block's
    ledger of any tiled input, its result the levels it hands on.  Cached,
    so every softmax plan shares each dry run."""

    def run(zeros):
        live = tuple(zeros((1, classes), "horizontal", level) for level in levels)
        return tuple(v.level for v in _walk(_Carrier(live[0]), ((piece, 0, (move,), {}),), live))

    return dry_run(next_pow2(classes), 1, top, run)


def _stage(piece, first: int, choices, top: int, classes: int):
    """The stage of one refresh point: a move per choice that gets through.
    An early refresh that lifts no level costs no less than no refresh,
    which comes first in move order, so no plan takes it."""

    def moves(state):
        head, live = state[:first], state[first:]
        for choice in choices:
            run = _piece_run(piece, live, top, classes, choice)
            if run:
                yield choice, run[0], head + run[1]

    return moves


def _plan_key(top: int, need: int | None):
    """The order of softmax plans on a budget of ``top`` levels for a
    consumer that needs ``need`` levels (:func:`softmax_plan`)."""

    def key(counts, out):
        if need is None:
            return rank(counts)
        (level,) = out
        if level >= min(need, top):
            return (*rank(counts), -level)
        # the consumer's refresh, counted as one more bootstrap, so that it
        # ties exactly with a bootstrap of the softmax's own
        consumer = tuple(n + (kind == _BOOTSTRAPS) for kind, n in enumerate(counts))
        return (*rank(consumer), -top)

    return key


@functools.lru_cache(maxsize=None)
def _chain(top: int, cfg: SoftmaxConfig, classes: int, need: int | None):
    """The stages of :func:`_softmax_points` on a budget of ``top`` levels,
    their order for ``need`` and the one :func:`cheapest` memo that every
    softmax plan of this budget, config, width and need shares, whatever
    its entry level.  A round's ledger and levels depend on no width, so
    every width shares its rounds' dry runs, priced at two classes."""
    stages = [
        _stage(piece, first, choices, top, 2 if piece is _round else classes)
        for piece, first, choices, _ in _softmax_points(cfg, classes)
    ]
    return stages, _plan_key(top, need), [{} for _ in range(len(stages) + 1)]


@functools.lru_cache(maxsize=1024)
def softmax_plan(
    entry_level: int, max_level: int, classes: int, cfg: SoftmaxConfig = DEFAULTS,
    need: int | None = None,
) -> SoftmaxPlan:
    """The refresh plan of one encrypted softmax entering at ``entry_level``.

    The cheapest chain (:func:`cheapest`) through one stage per refresh
    point (:func:`_softmax_points`): each tournament round's moves are
    :data:`_ROUND_PACKS`, each point after the tournament refreshes as the
    piece ahead needs or refreshes early, and each move is a dry run of the
    pipeline's own code (:func:`_piece_run`).  Every plan of one budget,
    config, width and need shares one memo (:func:`_chain`).  ``need`` is
    the levels the output's consumer will need (the trainer's residual,
    :func:`hefit.training.plan_steps`): an output below it counts the
    consumer's refresh, a bootstrap, in the :func:`rank`, then the plan
    hands on the highest level (``max_level`` where the consumer
    refreshes).  Cached per key.  A budget below the deepest pieces'
    ``EXP_FIT_DEPTH`` levels leaves no chain and raises
    :class:`~hefit.errors.DepthExhausted`.
    """
    chain = cheapest((entry_level,), *_chain(max_level, cfg, classes, need))
    if chain is None:
        raise DepthExhausted(
            f"the softmax cannot run on a budget of {max_level} levels: its deepest "
            f"pieces need {EXP_FIT_DEPTH}"
        )
    moves, counts, (level,) = chain
    return SoftmaxPlan(moves, counts, level)


def a_softmax(M, cfg: SoftmaxConfig = DEFAULTS, need: int | None = None):
    """Row-wise approximate softmax.

    Encrypted in: one-block-column, horizontally tiled logits (the product
    layout), every period copy equal to the first (else
    :class:`~hefit.errors.TilingError`); out: the same layout, padded
    columns zero.  The whole pipeline, every planned refresh included,
    runs on the first period copy of each row, then the result is tiled
    across the row (:meth:`_Carrier.one_period`).  It is refreshed by
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
    """One unblocked pass of :func:`a_softmax` over all rows of M: the
    stages in :func:`_softmax_points`' order, each entered by its module
    name and walking its own refresh points.  The padded columns need no
    mask of their own before the exps: every piece up to the exps works
    slot by slot, their -max lies in the contraction's domain, and the mask
    that scales the exps zeroes them before the row total.
    """
    car, moves = _Carrier(M), None
    with car.one_period() if car.encrypted else contextlib.nullcontext():
        if car.encrypted and M.encrypted:
            moves = iter(softmax_plan(M.level, car.ctx.max_level, car.classes, cfg, need).moves)
        (norm,) = _walk(car, _NORM, (car.matrix, a_max(car, cfg, moves)), moves)
        norm = domain_extend(norm, cfg, moves)
        if cfg.precise:
            norm = _dep_compensation(norm, cfg, moves)
        expd, total = _walk(car, _TOTAL, (a_exp(norm, moves),), moves)
        (out,) = _walk(car, _PRODUCT, (expd, a_inv(total, moves)), moves)
    return car.tiled(out) if car.encrypted else out


def _normalize(car: _Carrier, x, best, move):
    """The logits less their row's approximate maximum."""
    return x - best


def _scaled_exps(car: _Carrier, exps, early: bool):
    """The exps divided by INV_RANGE on the class columns, zero on the
    padded ones, so that their row total is :func:`a_inv`'s normalized
    input."""
    return _refresh(exps, 1, early) * car.keep_classes_mask(1.0 / INV_RANGE)


def _row_total(car: _Carrier, expd, early: bool):
    """``expd`` refreshed for its two one-level consumers, the row total
    and the final product, and its row total."""
    expd = _refresh(expd, 1, early)
    return expd, car.row_total(expd)


def _product_operand(car: _Carrier, expd, recip, early: bool):
    """``expd`` refreshed for the final product as the move says."""
    return _refresh(expd, 1, early), recip


def _product(car: _Carrier, expd, recip, early: bool):
    """The softmax: ``expd`` times ``recip``, refreshed as the move says."""
    return expd * _refresh(recip, 1, early)


_NORM = ((_normalize, -2, _NONE, {}),)
_TOTAL = ((_scaled_exps, -1, _FLAG, {}), (_row_total, -1, _FLAG, {}))
_PRODUCT = ((_product_operand, -2, _FLAG, {}), (_product, -2, _FLAG, {}))


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
