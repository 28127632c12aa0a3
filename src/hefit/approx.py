"""Row-wise approximate softmax built from slot-friendly polynomial pieces.

The pipeline normalizes each row by an approximate maximum (a comparison
tournament), folds wide inputs into the exponential's base range with a
cubic contraction chain, optionally compensates the contraction's bias,
evaluates exp as a fitted polynomial raised to a power-of-two, sums the
exponentials, and multiplies by an iteratively computed reciprocal.

Every routine here accepts either an :class:`~hefit.encoding.EncodedMatrix`
(one block column, horizontally tiled) or a plain 2D numpy array of logits.
The polynomial steps are written once, as ``+``/``-``/``*`` arithmetic that
both carriers implement; only the layout-dependent steps (masks, rolls,
column sums, broadcasts) live in ``_Carrier``.  Both carriers execute the
same operation order, so the array path is a faithful — on the slots that
are ever read, bit-faithful — mirror of the encrypted one, cheap enough for
million-sample error measurement.  :func:`a_softmax` evaluates array
inputs in cache-sized row blocks (128 KiB per work array); every step works
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
after it (``log2(EXP_RANGE)``), the Goldschmidt pair, and the one-level
glue products.  Each ciphertext is
refreshed at most once per piece, a budget that already suffices never
refreshes, and the array path passes through unchanged.  The deepest pieces
need 4 levels, so any budget of at least 4 runs the whole pipeline without
the context's ``auto_bootstrap`` fallback.

Only two knobs are configurable (:class:`SoftmaxConfig`): the number of
extension steps and the compensation.  The exp and reciprocal parameters
and the contraction base are module constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._constants import COMP_ROUND_ERR, EXP_POLY
from .emulator import log2
from .encoding import EncodedMatrix, col_sums, next_pow2, pattern_matrix
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


# Slots per work array of one array-path softmax block: 128 KiB of float64,
# so the block's intermediates stay in L2 cache.  Every step works within a
# row, so blocking leaves each output row bit-identical.
_BLOCK_SLOTS = 16_384


def _array_layout(M):
    """(float64 array, classes, period) of an array carrier, validated."""
    arr = np.asarray(M, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"softmax expects a 2D array, got shape {arr.shape}")
    return arr, arr.shape[1], next_pow2(arr.shape[1])


class _Carrier:
    """Layout facts and layout-dependent steps for one input matrix."""

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
            # an encoded matrix may come off the wire with any period
            if self.period < self.classes:
                raise ShapeMismatch(f"period {self.period} smaller than classes {self.classes}")
        else:
            arr, self.classes, self.period = _array_layout(M)
            self.ctx = None
            self.encrypted = False
            padded = np.zeros((arr.shape[0], self.period))
            padded[:, : self.classes] = arr
            self.matrix = padded

    def _pattern(self, row_fn) -> object:
        """Mask whose value depends only on the column index."""
        if self.encrypted:
            cols = row_fn(np.arange(self.ctx.grid_cols))
            block = np.broadcast_to(cols, (self.ctx.grid_rows, self.ctx.grid_cols))
            return pattern_matrix(self.ctx, block, grid=self.matrix.grid)
        return row_fn(np.arange(self.period))[None, :]

    def keep_classes_mask(self, value: float = 1.0):
        c = self.classes
        return self._pattern(lambda j: np.where(j < c, value, 0.0))

    def pad_pattern(self, value: float):
        c, cp = self.classes, self.period
        return self._pattern(lambda j: np.where((j % cp) >= c, value, 0.0))

    def first_col_mask(self):
        return self._pattern(lambda j: np.where(j == 0, 1.0, 0.0))

    def roll_left(self, x, r: int):
        """Rotate every row left by r slots."""
        if self.encrypted:
            return x.lrot(r)
        return np.roll(x, -r, axis=1)

    def broadcast_col0(self, x):
        """Spread column 0 of each row to every column (x is col-0 masked)."""
        if self.encrypted:
            return x.rot_sum([-(1 << t) for t in range(log2(self.ctx.grid_cols))])
        return np.repeat(x[:, :1], self.period, axis=1)

    def sum_cols_broadcast(self, x):
        """Every slot of a row becomes that row's column total (tree order)."""
        if self.encrypted:
            return col_sums(x)
        s = x
        for t in range(log2(self.period)):
            s = s + np.roll(s, -(1 << t), axis=1)
        return np.repeat(s[:, :1], self.period, axis=1)

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
    if isinstance(x, EncodedMatrix) and x.level < min(need, x.ctx.max_level):
        return x.bootstrap()
    return x


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


def a_max(M, cfg: SoftmaxConfig = DEFAULTS):
    """Row-wise approximate maximum, broadcast into every slot of the row.

    The comparison sees each difference scaled into [-1, 1] by 1/(2R),
    R = max_range, but the tournament itself runs unscaled: the scale lives
    in the first comparison pass's coefficients (a_k / (2R)^k for the odd
    power k), which is exact because 2R is a power of two.  Padded columns
    are pushed down by R (periodically with the tiling, so every copy
    behaves alike) and can never win.  log2(period) knockout rounds blend
    each slot with its rotated partner through the comparison; column 0 of
    each row then holds the winner, which is isolated and broadcast.  The
    result never exceeds the true maximum (the blends are convex), and it
    equals, bit for bit, a tournament on inputs scaled by 1/(2R) whose
    winner is scaled back by 2R.

    Each round refreshes ``best`` for the first comparison polynomial before
    the roll, so ``rival`` inherits the fresh level.
    """
    car = _Carrier(M)
    r = cfg.max_range
    first = tuple(a / (2 * r) ** (2 * k + 1) for k, a in enumerate(COMP_G))
    best = car.matrix
    if car.classes < car.period:
        best = best - car.pad_pattern(r)
    for t in range(log2(car.period)):
        best = _refresh(best, ODD_POLY_DEPTH)
        rival = car.roll_left(best, 1 << t)
        w = _refresh(_comp(best - rival, first), 1)
        best = best * w + rival * (1.0 - w)
    best = _refresh(best, 1) * car.first_col_mask()
    return car.broadcast_col0(best)


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
    classes read up to 0.89).  On [0.01, 1.99] the INV_ITERS = 12
    iterations leave at most 0.99^8192 ~ e^-82 of relative error, below
    rounding.
    """
    a = 2.0 - y
    b = 1.0 - y
    for _ in range(INV_ITERS):
        a, b = _refresh(a, 1), _refresh(b, 2)
        b = b * b
        a = a * (b + 1.0)
    return a


def a_softmax(M, cfg: SoftmaxConfig = DEFAULTS):
    """Row-wise approximate softmax.

    Encrypted in: one-block-column, horizontally tiled logits (the product
    layout); out: the same layout, padded columns zero, later periods exact
    copies.  Array in: (rows, classes) logits; out: (rows, classes) rows,
    evaluated in row blocks of ``_BLOCK_SLOTS // period`` rows.
    Inputs must lie within [-max_range, max_range] (mild overshoot from the
    max underestimation is tolerated by the contraction chain).
    """
    if isinstance(M, EncodedMatrix):
        return _softmax(M, cfg)
    arr, classes, period = _array_layout(M)
    block = _BLOCK_SLOTS // period
    if arr.shape[0] <= block:
        return _softmax(arr, cfg)
    out = np.empty((arr.shape[0], classes))
    for start in range(0, arr.shape[0], block):
        out[start : start + block] = _softmax(arr[start : start + block], cfg)
    return out


def _softmax(M, cfg: SoftmaxConfig):
    """One unblocked pass of :func:`a_softmax` over all rows of M."""
    car = _Carrier(M)
    work = car.matrix
    best = a_max(work if car.encrypted else work[:, : car.classes], cfg)
    norm = _refresh(work - best, 1) * car.keep_classes_mask()
    norm = domain_extend(norm, cfg)
    if cfg.precise:
        norm = _dep_compensation(norm, cfg)
    # exps / INV_RANGE: their row total is a_inv's normalized input
    keep_scaled = car.keep_classes_mask(1.0 / INV_RANGE)
    expd = _refresh(_refresh(a_exp(norm), 1) * keep_scaled, 1)
    total = car.sum_cols_broadcast(expd)
    recip = a_inv(total)
    out = expd * _refresh(recip, 1)
    out = car.retile(out)
    if car.encrypted:
        return out.with_meta(
            shape=(M.shape[0], car.classes), tiling="horizontal", period=car.period
        )
    return out[:, : car.classes]


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
