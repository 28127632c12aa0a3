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

Encrypted inputs at realistic depths exceed the level budget many times
over; run them on a context with ``auto_bootstrap=True``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._constants import COMP_ROUND_ERR, EXP_POLY
from .encoding import EncodedMatrix, col_sums, next_pow2, pattern_matrix
from .errors import ShapeMismatch
from .plainref import exact_softmax

# Odd degree-7 pair composed as step(x) ~ sign(x): two passes of the sharp
# inner polynomial, one smoothing outer pass.  Coefficients are (a1, a3,
# a5, a7) of a1*x + a3*x^3 + a5*x^5 + a7*x^7.
COMP_F = (35 / 16, -35 / 16, 21 / 16, -5 / 16)
COMP_G = (4589 / 1024, -16577 / 1024, 25614 / 1024, -12860 / 1024)


@dataclass(frozen=True)
class SoftmaxConfig:
    """Knobs of the approximate softmax pipeline.

    ``base_range`` is the half-width the exponential is accurate on;
    ``extension_steps`` contractions of ratio ``extension_base`` widen the
    covered input box to ``max_range = ceil(base_range * base**steps / 2)``
    per coordinate (the contraction chain itself absorbs twice that, which
    is exactly what normalization produces: values in [-2*max_range, 0]).
    ``precise`` turns on the degree-5 compensation of the contraction bias.
    The reciprocal is Goldschmidt iteration normalized by ``inv_range``.
    """

    base_range: float = 8.0
    extension_base: float = 2.0
    extension_steps: int = 5
    precise: bool = True
    exp_range: int = 8
    inv_range: float = 100.0
    inv_iters: int = 16

    @property
    def max_range(self) -> int:
        full = self.base_range * self.extension_base**self.extension_steps
        return int(math.ceil(full / 2))

    @property
    def dep_delta(self) -> float:
        return 4.0 / (27.0 * self.base_range**2)


DEFAULTS = SoftmaxConfig()


def _log2(n: int) -> int:
    return int(math.log2(n))


# Slots per work array of one array-path softmax block: 128 KiB of float64,
# so the block's intermediates stay in L2 cache.  Every step works within a
# row, so blocking leaves each output row bit-identical.
_BLOCK_SLOTS = 16_384


def _array_layout(M, classes: int | None, period: int | None):
    """(float64 array, classes, period) of an array carrier, validated."""
    arr = np.asarray(M, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"softmax expects a 2D array, got shape {arr.shape}")
    classes = arr.shape[1] if classes is None else classes
    period = next_pow2(classes) if period is None else period
    if period < classes:
        raise ShapeMismatch(f"period {period} smaller than classes {classes}")
    return arr, classes, period


class _Carrier:
    """Layout facts and layout-dependent steps for one input matrix."""

    def __init__(self, M, classes: int | None, period: int | None):
        if isinstance(M, EncodedMatrix):
            if M.tiling != "horizontal" or M.grid[1] != 1:
                raise ShapeMismatch(
                    "softmax expects a horizontally tiled single-block-column matrix"
                )
            self.classes = M.shape[1] if classes is None else classes
            self.period = M.period if period is None else period
            self.ctx = M.ctx
            self.encrypted = True
            self.matrix = M
            if self.period < self.classes:
                raise ShapeMismatch(f"period {self.period} smaller than classes {self.classes}")
        else:
            arr, self.classes, self.period = _array_layout(M, classes, period)
            self.ctx = None
            self.encrypted = False
            padded = np.zeros((arr.shape[0], self.period))
            padded[:, : self.classes] = arr[:, : self.classes]
            self.matrix = padded

    def _pattern(self, row_fn) -> object:
        """Mask whose value depends only on the column index."""
        if self.encrypted:
            cols = row_fn(np.arange(self.ctx.grid_cols))
            block = np.broadcast_to(cols, (self.ctx.grid_rows, self.ctx.grid_cols))
            return pattern_matrix(self.ctx, block, grid=self.matrix.grid)
        return row_fn(np.arange(self.period))[None, :]

    def keep_classes_mask(self):
        c = self.classes
        return self._pattern(lambda j: np.where(j < c, 1.0, 0.0))

    def pad_half_pattern(self):
        c, cp = self.classes, self.period
        return self._pattern(lambda j: np.where((j % cp) >= c, 0.5, 0.0))

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
            for t in range(_log2(self.ctx.grid_cols)):
                x = x + x.rrot(1 << t)
            return x
        return np.repeat(x[:, :1], self.period, axis=1)

    def sum_cols_broadcast(self, x):
        """Every slot of a row becomes that row's column total (tree order)."""
        if self.encrypted:
            return col_sums(x)
        s = x
        for t in range(_log2(self.period)):
            s = s + np.roll(s, -(1 << t), axis=1)
        return np.repeat(s[:, :1], self.period, axis=1)

    def retile(self, x):
        """Fill the remaining block width with copies of the first period."""
        if not self.encrypted:
            return x
        reps = self.ctx.grid_cols // self.period
        for t in range(_log2(reps)):
            x = x + x.rrot(self.period * (1 << t))
        return x


# -- polynomial pieces ----------------------------------------------------------


def _odd_poly(x, coeffs):
    """a1 x + a3 x^3 + a5 x^5 + a7 x^7 via Horner in x^2 (4 Mult + 1 CMult)."""
    a1, a3, a5, a7 = coeffs
    y = x * x
    acc = y * a7 + a5
    acc = acc * y + a3
    acc = acc * y + a1
    return acc * x


def a_comp(x, y):
    """Soft comparison of two slot values scaled to [-1/2, 1/2].

    Returns ~1 where x exceeds y by a clear margin, ~0 in the opposite
    case, exactly 1/2 at equality (odd composition through zero).
    """
    d = x - y
    u = _odd_poly(_odd_poly(_odd_poly(d, COMP_G), COMP_G), COMP_F)
    return (u + 1.0) * 0.5


def a_max(M, cfg: SoftmaxConfig = DEFAULTS, classes: int | None = None, period: int | None = None):
    """Row-wise approximate maximum, broadcast into every slot of the row.

    Inputs are scaled into [-1/2, 1/2]; padded columns are pushed to -1/2
    (periodically with the tiling, so every copy behaves alike) and can
    never win.  log2(period) knockout rounds blend each slot with its
    rotated partner through :func:`a_comp`; column 0 of each row then holds
    the winner, which is isolated, broadcast, and unscaled.  The result
    never exceeds the true maximum (the blends are convex).
    """
    car = _Carrier(M, classes, period)
    two_r = 2.0 * cfg.max_range
    work = car.matrix * (1.0 / two_r)
    if car.classes < car.period:
        work = work - car.pad_half_pattern()
    best = work
    for t in range(_log2(car.period)):
        rival = car.roll_left(best, 1 << t)
        w = a_comp(best, rival)
        best = best * w + rival * (1.0 - w)
    best = best * car.first_col_mask()
    best = car.broadcast_col0(best)
    return best * two_r


def domain_extend(M, cfg: SoftmaxConfig = DEFAULTS):
    """Contract [-max_range, max_range] into [-base_range, base_range].

    Applies the cubic x - delta_i x^3 from the widest scale inward; each
    iteration costs one CMult and two Mults (two levels).
    """
    delta = cfg.dep_delta
    for i in range(cfg.extension_steps - 1, -1, -1):
        delta_i = delta * float(cfg.extension_base) ** (-2 * i)
        square = M * M
        scaled = M * delta_i
        M = M - square * scaled
    return M


def _dep_compensation(M, cfg: SoftmaxConfig):
    """Degree-5 correction approximating the inverse of the contraction.

    ``x + (4/27) K (x^3/R^2 - x^5/R^4)`` with K the closed-form sum of the
    per-step contraction strengths; adds back the cubic shrinkage and trims
    the fifth-order overshoot.
    """
    L2 = float(cfg.extension_base) ** 2
    Ln = L2**cfg.extension_steps
    K = L2 * (Ln - 1.0) / (Ln * (L2 - 1.0))
    R = cfg.base_range
    c3 = (4.0 / 27.0) * K / R**2
    c5 = (4.0 / 27.0) * K / R**4
    square = M * M
    cube = square * M
    fifth = cube * square
    return M + (cube * c3 - fifth * c5)


def a_exp(M, cfg: SoftmaxConfig = DEFAULTS):
    """exp on [-exp_range, exp_range]: fitted polynomial at x/B, squared log2(B) times.

    The degree-12 fit carries ~3e-13 of error on [-1, 1]; squaring preserves
    the relative error, so accuracy is near machine precision across the
    whole base range.
    """
    B = cfg.exp_range
    if B < 1 or (B & (B - 1)):
        raise ShapeMismatch(f"exp_range must be a power of two, got {B}")
    z = M * (1.0 / B)
    acc = z * EXP_POLY[12] + EXP_POLY[11]
    for k in range(10, -1, -1):
        acc = acc * z + EXP_POLY[k]
    for _ in range(_log2(B)):
        acc = acc * acc
    return acc


def a_inv(M, cfg: SoftmaxConfig = DEFAULTS):
    """Reciprocal via Goldschmidt iteration, normalized by inv_range.

    Relative error after k iterations is (1 - x/inv_range)^(2^(k+1)): below
    1e-3 uniformly on [0.01, 100] at the default 16 iterations, degrading as
    x/inv_range approaches 0.  Inputs outside (0, 2*inv_range) make the
    iteration diverge; that is documented, not trapped.
    """
    y = M * (1.0 / cfg.inv_range)
    a = 2.0 - y
    b = 1.0 - y
    for _ in range(cfg.inv_iters):
        b = b * b
        a = a * (b + 1.0)
    return a * (1.0 / cfg.inv_range)


def a_softmax(
    M,
    cfg: SoftmaxConfig = DEFAULTS,
    classes: int | None = None,
    period: int | None = None,
):
    """Row-wise approximate softmax.

    Encrypted in: one-block-column, horizontally tiled logits (the product
    layout); out: the same layout, padded columns zero, later periods exact
    copies.  Array in: (rows, classes) logits; out: (rows, classes) rows,
    evaluated in row blocks of ``_BLOCK_SLOTS // period`` rows.
    Inputs must lie within [-max_range, max_range] (mild overshoot from the
    max underestimation is tolerated by the contraction chain).
    """
    if isinstance(M, EncodedMatrix):
        return _softmax(M, cfg, classes, period)
    arr, classes, period = _array_layout(M, classes, period)
    block = _BLOCK_SLOTS // period
    if arr.shape[0] <= block:
        return _softmax(arr, cfg, classes, period)
    out = np.empty((arr.shape[0], classes))
    for start in range(0, arr.shape[0], block):
        out[start : start + block] = _softmax(arr[start : start + block], cfg, classes, period)
    return out


def _softmax(M, cfg: SoftmaxConfig, classes: int | None, period: int | None):
    """One unblocked pass of :func:`a_softmax` over all rows of M."""
    car = _Carrier(M, classes, period)
    work = car.matrix
    best = a_max(work if car.encrypted else work[:, : car.classes], cfg,
                 classes=car.classes, period=car.period)
    keep = car.keep_classes_mask()
    norm = (work - best) * keep
    norm = domain_extend(norm, cfg)
    if cfg.precise:
        norm = _dep_compensation(norm, cfg)
    expd = a_exp(norm, cfg) * keep
    total = car.sum_cols_broadcast(expd)
    recip = a_inv(total, cfg)
    out = expd * recip
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
    rounds = _log2(next_pow2(classes))
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
    delta = cfg.dep_delta
    L2 = float(cfg.extension_base) ** 2
    shrink = delta * L2 / (L2 - 1.0)
    t1 = 1.0 / (1.0 + math.exp(min(r, 700.0)) / (classes - 1))
    t2 = 1.0 / (1.0 + math.exp(min(r - shrink * r**3, 700.0)) / (classes - 1))
    t3 = delta * r**3 * L2 / (2.0 * (L2 - 1.0))
    return t1 + t2 + t3


_EPS_CACHE: dict[tuple, float] = {}


def small_domain_eps(
    cfg: SoftmaxConfig, classes: int, samples: int = 100_000, seed: int = 411
) -> float:
    """Measured max error of the full pipeline on [-base_range, base_range]^c.

    This is the empirical stand-in for the polynomial approximation's
    small-domain minimax error; cached per (config, classes)."""
    key = (cfg, classes, samples, seed)
    if key not in _EPS_CACHE:
        rng = np.random.default_rng(seed)
        x = rng.uniform(-cfg.base_range, cfg.base_range, size=(samples, classes))
        exact = exact_softmax(x)
        approx = a_softmax(x, cfg)
        _EPS_CACHE[key] = float(np.max(np.abs(approx - exact)))
    return _EPS_CACHE[key]
