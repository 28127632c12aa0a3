#!/usr/bin/env python3
"""The encrypted softmax's error under a model of CKKS precision.

The emulator computes on exact float64 slots.  A CKKS backend encodes each
plaintext at a scale Delta (commonly 2^40) and adds about 1/Delta of noise
to every product, key switch and bootstrap.  This probe models both, as
harness code: :class:`ProbeContext` subclasses the emulator's context and
overrides only its seams, the methods through which every op computes its
slots (see ``hefit.emulator``).  Two models, each at ``DELTA`` = 2^-40:

* ``round``: every plaintext operand of a ciphertext product (the
  ``_product`` seam) is rounded to a multiple of ``DELTA``, real and
  imaginary parts apart;
* ``noise``: seeded Gaussian noise of deviation ``DELTA`` is added to the
  encrypted result of every product (``_product``), rotation (``lrot``)
  and bootstrap (``bootstrap``), and to every closed-form ladder's result
  (``_ladder``) at the deviation its rotations reach there in aggregate.
  Noise is real on float64 slots, which hold values real by construction,
  and complex on complex128 slots.

``exact`` turns both off and is the plain emulator bit for bit.  For the
class counts 3 and 10 the probe runs each softmax piece on one
paper-shaped block (32768 slots, 128 rows), encrypted at level 9 on a
budget of 12, as ``diag_abt`` leaves the logits:

* ``a_max`` on logits uniform in +-100, absolute error against the row
  maximum;
* ``a_exp`` on inputs uniform in [-EXP_RANGE, 0], relative error;
* ``a_inv`` on inputs uniform in [1/INV_RANGE, 1], relative error;
* ``softmax`` (``a_softmax``) on the logits, absolute error.

It prints the max error of each piece under each model (a NaN, or the
:class:`~hefit.errors.ResidualImaginary` a decode raises, is a row of its
own), then the largest |slot| at each bootstrap input of the softmax.

Run from the repository root::

    PYTHONPATH=src python3 scripts/precision_probe.py
"""

from __future__ import annotations

import math

import numpy as np

from hefit.approx import DEFAULTS, EXP_RANGE, INV_RANGE, a_exp, a_inv, a_max, a_softmax
from hefit.emulator import CipherBlock, EmulatorContext
from hefit.encoding import decode, encode
from hefit.errors import ResidualImaginary
from hefit.plainref import exact_softmax

DELTA = 2.0**-40
MODELS = {"exact": (False, False), "round": (True, False), "noise": (False, True)}
CLASSES = (3, 10)
MAX_LEVEL = 12
LEVEL = 9  # the logits' level as diag_abt leaves them
LOGIT_RANGE = 100.0
SEED = 0

# piece: (its input from rng and shape, its evaluation, its exact value,
# whether the error is relative)
PIECES = {
    "a_max": (
        lambda rng, shape: rng.uniform(-LOGIT_RANGE, LOGIT_RANGE, shape),
        lambda enc: a_max(enc, DEFAULTS),
        lambda x: np.broadcast_to(x.max(axis=1, keepdims=True), x.shape),
        False,
    ),
    "a_exp": (
        lambda rng, shape: rng.uniform(-EXP_RANGE, 0.0, shape),
        a_exp,
        np.exp,
        True,
    ),
    "a_inv": (
        lambda rng, shape: rng.uniform(1.0 / INV_RANGE, 1.0, shape),
        a_inv,
        lambda y: 1.0 / y,
        True,
    ),
    "softmax": (
        lambda rng, shape: rng.uniform(-LOGIT_RANGE, LOGIT_RANGE, shape),
        lambda enc: a_softmax(enc, DEFAULTS),
        exact_softmax,
        False,
    ),
}


class ProbeContext(EmulatorContext):
    """An emulator context with a CKKS precision model in its seams.

    ``rounding`` rounds the plaintext operands of ciphertext products to
    multiples of ``DELTA``; ``noise`` adds seeded Gaussian noise to the
    encrypted results of products, ladders, rotations and bootstraps.
    ``boot_inputs`` collects the largest |slot| at each bootstrap input.
    """

    def __init__(self, *args, rounding=False, noise=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounding, self.noise = rounding, noise
        self.rng = np.random.default_rng(SEED)
        self.boot_inputs: list[float] = []

    def _noisy(self, slots, sigma=DELTA):
        if not self.noise:
            return slots
        e = self.rng.normal(0.0, sigma, np.shape(slots))
        if np.iscomplexobj(slots):
            e = e + 1j * self.rng.normal(0.0, sigma, np.shape(slots))
        return slots + e

    def _product(self, x, y, k=None, same=False):
        if self.rounding and x[1] != y[1]:
            x, y = (x, _rounded(y)) if x[1] else (_rounded(x), y)
        out, level = super()._product(x, y, k, same)
        return (self._noisy(out), level) if x[1] or y[1] else (out, level)

    def _ladder(self, values, k, steps, encrypted, rots=None):
        values = super()._ladder(values, k, steps, encrypted, rots)
        rots = steps if rots is None else rots
        # the aggregate rule of EmulatorContext._ladder
        return self._noisy(values, DELTA * math.sqrt(2**rots - 1)) if encrypted else values

    def lrot(self, x, r):
        out = super().lrot(x, r)
        if out is x or not out.encrypted:
            return out
        return CipherBlock(self._noisy(out.slots), out.level, True)

    def bootstrap(self, x):
        if not isinstance(x, CipherBlock) or not x.encrypted:
            return x
        self.boot_inputs.append(float(np.max(np.abs(x.slots))))
        out = super().bootstrap(x)
        return CipherBlock(self._noisy(out.slots), out.level, True)


def _rounded(operand):
    """A plaintext operand ``(values, False, level)`` at multiples of DELTA."""
    values, encrypted, level = operand
    return np.round(np.divide(values, DELTA)) * DELTA, encrypted, level


def piece_output(ctx: EmulatorContext, piece: str, values: np.ndarray) -> np.ndarray:
    """``piece`` on ``values`` encrypted at LEVEL on ``ctx``, decoded."""
    enc = encode(ctx, values, tiling="horizontal", level=LEVEL)
    return decode(PIECES[piece][1](enc), role="observer", tag="precision-probe")


def piece_input(piece: str, rows: int, classes: int) -> np.ndarray:
    rng = np.random.default_rng((SEED, classes, list(PIECES).index(piece)))
    return PIECES[piece][0](rng, (rows, classes))


def probe(slot_count: int = 32768, grid_rows: int = 128, classes=CLASSES):
    """Print the error table and the softmax's bootstrap inputs."""
    print(
        f"precision probe: {slot_count} slots ({grid_rows} rows), budget {MAX_LEVEL}, "
        f"input level {LEVEL}, delta 2^{int(math.log2(DELTA))}, seed {SEED}"
    )
    print(f"{'c':>3}  {'piece':<8} {'model':<6} {'max error':>12}")
    boots = []
    for c in classes:
        for piece, (_, _, exact, relative) in PIECES.items():
            x = piece_input(piece, grid_rows, c)
            want = exact(x)
            for model, (rounding, noise) in MODELS.items():
                ctx = ProbeContext(
                    slot_count, grid_rows, max_level=MAX_LEVEL, rounding=rounding, noise=noise
                )
                with np.errstate(all="ignore"):
                    try:
                        got = piece_output(ctx, piece, x)
                    except ResidualImaginary as exc:
                        error = f"ResidualImaginary: {exc}"
                    else:
                        err = np.abs(got - want) / (np.abs(want) if relative else 1.0)
                        error = f"{np.max(err):>12.3e}"
                print(f"{c:>3}  {piece:<8} {model:<6} {error}", flush=True)
                if piece == "softmax":
                    boots.append((c, model, ctx.boot_inputs))
    print("largest |slot| at each bootstrap input of the softmax:")
    for c, model, inputs in boots:
        print(f"{c:>3}  {model:<6} " + " ".join(f"{v:.4g}" for v in inputs))


if __name__ == "__main__":
    probe()
