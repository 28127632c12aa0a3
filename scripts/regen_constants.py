#!/usr/bin/env python3
"""Regenerate the frozen numeric constants in src/hefit/_constants.py.

Two constants are produced:

* ``EXP_POLY`` — the degree-12 least-squares (L2) projection of exp onto
  polynomials over [-1, 1], computed by 64-node Gauss-Legendre quadrature
  against the Legendre basis and converted to the power basis.  The
  exponential op evaluates this at x/B and squares log2(B) times, so the
  fit's ~1e-13 residual is what the whole pipeline inherits.
* ``COMP_ROUND_ERR`` — sup over d of d * (1 - w(d)) where w is the
  polynomial step approximation used by the max tournament.  This is the
  worst per-round accuracy loss in scaled units; the a_max error bound is
  rounds * 2 * R_max * COMP_ROUND_ERR.

Run with ``--check-binv`` to additionally re-run the inverse-compensation
sign A/B measurement (prints a report; decides nothing at runtime).  The
rejected sign is evaluated here, by swapping in a negated copy of
``hefit.approx._dep_compensation`` for the duration of the check.
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np
import numpy.polynomial.legendre as leg
import numpy.polynomial.polynomial as poly

DEGREE = 12

# Step-approximation building blocks (odd degree-7 pair; see hefit.approx,
# which asserts it agrees with these).
COMP_F = (35 / 16, -35 / 16, 21 / 16, -5 / 16)
COMP_G = (4589 / 1024, -16577 / 1024, 25614 / 1024, -12860 / 1024)


def _odd(x, c):
    a1, a3, a5, a7 = c
    y = x * x
    return (((a7 * y + a5) * y + a3) * y + a1) * x


def comp_weight(d):
    return (_odd(_odd(_odd(d, COMP_G), COMP_G), COMP_F) + 1.0) / 2.0


def exp_fit():
    nodes, weights = leg.leggauss(64)
    vals = np.exp(nodes)
    series = []
    for k in range(DEGREE + 1):
        basis = leg.legval(nodes, [0.0] * k + [1.0])
        series.append((2 * k + 1) / 2.0 * float(np.sum(weights * vals * basis)))
    coeffs = leg.leg2poly(series)
    grid = np.linspace(-1.0, 1.0, 200_001)
    resid = float(np.max(np.abs(poly.polyval(grid, coeffs) - np.exp(grid))))
    return [float(c) for c in coeffs], resid


def comp_round_error():
    d = np.linspace(0.0, 1.0, 2_000_001)[1:]
    loss = d * (1.0 - comp_weight(d))
    i = int(np.argmax(loss))
    return float(loss[i]), float(d[i])


def negated_compensation(M, cfg):
    """The rejected variant of hefit.approx._dep_compensation: the degree-5
    bracket is subtracted, ``x - (4/27) K (x^3/R^2 - x^5/R^4)``."""
    L2 = float(cfg.extension_base) ** 2
    Ln = L2**cfg.extension_steps
    K = L2 * (Ln - 1.0) / (Ln * (L2 - 1.0))
    R = cfg.base_range
    c3 = -(4.0 / 27.0) * K / R**2
    c5 = -(4.0 / 27.0) * K / R**4
    square = M * M
    cube = square * M
    fifth = cube * square
    return M + (cube * c3 - fifth * c5)


def check_binv(samples: int = 200_000, seed: int = 20240817):
    """A/B the sign of the degree-5 inverse-compensation bracket by MC."""
    from hefit import approx
    from hefit.plainref import exact_softmax

    rng = np.random.default_rng(seed)
    kept = approx._dep_compensation
    variants = (
        ("extn", approx.SoftmaxConfig(precise=False), kept),
        ("prec(+)", approx.SoftmaxConfig(precise=True), kept),
        ("prec(-)", approx.SoftmaxConfig(precise=True), negated_compensation),
    )
    classes = 3
    try:
        for box in (4.0, 128.0):
            x = rng.uniform(-box, box, size=(samples, classes))
            want = exact_softmax(x)
            for name, cfg, compensation in variants:
                approx._dep_compensation = compensation
                err = np.max(np.abs(approx.a_softmax(x, cfg) - want), axis=1)
                print(
                    f"  box {box:6.1f}  {name:8s} max {np.max(err):.3e}  avg {np.mean(err):.3e}"
                )
    finally:
        approx._dep_compensation = kept


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check-binv", action="store_true", help="run the sign A/B report")
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[1] / "src" / "hefit" / "_constants.py",
    )
    args = ap.parse_args()

    coeffs, resid = exp_fit()
    eta, eta_arg = comp_round_error()
    print(f"exp fit residual on [-1,1]: {resid:.3e}")
    print(f"comp round error sup: {eta:.6e} at d = {eta_arg:.6f}")

    lines = [
        '"""Frozen numeric constants.',
        "",
        "Generated by scripts/regen_constants.py; regenerate with that script",
        'instead of editing by hand."""',
        "",
        "# Degree-12 least-squares fit of exp on [-1, 1], ascending power basis.",
        "EXP_POLY = (",
    ]
    lines += [f"    {c!r}," for c in coeffs]
    lines += [
        ")",
        "",
        f"EXP_FIT_MAX_ERR = {resid!r}",
        "",
        "# sup_d d*(1 - w(d)): worst per-round loss of the scaled max tournament,",
        "# measured on a 2e6-point grid (argument of the supremum alongside).",
        f"COMP_ROUND_ERR = {eta!r}",
        f"COMP_ROUND_ERR_ARG = {eta_arg!r}",
        "",
    ]
    args.out.write_text("\n".join(lines))
    print(f"wrote {args.out}")

    if args.check_binv:
        print("inverse-compensation sign check (criterion: smaller is better):")
        check_binv()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
