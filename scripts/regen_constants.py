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

By default nothing is written: the script re-derives both constants and
prints how far the re-derived exp polynomial is from the committed one, as
a function on [-1, 1] (the least-squares system is ill-conditioned, so the
coefficients themselves move in their low digits from one numpy build to
the next), and whether ``COMP_ROUND_ERR`` and its argument match.  Pass
``--out PATH`` to write the regenerated file; ``--out
src/hefit/_constants.py`` replaces the committed constants and moves every
softmax output in its low bits.
"""

from __future__ import annotations

import argparse
import pathlib
import runpy

import numpy as np
import numpy.polynomial.legendre as leg
import numpy.polynomial.polynomial as poly

DEGREE = 12
CONSTANTS = pathlib.Path(__file__).resolve().parents[1] / "src" / "hefit" / "_constants.py"

# Step-approximation building blocks (odd degree-7 pair; equal to
# hefit.approx's, which tests/test_approx.py::test_comp_pair_matches_the_script
# checks).
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


def compare_with_committed(coeffs, eta: float, eta_arg: float) -> None:
    """Print how the re-derived constants differ from the committed ones."""
    committed = runpy.run_path(str(CONSTANTS))
    grid = np.linspace(-1.0, 1.0, 200_001)
    dev = np.max(np.abs(poly.polyval(grid, coeffs) - poly.polyval(grid, committed["EXP_POLY"])))
    print(f"max |re-derived - committed| EXP_POLY on [-1,1]: {dev:.3e}")
    for name, value in (("COMP_ROUND_ERR", eta), ("COMP_ROUND_ERR_ARG", eta_arg)):
        verdict = "matches" if value == committed[name] else f"differs (committed {committed[name]!r})"
        print(f"{name} {verdict}")


def render(coeffs, resid: float, eta: float, eta_arg: float) -> str:
    """Text of the constants module for the given values."""
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
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=pathlib.Path, help="write the regenerated file to OUT")
    args = ap.parse_args()

    coeffs, resid = exp_fit()
    eta, eta_arg = comp_round_error()
    print(f"exp fit residual on [-1,1]: {resid:.3e}")
    print(f"comp round error sup: {eta:.6e} at d = {eta_arg:.6f}")

    if args.out is None:
        compare_with_committed(coeffs, eta, eta_arg)
    else:
        args.out.write_text(render(coeffs, resid, eta, eta_arg))
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
