"""Product kernels against dense oracles, and ledgers against closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hefit.emulator import EmulatorContext
from hefit.encoding import (
    col_sums,
    decode,
    encode,
    make_mask,
    next_pow2,
    prot_up,
    rot_left,
    rot_up,
    row_sums,
)
from hefit.errors import ShapeMismatch
from hefit.matmul import (
    ALGORITHMS,
    col_major_abt,
    count_formula,
    diag_abt,
    diag_atb,
    row_major_atb,
)


def run_abt(ctx, A, B, kernel, tiled=True):
    ea = encode(ctx, A)
    eb = encode(ctx, B, tiling="vertical") if tiled else encode(ctx, B)
    return kernel(ea, eb)


def test_diag_abt_matches_dense(ctx, rng):
    A = rng.normal(size=(10, 20))
    B = rng.normal(size=(4, 20))
    out = run_abt(ctx, A, B, diag_abt)
    np.testing.assert_allclose(decode(out), A @ B.T, atol=1e-12)
    assert out.shape == (10, 4)
    assert out.tiling == "horizontal"
    assert out.period == 4
    assert out.level == ctx.max_level - 3


def test_diag_atb_matches_dense(ctx, rng):
    A = rng.normal(size=(12, 4))
    B = rng.normal(size=(12, 21))
    ea = encode(ctx, A, tiling="horizontal")
    eb = encode(ctx, B)
    out = diag_atb(ea, eb, scale=2.0)
    np.testing.assert_allclose(decode(out), 2.0 * (A.T @ B), atol=1e-12)
    assert out.shape == (4, 21)
    assert out.tiling == "vertical"
    assert out.period == 4
    assert out.level == ctx.max_level - 4  # pack, align, product, mask


def test_col_major_matches_dense(ctx, rng):
    A = rng.normal(size=(11, 18))
    B = rng.normal(size=(5, 18))
    out = col_major_abt(encode(ctx, A), encode(ctx, B))
    np.testing.assert_allclose(decode(out), A @ B.T, atol=1e-12)
    assert out.tiling == "none"
    assert out.level == ctx.max_level - 3


def test_row_major_matches_dense(ctx, rng):
    A = rng.normal(size=(13, 6))
    B = rng.normal(size=(13, 19))
    out = row_major_atb(encode(ctx, A), encode(ctx, B))
    np.testing.assert_allclose(decode(out), A.T @ B, atol=1e-12)
    assert out.tiling == "none"
    assert out.level == ctx.max_level - 3


CASES = [
    # (a, b, c): multi-block both ways, plus tight c = s1 and c = 1 corners,
    # and class counts the diagonal kernels pad to the next power of two
    (16, 16, 4),
    (10, 40, 8),
    (33, 20, 2),
    (16, 20, 16),
    (5, 5, 1),
    (33, 20, 3),
    (16, 20, 10),
]


@pytest.mark.parametrize("shape", CASES)
def test_executed_counts_equal_formula(shape, rng):
    a, b, c = shape
    ctx = EmulatorContext(256, 16, max_level=12)
    s0, s1 = ctx.grid_rows, ctx.grid_cols

    A = rng.normal(size=(a, b))
    B = rng.normal(size=(c, b))
    before = ctx.ledger.snapshot()
    out = diag_abt(encode(ctx, A), encode(ctx, B, tiling="vertical"))
    assert {
        k: v for k, v in ctx.ledger.delta(before).items() if k in ("CMult", "Mult", "Rot")
    } == count_formula("diag_abt", shape, s0, s1)
    np.testing.assert_allclose(decode(out), A @ B.T, atol=1e-12)

    At = rng.normal(size=(a, c))
    Bt = rng.normal(size=(a, b))
    before = ctx.ledger.snapshot()
    out = diag_atb(encode(ctx, At, tiling="horizontal"), encode(ctx, Bt))
    assert {
        k: v for k, v in ctx.ledger.delta(before).items() if k in ("CMult", "Mult", "Rot")
    } == count_formula("diag_atb_rl", shape, s0, s1)
    np.testing.assert_allclose(decode(out), At.T @ Bt, atol=1e-12)

    before = ctx.ledger.snapshot()
    out = diag_atb(
        encode(ctx, At, tiling="horizontal", level=ctx.max_level - 1), encode(ctx, Bt)
    )
    assert {
        k: v for k, v in ctx.ledger.delta(before).items() if k in ("CMult", "Mult", "Rot")
    } == count_formula("diag_atb_pru", shape, s0, s1)
    np.testing.assert_allclose(decode(out), At.T @ Bt, atol=1e-12)

    if c <= s1:
        before = ctx.ledger.snapshot()
        out = col_major_abt(encode(ctx, A), encode(ctx, B))
        assert {
            k: v for k, v in ctx.ledger.delta(before).items() if k in ("CMult", "Mult", "Rot")
        } == count_formula("col_major", shape, s0, s1)
        np.testing.assert_allclose(decode(out), A @ B.T, atol=1e-12)

    if c <= s0:
        before = ctx.ledger.snapshot()
        out = row_major_atb(encode(ctx, At), encode(ctx, Bt))
        assert {
            k: v for k, v in ctx.ledger.delta(before).items() if k in ("CMult", "Mult", "Rot")
        } == count_formula("row_major", shape, s0, s1)
        np.testing.assert_allclose(decode(out), At.T @ Bt, atol=1e-12)


def test_pru_branch_taken_only_when_lopsided(ctx, rng):
    A = rng.normal(size=(8, 4))
    B = rng.normal(size=(8, 40))  # three block columns so the branch costs differ
    s0, s1 = ctx.grid_rows, ctx.grid_cols
    rl = count_formula("diag_atb_rl", (8, 40, 4), s0, s1)
    pru = count_formula("diag_atb_pru", (8, 40, 4), s0, s1)
    assert rl != pru  # branches must be distinguishable for this test to bite

    before = ctx.ledger.snapshot()
    diag_atb(encode(ctx, A, tiling="horizontal"), encode(ctx, B))
    equal_levels = ctx.ledger.delta(before)

    before = ctx.ledger.snapshot()
    diag_atb(encode(ctx, A, tiling="horizontal", level=9), encode(ctx, B))
    lopsided = ctx.ledger.delta(before)

    pick = lambda d: {k: d[k] for k in ("CMult", "Mult", "Rot")}
    assert pick(equal_levels) == rl
    assert pick(lopsided) == pru


def test_jin_baseline_formulas_are_frozen():
    # per-sample packing baselines at the 2^15-slot benchmark geometry
    assert count_formula("jin_abt", (512, 769, 4), 512, 64) == {
        "CMult": 0, "Mult": 3076, "Rot": 0,
    }
    assert count_formula("jin_atb", (512, 769, 4), 512, 64) == {
        "CMult": 0, "Mult": 3076, "Rot": 46140,
    }


def test_count_formula_rejects_garbage():
    with pytest.raises(ShapeMismatch):
        count_formula("nope", (4, 4, 2), 16, 16)
    with pytest.raises(ShapeMismatch):
        count_formula("diag_abt", (0, 4, 2), 16, 16)


def test_layout_mismatches_raise(ctx, rng):
    A = rng.normal(size=(8, 10))
    B = rng.normal(size=(4, 10))
    with pytest.raises(ShapeMismatch):
        diag_abt(encode(ctx, A), encode(ctx, B))  # B must be vertically tiled
    with pytest.raises(ShapeMismatch):
        diag_abt(encode(ctx, A, tiling="horizontal"), encode(ctx, B, tiling="vertical"))
    with pytest.raises(ShapeMismatch):
        diag_abt(encode(ctx, A), encode(ctx, rng.normal(size=(4, 9)), tiling="vertical"))
    with pytest.raises(ShapeMismatch):
        diag_atb(encode(ctx, A), encode(ctx, B))  # A must be horizontally tiled
    with pytest.raises(ShapeMismatch):
        col_major_abt(encode(ctx, A), encode(ctx, rng.normal(size=(4, 9))))
    with pytest.raises(ShapeMismatch):
        row_major_atb(encode(ctx, A), encode(ctx, rng.normal(size=(9, 10))))


def test_algorithm_registry_is_stable():
    assert ALGORITHMS == (
        "diag_abt",
        "diag_atb_rl",
        "diag_atb_pru",
        "col_major",
        "row_major",
        "jin_abt",
        "jin_atb",
    )


@settings(max_examples=20, deadline=None)
@given(
    a=st.integers(2, 24),
    b=st.integers(2, 24),
    cpow=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_random_shapes_match_oracle_and_formula(a, b, cpow, seed):
    c = 1 << cpow
    ctx = EmulatorContext(256, 16, max_level=12)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(a, b))
    B = rng.normal(size=(c, b))
    before = ctx.ledger.snapshot()
    out = diag_abt(encode(ctx, A), encode(ctx, B, tiling="vertical"))
    delta = ctx.ledger.delta(before)
    np.testing.assert_allclose(decode(out), A @ B.T, atol=1e-11)
    assert {k: delta[k] for k in ("CMult", "Mult", "Rot")} == count_formula(
        "diag_abt", (a, b, c), 16, 16
    )


def _grid_diag_abt(A, B):
    """diag_abt with each pass's product formed over the whole grid at once."""
    ctx, c = A.ctx, B.period
    packed = B if c == 1 else B + rot_up(B, c // 2).mul_i()
    acc = None
    for k in range(max(c // 2, 1)):
        term = col_sums(A * rot_up(packed, k)) * make_mask(ctx, k, c, complexified=c > 1)
        acc = term if acc is None else acc + term
    out = acc if c == 1 else acc + acc.conj()
    return out.with_meta(shape=(A.shape[0], B.shape[0]), tiling="horizontal")


def _grid_diag_atb(A, B, scale=1.0):
    """diag_atb with each pass run over the whole grid of B at once."""
    ctx, c = A.ctx, A.period
    use_partial = A.level < B.level
    packed = A if c == 1 else A + rot_left(A, c // 2).mul_i()
    acc = None
    for k in range(max(c // 2, 1)):
        if use_partial:
            prod = packed.lrot(k) * prot_up(B, k)
        else:
            prod = rot_left(packed, k) * B
        mask = make_mask(ctx, -k, c, complexified=c > 1, scale=scale)
        term = row_sums(prod) * mask
        acc = term if acc is None else acc + term
    out = acc if c == 1 else acc + acc.conj()
    return out.with_meta(shape=(A.shape[1], B.shape[1]), tiling="vertical")


def _same_product(ctx, kernel, oracle):
    before = ctx.ledger.snapshot()
    want = oracle()
    want_ops = ctx.ledger.delta(before)
    before = ctx.ledger.snapshot()
    got = kernel()
    assert ctx.ledger.delta(before) == want_ops
    assert got.block.slots.tobytes() == want.block.slots.tobytes()
    assert (got.shape, got.tiling, got.grid, got.level) == (want.shape, want.tiling, want.grid, want.level)
    return want_ops


@pytest.mark.parametrize("c", [1, 3, 10])
def test_block_column_kernels_equal_their_grid_wide_form(rng, c):
    # 2 block rows and 3 block columns on 16 x 16 blocks
    ctx = EmulatorContext(256, 16, max_level=12)
    a, b = 29, 37
    A, B = encode(ctx, rng.normal(size=(a, b))), encode(ctx, rng.normal(size=(c, b)), tiling="vertical")
    assert A.grid == (2, 3)
    ops = _same_product(ctx, lambda: diag_abt(A, B), lambda: _grid_diag_abt(A, B))
    assert {k: ops[k] for k in ("CMult", "Mult", "Rot")} == count_formula("diag_abt", (a, b, c), 16, 16)

    Bt = encode(ctx, rng.normal(size=(a, b)))
    for branch, level in (("diag_atb_rl", 12), ("diag_atb_pru", 11)):
        At = encode(ctx, rng.normal(size=(a, c)), tiling="horizontal", level=level)
        ops = _same_product(
            ctx, lambda: diag_atb(At, Bt, scale=0.25), lambda: _grid_diag_atb(At, Bt, scale=0.25)
        )
        assert {k: ops[k] for k in ("CMult", "Mult", "Rot")} == count_formula(branch, (a, b, c), 16, 16)
