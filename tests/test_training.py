"""Momentum schedule, stepping, early stopping, and the two-party loop."""

import math

import numpy as np
import pytest

from hefit.approx import DEFAULTS, SoftmaxConfig, a_softmax
from hefit.datasets import make_gaussian_mixture
from hefit.emulator import EmulatorContext
from hefit.encoding import decode, encode
from hefit.plainref import (
    ReferenceState,
    accuracy,
    batch_slices,
    exact_softmax,
    init_weights,
    log_loss,
    one_hot,
    reference_fit,
    reference_step,
)
from hefit.protocol import (
    DECISION_CONTINUE,
    DECISION_IMPROVED,
    DECISION_STOP,
    channel_pair,
)
from hefit.training import Client, TrainState, fit, nag_step, run_steps


def make_ctx(**kw):
    kw.setdefault("max_level", 12)
    kw.setdefault("auto_bootstrap", True)
    return EmulatorContext(256, 16, **kw)


def encode_state(ctx, w0):
    e = encode(ctx, w0, tiling="vertical")
    return TrainState(weights=e, momentum=e)


# -- single steps -------------------------------------------------------------------


def test_nag_step_zero_lr_keeps_momentum(rng):
    ctx = make_ctx()
    w0 = init_weights(3, 5, seed=1)
    state = encode_state(ctx, w0)
    x = rng.normal(size=(4, 5))
    y = one_hot(np.array([0, 1, 2, 0]), 3)
    features, labels = encode(ctx, x), encode(ctx, y, tiling="horizontal")
    nag_step(state, features, labels, lr=0.0, batch_rows=4)
    # W_{t+1} = V_t - 0 * grad = V_t = W_0
    np.testing.assert_array_equal(decode(state.weights), w0)
    assert state.lambda_curr == pytest.approx(1.6180339887498949)
    nag_step(state, features, labels, lr=0.0, batch_rows=4)
    assert state.lambda_curr == pytest.approx(2.193527085331054)


def test_nag_step_matches_hand_computed_gradient(rng):
    ctx = make_ctx()
    classes, dim, lr = 3, 5, 0.7
    w0 = init_weights(classes, dim, seed=2)
    state = encode_state(ctx, w0)
    x = rng.normal(size=(1, dim))  # single sample: the gradient is an outer product
    y = one_hot(np.array([1]), classes)

    nag_step(state, encode(ctx, x), encode(ctx, y, tiling="horizontal"), lr=lr, batch_rows=1)

    probs = a_softmax(x @ w0.T, DEFAULTS)  # same array path, bit-for-bit
    grad = lr * np.outer((probs - y)[0], x[0])
    np.testing.assert_allclose(decode(state.weights), w0 - grad, atol=1e-12)
    # gamma_1 = 0, so V_2 == W_2 exactly
    np.testing.assert_array_equal(decode(state.momentum), decode(state.weights))


def test_reference_gradient_matches_finite_differences(rng):
    # the plaintext twin is the oracle for everything else, so check it
    # against the loss surface itself
    x = rng.normal(size=(6, 4))
    y = np.array([0, 2, 1, 1, 0, 2])
    w = rng.normal(size=(3, 4)) * 0.1
    onehot = one_hot(y, 3)

    probs = exact_softmax(x @ w.T)
    grad = (probs - onehot).T @ x / x.shape[0]

    eps = 1e-6
    for i in range(3):
        for j in range(4):
            bump = np.zeros_like(w)
            bump[i, j] = eps
            up = log_loss(x @ (w + bump).T, y)
            dn = log_loss(x @ (w - bump).T, y)
            assert grad[i, j] == pytest.approx((up - dn) / (2 * eps), abs=1e-5)


def test_encrypted_steps_walk_in_lockstep_with_reference(rng):
    ctx = make_ctx()
    x, y = make_gaussian_mixture(48, 3, 7, seed=11)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    cfg = DEFAULTS

    enc_tracks = run_steps(x, y, 3, steps=10, ctx=ctx, cfg=cfg, lr=0.3, batch_size=16, seed=4)

    state = ReferenceState(weights=init_weights(3, x.shape[1], 4), momentum=None)
    state.momentum = state.weights.copy()
    onehot = one_hot(y, 3)
    slices = batch_slices(x.shape[0], 16)
    worst = 0.0
    for step in range(10):
        sl = slices[step % len(slices)]
        reference_step(state, x[sl], onehot[sl], 0.3, lambda z: a_softmax(z, cfg))
        worst = max(worst, float(np.abs(enc_tracks[step] - state.weights).max()))
    assert worst < 1e-9


def test_test_scale_fit_needs_no_fallback_bootstrap():
    # 4096 slots, 3 classes, 17 columns, batch 64: the softmax and the W/V
    # refresh place every bootstrap, so the fallback never fires
    x, y = make_gaussian_mixture(320, 3, 16, seed=21)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    runs = {}
    for auto in (False, True):
        ctx = EmulatorContext(4096, 64, max_level=12, auto_bootstrap=auto)
        runs[auto] = fit(x[:256], y[:256], x[256:], y[256:], 3, ctx=ctx, lr=0.03,
                         batch_size=64, epochs=2, patience=3, seed=1)
    np.testing.assert_array_equal(runs[False].weights, runs[True].weights)
    assert runs[False].ledger_counts == runs[True].ledger_counts


def final_weights_by_budget(slots, grid_rows, features, classes, batch, budgets, steps):
    x, y = make_gaussian_mixture(1024, classes, features, 3, mean_scale=0.1)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    final = {}
    for max_level in budgets:
        ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
        final[max_level] = run_steps(x, y, classes, steps, ctx=ctx, lr=0.1, batch_size=batch)[-1]
    return final


def test_test_scale_steps_complete_at_every_accepted_budget():
    # every max_level a run config accepts (at least 5) runs on the placed
    # refreshes alone; bootstraps are value-exact, so the weights agree up to
    # the ulps by which row_sums leaves the tiled copies of W apart (a packed
    # refresh keeps copy 0 only, and budgets refresh at different steps)
    final = final_weights_by_budget(4096, 64, 16, 3, 64, range(5, 25), 8)
    for w in final.values():
        np.testing.assert_allclose(w, final[24], rtol=0, atol=1e-15)


def test_paper_scale_steps_complete_at_accepted_budgets():
    # 32768 slots, 769 columns on 1x4 grids, 10 classes, batch 128
    final = final_weights_by_budget(32768, 128, 768, 10, 128, (5, 12, 21), 3)
    for w in final.values():
        np.testing.assert_allclose(w, final[21], rtol=0, atol=1e-15)


def test_paper_scale_step_bootstraps_at_budget_12():
    # train-paper's shape and budget: 13 softmax and residual refreshes plus
    # one packed ciphertext for W and V (their eight blocks hold 16 x 256
    # distinct slots each, one 32768-slot block together)
    ctx = EmulatorContext(32768, 128, max_level=12)
    x, y = make_gaussian_mixture(256, 10, 768, 3, mean_scale=0.1)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    state = encode_state(ctx, init_weights(10, 769, 0))
    onehot = one_hot(y, 10)
    for rows in batch_slices(256, 128):
        before = ctx.ledger.snapshot()
        nag_step(state, encode(ctx, x[rows]), encode(ctx, onehot[rows], tiling="horizontal"),
                 lr=0.1, batch_rows=128)
        assert ctx.ledger.delta(before)["Bootstrap"] == 14
        assert state.weights.level == state.momentum.level == ctx.max_level - 1


def test_bootstrap_keeps_low_depth_runs_exact(rng):
    # the softmax pipeline burns through any realistic level budget, so the
    # run must refresh mid-flight and still match the plaintext twin
    # (bootstrapping is value-exact here)
    ctx = EmulatorContext(256, 16, max_level=30, auto_bootstrap=True)
    x, y = make_gaussian_mixture(32, 3, 5, seed=12)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    tracks = run_steps(x, y, 3, steps=6, ctx=ctx, cfg=DEFAULTS, lr=0.3, batch_size=16, seed=0)
    assert ctx.ledger.counts()["Bootstrap"] > 0

    state = ReferenceState(weights=init_weights(3, x.shape[1], 0), momentum=None)
    state.momentum = state.weights.copy()
    onehot = one_hot(y, 3)
    slices = batch_slices(x.shape[0], 16)
    for step in range(6):
        sl = slices[step % len(slices)]
        reference_step(state, x[sl], onehot[sl], 0.3, lambda z: a_softmax(z, DEFAULTS))
    assert np.abs(tracks[-1] - state.weights).max() < 1e-9


# -- early stopping ------------------------------------------------------------------


def drive_client_with_losses(losses, patience=3):
    """Feed a client crafted validation logits whose loss hits each target."""
    ctx = make_ctx()
    client_end, server_end = channel_pair()
    client = Client(
        ctx, client_end,
        x_train=np.zeros((2, 3)), y_train=np.array([0, 1]),
        x_val=np.zeros((1, 3)), y_val=np.array([0]),
        classes=2, patience=patience, seed=0,
    )
    decisions = []
    for target in losses:
        z = math.log(math.exp(target) - 1.0)  # single-row loss == target
        server_end.send_val_logits(encode(ctx, np.array([[0.0, z]]), tiling="horizontal"))
        decisions.append(client.evaluate_validation())
    return client, decisions


def test_patience_sequence_from_module_contract():
    losses = [1.0, 0.9, 0.95, 0.96, 0.97]
    client, decisions = drive_client_with_losses(losses, patience=3)
    assert decisions == [
        DECISION_IMPROVED,
        DECISION_IMPROVED,
        DECISION_CONTINUE,
        DECISION_CONTINUE,
        DECISION_STOP,
    ]
    assert client.best_epoch == 2
    np.testing.assert_allclose(client.val_losses, losses, atol=1e-12)


def test_equal_loss_does_not_count_as_improvement():
    _, decisions = drive_client_with_losses([0.8, 0.8], patience=1)
    assert decisions == [DECISION_IMPROVED, DECISION_STOP]


def test_strict_decrease_never_stops():
    client, decisions = drive_client_with_losses([1.0, 0.9, 0.8, 0.7], patience=1)
    assert decisions == [DECISION_IMPROVED] * 4
    assert client.best_epoch == 4


# -- full runs ------------------------------------------------------------------------


def test_reference_fit_separates_easy_data():
    x, y = make_gaussian_mixture(120, 2, 4, seed=3, mean_scale=3.0)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    res = reference_fit(x[:100], y[:100], x[100:], y[100:], classes=2, epochs=20)
    assert res.epochs_run <= 20
    assert accuracy(x[:100] @ res.best_weights.T, y[:100]) >= 0.99


def test_fit_end_to_end_result_shape_and_audit():
    ctx = make_ctx()
    x, y = make_gaussian_mixture(80, 3, 6, seed=9, mean_scale=2.0)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    result = fit(
        x[:64], y[:64], x[64:], y[64:], classes=3,
        ctx=ctx, epochs=3, batch_size=16, lr=0.4, patience=3, seed=0,
    )
    assert result.weights.shape == (3, 7)
    assert result.epochs_run == 3
    assert len(result.val_losses) == 3
    assert len(result.train_losses) == 3
    assert 1 <= result.best_epoch <= 3
    assert len(result.softmax_trace) == 3 * 4  # steps = epochs * batches
    assert all(lo <= hi for lo, hi in result.softmax_trace)
    assert result.estimated_ms > 0
    assert result.ledger_counts["Mult"] > 0

    # privacy audit: the server never decodes; the client sees only its due
    assert ctx.decodes_by("server") == []
    client_tags = {tag for _, tag in ctx.decodes_by("client")}
    assert client_tags == {"val-logits", "final-weights"}


def test_fit_returns_best_epoch_weights():
    # push epochs past convergence: the returned weights must come from the
    # best validation epoch snapshot, not the last epoch
    ctx = make_ctx()
    x, y = make_gaussian_mixture(60, 2, 4, seed=21, mean_scale=2.5)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    result = fit(
        x[:48], y[:48], x[48:], y[48:], classes=2,
        ctx=ctx, epochs=12, batch_size=16, lr=1.5, patience=2, seed=0,
    )
    assert result.best_epoch <= result.epochs_run
    if result.stopped_early:
        assert result.epochs_run < 12
        assert result.val_losses[result.best_epoch - 1] == min(result.val_losses)
