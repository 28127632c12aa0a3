"""Momentum schedule, stepping, early stopping, and the two-party loop."""

import hashlib
import math

import numpy as np
import pytest

from hefit.approx import DEFAULTS, SoftmaxConfig, a_softmax
from hefit.datasets import make_gaussian_mixture
from hefit.emulator import EmulatorContext
from hefit.encoding import decode, encode
from hefit.errors import ConfigError, DataError, DepthExhausted, ShapeMismatch
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
    MSG_SETUP,
    MSG_VAL_LOGITS,
    ChannelEndpoint,
    channel_pair,
)
from hefit import training
from hefit.training import MIN_MAX_LEVEL, Client, TrainState, fit, nag_step, run_steps


def make_ctx(**kw):
    kw.setdefault("max_level", 12)
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
    """Final weights and bootstraps per step of ``steps`` steps at each budget."""
    x, y = make_gaussian_mixture(1024, classes, features, 3, mean_scale=0.1)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    final, boots = {}, {}
    for max_level in budgets:
        ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
        final[max_level] = run_steps(x, y, classes, steps, ctx=ctx, lr=0.1, batch_size=batch)[-1]
        boots[max_level] = ctx.ledger.counts()["Bootstrap"] / steps
    return final, boots


# Bootstraps per test-scale step with every tournament value refreshed alone.
GREEDY_STEP_BOOTSTRAPS = {
    5: 18, 6: 14, 7: 12, 8: 10, 9: 9, 10: 8, 11: 7, 12: 6.5, 13: 6.875, 14: 5,
    15: 5, 16: 4.875, 17: 5, 18: 4.875, 19: 4.625, 20: 4, 21: 4, 22: 4, 23: 3.875, 24: 4,
}


def test_test_scale_steps_complete_at_every_accepted_budget():
    # every max_level a run config accepts (at least 5) runs on the placed
    # refreshes alone; bootstraps are value-exact, and diag_atb tiles one
    # period of its output, so the tiled copies of W are equal and a packed
    # refresh, which keeps copy 0 only, loses nothing: the weights agree bit
    # for bit though budgets refresh at different steps.  The softmax's
    # refresh plan never costs a step more than refreshing every tournament
    # value alone
    final, boots = final_weights_by_budget(4096, 64, 16, 3, 64, range(5, 25), 8)
    for w in final.values():
        np.testing.assert_array_equal(w, final[24])
    assert boots == {
        5: 18, 6: 13.875, 7: 12, 8: 10, 9: 9, 10: 8, 11: 7, 12: 6.125, 13: 6.25, 14: 5,
        15: 5, 16: 4.75, 17: 4.625, 18: 4.375, 19: 4, 20: 4, 21: 3.5, 22: 3.625, 23: 3,
        24: 3.5,
    }
    assert all(boots[b] <= GREEDY_STEP_BOOTSTRAPS[b] for b in boots)


@pytest.mark.parametrize(
    "slots,grid_rows,features,classes,batch",
    [(4096, 64, 16, 3, 64), (32768, 128, 768, 10, 128)],
    ids=["test-scale", "paper-scale"],
)
def test_min_max_level_is_the_smallest_budget_a_step_completes_on(
    slots, grid_rows, features, classes, batch
):
    # one level less and the first-period cut of W before its packed
    # refresh finds W at level 0
    assert MIN_MAX_LEVEL == 5
    x, y = make_gaussian_mixture(256, classes, features, 3, mean_scale=0.1)
    x = np.hstack([x, np.ones((x.shape[0], 1))])

    def one_step(max_level):
        ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
        run_steps(x, y, classes, 1, ctx=ctx, lr=0.1, batch_size=batch)

    with pytest.raises(DepthExhausted, match="first_period"):
        one_step(MIN_MAX_LEVEL - 1)
    one_step(MIN_MAX_LEVEL)


def test_paper_scale_steps_complete_at_accepted_budgets():
    # 32768 slots, 769 columns on 1x4 grids, 10 classes, batch 128.  The
    # budgets differ by up to 3.5e-18, from diag_atb's two alignment
    # branches: over these 3 steps it takes rl rl rl at budget 5, pru rl rl
    # at 12 and pru pru pru at 21.  prot_up moves the tail terms of the
    # last k columns of a block one row up for pass k (k < 8 at 10
    # classes), so the column totals pair other rows there, and the
    # branches round apart in columns 249-255 (mod 256) only.  After step 1
    # budgets 5 and 12 differ in just those columns, by 1.7e-18; the later
    # steps spread the gap
    final, _ = final_weights_by_budget(32768, 128, 768, 10, 128, (5, 12, 21), 3)
    for w in final.values():
        np.testing.assert_allclose(w, final[21], rtol=0, atol=1e-15)


def test_paper_scale_step_bootstraps_at_budget_12():
    # train-paper's shape and budget.  Step 1: 7 softmax refreshes, planned
    # to hand the residual level 8, so it needs no refresh; W falls below
    # the threshold, and one packed ciphertext for W and V (their eight
    # blocks hold 16 x 256 distinct slots each, one 32768-slot block
    # together) returns both at max_level - 1.  Step 2: 7 softmax refreshes
    # plus the residual refresh, and W and V stay above the threshold
    ctx = EmulatorContext(32768, 128, max_level=12)
    x, y = make_gaussian_mixture(256, 10, 768, 3, mean_scale=0.1)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    state = encode_state(ctx, init_weights(10, 769, 0))
    onehot = one_hot(y, 10)
    steps = []
    for rows in batch_slices(256, 128):
        before = ctx.ledger.snapshot()
        nag_step(state, encode(ctx, x[rows]), encode(ctx, onehot[rows], tiling="horizontal"),
                 lr=0.1, batch_rows=128)
        steps.append((ctx.ledger.delta(before)["Bootstrap"], state.weights.level,
                      state.momentum.level))
    assert steps == [(8, ctx.max_level - 1, ctx.max_level - 1), (8, 8, 7)]


def test_bootstrap_keeps_low_depth_runs_exact(rng):
    # the softmax pipeline burns through any realistic level budget, so the
    # run must refresh mid-flight and still match the plaintext twin
    # (bootstrapping is value-exact here)
    ctx = EmulatorContext(256, 16, max_level=30)
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


def _run_steps_digest() -> str:
    """sha256 of the decoded weights after every step and the final ledger
    counts of 6 test-scale ``run_steps`` steps at budgets 5, 12 and 19 and
    4 paper-scale steps at budget 12."""
    h = hashlib.sha256()
    runs = [(4096, 64, 16, 3, 64, 6, level) for level in (5, 12, 19)]
    runs.append((32768, 128, 768, 10, 128, 4, 12))
    for slots, grid_rows, features, classes, batch, steps, max_level in runs:
        x, y = make_gaussian_mixture(batch * 2, classes, features, 3, mean_scale=0.1)
        x = np.hstack([x, np.ones((x.shape[0], 1))])
        ctx = EmulatorContext(slots, grid_rows, max_level=max_level)
        for w in run_steps(x, y, classes, steps, ctx=ctx, lr=0.1, batch_size=batch):
            h.update(w.tobytes())
        h.update(repr(sorted(ctx.ledger.counts().items())).encode())
    return h.hexdigest()


def test_run_steps_digest_is_pinned():
    """The trainer's numbers, bit for bit: every step's weights and the ledger.

    A refactor that means to keep the numbers keeps this digest.  To
    regenerate it, run from the repository root::

        PYTHONPATH=src:tests python -c "import test_training as t; print(t._run_steps_digest())"

    A new digest moves numbers: CHANGES.md says which and why.
    """
    assert _run_steps_digest() == (
        "9f3cf141e5e53b0ecf8db699890feb1422293d09b79c0886d4fbdf3c6ac9c5fa"
    )


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
        logits = encode(ctx, np.array([[0.0, z]]), tiling="horizontal")
        server_end.send_matrices(MSG_VAL_LOGITS, logits)
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


def test_fit_sends_one_setup_frame_and_encodes_no_zero_matrix(monkeypatch):
    x, y = make_gaussian_mixture(40, 3, 4, seed=5, mean_scale=2.0)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    sent, encoded = [], []
    send, encode_fn = ChannelEndpoint.send, training.encode

    def record_send(self, msg_type, payload=b""):
        sent.append(msg_type)
        send(self, msg_type, payload)

    def record_encode(ctx, values, *args, **kwargs):
        encoded.append(np.asarray(values))
        return encode_fn(ctx, values, *args, **kwargs)

    monkeypatch.setattr(ChannelEndpoint, "send", record_send)
    monkeypatch.setattr(training, "encode", record_encode)
    fit(x[:32], y[:32], x[32:], y[32:], classes=3, ctx=make_ctx(), epochs=2, batch_size=16)
    assert sent[0] == MSG_SETUP
    assert sent.count(MSG_SETUP) == 1
    # the initial weights, the validation features, then features and
    # labels of 2 epochs x 2 batches; none of them is a zero matrix
    assert len(encoded) == 2 + 2 * 2 * 2
    assert all(np.any(v) for v in encoded)


# -- label and batch checks ------------------------------------------------------------

# Each runner trains 3 classes on (x, y) with one batch size; the validation
# split, where there is one, is the training features with label 0.
_RUNNERS = {
    "fit": lambda x, y, batch: fit(
        x, y, x, np.zeros(len(x)), 3, ctx=make_ctx(), epochs=1, batch_size=batch
    ),
    "run_steps": lambda x, y, batch: run_steps(x, y, 3, 1, ctx=make_ctx(), batch_size=batch),
    "reference_fit": lambda x, y, batch: reference_fit(
        x, y, x, np.zeros(len(x)), 3, epochs=1, batch_size=batch
    ),
}

_BAD_LABELS = {
    "negative": (-1, "label -1 at row 5 is not an integer in \\[0, 3\\)"),
    "fraction": (2.5, "label 2.5 at row 5 is not an integer"),
    "equal to classes": (3, "label 3 at row 5 is not an integer"),
    "NaN": (math.nan, "label nan at row 5 is not an integer"),
}


def count_encodes(monkeypatch):
    calls = []
    encode_fn = training.encode

    def counted(*args, **kwargs):
        calls.append(1)
        return encode_fn(*args, **kwargs)

    monkeypatch.setattr(training, "encode", counted)
    return calls


@pytest.mark.parametrize("label", sorted(_BAD_LABELS))
@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_bad_training_label_raises_data_error_before_any_encode(monkeypatch, rng, runner, label):
    value, match = _BAD_LABELS[label]
    y = np.array([0, 1, 2, 0, 1, value, 2, 0])
    encodes = count_encodes(monkeypatch)
    with pytest.raises(DataError, match=match):
        _RUNNERS[runner](rng.normal(size=(8, 3)), y, 4)
    assert encodes == []


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_batch_size_below_one_raises_config_error_before_any_encode(monkeypatch, rng, runner):
    encodes = count_encodes(monkeypatch)
    with pytest.raises(ConfigError, match="batch size must be at least 1, got 0"):
        _RUNNERS[runner](rng.normal(size=(8, 3)), np.arange(8) % 3, 0)
    assert encodes == []
    with pytest.raises(ConfigError, match="batch size must be at least 1, got -2"):
        batch_slices(8, -2)


@pytest.mark.parametrize("runner", sorted(_RUNNERS))
def test_empty_training_set_raises_data_error_before_any_encode(monkeypatch, runner):
    # at the parent run_steps raised ZeroDivisionError, fit returned a NaN
    # train loss and reference_fit trained on nothing
    encodes = count_encodes(monkeypatch)
    with pytest.raises(DataError, match="training needs at least 1 row, got 0"):
        _RUNNERS[runner](np.zeros((0, 3)), np.zeros(0, int), 4)
    assert encodes == []


def test_client_checks_validation_labels_and_row_pairing(rng):
    x = rng.normal(size=(8, 3))
    y = np.arange(8) % 3
    cases = [
        (DataError, "label 3 at row 1 is not an integer", dict(y_val=np.array([0, 3]))),
        (ShapeMismatch, r"train labels of shape \(7,\) do not pair with 8 feature rows",
         dict(y_train=y[:7])),
        (ShapeMismatch, r"val labels of shape \(3,\) do not pair with 2 feature rows",
         dict(y_val=np.array([0, 1, 2]))),
        (ShapeMismatch, r"train labels of shape \(8, 1\) do not pair",
         dict(y_train=y[:, None])),
    ]
    for error, match, override in cases:
        kw = dict(x_train=x, y_train=y, x_val=x[:2], y_val=y[:2])
        kw.update(override)
        with pytest.raises(error, match=match):
            Client(make_ctx(), channel_pair()[0], classes=3, **kw)


def test_fit_rejects_short_labels_before_any_encode(monkeypatch, rng):
    # at the parent this trained a full epoch, then raised IndexError in the
    # observer's train loss
    x = rng.normal(size=(8, 3))
    encodes = count_encodes(monkeypatch)
    with pytest.raises(ShapeMismatch, match="do not pair with 8 feature rows"):
        fit(x, np.arange(7) % 3, x, np.arange(8) % 3, 3, ctx=make_ctx(), epochs=1)
    assert encodes == []


def test_integral_float_labels_are_accepted():
    np.testing.assert_array_equal(one_hot(np.array([2.0, 0.0]), 3), [[0, 0, 1], [1, 0, 0]])
