"""Encrypted fine-tuning of a linear classifier across a client/server split.

The server performs every arithmetic step on ciphertexts only: logits by
``diag_abt``, row-wise approximate softmax, the gradient by ``diag_atb``
with the learning-rate/batch-size factor folded into its mask, and the
accelerated-momentum combination.  The client keeps all plaintext: it
encrypts features, labels, and the initial weights, decrypts validation
logits once per epoch to drive early stopping, and decrypts the final
weights.  Decryption calls carry a role tag, so a test can assert that the
server role never decoded anything.

Message flow (see :mod:`hefit.protocol` for framing):

1. setup: client sends one Setup carrying the initial weights (W = V) and
   the validation features; validation labels stay with the client.
2. per epoch: one EncryptedBatch per minibatch, in fixed order; the server
   answers the epoch with EncryptedValLogits computed from the last W.
3. the client replies with a StopSignal byte: improved (snapshot W),
   continue, or stop; on stop the server sends the best snapshot back as
   FinalWeights.

The momentum schedule starts from lambda_0 = 0, so lambda_1 = 1 and the
first combination step has gamma_1 = 0; the combination is still executed
(two constant multiplications and an addition) to keep per-step operation
counts uniform.

W and V are vertically tiled, so each block repeats one period of rows.
A step may refresh both through packed ciphertexts
(:func:`~hefit.encoding.bootstrap_tiled`): only their first periods are
bootstrapped, together, then re-tiled.  At paper scale (32768 slots, 10
classes, 769 columns) that is one bootstrap instead of eight.  V's cut to
its first period rides the momentum multipliers, so the refresh spends no
level of V, and W and V come back at ``max_level - 1``.  Re-tiling copies
the first period over the others.  The copies a step leaves behind are
equal (``diag_atb`` computes one period of its output and tiles it,
:func:`~hefit.encoding.place_passes`), so the packed refresh returns the
slots an unpacked one would, bit for bit.

Each step takes two refresh decisions (:class:`StepPlan`): the levels
``need`` the residual P - Y is handed on with (the softmax plans for it,
:func:`~hefit.approx.softmax_plan`, and the residual is refreshed where the
softmax output sits below it), and whether W and V take the packed
refresh.  :func:`plan_steps` takes them for a whole run before its first
step (the server plans from the batch sizes of the client's schedule,
:meth:`Server.plan_steps`), as the cheapest chain of steps
(:func:`~hefit.approx.cheapest`) that leaves W and V where ``diag_abt``
can read them after every step, ranked by :func:`~hefit.approx.rank`:
the least estimated ms, then the fewest bootstraps.  Each step is priced
by dry runs of its own code, the softmax by its own plan, which places the
refreshes after its tournament too.  Every bootstrap is value-exact, so
the plan moves levels and the ledger, never a slot.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .approx import DEFAULTS, SoftmaxConfig, _refresh, a_softmax, cheapest, dry_run, softmax_plan
from .emulator import EmulatorContext
from .encoding import EncodedMatrix, bootstrap_tiled, decode, encode, first_period
from .errors import DepthExhausted, ShapeMismatch
from .matmul import diag_abt, diag_atb
from .plainref import batch_slices, check_labels, init_weights, log_loss, one_hot
from .protocol import (
    DECISION_CONTINUE,
    DECISION_IMPROVED,
    DECISION_STOP,
    MSG_BATCH,
    MSG_SETUP,
    MSG_VAL_LOGITS,
    MSG_WEIGHTS,
    ChannelEndpoint,
    channel_pair,
)

# The smallest max_level a training step completes on: diag_atb's
# rotate-left branch spends 4 levels, the first-period cut of W 1 more.
MIN_MAX_LEVEL = 5


@dataclass
class TrainState:
    """Server-side training state: ciphertext parameters plus the schedule."""

    weights: EncodedMatrix  # W_t, classes x (features+1), vertically tiled
    momentum: EncodedMatrix  # V_t, same layout
    lambda_curr: float = 1.0


class StepPlan(NamedTuple):
    """The refresh decisions of one training step.

    ``need``: the levels the residual P - Y is handed on with; the softmax
    plans for it, and the residual is refreshed where the softmax output
    sits below it.  ``pack``: whether W and V are refreshed together through
    packed ciphertexts at the end of the step.
    """

    need: int
    pack: bool


def nag_step(
    state: TrainState,
    features: EncodedMatrix,
    labels: EncodedMatrix,
    lr: float,
    batch_rows: int,
    cfg: SoftmaxConfig = DEFAULTS,
    trace_hook=None,
    plan: StepPlan | None = None,
) -> None:
    """One accelerated-gradient step, evaluated at the lookahead point.

    probabilities = softmax(X V_t^T); W_{t+1} = V_t - (lr/N) (P - Y)^T X;
    V_{t+1} = (1 - gamma_t) W_{t+1} + gamma_t W_t.  Padded batch rows are
    harmless: their feature rows are zero, so they cannot contribute to the
    gradient even though their softmax row is a uniform distribution.  The
    step refreshes as ``plan`` says; without one it takes a one-step plan
    (:func:`plan_steps`).
    """
    if plan is None:
        (plan,) = plan_steps(state, [features.shape[0]], cfg)
    logits = diag_abt(features, state.momentum)
    if trace_hook is not None:
        trace_hook(logits)
    probs = a_softmax(logits, cfg, need=plan.need)
    resid = _refresh(probs - labels, plan.need)
    grad = diag_atb(resid, features, scale=lr / batch_rows)

    lam_next = (1.0 + math.sqrt(1.0 + 4.0 * state.lambda_curr**2)) / 2.0
    gamma = (1.0 - state.lambda_curr) / lam_next
    state.weights, state.momentum = _update(state.momentum - grad, state.weights, gamma, plan.pack)
    state.lambda_curr = lam_next


def _update(w_next: EncodedMatrix, weights: EncodedMatrix, gamma: float, pack: bool):
    """(W_{t+1}, V_{t+1}), V_{t+1} = (1 - gamma) W_{t+1} + gamma W_t, one
    level below both; with ``pack``, both refreshed through packed
    ciphertexts, where V's first-period mask rides the momentum
    multipliers, so packing spends no level of V."""
    if not pack:
        return w_next, w_next * (1.0 - gamma) + weights * gamma
    v_head = first_period(w_next, 1.0 - gamma) + first_period(weights, gamma)
    return bootstrap_tiled(w_next, v_head)


# -- refresh plan -------------------------------------------------------------------


@dataclass(frozen=True)
class _Geometry:
    """What a step's ledger and levels depend on besides the levels of W
    and V and the plan: the context's slot grid and budget, the batch's
    block rows, the features' columns and the classes."""

    slots: int
    grid_rows: int
    max_level: int
    blocks: int
    cols: int
    classes: int
    cfg: SoftmaxConfig

    @classmethod
    def of(cls, weights: EncodedMatrix, batch_rows: int, cfg: SoftmaxConfig) -> "_Geometry":
        """The geometry of a step of ``batch_rows`` rows on ``weights``."""
        ctx = weights.ctx
        blocks = -(-batch_rows // ctx.grid_rows)
        return cls(ctx.slot_count, ctx.grid_rows, ctx.max_level, blocks, weights.shape[1],
                   weights.shape[0], cfg)

    def dry_run(self, step):
        """:func:`~hefit.approx.dry_run` of ``step(zeros)`` in this geometry,
        ``zeros(kind, level)`` a zero matrix of the features' (``"x"``), the
        weights' (``"w"``) or the residual's (``"r"``) layout."""
        rows = self.blocks * self.grid_rows
        layouts = {
            "x": ((rows, self.cols), "none"),
            "w": ((self.classes, self.cols), "vertical"),
            "r": ((rows, self.classes), "horizontal"),
        }
        return dry_run(
            self.slots, self.grid_rows, self.max_level,
            lambda zeros: step(lambda kind, level=None: zeros(*layouts[kind], level)),
        )


@functools.lru_cache(maxsize=None)
def _logits_run(geo: _Geometry, v: int):
    """``diag_abt`` of the features by V at level ``v``, dry."""
    return geo.dry_run(lambda zeros: diag_abt(zeros("x"), zeros("w", v)).level)


@functools.lru_cache(maxsize=None)
def _residual_run(geo: _Geometry, p: int, need: int):
    """The residual of probabilities at level ``p``, refreshed for ``need``, dry."""
    return geo.dry_run(lambda zeros: _refresh(zeros("r", p) - zeros("r"), need).level)


@functools.lru_cache(maxsize=None)
def _gradient_run(geo: _Geometry, r: int):
    """``diag_atb`` of a residual at level ``r`` by the features, dry."""
    return geo.dry_run(lambda zeros: diag_atb(zeros("r", r), zeros("x")).level)


@functools.lru_cache(maxsize=None)
def _update_run(geo: _Geometry, v: int, g: int, w: int, pack: bool):
    """W_{t+1} = V - grad and :func:`_update` from V, the gradient and W at
    levels ``v``, ``g`` and ``w``, dry; the result is the levels of W_{t+1}
    and V_{t+1}."""

    def step(zeros):
        w_next, v_next = _update(zeros("w", v) - zeros("w", g), zeros("w", w), 0.5, pack)
        return w_next.level, v_next.level

    return geo.dry_run(step)


@functools.lru_cache(maxsize=None)
def _edges(geo: _Geometry, levels: tuple[int, int]):
    """Every plan a step from W and V at ``levels`` can take, with the op
    counts it charges and the levels it leaves W and V at: those where each
    piece runs and W and V stay readable by ``diag_abt``."""
    w, v = levels
    logits = _logits_run(geo, v)
    if logits is None:
        return ()
    edges = []
    for plan in _choices(geo.max_level):
        try:
            softmax = softmax_plan(logits[1], geo.max_level, geo.classes, geo.cfg, plan.need)
        except DepthExhausted:
            return ()
        resid = _residual_run(geo, softmax.level, plan.need)
        grad = resid and _gradient_run(geo, resid[1])
        update = grad and _update_run(geo, v, grad[1], w, plan.pack)
        # W and V must stay where diag_abt can read them
        if not (update and all(_logits_run(geo, lv) for lv in update[1])):
            continue
        softmax_counts = [n * geo.blocks for n in softmax.counts]
        pieces = (logits[0], resid[0], grad[0], update[0], softmax_counts)
        edges.append((plan, tuple(map(sum, zip(*pieces))), update[1]))
    return tuple(edges)


def _choices(top: int):
    """The plans a step can take on a budget of ``top`` levels, in
    tie-break order: no pack before a pack, then the smaller need.  Needs
    run from 4, the levels an unrefreshed residual spends in the rest of
    the step (``diag_atb``'s partial-rotation branch 3, the momentum
    product 1), to the budget."""
    return (StepPlan(need, pack) for pack in (False, True) for need in range(4, top + 1))


def plan_steps(
    state: TrainState, batch_rows: Sequence[int], cfg: SoftmaxConfig = DEFAULTS
) -> tuple[StepPlan, ...]:
    """The refresh plans of the steps ahead of ``state``, one per entry of
    ``batch_rows``, each step's batch size.

    The cheapest chain (:func:`~hefit.approx.cheapest`) over the levels of
    W and V between steps, one stage per step, whose moves are
    :func:`_edges`, in :func:`_choices`' order.  Planning runs no op on
    the state's context.  Where no plan keeps a step going, raises
    :class:`~hefit.errors.DepthExhausted`.
    """
    geo = _Geometry.of(state.weights, 1, cfg)
    blocks = tuple(-(-rows // geo.grid_rows) for rows in batch_rows)
    return _plan(geo, blocks, (state.weights.level, state.momentum.level))


@functools.lru_cache(maxsize=64)
def _plan(geo: _Geometry, blocks: tuple[int, ...], start: tuple[int, int]):
    """:func:`plan_steps` of steps of ``geo`` with ``blocks`` block rows
    each from W and V at ``start``."""
    stages = [functools.partial(_edges, replace(geo, blocks=b)) for b in blocks]
    chain = cheapest(start, stages)
    if chain is None:
        raise DepthExhausted(
            f"no refresh plan keeps W and V readable by diag_abt on a budget of "
            f"{geo.max_level} levels"
        )
    return chain[0]


class Client:
    """Plaintext-owning party: encrypts inputs, judges validation, decrypts output."""

    ROLE = "client"

    def __init__(
        self,
        ctx: EmulatorContext,
        channel: ChannelEndpoint,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray,
        y_val: np.ndarray,
        classes: int,
        *,
        patience: int = 3,
        seed: int = 0,
    ):
        self.ctx = ctx
        self.channel = channel
        self.x_train = np.asarray(x_train, dtype=np.float64)
        self.y_train = np.asarray(y_train)
        self.x_val = np.asarray(x_val, dtype=np.float64)
        self.y_val = np.asarray(y_val)
        self.classes = classes
        self.patience = patience
        self.seed = seed
        if self.x_train.ndim != 2 or self.x_val.ndim != 2:
            raise ShapeMismatch("feature matrices must be 2D")
        if self.x_train.shape[1] != self.x_val.shape[1]:
            raise ShapeMismatch(
                f"train/val feature widths differ: "
                f"{self.x_train.shape[1]} vs {self.x_val.shape[1]}"
            )
        for split, x, y in ("train", self.x_train, self.y_train), ("val", self.x_val, self.y_val):
            if y.shape != x.shape[:1]:
                raise ShapeMismatch(
                    f"{split} labels of shape {y.shape} do not pair with {x.shape[0]} feature rows"
                )
        self.onehot = one_hot(self.y_train, classes)
        check_labels(self.y_val, classes)
        self.val_losses: list[float] = []
        self.best_loss = math.inf
        self.bad_epochs = 0
        self.best_epoch = 0

    def send_setup(self) -> None:
        w0 = init_weights(self.classes, self.x_train.shape[1], self.seed)
        self.channel.send_matrices(
            MSG_SETUP, encode(self.ctx, w0, tiling="vertical"), encode(self.ctx, self.x_val)
        )

    def send_training_batch(self, rows: slice) -> int:
        xb = self.x_train[rows]
        yb = self.onehot[rows]
        self.channel.send_matrices(
            MSG_BATCH,
            encode(self.ctx, xb),
            encode(self.ctx, yb, tiling="horizontal"),
        )
        return xb.shape[0]

    def evaluate_validation(self) -> int:
        """Decrypt epoch logits, update the patience ledger, signal a decision."""
        (logits_ct,) = self.channel.recv_matrices(MSG_VAL_LOGITS, self.ctx)
        logits = decode(logits_ct, role=self.ROLE, tag="val-logits")
        loss = log_loss(logits, self.y_val)
        self.val_losses.append(loss)
        if loss < self.best_loss:
            self.best_loss = loss
            self.bad_epochs = 0
            self.best_epoch = len(self.val_losses)
            decision = DECISION_IMPROVED
        else:
            self.bad_epochs += 1
            decision = DECISION_STOP if self.bad_epochs >= self.patience else DECISION_CONTINUE
        self.channel.send_stop_signal(decision)
        return decision

    def send_stop(self) -> None:
        self.channel.send_stop_signal(DECISION_STOP)

    def receive_final_weights(self) -> np.ndarray:
        (weights_ct,) = self.channel.recv_matrices(MSG_WEIGHTS, self.ctx)
        return decode(weights_ct, role=self.ROLE, tag="final-weights")


class Server:
    """Ciphertext-only party: owns the training loop arithmetic, never decrypts."""

    ROLE = "server"

    def __init__(
        self,
        ctx: EmulatorContext,
        channel: ChannelEndpoint,
        *,
        lr: float,
        cfg: SoftmaxConfig = DEFAULTS,
        trace_hook=None,
    ):
        self.ctx = ctx
        self.channel = channel
        self.lr = lr
        self.cfg = cfg
        self.trace_hook = trace_hook
        self.state: TrainState | None = None
        self.val_features: EncodedMatrix | None = None
        self.best_weights: EncodedMatrix | None = None
        self.stopped = False
        self.plans = iter(())

    def receive_setup(self) -> None:
        w0, self.val_features = self.channel.recv_matrices(MSG_SETUP, self.ctx)
        self.state = TrainState(weights=w0, momentum=w0)
        self.best_weights = w0

    def plan_steps(self, batch_rows: Sequence[int]) -> None:
        """Plan the refreshes of the steps ahead, one per entry of
        ``batch_rows``, their batch sizes (:func:`plan_steps`)."""
        self.plans = iter(plan_steps(self.state, batch_rows, self.cfg))

    def process_training_batch(self, batch_rows: int) -> None:
        features, labels = self.channel.recv_matrices(MSG_BATCH, self.ctx)
        nag_step(
            self.state,
            features,
            labels,
            self.lr,
            batch_rows,
            self.cfg,
            trace_hook=self.trace_hook,
            plan=next(self.plans, None),
        )

    def send_validation_logits(self) -> None:
        logits = diag_abt(self.val_features, self.state.weights)
        self.channel.send_matrices(MSG_VAL_LOGITS, logits)

    def receive_decision(self) -> None:
        decision = self.channel.recv_stop_signal()
        if decision == DECISION_IMPROVED:
            self.best_weights = self.state.weights
        elif decision == DECISION_STOP:
            self.stopped = True
            self.channel.send_matrices(MSG_WEIGHTS, self.best_weights)


@dataclass
class FitResult:
    """Everything a run produces, already decrypted where the client may."""

    weights: np.ndarray  # best-epoch weights, classes x (features+1)
    val_losses: list[float]
    train_losses: list[float]
    epochs_run: int
    best_epoch: int
    stopped_early: bool
    ledger_counts: dict[str, int]
    estimated_ms: float
    softmax_trace: list[tuple[float, float]] = field(default_factory=list)


def fit(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    classes: int,
    *,
    ctx: EmulatorContext | None = None,
    cfg: SoftmaxConfig = DEFAULTS,
    lr: float = 0.3,
    batch_size: int = 64,
    epochs: int = 40,
    patience: int = 3,
    seed: int = 0,
) -> FitResult:
    """Run the full protocol on an in-process channel and return the outcome.

    The per-epoch train losses and the per-step softmax input range are
    observer diagnostics of the emulation harness (they decode with the
    ``observer`` role); neither party of the protocol computes them.
    """
    if ctx is None:
        ctx = EmulatorContext(4096, 64, max_level=12)
    trace: list[tuple[float, float]] = []

    def observe_logits(logits: EncodedMatrix) -> None:
        vals = decode(logits, role="observer", tag="softmax-input")
        trace.append((float(vals.min()), float(vals.max())))

    client_end, server_end = channel_pair()
    client = Client(
        ctx, client_end, x_train, y_train, x_val, y_val, classes,
        patience=patience, seed=seed,
    )
    server = Server(ctx, server_end, lr=lr, cfg=cfg, trace_hook=observe_logits)
    slices = batch_slices(x_train.shape[0], batch_size)

    client.send_setup()
    server.receive_setup()
    server.plan_steps([rows.stop - rows.start for rows in slices] * epochs)

    train_losses: list[float] = []
    epochs_run = 0
    for _ in range(epochs):
        for rows in slices:
            n = client.send_training_batch(rows)
            server.process_training_batch(n)
        epochs_run += 1
        w_now = decode(server.state.weights, role="observer", tag="train-loss")
        train_losses.append(log_loss(x_train @ w_now.T, y_train))
        server.send_validation_logits()
        client.evaluate_validation()
        server.receive_decision()
        if server.stopped:
            break

    stopped_early = server.stopped
    if not server.stopped:
        client.send_stop()
        server.receive_decision()
    weights = client.receive_final_weights()

    return FitResult(
        weights=weights,
        val_losses=client.val_losses,
        train_losses=train_losses,
        epochs_run=epochs_run,
        best_epoch=client.best_epoch,
        stopped_early=stopped_early,
        ledger_counts=ctx.ledger.counts(),
        estimated_ms=ctx.ledger.estimated_ms,
        softmax_trace=trace,
    )


def run_steps(
    x_train: np.ndarray,
    y_train: np.ndarray,
    classes: int,
    steps: int,
    *,
    ctx: EmulatorContext | None = None,
    cfg: SoftmaxConfig = DEFAULTS,
    lr: float = 0.3,
    batch_size: int = 64,
    seed: int = 0,
) -> list[np.ndarray]:
    """Fixed-step harness for trajectory measurements: no channel, no stopping.

    Cycles minibatches in the same fixed order as :func:`fit` and returns
    the decoded (observer role) weight matrix after every step, so a
    plaintext twin running the same arithmetic can be compared step by
    step.
    """
    if ctx is None:
        ctx = EmulatorContext(4096, 64, max_level=12)
    x_train = np.asarray(x_train, dtype=np.float64)
    onehot = one_hot(y_train, classes)
    slices = batch_slices(x_train.shape[0], batch_size)
    w0 = init_weights(classes, x_train.shape[1], seed)
    w_enc = encode(ctx, w0, tiling="vertical")
    state = TrainState(weights=w_enc, momentum=w_enc)
    schedule = [slices[step % len(slices)] for step in range(steps)]
    plans = plan_steps(state, [rows.stop - rows.start for rows in schedule], cfg)
    snapshots = []
    for rows, plan in zip(schedule, plans):
        xb = x_train[rows]
        features = encode(ctx, xb)
        labels = encode(ctx, onehot[rows], tiling="horizontal")
        nag_step(state, features, labels, lr, xb.shape[0], cfg, plan=plan)
        snapshots.append(decode(state.weights, role="observer", tag="lockstep"))
    return snapshots
