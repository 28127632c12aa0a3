"""Plaintext reference implementations.

Exact softmax / cross-entropy (the oracles every approximation is judged
against) and a numpy mirror of the accelerated-gradient trainer, pluggable
with either the exact softmax or the approximate pipeline's array path.
The mirror runs the same batch order, the same momentum schedule, and the
same weight initialization as the encrypted trainer, which makes lockstep
and parity comparisons direct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError


def exact_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stable."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=1, keepdims=True)


def log_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy from logits via logsumexp (exact)."""
    z = np.asarray(logits, dtype=np.float64)
    m = np.max(z, axis=1)
    lse = m + np.log(np.sum(np.exp(z - m[:, None]), axis=1))
    picked = z[np.arange(z.shape[0]), np.asarray(labels, dtype=int)]
    return float(np.mean(lse - picked))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    pred = np.argmax(np.asarray(logits), axis=1)
    return float(np.mean(pred == np.asarray(labels, dtype=int)))


def check_labels(labels: np.ndarray, classes: int) -> np.ndarray:
    """``labels`` as an int vector; :class:`~hefit.errors.DataError` unless
    each is an integer in [0, classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iuf":
        raise DataError(f"labels must be a vector of numbers, got {labels.dtype} {labels.shape}")
    # NaN and infinities fail the range test
    bad = ~((labels >= 0) & (labels < classes) & (labels == np.floor(labels)))
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"label {labels[i]} at row {i} is not an integer in [0, {classes})")
    return labels.astype(int)


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = check_labels(labels, classes)
    out = np.zeros((labels.shape[0], classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def init_weights(classes: int, dim: int, seed: int) -> np.ndarray:
    """Shared initializer: uniform [-0.01, 0.01], one draw, row-major."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.01, 0.01, size=(classes, dim))


def batch_slices(n: int, batch_size: int) -> list[slice]:
    """Consecutive batches in fixed order; the trailing one may be short.

    A batch size below 1 raises :class:`~hefit.errors.ConfigError`, and no
    rows to batch :class:`~hefit.errors.DataError`."""
    if batch_size < 1:
        raise ConfigError(f"batch size must be at least 1, got {batch_size}")
    if n < 1:
        raise DataError(f"training needs at least 1 row, got {n}")
    return [slice(i, min(i + batch_size, n)) for i in range(0, n, batch_size)]


@dataclass
class ReferenceState:
    weights: np.ndarray
    momentum: np.ndarray
    lam: float = 1.0


def reference_step(state: ReferenceState, xb, yb_onehot, lr: float, softmax_fn):
    """One accelerated-gradient step on a batch, mirroring the encrypted order."""
    logits = xb @ state.momentum.T
    probs = softmax_fn(logits)
    grad = (probs - yb_onehot).T @ xb * (lr / xb.shape[0])
    w_next = state.momentum - grad
    lam_next = (1.0 + math.sqrt(1.0 + 4.0 * state.lam * state.lam)) / 2.0
    gamma = (1.0 - state.lam) / lam_next
    v_next = (1.0 - gamma) * w_next + gamma * state.weights
    state.weights, state.momentum = w_next, v_next
    state.lam = lam_next
    return logits


@dataclass
class ReferenceResult:
    weights: np.ndarray
    best_weights: np.ndarray
    val_losses: list[float] = field(default_factory=list)
    epochs_run: int = 0
    best_epoch: int = 0


def reference_fit(
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    classes: int,
    lr: float = 0.3,
    batch_size: int = 64,
    epochs: int = 40,
    patience: int = 3,
    softmax_fn=exact_softmax,
    seed: int = 0,
) -> ReferenceResult:
    """Epoch loop with early stopping on strictly-improving validation loss."""
    x_train = np.asarray(x_train, dtype=np.float64)
    onehot = one_hot(y_train, classes)
    state = ReferenceState(
        weights=init_weights(classes, x_train.shape[1], seed),
        momentum=None,  # set below: momentum starts equal to the weights
    )
    state.momentum = state.weights.copy()
    result = ReferenceResult(weights=state.weights, best_weights=state.weights)
    best = math.inf
    bad = 0
    for epoch in range(1, epochs + 1):
        for sl in batch_slices(x_train.shape[0], batch_size):
            reference_step(state, x_train[sl], onehot[sl], lr, softmax_fn)
        val_loss = log_loss(x_val @ state.weights.T, y_val)
        result.val_losses.append(val_loss)
        result.epochs_run = epoch
        if val_loss < best:
            best = val_loss
            bad = 0
            result.best_weights = state.weights.copy()
            result.best_epoch = epoch
        else:
            bad += 1
            if bad >= patience:
                break
    result.weights = state.weights
    return result
