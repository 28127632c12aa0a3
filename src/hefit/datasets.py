"""Synthetic data generation and the CSV feature format.

The on-disk format is a header line ``f0,...,f{n-1},label`` followed by one
row per sample: float features, integer class label.  Ingestion appends the
all-ones bias column expected by the linear layer, so a file with ``f``
feature columns loads as an ``n x (f+1)`` matrix.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .errors import DataError


def make_gaussian_mixture(
    samples: int,
    classes: int,
    features: int,
    seed: int,
    *,
    mean_scale: float = 1.5,
    balanced: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic Gaussian blobs with class means drawn from N(0, mean_scale^2).

    ``balanced`` assigns exactly ``samples // classes`` rows per class (and
    requires divisibility); otherwise labels are uniform draws.
    """
    if samples < 1 or classes < 2 or features < 1:
        raise DataError(
            f"need samples >= 1, classes >= 2, features >= 1; "
            f"got {samples}, {classes}, {features}"
        )
    rng = np.random.default_rng(seed)
    means = rng.normal(0.0, mean_scale, size=(classes, features))
    if balanced:
        if samples % classes:
            raise DataError(f"{samples} samples not divisible by {classes} classes")
        labels = rng.permutation(np.repeat(np.arange(classes), samples // classes))
    else:
        labels = rng.integers(0, classes, size=samples)
    points = means[labels] + rng.standard_normal((samples, features))
    return points, labels


def save_csv(path: str | Path, features: np.ndarray, labels: np.ndarray) -> None:
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise DataError(
            f"features {features.shape} do not pair with labels {labels.shape}"
        )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(features.shape[1])] + ["label"])
        for row, label in zip(features, labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


_INT64 = np.iinfo(np.int64)


def load_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a UTF-8 feature CSV back into (features, int64 labels).

    Any file that is not such a CSV raises :class:`~hefit.errors.DataError`,
    including a field with an underscore, which Python's number parsers
    would silently drop (``1_0.5`` reads as 10.5).  Spaces around a field
    are accepted, since they do not change its value.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            width = len(header)
            if width < 2 or header[-1] != "label":
                raise DataError(f"{path}: header must end with a 'label' column")
            feats: list[list[float]] = []
            labels: list[int] = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != width:
                    raise DataError(
                        f"{path}:{lineno}: expected {width} columns, got {len(row)}"
                    )
                if any("_" in v for v in row):
                    raise DataError(f"{path}:{lineno}: underscore in a number field")
                try:
                    feats.append([float(v) for v in row[:-1]])
                    labels.append(int(row[-1]))
                except ValueError as exc:
                    raise DataError(f"{path}:{lineno}: {exc}") from None
                if not _INT64.min <= labels[-1] <= _INT64.max:
                    raise DataError(f"{path}:{lineno}: label {row[-1]} does not fit in int64")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except (OSError, csv.Error) as exc:
        raise DataError(f"{path}: {exc}") from None
    if not feats:
        raise DataError(f"{path}: no data rows")
    features = np.array(feats, dtype=np.float64)
    finite = np.isfinite(features).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite)) + 1
        raise DataError(f"{path}: data row {row} has a NaN or infinite feature")
    return features, np.array(labels, dtype=np.int64)


def ingest(path: str | Path, classes: int | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Load a CSV and append the bias column; returns (X, labels, classes).

    Labels must be integers in [0, classes); when ``classes`` is omitted it
    is inferred as max(label) + 1.
    """
    features, labels = load_csv(path)
    if labels.min() < 0:
        raise DataError(f"{path}: negative label {labels.min()}")
    if classes is None:
        classes = int(labels.max()) + 1
    elif labels.max() >= classes:
        raise DataError(f"{path}: label {labels.max()} out of range for {classes} classes")
    with_bias = np.hstack([features, np.ones((features.shape[0], 1))])
    return with_bias, labels, classes
