"""Dataset loading, labeled/unlabeled splitting, and synthetic benchmarks.

A dataset is a plain feature matrix plus one integer label per row, where
``-1`` marks an unlabeled example.  CSV files use the same convention with
the literal token ``?`` in the last column.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

UNLABELED = -1


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with per-row label status.

    Attributes
    ----------
    features : (n, d) float array
    labels : (n,) int array, class index in ``0..class_count-1`` or
        ``UNLABELED`` (-1) for rows whose class is unknown.
    class_count : total number of classes, >= 2.
    class_names : original class tokens, indexed by class index.
    """

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    class_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2 or feats.shape[0] < 1 or feats.shape[1] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        finite = np.isfinite(feats)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise ValueError(f"row {row}: non-finite feature value {float(feats[row, col])}")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels must have one entry per row")
        if self.class_count < 2:
            raise ValueError("need at least 2 classes")
        known = labels[labels != UNLABELED]
        if known.size and (known.min() < 0 or known.max() >= self.class_count):
            raise ValueError("label index out of range")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """How many examples per class to keep labeled, and the RNG seed."""

    labeled_per_class: int
    seed: int = 0

    def __post_init__(self):
        if self.labeled_per_class < 1:
            raise ValueError("labeled_per_class must be positive")


def load_csv(path, header: bool = False) -> Dataset:
    """Read a comma-separated dataset.

    Every row holds feature values followed by one label column, which is
    either a class token (an arbitrary string) or ``?`` for unlabeled.
    Class indices follow the first-appearance order of the tokens.
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            rows.append((lineno, row))
    if not rows:
        raise ValueError(f"{path}: no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise ValueError(f"{path}: rows need at least one feature and a label")

    class_index: dict[str, int] = {}
    features = np.empty((len(rows), width - 1), dtype=float)
    labels = np.empty(len(rows), dtype=int)
    for out, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {lineno} has {len(row)} columns, expected {width}")
        for j, tok in enumerate(row[:-1]):
            try:
                value = float(tok)
            except ValueError:
                raise ValueError(f"{path}: row {lineno}: bad feature value {tok!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: row {lineno}: non-finite feature value {tok!r}")
            features[out, j] = value
        tok = row[-1].strip()
        if tok == "?":
            labels[out] = UNLABELED
        else:
            labels[out] = class_index.setdefault(tok, len(class_index))

    if len(class_index) < 2:
        raise ValueError(f"{path}: found {len(class_index)} class tokens among labeled rows, need >= 2")
    names = tuple(sorted(class_index, key=class_index.get))
    return Dataset(features, labels, len(class_index), names)


def save_csv(dataset: Dataset, path, header: bool = False) -> None:
    """Write a dataset in the format accepted by :func:`load_csv`."""
    names = dataset.class_names or tuple(str(j) for j in range(dataset.class_count))
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow([f"f{j}" for j in range(dataset.dim)] + ["label"])
        for x, y in zip(dataset.features, dataset.labels):
            tok = "?" if y == UNLABELED else names[y]
            writer.writerow([repr(float(v)) for v in x] + [tok])


def split(dataset: Dataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray]:
    """Pick ``labeled_per_class`` indices per class, the rest are unlabeled.

    Requires a fully labeled dataset (a benchmark with known ground truth).
    The same spec always produces the same index lists.
    """
    if np.any(dataset.labels == UNLABELED):
        raise ValueError("split needs a fully labeled dataset")
    rng = np.random.default_rng(spec.seed)
    labeled = []
    for cls in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == cls)
        if members.size < spec.labeled_per_class:
            raise ValueError(
                f"class {cls} has {members.size} examples, cannot label {spec.labeled_per_class}"
            )
        labeled.append(rng.choice(members, size=spec.labeled_per_class, replace=False))
    labeled_idx = np.sort(np.concatenate(labeled))
    mask = np.ones(dataset.n, dtype=bool)
    mask[labeled_idx] = False
    return labeled_idx, np.flatnonzero(mask)


CLUSTER_CENTERS = ((0.0, 0.0), (2.5, 2.5))


def synth_noisy_gaussian(n_per_class: int, covariance_scale: float, seed: int = 0) -> Dataset:
    """Two isotropic Gaussian blobs in the plane, one per class.

    Class 0 is centered at (0, 0) and class 1 at (2.5, 2.5), both with
    covariance ``covariance_scale * I``.  Larger scales blur the boundary
    between the two clusters.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if covariance_scale <= 0:
        raise ValueError("covariance_scale must be positive")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(covariance_scale)
    features = np.vstack([
        center + rng.normal(scale=sigma, size=(n_per_class, 2)) for center in CLUSTER_CENTERS
    ])
    labels = np.repeat(np.arange(2), n_per_class)
    return Dataset(features, labels, 2, ("0", "1"))
