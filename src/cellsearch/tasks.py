"""Built-in verification problems and data handling.

Two bilevel tasks drive the search loop. ``ToyBilevelTask`` is the analytic
scalar problem used to check fixed points by hand: the training loss is a
perfect square in (w - a) so its inner optimum is w = a, the validation loss
is bilinear, and the exact bilevel optimum sits at (1, 1) starting from
(2, -2). ``SyntheticCellTask`` wraps a seeded Gaussian-cluster dataset and a
cell classifier; its inner weights are the stems, one weight block per
intermediate node, and the head, and its outer variables are one operation
logit block per intermediate node.

Datasets carry per-split access counters so test-set hygiene is checkable:
anything that touches test-tagged rows increments the ``test`` counter.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields

import numpy as np

from .cell import CellSpec, Genotype, derive_genotype, init_alpha
from .network import CellClassifier
from .tensor import Value, add, cross_entropy, multiply, scale, subtract

TOY_START_ALPHA = 2.0
TOY_START_W = -2.0

SPLITS = ("train", "val", "test")


class DataError(ValueError):
    """Malformed dataset files or invalid dataset configuration."""


class ToyBilevelTask:
    """Scalar analytic bilevel problem with known optimum (1, 1)."""

    has_cell = False

    def init_weights(self, seed: int = 0) -> dict[str, np.ndarray]:
        return {"w": np.asarray(TOY_START_W)}

    def init_alpha(self) -> dict[str, np.ndarray]:
        return {"alpha": np.asarray(TOY_START_ALPHA)}

    def loss(self, split: str, weights, alpha, batch) -> Value:
        w = weights["w"]
        a = alpha["alpha"]
        if split == "train":  # w w - 2 (a w) + a a
            return add(subtract(multiply(w, w), scale(multiply(a, w), 2.0)), multiply(a, a))
        if split == "val":  # a w - 2 a + 1
            return add(subtract(multiply(a, w), scale(a, 2.0)), Value(1.0))
        if split == "joint":
            return add(self.loss("train", weights, alpha, batch),
                       self.loss("val", weights, alpha, batch))
        raise ValueError(f"unknown split {split!r}")

    def batch(self, split: str, size: int, rng) -> None:
        return None

    def derive(self, alpha_arrays) -> None:
        return None


@dataclass
class Dataset:
    """Feature matrix, integer labels, and per-row split tags.

    ``rows`` is the only sanctioned way to read a split; it bumps that
    split's access counter, which the hygiene checks assert on.
    """

    features: np.ndarray
    labels: np.ndarray
    tags: np.ndarray
    access_counts: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.features)
        if len(self.labels) != n or len(self.tags) != n:
            raise DataError("features, labels, and tags must have equal row counts")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0

    def size(self, tag: str) -> int:
        return int(np.sum(self.tags == tag))

    def rows(self, tag: str) -> tuple[np.ndarray, np.ndarray]:
        self.access_counts[tag] = self.access_counts.get(tag, 0) + 1
        mask = self.tags == tag
        return self.features[mask], self.labels[mask]


def make_synthetic_classification(n: int, dims: int, classes: int, noise: float,
                                  seed: int, clusters_per_class: int = 1) -> Dataset:
    """Gaussian clusters with balanced labels; rows shuffled, all tagged train.

    With ``clusters_per_class`` above one, each class is an even mixture of
    that many clusters; so long as classes * clusters_per_class stays at or
    below dims + 1 the noise-free data remains linearly separable, but noisy
    mixtures are not linearly solvable and reward nonlinear operations.
    """
    if classes < 2 or n < classes:
        raise DataError(f"need n >= classes >= 2, got n={n}, classes={classes}")
    if dims < 1:
        raise DataError("need at least one feature dimension")
    if clusters_per_class < 1:
        raise DataError("need at least one cluster per class")
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=1.0, size=(classes, clusters_per_class, dims))
    counts = [n // classes + (1 if c < n % classes else 0) for c in range(classes)]
    blocks, labels = [], []
    for c in range(classes):
        per = [counts[c] // clusters_per_class + (1 if g < counts[c] % clusters_per_class else 0)
               for g in range(clusters_per_class)]
        for g in range(clusters_per_class):
            blocks.append(means[c, g] + noise * rng.normal(size=(per[g], dims)))
        labels.append(np.full(counts[c], c, dtype=np.int64))
    features = np.concatenate(blocks)
    labels = np.concatenate(labels)
    order = rng.permutation(n)
    return Dataset(features[order], labels[order], np.full(n, "train", dtype="<U5"))


def _retag(dataset: Dataset, pool: np.ndarray, tag: str, fraction: float, seed: int,
           name: str) -> Dataset:
    """Tag a seeded ``fraction`` of the ``pool`` rows ``tag`` and the rest of
    the pool train; rows outside the pool keep their tags."""
    if not 0.0 < fraction < 1.0:
        raise DataError(f"{name} fraction must be in (0, 1), got {fraction}")
    n_tagged = int(round(len(pool) * fraction))
    if n_tagged == 0 or n_tagged == len(pool):
        raise DataError(f"{name} split would leave one side empty")
    order = np.random.default_rng(seed).permutation(len(pool))
    tags = dataset.tags.astype("<U5")
    tags[pool] = "train"
    tags[pool[order[:n_tagged]]] = tag
    return Dataset(dataset.features.copy(), dataset.labels.copy(), tags)


def carve_test_split(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Move a seeded random fraction of all rows into the test split."""
    return _retag(dataset, np.arange(len(dataset.features)), "test", fraction, seed, "test")


def holdout_split(dataset: Dataset, fraction: float, seed: int) -> Dataset:
    """Re-tag the non-test rows: a seeded ``fraction`` becomes validation."""
    return _retag(dataset, np.flatnonzero(dataset.tags != "test"), "val", fraction, seed,
                  "holdout")


# ---------------------------------------------------------------------------
# Delimited text: comma separated, header row, label column named "label",
# optional "split" column carrying train/val/test tags.
# ---------------------------------------------------------------------------


def load_delimited(path) -> Dataset:
    """Parse a dataset file, reporting malformed rows with their line number.
    Blank lines hold no row and are skipped.

    Features must be finite, and the labels of its C classes (at least two)
    must be the ids 0..C-1, so that no label indexes the wrong logit.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [(n, row) for n, row in enumerate(csv.reader(fh), start=1) if row]
    except FileNotFoundError:
        raise DataError(f"no such dataset file: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DataError(f"cannot read dataset file {path}: {reason}") from None
    if not rows:
        raise DataError(f"{path}: empty dataset file")
    header = rows[0][1]
    for name in ("label", "split"):
        if header.count(name) > 1:
            raise DataError(f"{path}: repeated {name!r} column in header {header}")
    if "label" not in header:
        raise DataError(f"{path}: no 'label' column in header {header}")
    label_col = header.index("label")
    split_col = header.index("split") if "split" in header else None
    feature_cols = [
        i for i in range(len(header)) if i not in (label_col, split_col)
    ]
    if not feature_cols:
        raise DataError(f"{path}: no feature columns")

    features, labels, tags, linenos = [], [], [], []
    for lineno, row in rows[1:]:
        if len(row) != len(header):
            raise DataError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        try:
            features.append([float(row[i]) for i in feature_cols])
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric feature value") from None
        try:
            labels.append(int(row[label_col]))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-integer label") from None
        tag = row[split_col] if split_col is not None else "train"
        if tag not in SPLITS:
            raise DataError(f"{path}: line {lineno}: unknown split tag {tag!r}")
        tags.append(tag)
        linenos.append(lineno)
    if not features:
        raise DataError(f"{path}: dataset has a header but no rows")
    features = np.asarray(features, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: line {linenos[bad[0]]}: non-finite feature value")
    n_classes = len(set(labels))
    if n_classes < 2:
        raise DataError(f"{path}: every row has label {labels[0]}; need at least two classes")
    for row, label in enumerate(labels):
        if not 0 <= label < n_classes:
            raise DataError(
                f"{path}: line {linenos[row]}: label {label} out of range: "
                f"the {n_classes} classes must be numbered 0..{n_classes - 1}"
            )
    return Dataset(features, np.asarray(labels, dtype=np.int64), np.asarray(tags, dtype="<U5"))


# ---------------------------------------------------------------------------
# The cell-search task over a dataset
# ---------------------------------------------------------------------------


class SyntheticCellTask:
    """Bilevel search task: cell classifier on a tagged dataset whose three
    splits all have rows, as ``DataConfig.build`` ensures.

    Train and validation rows are read once and joined into the ``joint``
    pool, of which the ``train`` and ``val`` pools are views; test rows are
    read only by ``split_accuracy``. Batches are drawn without replacement
    from the caller's generator, so a seeded run is reproducible.
    """

    has_cell = True

    def __init__(self, dataset: Dataset, spec: CellSpec):
        self.dataset = dataset
        self.spec = spec
        self.model = CellClassifier(spec, dataset.n_features, dataset.n_classes)
        (xt, yt), (xv, yv) = dataset.rows("train"), dataset.rows("val")
        x, y, n = np.concatenate([xt, xv]), np.concatenate([yt, yv]), len(xt)
        self._pools = {"train": (x[:n], y[:n]), "val": (x[n:], y[n:]), "joint": (x, y)}

    def init_weights(self, seed: int) -> dict[str, np.ndarray]:
        return self.model.init_weights(seed)

    def init_alpha(self) -> dict[str, np.ndarray]:
        return init_alpha(self.spec)

    def batch(self, split: str, size: int, rng: np.random.Generator):
        x, y = self._pools[split]
        if size >= len(x):
            return x, y
        idx = rng.choice(len(x), size=size, replace=False)
        return x[idx], y[idx]

    def loss(self, split: str, weights, alpha, batch) -> Value:
        features, labels = batch
        return cross_entropy(self.model.logits_mixed(weights, alpha, features), labels)

    def discrete_loss(self, weights, genotype: Genotype, batch) -> Value:
        features, labels = batch
        return cross_entropy(self.model.logits_discrete(weights, genotype, features), labels)

    def derive(self, alpha_arrays) -> Genotype:
        return derive_genotype(self.spec, alpha_arrays)

    def split_accuracy(self, weight_arrays, genotype: Genotype, split: str) -> float:
        """From-scratch-model accuracy on a full split (reads the dataset)."""
        features, labels = self.dataset.rows(split) if split == "test" else self._pools[split]
        return self.model.accuracy_discrete(weight_arrays, genotype, features, labels)


@dataclass(frozen=True)
class DataConfig:
    """Synthetic dataset shape: desk-scale defaults.

    Two clusters per class keep the default task nonlinear enough that the
    choice of operations matters; a single cluster per class makes it close
    to linearly solvable and architecture-insensitive.
    """

    n: int = 2000
    dims: int = 8
    classes: int = 2
    noise: float = 0.8
    seed: int = 0
    clusters_per_class: int = 2
    test_fraction: float = 0.25
    val_fraction: float = 0.5
    path: str | None = None  # load a delimited file instead of generating

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not np.isfinite(value):
                raise DataError(f"data {f.name} must be finite, got {value}")
        if self.seed < 0:
            raise DataError(f"data seed must be non-negative, got {self.seed}")
        if self.noise < 0:
            raise DataError(f"data noise must be non-negative, got {self.noise}")

    def build(self) -> Dataset:
        """The tagged dataset. A file without val rows gets test rows carved
        out if it has none, then val rows held out; every split must end up
        with rows, since a search reads train and val and an evaluation test."""
        if self.path is not None:
            ds = load_delimited(self.path)
            if not ds.size("val"):
                if not ds.size("test"):
                    ds = carve_test_split(ds, self.test_fraction, self.seed)
                ds = holdout_split(ds, self.val_fraction, self.seed)
            for split in SPLITS:
                if not ds.size(split):
                    raise DataError(f"{self.path}: no {split} rows")
            return ds
        ds = make_synthetic_classification(self.n, self.dims, self.classes, self.noise,
                                           self.seed, self.clusters_per_class)
        ds = carve_test_split(ds, self.test_fraction, self.seed + 1)
        return holdout_split(ds, self.val_fraction, self.seed + 2)


def default_task() -> SyntheticCellTask:
    """The desk-scale benchmark: default data, default cell (3 intermediates)."""
    return SyntheticCellTask(DataConfig().build(), CellSpec())
