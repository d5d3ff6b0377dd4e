"""Source-trained classifiers used downstream of the subspace transform.

Both models are deliberately simple and fully deterministic: a majority-vote
k-nearest-neighbour rule and a one-vs-rest linear SVM trained by seeded
stochastic subgradient descent on the hinge loss with step size 1/(lambda t).

The k-NN rule takes the k training rows nearest in squared Euclidean distance;
a distance tie goes to the lower training row, a vote tie to the lower class.
It never sorts a row of distances: with one neighbour, ``argmin`` returns the
first minimum, which is the lower row; with k > 1, ``partition`` finds the
k-th smallest distance, every row strictly below it is taken, and the rows
equal to it fill the remaining places in index order. That is exactly the set
a stable sort would put first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InsufficientData, NonFiniteData, SchemaMismatch
from .subspaces import _read_only

Array = np.ndarray

# Largest entry magnitude accepted in training rows and stream batches. The
# k-NN distances |q|^2 + |p|^2 - 2 q.p overflow once entries pass about
# 1e154, and inf - inf then makes them NaN. With every entry within this
# bound, and so every row within sqrt(d) times it, the distances stay finite
# for fewer than about 4e7 features.
MAX_ABS_ENTRY = 1e150


def _check_entries(x: Array, what: str) -> None:
    """Raise NonFiniteData unless every entry of x is finite and within MAX_ABS_ENTRY.

    ``what`` is the message's subject and verb, such as "x has". min and max
    form no temporary array, and either one is NaN when an entry is.
    """
    if x.size and not (-MAX_ABS_ENTRY <= x.min() and x.max() <= MAX_ABS_ENTRY):
        if not np.isfinite(x).all():
            raise NonFiniteData(f"{what} non-finite entries")
        raise NonFiniteData(f"{what} entries beyond +-{MAX_ABS_ENTRY:.0e}")


def _check_query_rows(a: Array) -> None:
    """Raise NonFiniteData unless every query row is finite and no longer than sqrt(d) * MAX_ABS_ENTRY.

    That is the length of a row with every entry at the bound. Queries are
    bounded by row length, not entry by entry, because the pipeline predicts
    on batches multiplied by the flow kernel: its spectrum lies in [0, 1], so
    it never lengthens a row, but it can move up to sqrt(d) times the bound
    into a single entry.
    """
    if a.size and not np.einsum("ij,ij->i", a, a).max() <= a.shape[1] * MAX_ABS_ENTRY**2:
        if not np.isfinite(a).all():
            raise NonFiniteData("queries have non-finite entries")
        raise NonFiniteData(f"queries have rows longer than sqrt(d) * {MAX_ABS_ENTRY:.0e}")


def _class_labels(y: Array) -> Array:
    """Nonempty 1-d labels y as a read-only int64 copy; SchemaMismatch for a non-integer or negative label."""
    if not np.issubdtype(y.dtype, np.integer):
        if not np.all(y == y.astype(np.int64)):
            raise SchemaMismatch("labels must be integers")
    y = y.astype(np.int64)
    if y.min() < 0:
        raise SchemaMismatch(f"labels must be >= 0, got {y.min()}")
    y.setflags(write=False)
    return y


def _class_count(y: Array) -> int:
    """Number of classes in labels y from _class_labels; SchemaMismatch unless all of 0..max(y) occur."""
    present = np.unique(y)
    n_classes = int(present[-1]) + 1
    if present.shape[0] != n_classes:
        missing = sorted(set(range(n_classes)) - set(present.tolist()))
        raise SchemaMismatch(f"labels must be contiguous from 0; missing {missing}")
    return n_classes


def _is_integer(value: object) -> bool:
    """True for a Python or numpy integer; bools are not counted as integers."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Rows x (N x d) with integer labels y in {0, ..., c-1}, every class present.

    Entries must be finite with magnitude at most MAX_ABS_ENTRY.
    """

    x: Array
    y: Array

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.float64)
        y = np.asarray(self.y)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise DimensionMismatch(f"x must be a nonempty 2-d array, got shape {x.shape}")
        _check_entries(x, "x has")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise DimensionMismatch(f"y must have one label per row, got {y.shape} for {x.shape[0]} rows")
        y = _class_labels(y)
        _class_count(y)
        object.__setattr__(self, "x", _read_only(x))
        object.__setattr__(self, "y", y)

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.x.shape[1])

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1


@dataclass(frozen=True)
class KnnParams:
    """Neighbour count for the majority-vote rule, an integer >= 1."""

    n_neighbors: int = 1

    def __post_init__(self) -> None:
        if not _is_integer(self.n_neighbors):
            raise ValueError(f"n_neighbors must be an integer, got {self.n_neighbors!r}")
        if self.n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {self.n_neighbors}")
        object.__setattr__(self, "n_neighbors", int(self.n_neighbors))


@dataclass(frozen=True)
class SvmParams:
    """Hinge-loss SGD settings: regularization strength (> 0), passes (>= 1), and rng seed."""

    regularization: float = 1e-4
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        lam = float(self.regularization)
        if lam <= 0.0:
            raise ValueError(f"regularization must be positive, got {lam}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


@dataclass(frozen=True, eq=False)
class KnnModel:
    train_x: Array
    train_y: Array
    n_neighbors: int
    n_classes: int


@dataclass(frozen=True, eq=False)
class LinearSvmModel:
    weights: Array  # c x d
    biases: Array   # c


def train(data: LabeledSet, params: KnnParams | SvmParams):
    """Fit the classifier that ``params`` names on labelled rows."""
    if not isinstance(params, (KnnParams, SvmParams)):
        raise TypeError(f"unknown classifier params type {type(params).__name__}")
    if data.n_classes < 2:
        raise InsufficientData("training needs at least two classes")
    if isinstance(params, KnnParams):
        if data.n_rows < params.n_neighbors:
            raise InsufficientData(f"{data.n_rows} rows < {params.n_neighbors} neighbours")
        return KnnModel(train_x=data.x, train_y=data.y, n_neighbors=params.n_neighbors, n_classes=data.n_classes)
    counts = np.bincount(data.y, minlength=data.n_classes)
    if counts.min() < 2:
        raise InsufficientData(f"every class needs >= 2 rows, got counts {counts.tolist()}")
    return _train_linear_svm(data, params)


def _train_linear_svm(data: LabeledSet, params: SvmParams) -> LinearSvmModel:
    lam = float(params.regularization)
    rng = np.random.default_rng(params.seed)
    n, d = data.x.shape
    c = data.n_classes
    # Constant-feature augmentation keeps the bias inside the shrinking
    # weight vector, which keeps the 1/(lambda t) schedule stable.
    aug = np.hstack([data.x, np.ones((n, 1))])
    weights = np.zeros((c, d))
    biases = np.zeros(c)
    for cls in range(c):
        signs = np.where(data.y == cls, 1.0, -1.0)
        w = np.zeros(d + 1)
        t = 0
        for _ in range(params.epochs):
            for i in rng.permutation(n):
                t += 1
                eta = 1.0 / (lam * t)
                margin = signs[i] * float(w @ aug[i])
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += (eta * signs[i]) * aug[i]
        weights[cls] = w[:d]
        biases[cls] = w[d]
    return LinearSvmModel(weights=_read_only(weights), biases=_read_only(biases))


def predict(model, x: object) -> Array:
    """Predicted labels for query rows x (M x d).

    Raises NonFiniteData for a NaN or infinite entry, or a row longer than
    sqrt(d) * MAX_ABS_ENTRY, where the k-NN distances could overflow.
    """
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionMismatch(f"queries must be a 2-d array, got shape {a.shape}")
    _check_query_rows(a)
    if isinstance(model, KnnModel):
        if a.shape[1] != model.train_x.shape[1]:
            raise DimensionMismatch(f"queries have {a.shape[1]} features, model expects {model.train_x.shape[1]}")
        return _knn_predict(model, a)
    if isinstance(model, LinearSvmModel):
        if a.shape[1] != model.weights.shape[1]:
            raise DimensionMismatch(f"queries have {a.shape[1]} features, model expects {model.weights.shape[1]}")
        scores = a @ model.weights.T + model.biases
        # argmax returns the first maximum: score ties go to the smaller class.
        return np.argmax(scores, axis=1).astype(np.int64)
    raise TypeError(f"unknown model type {type(model).__name__}")


def _knn_predict(model: KnnModel, queries: Array) -> Array:
    train_x, train_y, k = model.train_x, model.train_y, model.n_neighbors
    # Squared distances |q|^2 + |p|^2 - 2 q.p, built in place with the same
    # operations in the same order as q_sq + p_sq - 2.0 * (q @ p.T), so the
    # rounding, and with it every distance tie, is that of the plain formula,
    # while at most two M x N float arrays are alive at a time.
    q_sq = np.sum(queries**2, axis=1)[:, None]
    p_sq = np.sum(train_x**2, axis=1)[None, :]
    d_sq = q_sq + p_sq
    cross = queries @ train_x.T
    cross *= 2.0
    d_sq -= cross
    del cross
    if k == 1:
        # argmin returns the first minimum: distance ties go to the lower row.
        return train_y[np.argmin(d_sq, axis=1)]
    # The k-th smallest distance of each row; the copy lets the partitioned
    # array go at once.
    kth = np.partition(d_sq, k - 1, axis=1)[:, k - 1 : k].copy()
    chosen = d_sq < kth
    # Rows at the k-th distance fill the places left, in training-row order.
    at = d_sq == kth
    room = k - np.count_nonzero(chosen, axis=1, keepdims=True)
    chosen |= at & (np.cumsum(at, axis=1, dtype=np.int32) <= room)
    # Each query now has exactly k neighbours, and flatnonzero lists them
    # query by query.
    m, n = d_sq.shape
    votes = train_y[np.flatnonzero(chosen) % n].reshape(m, k)
    c = model.n_classes
    counts = np.bincount((np.arange(m)[:, None] * c + votes).ravel(), minlength=m * c)
    # argmax returns the first maximum: vote ties go to the smaller class.
    return np.argmax(counts.reshape(m, c), axis=1).astype(np.int64)
