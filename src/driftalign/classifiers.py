"""Source-trained classifiers used downstream of the subspace transform.

Both models are deliberately simple and fully deterministic: a majority-vote
k-nearest-neighbour rule and a one-vs-rest linear SVM trained by seeded
stochastic subgradient descent on the hinge loss with step size 1/(lambda t).

The k-NN rule takes the k training rows nearest in squared Euclidean distance;
a distance tie goes to the lower training row, a vote tie to the lower class.
It ranks the rows p of a query q by |p|^2 - 2 q.p, the squared distance
less |q|^2, which is the same for every row, in one M x N array. Where the
arithmetic is exact, as on integer rows, the ties are those of the distance;
a near-tie within rounding follows the rounding of |p|^2 - 2 q.p. It never
sorts a row: with one neighbour, ``argmin`` returns the first minimum, which
is the lower row; with k > 1, ``partition`` finds the k-th smallest value,
every row strictly below it is taken, and the rows equal to it fill the
remaining places in index order. That is exactly the set a stable sort would
put first.

Each SVM step does only the floating-point operations of the plain formula,
in its order: eta = 1/(lambda t), margin = sign * w.row, w *= 1 - eta lambda,
and w += (eta sign) row when the margin is below 1. Up to SVM_GROUP classes
take each step together, since every class runs on the same counter t: one
``np.vecdot`` gives every margin, one in-place multiply shrinks every weight
vector, and only the classes whose margin is below 1 are updated. For a 1-d
float64 pair ``vecdot`` calls the same BLAS ddot as ``w.dot(row)``, and rows
are multiplied by their +-1 sign beforehand, which is exact, so the weights
repeat the one-class-at-a-time loop bit for bit. Each class draws the
permutations it would draw there, from its own copy of the shared seeded
generator.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, InsufficientData, NonFiniteData, SchemaMismatch
from .subspaces import Array, _array, _bounded_rows, _count, _entry_fault, _read_only, _real, _row_shape

# Most missing labels a contiguity error names; it counts the rest.
MAX_NAMED_MISSING = 10
# Most SVM classes trained in lockstep (a memory bound: each class holds one
# epoch's permutation), and steps whose rows are gathered at once.
SVM_GROUP = 8
SVM_CHUNK = 32


def _stored_rows(x: object, what: str, min_rows: int) -> Array:
    """Row data x through subspaces._row_shape as a read-only copy in x's memory layout (np.array keeps F order).

    NonFiniteData naming ``what`` and the _entry_fault unless every entry is within MAX_ABS_ENTRY.
    """
    out = np.array(_row_shape(x, what, min_rows))
    if fault := _entry_fault(out):
        raise NonFiniteData(f"{what} has {fault}")
    out.setflags(write=False)
    return out


def _class_labels(labels: object, n_rows: int, what: str) -> Array:
    """Labels of shape (n_rows,), n_rows >= 1, as a read-only int64 copy; else DimensionMismatch naming ``what``.

    SchemaMismatch unless the labels have an integer or float dtype and every label
    is a whole number in [0, 2**63), checked before the cast, which would wrap or warn.
    """
    y = _array(labels, what)
    if y.shape != (n_rows,):
        raise DimensionMismatch(f"{what} must have shape ({n_rows},), one label per row, got {y.shape}")
    if y.dtype.kind not in "iuf" or (y.dtype.kind == "f" and not (np.isfinite(y) & (y == np.trunc(y))).all()):
        raise SchemaMismatch("labels must be integers")
    if y.min() < 0:
        raise SchemaMismatch(f"labels must be >= 0, got {int(y.min())}")
    if y.max() >= 2**63:
        raise SchemaMismatch(f"labels must be below 2**63, got {int(y.max())}")
    y = y.astype(np.int64)
    y.setflags(write=False)
    return y


def _class_count(y: Array) -> int:
    """Number of classes in labels y from _class_labels; SchemaMismatch unless all of 0..max(y) occur.

    The message names at most MAX_NAMED_MISSING missing labels, read off the
    gaps between the distinct labels, so a huge label costs no more than a
    small one.
    """
    present = np.unique(y)
    n_classes = int(present[-1]) + 1
    n_missing = n_classes - present.shape[0]
    if n_missing:
        # Labels gap_lo[j] up to present[j] (exclusive) are missing.
        gap_lo = np.concatenate(([0], present[:-1] + 1))
        named: list[int] = []
        for j in np.flatnonzero(gap_lo < present)[:MAX_NAMED_MISSING].tolist():
            lo = int(gap_lo[j])
            named.extend(range(lo, min(int(present[j]), lo + MAX_NAMED_MISSING - len(named))))
        shown = f"{named}" if n_missing == len(named) else f"the first {len(named)}: {named}"
        raise SchemaMismatch(f"labels must be contiguous from 0; {n_missing} missing, {shown}")
    return n_classes


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Rows x (N x d) with integer labels y in {0, ..., c-1}, every class present.

    Entries must be finite with magnitude at most MAX_ABS_ENTRY.
    """

    x: Array
    y: Array

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _stored_rows(self.x, "x", 1))
        y = _class_labels(self.y, self.n_rows, "y")
        _class_count(y)
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


@dataclass(frozen=True, eq=False)
class MiniBatch:
    """One unlabelled batch of stream rows; labels ride along for scoring only.

    Rows pass LabeledSet's gate, _stored_rows; labels, when given, must be integers >= 0.
    """

    x: Array
    true_labels: Array | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _stored_rows(self.x, "batch", 2))
        if self.true_labels is not None:
            object.__setattr__(self, "true_labels", _class_labels(self.true_labels, self.n_rows, "labels"))

    @property
    def n_rows(self) -> int:
        return int(self.x.shape[0])


@dataclass(frozen=True)
class KnnParams:
    """Neighbour count for the majority-vote rule, an integer >= 1."""

    n_neighbors: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_neighbors", _count("n_neighbors", self.n_neighbors, 1))


@dataclass(frozen=True)
class SvmParams:
    """Hinge-loss SGD settings: regularization strength (finite, > 0), passes (>= 1), and rng seed (>= 0)."""

    regularization: float = 1e-4
    epochs: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        lam = _real("regularization", self.regularization)
        if not math.isfinite(lam):
            raise ConfigError(f"regularization must be finite, got {lam}")
        if lam <= 0.0:
            raise ConfigError(f"regularization must be positive, got {lam}")
        object.__setattr__(self, "regularization", lam)
        object.__setattr__(self, "epochs", _count("epochs", self.epochs, 1))
        object.__setattr__(self, "seed", _count("seed", self.seed, 0))


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
    """Fit the classifier that ``params`` names on labelled rows; TypeError unless data is a LabeledSet."""
    if not isinstance(data, LabeledSet):
        raise TypeError(f"training data must be a LabeledSet, got {type(data).__name__}")
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
    """One-vs-rest Pegasos, SVM_GROUP classes at a time; weights and biases pass the stored-array gate.

    The plain loop trains class after class from one seeded generator. Here
    that generator is replayed through each earlier class's ``epochs``
    permutations, and its state is copied into one generator per class, so
    every class draws the permutations it drew there and no whole-run
    schedule is built. A tiny lambda makes the first steps overflow (a
    subnormal one makes 1/lambda infinite), and the weights then turn NaN or
    pass MAX_ABS_ENTRY; the gate's NumericalHealthError names lambda.
    """
    lam = params.regularization
    rng = np.random.default_rng(params.seed)
    n, d = data.x.shape
    c = data.n_classes
    # Constant-feature augmentation keeps the bias inside the shrinking
    # weight vector, which keeps the 1/(lambda t) schedule stable.
    aug = np.hstack([data.x, np.ones((n, 1))])
    w = np.empty((c, d + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, c, SVM_GROUP):
            classes = np.arange(lo, min(lo + SVM_GROUP, c))
            gens = []
            for _ in classes:
                gens.append(copy.deepcopy(rng))
                for _ in range(params.epochs):
                    rng.permutation(n)
            w[classes] = _lockstep(aug, data.y, classes, gens, lam, params.epochs)
    return LinearSvmModel(weights=_read_only(w[:, :d], f"SVM weights for regularization {lam}"),
                          biases=_read_only(w[:, d], f"SVM biases for regularization {lam}"))


def _lockstep(aug: Array, y: Array, classes: Array, gens: list, lam: float, epochs: int) -> Array:
    """Pegasos weights (one row per class) of ``classes`` on augmented rows aug, class k drawing from gens[k].

    Besides aug, it holds the weights, one epoch's permutation per class and
    SVM_CHUNK signed rows per class: on waveform40 (3 classes, 500 rows of
    40 features) training peaks at 0.28 MB, below the source PCA's 0.335 MB.
    There, with default SvmParams and one BLAS thread, training took a
    median of 2.96 times as long with one step gathered at a time and 1.19
    times with 8 (21 paired runs); 64 and 128 were about 5% faster but peak
    at 0.38 and 0.51 MB.
    """
    n = aug.shape[0]
    w = np.zeros((classes.shape[0], aug.shape[1]))
    w_rows = list(w)
    order = np.empty((classes.shape[0], n), dtype=np.intp)
    t = 0
    for _ in range(epochs):
        for k, gen in enumerate(gens):
            order[k] = gen.permutation(n)
        for start in range(0, n, SVM_CHUNK):
            idx = order[:, start : start + SVM_CHUNK].T
            # block[s, k] is class k's row at step s times its +-1 sign
            block = aug[idx]
            block *= np.where(y[idx] == classes, 1.0, -1.0)[:, :, None]
            for rows in block:
                t += 1
                eta = 1.0 / (lam * t)
                margins = np.vecdot(w, rows).tolist()
                w *= 1.0 - eta * lam
                for k, margin in enumerate(margins):
                    if margin < 1.0:
                        w_rows[k] += eta * rows[k]
    return w


def predict(model, x: object) -> Array:
    """Predicted labels for query rows x (M x d).

    Raises SchemaMismatch for rows that are not bool, integer or float, and
    NonFiniteData for a NaN or infinite entry, or a row longer than sqrt(d) *
    MAX_ABS_ENTRY, where the k-NN ranking or the SVM scores could overflow.
    """
    a = _bounded_rows(x, "queries")
    if not isinstance(model, (KnnModel, LinearSvmModel)):
        raise TypeError(f"unknown model type {type(model).__name__}")
    knn = isinstance(model, KnnModel)
    width = (model.train_x if knn else model.weights).shape[1]
    if a.shape[1] != width:
        raise DimensionMismatch(f"queries have {a.shape[1]} features, model expects {width}")
    if knn:
        return _knn_predict(model, a)
    scores = a @ model.weights.T + model.biases
    # argmax returns the first maximum: score ties go to the smaller class.
    return np.argmax(scores, axis=1).astype(np.int64)


def _knn_predict(model: KnnModel, queries: Array) -> Array:
    train_x, train_y, k = model.train_x, model.train_y, model.n_neighbors
    # Rank by |p|^2 - 2 q.p: |q|^2 is the same for every training row of a
    # query, so it cannot change which rows are nearest, and a near-tie
    # follows the rounding of this sum. p_sq is summed first, so its N x d
    # temporary is freed before the product; scaling by -2.0, a power of two,
    # is exact. One M x N float array is alive.
    p_sq = np.sum(train_x**2, axis=1)
    d = queries @ train_x.T
    d *= -2.0
    # The broadcast add needs no cast, yet numpy allocates its ufunc buffer
    # for it (8192 elements by default, 64 KB): a quarter of the 1-NN peak
    # at M=50, N=500. 16 elements is the smallest size numpy accepts, and
    # the sum is elementwise, so the bits are the same. Only this line runs
    # under it: the square sum above and the k > 1 casts below use the
    # buffer, and are slower under 16 elements. The size is restored from
    # the returned value.
    old_bufsize = np.setbufsize(16)
    try:
        d += p_sq
    finally:
        np.setbufsize(old_bufsize)
    if k == 1:
        # argmin returns the first minimum: distance ties go to the lower row.
        return train_y[np.argmin(d, axis=1)]
    # The k-th smallest value of each row; the copy lets the partitioned
    # array go at once.
    kth = np.partition(d, k - 1, axis=1)[:, k - 1 : k].copy()
    chosen = d < kth
    # Rows at the k-th value fill the places left, in training-row order.
    at = d == kth
    room = k - np.count_nonzero(chosen, axis=1, keepdims=True)
    chosen |= at & (np.cumsum(at, axis=1, dtype=np.int32) <= room)
    # Each query now has exactly k neighbours, and flatnonzero lists them
    # query by query.
    m, n = d.shape
    votes = train_y[np.flatnonzero(chosen) % n].reshape(m, k)
    c = model.n_classes
    counts = np.bincount((np.arange(m)[:, None] * c + votes).ravel(), minlength=m * c)
    # argmax returns the first maximum: vote ties go to the smaller class.
    return np.argmax(counts.reshape(m, c), axis=1).astype(np.int64)
