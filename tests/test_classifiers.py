"""Nearest-neighbour and linear hinge-loss classifiers."""

import tracemalloc

import numpy as np
import pytest

from driftalign import (
    DimensionMismatch,
    InsufficientData,
    KnnParams,
    LabeledSet,
    NonFiniteData,
    SchemaMismatch,
    SvmParams,
    predict,
    train,
)
from driftalign.classifiers import MAX_ABS_ENTRY, KnnModel, LinearSvmModel

# Default params of each classifier, keyed by the CLI's --classifier names.
PARAMS = {"knn": KnnParams(), "svm": SvmParams()}


def blobs(rng, n_per_class, d, separation):
    centers = np.zeros((2, d))
    centers[0, 0] = -separation / 2.0
    centers[1, 0] = +separation / 2.0
    x = np.vstack([centers[c] + rng.standard_normal((n_per_class, d)) for c in (0, 1)])
    y = np.repeat([0, 1], n_per_class)
    return LabeledSet(x=x, y=y)


def stable_sort_knn(model: KnnModel, queries):
    """The k-NN rule as first written: a stable sort of every distance row."""
    q_sq = np.sum(queries**2, axis=1)[:, None]
    p_sq = np.sum(model.train_x**2, axis=1)[None, :]
    d_sq = q_sq + p_sq - 2.0 * (queries @ model.train_x.T)
    order = np.argsort(d_sq, axis=1, kind="stable")[:, : model.n_neighbors]
    votes = model.train_y[order]
    counts = np.zeros((queries.shape[0], model.n_classes), dtype=np.int64)
    np.add.at(counts, (np.arange(queries.shape[0])[:, None], votes), 1)
    return np.argmax(counts, axis=1).astype(np.int64)


def lattice_case(rng):
    """Integer-lattice rows with planted duplicates: exact distances, many ties."""
    d = int(rng.integers(1, 5))
    c = int(rng.integers(2, 5))
    n = int(rng.integers(max(c, 9), 40))
    x = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
    dup = rng.integers(0, n, size=n // 3)
    x[rng.integers(0, n, size=dup.shape[0])] = x[dup]
    y = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    rng.shuffle(y)
    lattice = rng.integers(-3, 4, size=(int(rng.integers(1, 30)), d)).astype(np.float64)
    queries = np.vstack([lattice, x[rng.integers(0, n, size=5)]])
    return LabeledSet(x=x, y=y), queries


class TestLabeledSet:
    def test_counts(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 2, 1]))
        assert data.n_rows == 4
        assert data.n_features == 4
        assert data.n_classes == 3

    @pytest.mark.parametrize("y, match", [
        ([0.5, 1.7, -0.2, 1.0], "must be integers"),
        ([0, 1, -1, 1], "must be >= 0"),
    ], ids=["fractional", "negative"])
    def test_non_integer_or_negative_labels_rejected(self, y, match):
        with pytest.raises(SchemaMismatch, match=match):
            LabeledSet(x=np.eye(4), y=np.array(y))

    @pytest.mark.parametrize("x", [np.ones(4), np.ones((4, 2, 1)), np.ones((0, 2)), np.ones((4, 0))],
                             ids=["1-d", "3-d", "no_rows", "no_columns"])
    def test_x_must_be_a_nonempty_matrix(self, x):
        with pytest.raises(DimensionMismatch, match="x must be a nonempty 2-d array"):
            LabeledSet(x=x, y=np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("y", [[0, 1, 0], [[0, 1, 0, 1]]], ids=["too_few", "2-d"])
    def test_one_label_per_row(self, y):
        with pytest.raises(DimensionMismatch, match="y must have one label per row"):
            LabeledSet(x=np.eye(4), y=np.array(y))

    def test_integral_float_labels_accepted(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0.0, 1.0, 0.0]))
        assert data.y.dtype == np.int64 and data.y.tolist() == [0, 1, 0]

    def test_labels_must_start_at_zero_and_be_contiguous(self):
        with pytest.raises(SchemaMismatch):
            LabeledSet(x=np.eye(3), y=np.array([1, 2, 3]))
        with pytest.raises(SchemaMismatch):
            LabeledSet(x=np.eye(3), y=np.array([0, 2, 2]))

    def test_non_finite_features_rejected(self):
        x = np.eye(3)
        x[1, 1] = np.nan
        with pytest.raises(ValueError):
            LabeledSet(x=x, y=np.array([0, 1, 0]))

    def test_arrays_are_read_only(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0


class TestKnn:
    def test_training_point_predicts_its_own_label(self):
        rng = np.random.default_rng(0)
        data = blobs(rng, 20, 4, 3.0)
        model = train(data, KnnParams(n_neighbors=1))
        assert np.array_equal(predict(model, data.x), data.y)

    def test_equidistant_tie_goes_to_the_smaller_class(self):
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 2.0], [1.0, 2.0]])
        y = np.array([0, 1, 0, 1])
        model = train(LabeledSet(x=x, y=y), KnnParams(n_neighbors=2))
        # the origin sees one neighbour of each class at distance 1
        assert predict(model, np.array([[0.0, 0.0]]))[0] == 0

    def test_neighbour_count_equal_to_n_votes_the_majority(self):
        x = np.vstack([np.eye(5), -np.eye(5)[:2]])
        y = np.array([0, 0, 0, 0, 0, 1, 1])
        model = train(LabeledSet(x=x, y=y), KnnParams(n_neighbors=7))
        preds = predict(model, np.array([[9.0, 9.0, 9.0, 9.0, 9.0], [0.0, 0.0, 0.0, 0.0, 0.0]]))
        assert np.array_equal(preds, [0, 0])

    def test_invariant_under_training_row_permutation(self):
        rng = np.random.default_rng(1)
        data = blobs(rng, 30, 5, 1.0)
        order = rng.permutation(data.n_rows)
        shuffled = LabeledSet(x=data.x[order], y=data.y[order])
        queries = rng.standard_normal((40, 5))
        a = predict(train(data, KnnParams(n_neighbors=3)), queries)
        b = predict(train(shuffled, KnnParams(n_neighbors=3)), queries)
        assert np.array_equal(a, b)

    def test_more_neighbours_than_rows_rejected(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0, 1, 0]))
        with pytest.raises(InsufficientData):
            train(data, KnnParams(n_neighbors=4))

    def test_query_width_must_match(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 0, 1]))
        model = train(data, KnnParams())
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((2, 3)))

    @pytest.mark.parametrize("kind", sorted(PARAMS))
    @pytest.mark.parametrize("queries", [np.ones(4), np.ones((2, 4, 1))], ids=["1-d", "3-d"])
    def test_queries_must_be_a_matrix(self, kind, queries):
        model = train(LabeledSet(x=np.eye(4), y=np.array([0, 0, 1, 1])), PARAMS[kind])
        with pytest.raises(DimensionMismatch, match="queries must be a 2-d array"):
            predict(model, queries)

    def test_unknown_model_type_rejected(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 0, 1]))
        with pytest.raises(TypeError, match="unknown model type KnnParams"):
            predict(KnnParams(), data.x)

    @pytest.mark.parametrize("n_neighbors", [2.5, True, "3"])
    def test_non_integer_neighbour_count_rejected(self, n_neighbors):
        # 2.5 used to become 2 and True became 1
        with pytest.raises(ValueError, match="n_neighbors must be an integer"):
            KnnParams(n_neighbors=n_neighbors)

    @pytest.mark.parametrize("n_neighbors", [0, -2])
    def test_neighbour_count_below_one_rejected(self, n_neighbors):
        with pytest.raises(ValueError, match="n_neighbors must be >= 1"):
            KnnParams(n_neighbors=n_neighbors)

    def test_numpy_integer_neighbour_count_accepted(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 0, 1]))
        assert KnnParams(n_neighbors=np.int64(3)).n_neighbors == 3
        assert train(data, KnnParams(n_neighbors=np.int64(3))).n_neighbors == 3

    def test_one_nn_distance_tie_goes_to_the_lower_training_row(self):
        # the origin is at distance 1 from both rows; row 0 carries the larger class
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = train(LabeledSet(x=x, y=np.array([1, 0])), KnnParams(n_neighbors=1))
        assert predict(model, np.zeros((1, 2)))[0] == 1

    def test_two_nn_vote_tie_goes_to_the_lower_class(self):
        # same rows as above: both are neighbours, one vote each, class 0 wins
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        model = train(LabeledSet(x=x, y=np.array([1, 0])), KnnParams(n_neighbors=2))
        assert predict(model, np.zeros((1, 2)))[0] == 0

    def test_labels_equal_the_stable_sort_rule(self):
        rng = np.random.default_rng(20)
        for _ in range(120):
            data, queries = lattice_case(rng)
            for k in range(1, 10):
                model = train(data, KnnParams(n_neighbors=k))
                got = predict(model, queries)
                assert got.dtype == np.int64
                assert np.array_equal(got, stable_sort_knn(model, queries)), (k, data.x, data.y, queries)

    def test_labels_equal_the_stable_sort_rule_on_continuous_rows(self):
        rng = np.random.default_rng(21)
        data = blobs(rng, 250, 10, 1.0)
        queries = rng.standard_normal((50, 10))
        for k in (1, 2, 3, 5, 9):
            model = train(data, KnnParams(n_neighbors=k))
            assert np.array_equal(predict(model, queries), stable_sort_knn(model, queries))

    def test_empty_query_batch_gives_no_labels(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 0, 1]))
        for k in (1, 3):
            out = predict(train(data, KnnParams(n_neighbors=k)), np.zeros((0, 4)))
            assert out.shape == (0,)

    @pytest.mark.parametrize("k, bound", [(1, 2.5), (3, 3.0)])
    def test_predict_memory_stays_near_two_distance_matrices(self, k, bound):
        # one M x N float64 matrix is 200 kB at 50 queries x 500 rows; the
        # stable sort with four such temporaries peaked at about 605 kB
        m, n, d = 50, 500, 10
        rng = np.random.default_rng(22)
        model = train(blobs(rng, n // 2, d, 1.0), KnnParams(n_neighbors=k))
        queries = rng.standard_normal((m, d))
        tracemalloc.start()
        try:
            predict(model, queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * m * n * 8


class TestMagnitudeBound:
    """Entries beyond MAX_ABS_ENTRY would overflow the squared distances into NaN."""

    def test_training_rows_beyond_the_bound_rejected(self):
        # the overflow reproducer: the query equals row 0, yet NaN distances gave an arbitrary label
        x = np.array([[1e160, 0.0], [-1e160, 0.0], [1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NonFiniteData, match="beyond"):
            LabeledSet(x=x, y=np.array([0, 1, 1, 1]))

    @pytest.mark.parametrize("kind", ["knn", "svm"])
    @pytest.mark.parametrize("big", [1e160, -1e160, 1.5 * MAX_ABS_ENTRY], ids=["1e160", "-1e160", "1.5_bound"])
    def test_query_rows_beyond_the_bound_rejected(self, kind, big):
        # the reproducer's query [1e160, 0]; and a row just longer than sqrt(2) * bound
        rows = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        model = train(LabeledSet(x=rows, y=np.array([0, 0, 1, 1])), PARAMS[kind])
        with pytest.raises(NonFiniteData, match="longer than"):
            predict(model, np.array([[big, big]]))
        predict(model, np.array([[MAX_ABS_ENTRY, -MAX_ABS_ENTRY]]))

    def test_entries_at_the_bound_keep_exact_labels(self):
        x = np.array([[MAX_ABS_ENTRY, 0.0], [-MAX_ABS_ENTRY, 0.0], [1.0, 0.0], [0.0, -1.0]])
        model = train(LabeledSet(x=x, y=np.array([0, 1, 1, 1])), KnnParams())
        queries = np.array([[MAX_ABS_ENTRY, 0.0], [-MAX_ABS_ENTRY, 0.0], [0.9, 0.0], [0.0, -MAX_ABS_ENTRY]])
        with np.errstate(all="raise"):
            assert predict(model, queries).tolist() == [0, 1, 1, 1]


@pytest.mark.parametrize("kind", ["knn", "svm"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_queries_rejected(kind, bad):
    rng = np.random.default_rng(9)
    model = train(blobs(rng, 10, 3, 4.0), PARAMS[kind])
    queries = np.zeros((2, 3))
    queries[1, 0] = bad
    with pytest.raises(NonFiniteData):
        predict(model, queries)


class TestLinearSvm:
    def test_separable_data_is_fit_perfectly(self):
        rng = np.random.default_rng(2)
        x = np.vstack([
            rng.standard_normal((30, 2)) * 0.3 + [-3.0, 0.0],
            rng.standard_normal((30, 2)) * 0.3 + [+3.0, 0.0],
        ])
        y = np.repeat([0, 1], 30)
        model = train(LabeledSet(x=x, y=y), SvmParams(epochs=50))
        assert np.array_equal(predict(model, x), y)

    def test_wide_blobs_reach_high_accuracy_with_either_kind(self):
        rng = np.random.default_rng(3)
        data = blobs(rng, 100, 5, 10.0)
        for params in PARAMS.values():
            model = train(data, params)
            acc = np.mean(predict(model, data.x) == data.y)
            assert acc >= 0.99

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(4)
        data = blobs(rng, 25, 3, 2.0)
        m1 = train(data, SvmParams(seed=7))
        m2 = train(data, SvmParams(seed=7))
        assert np.array_equal(m1.weights, m2.weights)
        assert np.array_equal(m1.biases, m2.biases)

    def test_zero_bias_scores_scale_linearly(self):
        model = LinearSvmModel(
            weights=np.array([[1.0, -2.0], [0.5, 3.0]]),
            biases=np.zeros(2),
        )
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 2))
        # scaling inputs cannot change an argmax of linear zero-bias scores
        assert np.array_equal(predict(model, x), predict(model, 2.5 * x))

    def test_query_width_must_match(self):
        model = train(LabeledSet(x=np.eye(4), y=np.array([0, 0, 1, 1])), SvmParams())
        with pytest.raises(DimensionMismatch, match="queries have 3 features, model expects 4"):
            predict(model, np.ones((2, 3)))

    def test_single_class_rejected(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0, 0, 0]))
        with pytest.raises(InsufficientData):
            train(data, SvmParams())
        with pytest.raises(InsufficientData):
            train(data, KnnParams())

    def test_only_the_documented_kinds_are_accepted(self):
        # the type of the params object names the classifier; a name is not a params object
        data = blobs(np.random.default_rng(7), 10, 2, 4.0)
        for bad in ("linear_svm", "knn", None):
            with pytest.raises(TypeError, match="unknown classifier params type"):
                train(data, bad)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        # zero passes would leave every weight at zero and predict class 0 everywhere
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            SvmParams(epochs=epochs)

    @pytest.mark.parametrize("regularization", [0.0, -1e-4])
    def test_non_positive_regularization_rejected(self, regularization):
        with pytest.raises(ValueError, match="regularization must be positive"):
            SvmParams(regularization=regularization)

    def test_class_with_one_row_rejected_for_svm(self):
        x = np.vstack([np.eye(3), [[5.0, 5.0, 5.0]]])
        y = np.array([0, 0, 0, 1])
        with pytest.raises(InsufficientData):
            train(LabeledSet(x=x, y=y), SvmParams())

    def test_three_class_one_vs_rest(self):
        rng = np.random.default_rng(6)
        centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
        x = np.vstack([c + 0.4 * rng.standard_normal((40, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 40)
        model = train(LabeledSet(x=x, y=y), SvmParams())
        assert np.mean(predict(model, x) == y) >= 0.99
