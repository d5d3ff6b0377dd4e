"""Nearest-neighbour and linear hinge-loss classifiers."""

import numpy as np
import pytest

from driftalign import (
    DimensionMismatch,
    InsufficientData,
    KnnParams,
    LabeledSet,
    SchemaMismatch,
    SvmParams,
    predict,
    train,
)
from driftalign.classifiers import LinearSvmModel


def blobs(rng, n_per_class, d, separation):
    centers = np.zeros((2, d))
    centers[0, 0] = -separation / 2.0
    centers[1, 0] = +separation / 2.0
    x = np.vstack([centers[c] + rng.standard_normal((n_per_class, d)) for c in (0, 1)])
    y = np.repeat([0, 1], n_per_class)
    return LabeledSet(x=x, y=y)


class TestLabeledSet:
    def test_counts(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 2, 1]))
        assert data.n_rows == 4
        assert data.n_features == 4
        assert data.n_classes == 3

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
        model = train(data, "knn", KnnParams(n_neighbors=1))
        assert np.array_equal(predict(model, data.x), data.y)

    def test_equidistant_tie_goes_to_the_smaller_class(self):
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [-1.0, 2.0], [1.0, 2.0]])
        y = np.array([0, 1, 0, 1])
        model = train(LabeledSet(x=x, y=y), "knn", KnnParams(n_neighbors=2))
        # the origin sees one neighbour of each class at distance 1
        assert predict(model, np.array([[0.0, 0.0]]))[0] == 0

    def test_neighbour_count_equal_to_n_votes_the_majority(self):
        x = np.vstack([np.eye(5), -np.eye(5)[:2]])
        y = np.array([0, 0, 0, 0, 0, 1, 1])
        model = train(LabeledSet(x=x, y=y), "knn", KnnParams(n_neighbors=7))
        preds = predict(model, np.array([[9.0, 9.0, 9.0, 9.0, 9.0], [0.0, 0.0, 0.0, 0.0, 0.0]]))
        assert np.array_equal(preds, [0, 0])

    def test_invariant_under_training_row_permutation(self):
        rng = np.random.default_rng(1)
        data = blobs(rng, 30, 5, 1.0)
        order = rng.permutation(data.n_rows)
        shuffled = LabeledSet(x=data.x[order], y=data.y[order])
        queries = rng.standard_normal((40, 5))
        a = predict(train(data, "knn", KnnParams(n_neighbors=3)), queries)
        b = predict(train(shuffled, "knn", KnnParams(n_neighbors=3)), queries)
        assert np.array_equal(a, b)

    def test_more_neighbours_than_rows_rejected(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0, 1, 0]))
        with pytest.raises(InsufficientData):
            train(data, "knn", KnnParams(n_neighbors=4))

    def test_query_width_must_match(self):
        data = LabeledSet(x=np.eye(4), y=np.array([0, 1, 0, 1]))
        model = train(data, "knn")
        with pytest.raises(DimensionMismatch):
            predict(model, np.ones((2, 3)))


class TestLinearSvm:
    def test_separable_data_is_fit_perfectly(self):
        rng = np.random.default_rng(2)
        x = np.vstack([
            rng.standard_normal((30, 2)) * 0.3 + [-3.0, 0.0],
            rng.standard_normal((30, 2)) * 0.3 + [+3.0, 0.0],
        ])
        y = np.repeat([0, 1], 30)
        model = train(LabeledSet(x=x, y=y), "svm", SvmParams(epochs=50))
        assert np.array_equal(predict(model, x), y)

    def test_wide_blobs_reach_high_accuracy_with_either_kind(self):
        rng = np.random.default_rng(3)
        data = blobs(rng, 100, 5, 10.0)
        for kind in ("knn", "svm"):
            model = train(data, kind)
            acc = np.mean(predict(model, data.x) == data.y)
            assert acc >= 0.99

    def test_same_seed_same_model(self):
        rng = np.random.default_rng(4)
        data = blobs(rng, 25, 3, 2.0)
        m1 = train(data, "svm", SvmParams(seed=7))
        m2 = train(data, "svm", SvmParams(seed=7))
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

    def test_single_class_rejected(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0, 0, 0]))
        with pytest.raises(InsufficientData):
            train(data, "svm")
        with pytest.raises(InsufficientData):
            train(data, "knn")

    def test_only_the_documented_kinds_are_accepted(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValueError, match="unknown classifier kind"):
            train(blobs(rng, 10, 2, 4.0), "linear_svm")

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        # zero passes would leave every weight at zero and predict class 0 everywhere
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            train(blobs(rng, 10, 2, 4.0), "svm", SvmParams(epochs=epochs))

    def test_class_with_one_row_rejected_for_svm(self):
        x = np.vstack([np.eye(3), [[5.0, 5.0, 5.0]]])
        y = np.array([0, 0, 0, 1])
        with pytest.raises(InsufficientData):
            train(LabeledSet(x=x, y=y), "svm")

    def test_three_class_one_vs_rest(self):
        rng = np.random.default_rng(6)
        centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
        x = np.vstack([c + 0.4 * rng.standard_normal((40, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 40)
        model = train(LabeledSet(x=x, y=y), "svm")
        assert np.mean(predict(model, x) == y) >= 0.99
