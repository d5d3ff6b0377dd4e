"""Nearest-neighbour and linear hinge-loss classifiers."""

import math
import tracemalloc

import numpy as np
import pytest

from driftalign import (
    ConfigError,
    DimensionMismatch,
    InsufficientData,
    KnnParams,
    LabeledSet,
    MiniBatch,
    NonFiniteData,
    NumericalHealthError,
    SchemaMismatch,
    StreamSpec,
    SvmParams,
    classifiers,
    gen_waveform,
    pca_subspace,
    predict,
    subspaces,
    train,
)
from driftalign.classifiers import KnnModel, LinearSvmModel
from driftalign.subspaces import MAX_ABS_ENTRY

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


def reference_linear_svm(data: LabeledSet, params: SvmParams):
    """(weights, biases) of the Pegasos loop as first written, with numpy indexing at every step."""
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
    return weights, biases


def waveform40_source(seed):
    return gen_waveform(StreamSpec(batch_size=100, batch_count=1, seed=seed, source_size=500), "w40").source


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

    # From 2**70 on, each label must be rejected before the int64 cast, which
    # raises OverflowError, ValueError or TypeError, warns, or wraps to -1.
    @pytest.mark.parametrize("y, match", [
        ([0.5, 1.7, -0.2, 1.0], "must be integers"),
        ([0, 1, -1, 1], "must be >= 0, got -1$"),
        ([0, 1, 2**70, 1], "must be integers"),
        (["0", "1", "a", "1"], "must be integers"),
        ([0, 1, None, 1], "must be integers"),
        ([0, 1, math.nan, 1], "must be integers"),
        ([0, 1, math.inf, 1], "must be integers"),
        ([0, 1, -math.inf, 1], "must be integers"),
        ([0, 1, 1e30, 1], r"must be below 2\*\*63, got 1000000000000000019884624838656$"),
        ([0, 1, 2**63, 1], r"must be below 2\*\*63, got 9223372036854775808$"),
        (np.array([0, 1, 2**64 - 1, 1], dtype=np.uint64), r"must be below 2\*\*63, got 18446744073709551615$"),
    ], ids=["fractional", "negative", "2**70", "string", "none", "nan", "inf", "-inf", "1e30", "2**63", "uint64_max"])
    def test_non_integer_or_negative_labels_rejected(self, y, match):
        with pytest.raises(SchemaMismatch, match=match):
            LabeledSet(x=np.eye(4), y=np.array(y))

    @pytest.mark.parametrize("x", [np.ones(4), np.ones((4, 2, 1)), np.ones((0, 2)), np.ones((4, 0))],
                             ids=["1-d", "3-d", "no_rows", "no_columns"])
    def test_x_must_be_a_nonempty_matrix(self, x):
        with pytest.raises(DimensionMismatch, match="x must be a 2-d array of at least 1 x 1"):
            LabeledSet(x=x, y=np.array([0, 1, 0, 1]))

    @pytest.mark.parametrize("y", [[0, 1, 0], [[0, 1, 0, 1]]], ids=["too_few", "2-d"])
    def test_one_label_per_row(self, y):
        with pytest.raises(DimensionMismatch, match=r"y must have shape \(4,\), one label per row"):
            LabeledSet(x=np.eye(4), y=np.array(y))

    def test_integral_float_labels_accepted(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0.0, 1.0, 0.0]))
        assert data.y.dtype == np.int64 and data.y.tolist() == [0, 1, 0]

    def test_labels_must_start_at_zero_and_be_contiguous(self):
        with pytest.raises(SchemaMismatch, match=r"contiguous from 0; 1 missing, \[0\]$"):
            LabeledSet(x=np.eye(3), y=np.array([1, 2, 3]))
        with pytest.raises(SchemaMismatch, match=r"contiguous from 0; 1 missing, \[1\]$"):
            LabeledSet(x=np.eye(3), y=np.array([0, 2, 2]))

    def test_a_huge_label_names_ten_missing_labels_and_counts_the_rest(self):
        # the message listed every missing label, built from range(max + 1):
        # a label of 10**5 gave 688 926 characters, and 10**6 took seconds
        with pytest.raises(SchemaMismatch) as caught:
            LabeledSet(x=np.eye(3), y=np.array([0, 1, 10**12]))
        assert str(caught.value) == (
            "labels must be contiguous from 0; 999999999998 missing, "
            "the first 10: [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]"
        )

    def test_missing_labels_are_named_across_gaps(self):
        with pytest.raises(SchemaMismatch, match=r"; 14 missing, the first 10: \[1, 2, 4, 6, 7, 8, 9, 10, 11, 12\]$"):
            LabeledSet(x=np.eye(5), y=np.array([0, 3, 5, 17, 0]))

    def test_non_finite_features_rejected(self):
        x = np.eye(3)
        x[1, 1] = np.nan
        with pytest.raises(NonFiniteData):
            LabeledSet(x=x, y=np.array([0, 1, 0]))

    def test_complex_features_rejected(self, non_real):
        # the float64 cast kept the real part and only warned, and parsed strings
        with pytest.raises(SchemaMismatch, match="x must be real, got dtype"):
            LabeledSet(x=non_real(np.eye(3)), y=np.array([0, 1, 0]))

    def test_arrays_are_read_only(self):
        data = LabeledSet(x=np.eye(3), y=np.array([0, 1, 0]))
        with pytest.raises(ValueError):
            data.x[0, 0] = 5.0


# Each row set, built from rows x, and the name its messages give x.
ROW_SETS = {
    "LabeledSet": (lambda x: LabeledSet(x=x, y=np.arange(x.shape[0]) % 2), "x"),
    "MiniBatch": (lambda x: MiniBatch(x=x, true_labels=np.zeros(x.shape[0])), "batch"),
}


@pytest.mark.parametrize("row_set", sorted(ROW_SETS))
class TestStoredRows:
    def test_the_rows_pass_the_float_gate_once(self, row_set, monkeypatch):
        # _rows and then _read_only each cast the rows and scanned them for non-finite entries
        make, name = ROW_SETS[row_set]
        gated = []
        real_rows = subspaces._real_rows

        def counted(x, what):
            gated.append(what)
            return real_rows(x, what)

        monkeypatch.setattr(subspaces, "_real_rows", counted)
        make(np.eye(4))
        assert gated == [name]

    def test_the_stored_copy_keeps_the_rows_memory_layout(self, row_set):
        make, _ = ROW_SETS[row_set]
        x = np.asfortranarray(np.arange(12.0).reshape(4, 3))
        stored = make(x).x
        assert stored.flags.f_contiguous and not stored.flags.c_contiguous
        assert not stored.flags.writeable and not np.shares_memory(stored, x)
        assert np.array_equal(stored, x)


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
        with pytest.raises(ConfigError, match="n_neighbors must be an integer"):
            KnnParams(n_neighbors=n_neighbors)

    @pytest.mark.parametrize("n_neighbors", [0, -2])
    def test_neighbour_count_below_one_rejected(self, n_neighbors):
        with pytest.raises(ConfigError, match="n_neighbors must be >= 1"):
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

    def test_labels_equal_the_stable_sort_rule_at_a_large_offset(self):
        # a common shift of 0 or +-2**20 per column makes |q|^2 dominate the
        # distance, yet every value stays an exact integer, and so does every tie
        rng = np.random.default_rng(23)
        for _ in range(150):
            data, queries = lattice_case(rng)
            shift = rng.choice([-(2.0**20), 0.0, 2.0**20], size=data.n_features)
            data = LabeledSet(x=data.x + shift, y=data.y)
            queries = queries + shift
            for k in range(1, 10):
                model = train(data, KnnParams(n_neighbors=k))
                assert np.array_equal(predict(model, queries), stable_sort_knn(model, queries)), (k, shift)

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

    @pytest.mark.parametrize("k, bound", [(1, 1.1), (3, 3.0)])
    def test_predict_memory_stays_near_one_distance_matrix(self, k, bound):
        # one M x N float64 matrix is 200 kB at 50 queries x 500 rows; the
        # stable sort with four such temporaries peaked at about 605 kB. With
        # one neighbour predict holds that one matrix (a peak of 1.03 of it);
        # with three, the partitioned copy and the masks join it (2.55)
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

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("size", [None, 4096], ids=["default", "4096"])
    def test_predict_leaves_the_ufunc_buffer_size_as_it_found_it(self, k, size):
        # predict shrinks numpy's ufunc buffer for one add; without the
        # restore the size would stay at 16 for every later numpy call
        rng = np.random.default_rng(24)
        model = train(blobs(rng, 20, 4, 1.0), KnnParams(n_neighbors=k))
        queries = rng.standard_normal((7, 4))
        before = np.setbufsize(size) if size else None
        try:
            expected = np.getbufsize()
            predict(model, queries)
            assert np.getbufsize() == expected
        finally:
            if size:
                np.setbufsize(before)


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
def test_complex_queries_rejected(kind, non_real):
    # predict(model, q + 1j) returned exactly predict(model, q)
    rng = np.random.default_rng(9)
    model = train(blobs(rng, 10, 3, 4.0), PARAMS[kind])
    queries = rng.standard_normal((4, 3))
    with pytest.raises(SchemaMismatch, match="queries must be real"):
        predict(model, non_real(queries))


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
        with pytest.raises(ConfigError, match="epochs must be >= 1"):
            SvmParams(epochs=epochs)

    @pytest.mark.parametrize("regularization", [0.0, -1e-4])
    def test_non_positive_regularization_rejected(self, regularization):
        with pytest.raises(ConfigError, match="regularization must be positive"):
            SvmParams(regularization=regularization)

    @pytest.mark.parametrize("regularization", [np.nan, np.inf, -np.inf])
    def test_non_finite_regularization_rejected(self, regularization):
        # NaN or infinite steps made every weight NaN, and every prediction class 0
        with pytest.raises(ConfigError, match="regularization must be finite"):
            SvmParams(regularization=regularization)

    @pytest.mark.parametrize("name", ["epochs", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_non_integer_epochs_and_seed_rejected(self, name, value):
        # epochs=2.5 used to fail inside train with a TypeError, and True trained one epoch
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            SvmParams(**{name: value})

    def test_negative_seed_rejected(self):
        # numpy would reject it only once training starts, and not as a driftalign error
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            SvmParams(seed=-1)

    def test_numpy_integer_epochs_and_seed_accepted(self):
        data = blobs(np.random.default_rng(8), 10, 2, 4.0)
        model = train(data, SvmParams(epochs=np.int64(2), seed=np.int32(3)))
        assert np.array_equal(model.weights, train(data, SvmParams(epochs=2, seed=3)).weights)

    def test_class_with_one_row_rejected_for_svm(self):
        x = np.vstack([np.eye(3), [[5.0, 5.0, 5.0]]])
        y = np.array([0, 0, 0, 1])
        with pytest.raises(InsufficientData):
            train(LabeledSet(x=x, y=y), SvmParams())

    # 9 and 17 classes train in more than one lockstep group; d + 1 of 16, 17,
    # 32, 33, 64 and 65 straddles the unroll widths of BLAS ddot
    @pytest.mark.parametrize("classes", [2, 3, 4, 9, 17])
    @pytest.mark.parametrize("d", [1, 5, 15, 16, 31, 32, 40, 63, 64])
    @pytest.mark.parametrize("params", [SvmParams(epochs=3), SvmParams(regularization=0.05, epochs=2, seed=11)],
                             ids=["default_lambda", "lambda_0.05"])
    def test_weights_equal_the_plain_loop_bit_for_bit(self, classes, d, params):
        rng = np.random.default_rng(100 * classes + d)
        n = 12 * classes
        y = np.arange(n) % classes
        x = rng.standard_normal((n, d)) + 1.5 * rng.standard_normal((classes, d))[y]
        data = LabeledSet(x=x, y=y)
        model = train(data, params)
        weights, biases = reference_linear_svm(data, params)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.biases.tobytes() == biases.tobytes()

    def test_vecdot_gives_the_bits_of_one_row_dot_at_a_time(self):
        # the lockstep trainer's premise: np.vecdot calls the BLAS ddot that
        # w.dot(row) calls. A margin's last bit reaches the weights only when
        # it moves the margin across 1, so the weight tests alone would miss
        # a kernel that sums in another order, as np.einsum does
        rng = np.random.default_rng(79)
        for length in range(1, 80):
            for _ in range(10):
                w, rows = rng.standard_normal((2, 3, length))
                assert np.vecdot(w, rows).tolist() == [a.dot(b) for a, b in zip(w, rows)]

    def test_waveform40_weights_equal_the_plain_loop_bit_for_bit(self):
        source = waveform40_source(seed=5)
        model = train(source, SvmParams())
        weights, biases = reference_linear_svm(source, SvmParams())
        assert model.weights.tobytes() == weights.tobytes()
        assert model.biases.tobytes() == biases.tobytes()

    def test_training_peak_stays_below_the_source_pca_peak(self):
        # the PCA sets svm_waveform's peak allocation; a whole-run schedule of
        # Python objects would be megabytes and lift the peak above it
        source = waveform40_source(seed=6)
        peaks = []
        for step in (lambda: train(source, SvmParams(epochs=2)), lambda: pca_subspace(source.x, 10)):
            tracemalloc.start()
            try:
                step()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]

    @pytest.mark.parametrize("group, passes", [(classifiers.SVM_GROUP, True), (50, False)],
                             ids=["module_group", "all_classes_at_once"])
    def test_many_classes_train_below_the_one_class_at_a_time_peak(self, group, passes, monkeypatch):
        # class after class, 50 classes of 2000 rows peaked at 0.48 MB; one
        # lockstep group holding all 50 classes' permutations peaks far above it
        monkeypatch.setattr(classifiers, "SVM_GROUP", group)
        rng = np.random.default_rng(50)
        y = np.arange(2000) % 50
        data = LabeledSet(x=rng.standard_normal((2000, 4)) + 3.0 * rng.standard_normal((50, 4))[y], y=y)
        tracemalloc.start()
        try:
            train(data, SvmParams(epochs=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak < 0.48e6) == passes

    @pytest.mark.parametrize("regularization, scale", [(1e-320, 1.0), (1e-300, 1e10)],
                             ids=["subnormal_lambda", "entries_near_1e10"])
    def test_non_finite_weights_raise(self, regularization, scale):
        # a subnormal lambda makes 1/lambda infinite; a tiny normal one lets
        # steps on large entries overflow. Either way the weights turned
        # non-finite, every prediction was class 0, and only a warning showed
        x = scale * np.array([[1.0, 2.0], [-1.0, 3.0], [2.0, -1.0], [-3.0, -2.0]])
        data = LabeledSet(x=x, y=np.array([0, 0, 1, 1]))
        with pytest.raises(NumericalHealthError, match=f"SVM weights for regularization {regularization} has non-finite"):
            train(data, SvmParams(regularization=regularization, epochs=2))

    def test_three_class_one_vs_rest(self):
        rng = np.random.default_rng(6)
        centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
        x = np.vstack([c + 0.4 * rng.standard_normal((40, 2)) for c in centers])
        y = np.repeat([0, 1, 2], 40)
        model = train(LabeledSet(x=x, y=y), SvmParams())
        assert np.mean(predict(model, x) == y) >= 0.99
