"""CSV ingestion and the two synthetic stream generators."""

import csv
import inspect
import math
import re

import numpy as np
import pytest

from driftalign import (
    ConfigError,
    DatasetBundle,
    InsufficientData,
    LabeledSet,
    MiniBatch,
    ParseError,
    SchemaMismatch,
    StreamSpec,
    gen_rotating_drift,
    gen_waveform,
    load_csv,
    run_stream,
    variant_config,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def grid_rows(n, d=3):
    rng = np.random.default_rng(42)
    rows = []
    for i in range(n):
        feats = [round(v, 6) for v in rng.standard_normal(d)]
        rows.append(feats + [i % 2])
    return rows


class TestLoadCsv:
    def test_split_and_batching(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(100))
        bundle = load_csv(f, source_fraction=0.2, batch_size=10)
        assert bundle.source.n_rows == 20
        assert len(bundle.stream) == 8
        assert all(b.n_rows == 10 for b in bundle.stream)

    def test_trailing_partial_batch_is_dropped(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(57))
        bundle = load_csv(f, source_fraction=0.2, batch_size=10)
        # 12 source rows, 45 left, 4 full batches of 10
        assert bundle.source.n_rows == 12
        assert len(bundle.stream) == 4

    def test_rows_keep_file_order(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(40)
        write_csv(f, rows)
        bundle = load_csv(f, source_fraction=0.25, batch_size=5)
        first_batch_expected = np.array([r[:-1] for r in rows[10:15]])
        np.testing.assert_allclose(bundle.stream[0].x, first_batch_expected, atol=1e-12)

    def test_header_row_can_be_skipped(self, tmp_path):
        f = tmp_path / "data.csv"
        body = grid_rows(30)
        f.write_text("a,b,c,label\n" + "\n".join(",".join(map(str, r)) for r in body) + "\n")
        bundle = load_csv(f, source_fraction=0.3, batch_size=5, has_header=True)
        assert bundle.source.n_rows == 9

    def test_header_is_the_first_non_blank_line(self, tmp_path):
        # a blank first line used to be taken as the header, and the header then failed as data
        f = tmp_path / "data.csv"
        body = grid_rows(30)
        f.write_text("\n\na,b,c,label\n" + "\n".join(",".join(map(str, r)) for r in body) + "\n")
        bundle = load_csv(f, source_fraction=0.3, batch_size=5, has_header=True)
        assert bundle.source.n_rows == 9
        np.testing.assert_array_equal(bundle.source.x[0], body[0][:-1])

    @pytest.mark.parametrize("record, message", [
        ("1,x,1", "row 4, column 2: 'x' is not a number"),
        ('1,"\n' + "9" * 200_000 + '",1', f"row 4: field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["bad_cell", "csv_error"])
    def test_rows_are_named_by_the_line_they_start_on(self, tmp_path, record, message):
        # the quoted cell of the first data record spans lines 2 and 3, so the next record starts on line 4;
        # cell errors used to count records (row 3) and a csv.Error the line it was detected on (row 5)
        f = tmp_path / "data.csv"
        f.write_text('a,b,y\n1,"2\n",0\n' + record + "\n")
        with pytest.raises(ParseError) as exc:
            load_csv(f, source_fraction=0.5, batch_size=2, has_header=True)
        assert str(exc.value) == message

    def test_bad_cell_reports_one_based_row_and_column(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[4][1] = "oops"
        write_csv(f, rows)
        with pytest.raises(ParseError, match=r"row 5, column 2"):
            load_csv(f, source_fraction=0.3, batch_size=2)

    def test_ragged_row_is_a_schema_error(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[6] = rows[6][:-2] + [rows[6][-1]]
        write_csv(f, rows)
        with pytest.raises(SchemaMismatch, match=r"row 7"):
            load_csv(f, source_fraction=0.3, batch_size=2)

    def test_fractional_label_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[2][-1] = 0.5
        write_csv(f, rows)
        with pytest.raises(ParseError, match=r"row 3"):
            load_csv(f, source_fraction=0.3, batch_size=2)

    def test_non_contiguous_labels_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        for r in rows:
            r[-1] = r[-1] * 2  # labels 0 and 2, missing 1
        write_csv(f, rows)
        with pytest.raises(SchemaMismatch, match="contiguous"):
            load_csv(f, source_fraction=0.3, batch_size=2)

    def test_label_column_alone_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, [[i % 2] for i in range(10)])
        with pytest.raises(SchemaMismatch, match="row 1: need at least one feature column plus a label"):
            load_csv(f, source_fraction=0.3, batch_size=2)

    @pytest.mark.parametrize("text, has_header", [("", False), ("\n\n", False), ("x1,x2,label\n", True)],
                             ids=["empty", "blank_lines", "header_only"])
    def test_file_without_data_rows_rejected(self, tmp_path, text, has_header):
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(InsufficientData, match="no data rows"):
            load_csv(f, source_fraction=0.3, batch_size=2, has_header=has_header)

    def test_source_split_needs_two_rows_of_every_class(self, tmp_path):
        # 10% of 20 alternating rows is one row of each class
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(20))
        with pytest.raises(InsufficientData, match=r"2 rows of every class, got counts \[1, 1\]"):
            load_csv(f, source_fraction=0.1, batch_size=2)

    def test_too_small_stream_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(12))
        with pytest.raises(InsufficientData):
            load_csv(f, source_fraction=0.5, batch_size=50)

    def test_load_csv_parameters(self):
        # the column count comes from the first data row; there is no parameter to preset it
        assert list(inspect.signature(load_csv).parameters) == ["path", "source_fraction", "batch_size", "has_header"]

    def test_schema_validation(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(40))
        with pytest.raises(ConfigError):
            load_csv(f, source_fraction=0.0, batch_size=10)
        with pytest.raises(ConfigError):
            load_csv(f, source_fraction=0.5, batch_size=1)
        with pytest.raises(ConfigError, match="batch_size must be an integer, got 2.5"):
            load_csv(f, source_fraction=0.5, batch_size=2.5)

    @pytest.mark.parametrize("settings, message", [
        ({"source_fraction": 1.5}, "source_fraction must lie in (0, 1), got 1.5"),
        ({"batch_size": 1}, "batch_size must be >= 2, got 1"),
        ({"has_header": "yes"}, "has_header must be a bool, got 'yes'"),
    ])
    def test_settings_fail_before_a_missing_file(self, tmp_path, settings, message):
        # the settings are checked before the file is opened, so a bad one is a
        # ConfigError even when the file is missing
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_csv(tmp_path / "missing.csv", **{"source_fraction": 0.5, "batch_size": 5, **settings})

    @pytest.mark.parametrize("has_header", ["no", 0, 1, None, np.bool_(True)])
    def test_has_header_must_be_a_bool(self, tmp_path, has_header):
        # "no" was taken as true, and the first data row was skipped
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(100))
        with pytest.raises(ConfigError, match=f"has_header must be a bool, got {re.escape(repr(has_header))}"):
            load_csv(f, source_fraction=0.2, batch_size=50, has_header=has_header)

    @pytest.mark.parametrize(
        "label, message",
        [("nan", "label nan is not an integer"), ("inf", "label inf is not an integer"),
         ("-inf", "label -inf is not an integer"), ("1e300", "label 1e[+]300 does not fit in 64 bits"),
         ("-1", "label -1[.]0 is negative")],
    )
    def test_label_that_is_not_an_int64_rejected(self, tmp_path, label, message):
        # nan was reported as a config error, inf and 1e300 ended in an
        # OverflowError, and -1 gave "labels must be >= 0", naming no record
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[2][-1] = label
        write_csv(f, rows)
        with pytest.raises(ParseError, match=f"row 3, column 4: {message}"):
            load_csv(f, source_fraction=0.3, batch_size=2)


class TestDatasetBundle:
    SOURCE = LabeledSet(x=np.random.default_rng(5).standard_normal((8, 4)), y=np.arange(8) % 2)

    def batch(self, rows, d=4):
        return MiniBatch(x=np.random.default_rng(rows + d).standard_normal((rows, d)))

    def test_consistent_bundle_accepted(self):
        bundle = DatasetBundle(source=self.SOURCE, stream=(self.batch(5), self.batch(5)))
        assert len(bundle.stream) == 2

    def test_run_stream_scores_batches_of_unequal_size(self):
        # the bundle holds no size check: process_batch takes any row count, and the trace scores each batch
        bundle = gen_rotating_drift(StreamSpec(batch_size=12, batch_count=3, seed=1, source_size=60))
        cut = bundle.stream[0].x.shape[0] // 3
        uneven = [MiniBatch(x=b.x[: cut * (i + 1)], true_labels=b.true_labels[: cut * (i + 1)])
                  for i, b in enumerate(bundle.stream)]
        assert [b.n_rows for b in uneven] == [4, 8, 12]
        (trace,) = run_stream(bundle.source, uneven, [variant_config("gfk_gmean_fb", sub_dim=1)])
        # each accuracy counts right labels out of its own batch's rows
        hits = [accuracy * b.n_rows for accuracy, b in zip(trace.per_batch, uneven, strict=True)]
        assert [round(h, 9) for h in hits] == [round(h) for h in hits]


def assert_prefix(long, short):
    """The source and the first len(short.stream) batches of long equal short's bit for bit."""
    assert long.source.x.tobytes() == short.source.x.tobytes()
    assert long.source.y.tobytes() == short.source.y.tobytes()
    for a, b in zip(long.stream, short.stream):
        assert a.x.tobytes() == b.x.tobytes()
        assert a.true_labels.tobytes() == b.true_labels.tobytes()


class TestStreamSpec:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            StreamSpec(batch_size=1, batch_count=5, seed=0)
        with pytest.raises(ConfigError):
            StreamSpec(batch_size=10, batch_count=0, seed=0)
        with pytest.raises(ConfigError):
            StreamSpec(batch_size=10, batch_count=5, seed=0, source_size=3)
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            StreamSpec(batch_size=10, batch_count=5, seed=-1)

    @pytest.mark.parametrize("name", ["batch_size", "batch_count", "seed", "source_size"])
    @pytest.mark.parametrize("value", [12.5, True, "12"])
    def test_every_field_must_be_an_integer(self, name, value):
        # batch_size=2.5 used to fail inside numpy with a TypeError
        fields = {"batch_size": 10, "batch_count": 5, "seed": 0, "source_size": 40, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            StreamSpec(**fields)


class TestWaveformGenerator:
    def test_shapes_and_classes(self):
        spec = StreamSpec(batch_size=30, batch_count=4, seed=1, source_size=90)
        for variant, dim in (("w21", 21), ("w40", 40)):
            bundle = gen_waveform(spec, variant)
            assert bundle.source.n_features == dim
            assert bundle.source.n_classes == 3
            assert len(bundle.stream) == 4
            assert bundle.stream[0].x.shape == (30, dim)

    def test_same_seed_reproduces_bytes(self):
        spec = StreamSpec(batch_size=20, batch_count=3, seed=9)
        a = gen_waveform(spec, "w40")
        b = gen_waveform(spec, "w40")
        assert np.array_equal(a.source.x, b.source.x)
        for ba, bb in zip(a.stream, b.stream):
            assert np.array_equal(ba.x, bb.x)
            assert np.array_equal(ba.true_labels, bb.true_labels)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            gen_waveform(StreamSpec(batch_size=20, batch_count=2, seed=0), "w13")

    @pytest.mark.parametrize("source_size", [4, 5])
    def test_source_smaller_than_two_rows_per_class_rejected(self, source_size):
        spec = StreamSpec(batch_size=20, batch_count=2, seed=0, source_size=source_size)
        with pytest.raises(ConfigError, match=f"source_size must be >= 6 for 3 classes, got {source_size}"):
            gen_waveform(spec, "w21")

    @pytest.mark.parametrize("variant", ["w21", "w40"])
    @pytest.mark.parametrize("m", [1, 3])
    def test_stream_is_prefix_stable_in_batch_count(self, variant, m):
        # the draw goes source, then batch 1, 2, ...; a longer stream only draws more after
        short = gen_waveform(StreamSpec(batch_size=20, batch_count=m, seed=6, source_size=60), variant)
        long = gen_waveform(StreamSpec(batch_size=20, batch_count=5, seed=6, source_size=60), variant)
        assert len(short.stream) == m
        assert_prefix(long, short)

    def test_classes_are_balanced(self):
        spec = StreamSpec(batch_size=30, batch_count=2, seed=3, source_size=90)
        bundle = gen_waveform(spec, "w21")
        counts = np.bincount(bundle.source.y)
        assert counts.tolist() == [30, 30, 30]


class TestRotatingGenerator:
    def test_same_seed_reproduces_bytes(self):
        spec = StreamSpec(batch_size=25, batch_count=4, seed=5, source_size=100)
        a = gen_rotating_drift(spec)
        b = gen_rotating_drift(spec)
        assert np.array_equal(a.source.x, b.source.x)
        for ba, bb in zip(a.stream, b.stream):
            assert np.array_equal(ba.x, bb.x)

    @pytest.mark.parametrize("m", [1, 3])
    def test_source_and_labels_do_not_depend_on_batch_count(self, m):
        # batch n is rotated by n / batch_count of the total, so only its rows see batch_count
        short = gen_rotating_drift(StreamSpec(batch_size=16, batch_count=m, seed=8, source_size=48), classes=3)
        long = gen_rotating_drift(StreamSpec(batch_size=16, batch_count=5, seed=8, source_size=48), classes=3)
        assert long.source.x.tobytes() == short.source.x.tobytes()
        assert long.source.y.tobytes() == short.source.y.tobytes()
        for a, b in zip(long.stream, short.stream):
            assert a.true_labels.tobytes() == b.true_labels.tobytes()
        assert long.stream[0].x.tobytes() != short.stream[0].x.tobytes()

    @pytest.mark.parametrize("m", [1, 3])
    def test_unrotated_stream_is_prefix_stable_in_batch_count(self, m):
        short = gen_rotating_drift(StreamSpec(batch_size=16, batch_count=m, seed=8, source_size=48),
                                   classes=3, total_rotation=0.0)
        long = gen_rotating_drift(StreamSpec(batch_size=16, batch_count=5, seed=8, source_size=48),
                                  classes=3, total_rotation=0.0)
        assert_prefix(long, short)

    def test_validation(self):
        spec = StreamSpec(batch_size=25, batch_count=4, seed=0)
        with pytest.raises(ConfigError):
            gen_rotating_drift(spec, classes=1)
        with pytest.raises(ConfigError):
            gen_rotating_drift(spec, d=3)
        with pytest.raises(ConfigError):
            gen_rotating_drift(spec, total_rotation=2.0)
        with pytest.raises(ConfigError):
            gen_rotating_drift(StreamSpec(batch_size=25, batch_count=4, seed=0, source_size=5),
                               classes=3)

    @pytest.mark.parametrize("name", ["classes", "d"])
    @pytest.mark.parametrize("value", [2.5, 6.0, True], ids=["2.5", "6.0", "True"])
    def test_classes_and_dimension_must_be_integers(self, name, value):
        # 2.5 and 6.0 used to escape as numpy's TypeError
        spec = StreamSpec(batch_size=25, batch_count=2, seed=0)
        with pytest.raises(ConfigError, match=f"{name} must be an integer, got {value!r}"):
            gen_rotating_drift(spec, **{name: value})

    def test_numpy_integer_settings_give_the_same_stream(self):
        spec = StreamSpec(batch_size=20, batch_count=2, seed=4, source_size=60)
        plain = gen_rotating_drift(spec, classes=3, d=8)
        numpy_spec = StreamSpec(batch_size=np.int64(20), batch_count=np.int64(2), seed=np.int64(4),
                                source_size=np.int64(60))
        for numpy_ints in (gen_rotating_drift(spec, classes=np.int64(3), d=np.int64(8)),
                           gen_rotating_drift(numpy_spec, classes=3, d=8)):
            assert numpy_ints.source.x.tobytes() == plain.source.x.tobytes()
            for a, b in zip(numpy_ints.stream, plain.stream, strict=True):
                assert a.x.tobytes() == b.x.tobytes()
                assert a.true_labels.tobytes() == b.true_labels.tobytes()

    def test_zero_rotation_keeps_batches_in_the_source_law(self):
        spec = StreamSpec(batch_size=50, batch_count=4, seed=7, source_size=200)
        calm = gen_rotating_drift(spec, total_rotation=0.0)
        # class means along e1 should agree between source and every batch
        src_gap = calm.source.x[calm.source.y == 0, 0].mean() - calm.source.x[calm.source.y == 1, 0].mean()
        for batch in calm.stream:
            gap = batch.x[batch.true_labels == 0, 0].mean() - batch.x[batch.true_labels == 1, 0].mean()
            assert np.sign(gap) == np.sign(src_gap)
            assert abs(gap) > 0.5 * abs(src_gap)

    def test_full_right_angle_ruins_the_late_stream(self):
        spec = StreamSpec(batch_size=50, batch_count=12, seed=0, source_size=300)
        bundle = gen_rotating_drift(spec, total_rotation=math.pi / 2)
        (trace,) = run_stream(bundle.source, bundle.stream, [variant_config("pca", sub_dim=3)])
        assert trace.per_batch[-1] < trace.per_batch[0]

    def test_multiclass_layout(self):
        spec = StreamSpec(batch_size=30, batch_count=2, seed=2, source_size=120)
        bundle = gen_rotating_drift(spec, classes=4, d=8)
        assert bundle.source.n_classes == 4
        assert bundle.source.n_features == 8
