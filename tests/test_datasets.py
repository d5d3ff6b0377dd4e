"""CSV ingestion and the two synthetic stream generators."""

import math

import numpy as np
import pytest

from driftalign import (
    ConfigError,
    CsvSchema,
    DatasetBundle,
    DimensionMismatch,
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
        bundle = load_csv(f, CsvSchema(source_fraction=0.2, batch_size=10))
        assert bundle.source.n_rows == 20
        assert len(bundle.stream) == 8
        assert all(b.n_rows == 10 for b in bundle.stream)

    def test_trailing_partial_batch_is_dropped(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(57))
        bundle = load_csv(f, CsvSchema(source_fraction=0.2, batch_size=10))
        # 12 source rows, 45 left, 4 full batches of 10
        assert bundle.source.n_rows == 12
        assert len(bundle.stream) == 4

    def test_rows_keep_file_order(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(40)
        write_csv(f, rows)
        bundle = load_csv(f, CsvSchema(source_fraction=0.25, batch_size=5))
        first_batch_expected = np.array([r[:-1] for r in rows[10:15]])
        np.testing.assert_allclose(bundle.stream[0].x, first_batch_expected, atol=1e-12)

    def test_header_row_can_be_skipped(self, tmp_path):
        f = tmp_path / "data.csv"
        body = grid_rows(30)
        f.write_text("a,b,c,label\n" + "\n".join(",".join(map(str, r)) for r in body) + "\n")
        bundle = load_csv(f, CsvSchema(source_fraction=0.3, batch_size=5, has_header=True))
        assert bundle.source.n_rows == 9

    def test_bad_cell_reports_one_based_row_and_column(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[4][1] = "oops"
        write_csv(f, rows)
        with pytest.raises(ParseError, match=r"row 5, column 2"):
            load_csv(f, CsvSchema(source_fraction=0.3, batch_size=2))

    def test_ragged_row_is_a_schema_error(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[6] = rows[6][:-2] + [rows[6][-1]]
        write_csv(f, rows)
        with pytest.raises(SchemaMismatch, match=r"row 7"):
            load_csv(f, CsvSchema(source_fraction=0.3, batch_size=2))

    def test_fractional_label_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        rows[2][-1] = 0.5
        write_csv(f, rows)
        with pytest.raises(ParseError, match=r"row 3"):
            load_csv(f, CsvSchema(source_fraction=0.3, batch_size=2))

    def test_non_contiguous_labels_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        rows = grid_rows(10)
        for r in rows:
            r[-1] = r[-1] * 2  # labels 0 and 2, missing 1
        write_csv(f, rows)
        with pytest.raises(SchemaMismatch, match="contiguous"):
            load_csv(f, CsvSchema(source_fraction=0.3, batch_size=2))

    def test_label_column_alone_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, [[i % 2] for i in range(10)])
        with pytest.raises(SchemaMismatch, match="row 1: need at least one feature column plus a label"):
            load_csv(f, CsvSchema(source_fraction=0.3, batch_size=2))

    @pytest.mark.parametrize("text, has_header", [("", False), ("\n\n", False), ("x1,x2,label\n", True)],
                             ids=["empty", "blank_lines", "header_only"])
    def test_file_without_data_rows_rejected(self, tmp_path, text, has_header):
        f = tmp_path / "data.csv"
        f.write_text(text)
        with pytest.raises(InsufficientData, match="no data rows"):
            load_csv(f, CsvSchema(source_fraction=0.3, batch_size=2, has_header=has_header))

    def test_source_split_needs_two_rows_of_every_class(self, tmp_path):
        # 10% of 20 alternating rows is one row of each class
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(20))
        with pytest.raises(InsufficientData, match=r"2 rows of every class, got counts \[1, 1\]"):
            load_csv(f, CsvSchema(source_fraction=0.1, batch_size=2))

    def test_too_small_stream_rejected(self, tmp_path):
        f = tmp_path / "data.csv"
        write_csv(f, grid_rows(12))
        with pytest.raises(InsufficientData):
            load_csv(f, CsvSchema(source_fraction=0.5, batch_size=50))

    def test_schema_fields(self):
        # the column count comes from the first data row; there is no field to preset it
        assert list(CsvSchema.__dataclass_fields__) == ["source_fraction", "batch_size", "has_header"]

    def test_schema_validation(self):
        with pytest.raises(ConfigError):
            CsvSchema(source_fraction=0.0, batch_size=10)
        with pytest.raises(ConfigError):
            CsvSchema(source_fraction=0.5, batch_size=1)


class TestDatasetBundle:
    SOURCE = LabeledSet(x=np.random.default_rng(5).standard_normal((8, 4)), y=np.arange(8) % 2)

    def batch(self, rows, d=4):
        return MiniBatch(x=np.random.default_rng(rows + d).standard_normal((rows, d)))

    def test_consistent_bundle_accepted(self):
        bundle = DatasetBundle(source=self.SOURCE, stream=(self.batch(5), self.batch(5)))
        assert len(bundle.stream) == 2

    def test_empty_stream_rejected(self):
        with pytest.raises(InsufficientData, match="at least one batch"):
            DatasetBundle(source=self.SOURCE, stream=())

    def test_feature_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch, match="batch has 5 features, source has 4"):
            DatasetBundle(source=self.SOURCE, stream=(self.batch(5), self.batch(5, d=5)))

    def test_unequal_batch_sizes_rejected(self):
        with pytest.raises(DimensionMismatch, match=r"share one size, got \[5, 6\]"):
            DatasetBundle(source=self.SOURCE, stream=(self.batch(5), self.batch(6)))


class TestStreamSpec:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            StreamSpec(batch_size=1, batch_count=5, seed=0)
        with pytest.raises(ConfigError):
            StreamSpec(batch_size=10, batch_count=0, seed=0)
        with pytest.raises(ConfigError):
            StreamSpec(batch_size=10, batch_count=5, seed=0, source_size=3)


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
        with pytest.raises(ConfigError, match="source_size must be >= 6 for three classes"):
            gen_waveform(spec, "w21")

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
        trace = run_stream(bundle.source, bundle.stream, variant_config("pca", sub_dim=3))
        assert trace.per_batch[-1] < trace.per_batch[0]

    def test_multiclass_layout(self):
        spec = StreamSpec(batch_size=30, batch_count=2, seed=2, source_size=120)
        bundle = gen_rotating_drift(spec, classes=4, d=8)
        assert bundle.source.n_classes == 4
        assert bundle.source.n_features == 8
