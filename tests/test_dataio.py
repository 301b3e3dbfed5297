import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrf.dataio import (
    DataError,
    Dataset,
    ParseError,
    apply_standardize,
    load_csv,
    load_results,
    make_susy_fixture,
    save_results,
    split,
    standardize,
)


@pytest.fixture
def tiny_csv(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1,0.5,0.5\n0,1,0\n1,0,1\n")
    return path


class TestLoadCSV:
    def test_hand_written_fixture(self, tiny_csv):
        ds = load_csv(tiny_csv, label_column=0, feature_columns=[1, 2])
        assert ds.n == 3
        assert ds.inputs.shape == (3, 2)
        np.testing.assert_array_equal(ds.outputs.reshape(-1), [1.0, 0.0, 1.0])

    def test_row_limit(self, tiny_csv):
        ds = load_csv(tiny_csv, label_column=0, feature_columns=[1, 2], row_limit=2)
        assert ds.n == 2
        np.testing.assert_array_equal(ds.inputs[1], [1.0, 0.0])

    def test_row_limit_zero_rejected(self, tiny_csv):
        with pytest.raises(DataError):
            load_csv(tiny_csv, row_limit=0)

    def test_nan_cell_names_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n4,NaN,6\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path, label_column=0, feature_columns=[1, 2])

    def test_missing_file(self, tmp_path):
        with pytest.raises(IOError):
            load_csv(tmp_path / "absent.csv")

    def test_default_first_14_features(self, tmp_path):
        path = tmp_path / "wide.csv"
        rows = [",".join(str(v) for v in [i] + list(range(18))) for i in range(3)]
        path.write_text("\n".join(rows) + "\n")
        ds = load_csv(path, label_column=0)
        assert ds.inputs.shape == (3, 14)
        np.testing.assert_array_equal(ds.inputs, np.tile(np.arange(14.0), (3, 1)))


class TestStandardize:
    def test_two_point_column(self):
        ds = Dataset(np.array([[0.0], [2.0]]), np.zeros((2, 1)))
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.inputs.reshape(-1), [-1.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(2.0, 3.0, size=(50, 4)), rng.normal(size=(50, 1)))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(once.inputs, twice.inputs, atol=1e-12)

    def test_moments_after_standardizing(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.normal(-1.0, 5.0, size=(200, 3)), rng.normal(size=(200, 1)))
        out, _ = standardize(ds)
        np.testing.assert_allclose(out.inputs.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.inputs.var(axis=0), 1.0, atol=1e-10)

    def test_zero_variance_column_unscaled(self):
        ds = Dataset(np.array([[1.0, 5.0], [2.0, 5.0]]), np.zeros((2, 1)))
        out, params = standardize(ds)
        assert params.scale[1] == 1.0
        np.testing.assert_array_equal(out.inputs[:, 1], [0.0, 0.0])  # centered only

    def test_train_params_applied_to_test(self):
        train = Dataset(np.full((4, 1), 2.0) + np.arange(4)[:, None],
                        np.zeros((4, 1)))
        test = Dataset(np.full((3, 1), 100.0), np.zeros((3, 1)))
        _, params = standardize(train)
        out = apply_standardize(test, params)
        expected = (100.0 - train.inputs.mean()) / train.inputs.std()
        np.testing.assert_allclose(out.inputs.reshape(-1), expected)


class TestSplit:
    def test_disjoint_cover(self):
        ds = Dataset(np.arange(10.0)[:, None], np.zeros((10, 1)))
        tr, te = split(ds, 7, 3, seed=0)
        seen = sorted(tr.inputs.reshape(-1).tolist() + te.inputs.reshape(-1).tolist())
        assert seen == list(np.arange(10.0))

    def test_seed_reproducibility(self):
        ds = Dataset(np.arange(20.0)[:, None], np.zeros((20, 1)))
        a1, _ = split(ds, 10, 10, seed=5)
        a2, _ = split(ds, 10, 10, seed=5)
        b, _ = split(ds, 10, 10, seed=6)
        np.testing.assert_array_equal(a1.inputs, a2.inputs)
        assert not np.array_equal(a1.inputs, b.inputs)

    def test_oversubscription_rejected(self):
        ds = Dataset(np.zeros((5, 1)), np.zeros((5, 1)))
        with pytest.raises(DataError):
            split(ds, 4, 2, seed=0)

    def test_paper_configuration_accepted(self):
        ds = Dataset(np.zeros((10_000, 1)), np.zeros((10_000, 1)))
        tr, te = split(ds, 5000, 5000, seed=1)
        assert tr.n == te.n == 5000

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 100))
    def test_partition_property(self, n, seed):
        n_train = n // 2
        n_test = n - n_train
        ds = Dataset(np.arange(float(n))[:, None], np.zeros((n, 1)))
        tr, te = split(ds, n_train, n_test, seed=seed)
        assert tr.n == n_train and te.n == n_test
        assert not set(tr.inputs.reshape(-1)) & set(te.inputs.reshape(-1))


class TestSaveResults:
    def test_round_trip_identity(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [{"a": 1.0 / 3.0, "b": 2}, {"a": np.pi * 1e-7, "b": -5}]
        save_results(rows, path)
        header, body = load_results(path)
        assert header == ["a", "b"]
        assert body[0, 0] == 1.0 / 3.0
        assert body[1, 0] == np.pi * 1e-7

    def test_header_preserved_verbatim(self, tmp_path):
        path = tmp_path / "t.csv"
        save_results([{"Mean Error": 1.0, "std_dev": 2.0}], path)
        assert path.read_text().splitlines()[0] == "Mean Error,std_dev"

    @settings(max_examples=30, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_seventeen_digits_reparse_bit_identically(self, x):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.csv"
            save_results([{"x": x}], path)
            _, body = load_results(path)
            assert body[0, 0] == x

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        save_results([{"v": 1.0}, {"v": 2.0}], path)
        raw = path.read_bytes()
        assert b"\r" not in raw

    @pytest.mark.parametrize("rows", [[], [{"a": 1.0}, {"b": 2.0}],
                                      [{"a": 1.0}, {"a": 2.0, "b": 3.0}],
                                      [{"a": 1.0, "b": 2.0}, {"a": 3.0}]])
    def test_rows_must_share_the_first_rows_keys(self, tmp_path, rows):
        with pytest.raises(DataError):
            save_results(rows, tmp_path / "t.csv")


class TestFixture:
    def test_susy_fixture_loads(self, tmp_path):
        path = tmp_path / "susy.csv"
        make_susy_fixture(path, n=50, seed=1)
        ds = load_csv(path, label_column=0)
        assert ds.n == 50
        assert ds.inputs.shape == (50, 14)
        assert set(np.unique(ds.outputs)) <= {0.0, 1.0}
