import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrf.dataio import DataError, load_results, save_results


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

