import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photoref.data import (
    SweepData,
    Trace,
    read_sweep_csv,
    read_trace_csv,
    write_columns_csv,
    write_sweep_csv,
    write_trace_csv,
)


class TestContainers:
    def test_trace_requires_increasing_time(self):
        with pytest.raises(ValueError, match="strictly increasing .*row 2"):
            Trace([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_trace_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trace([0.0, 1.0], [1.0, np.nan])

    def test_trace_mask_interval(self):
        trace = Trace([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        masked = trace.with_masked_interval(0.5, 2.5)
        np.testing.assert_array_equal(masked.mask, [False, True, True, False])
        t, v = masked.unmasked()
        np.testing.assert_array_equal(t, [0.0, 3.0])

    def test_sweep_requires_sorted_abscissa(self):
        with pytest.raises(ValueError, match="sorted ascending"):
            SweepData([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])

    def test_sweep_sigma_length_checked(self):
        with pytest.raises(ValueError, match="sigma length"):
            SweepData([0.0, 1.0], [1.0, 2.0], sigma=[0.1])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Trace([0.0, 1.0], [1.0])


class TestCsvRoundTrip:
    def test_trace_bit_exact(self, tmp_path, rng):
        time = np.cumsum(rng.uniform(0.01, 1.0, 57))
        value = rng.standard_normal(57) * (1.0 / 3.0)
        mask = rng.uniform(size=57) < 0.2
        trace = Trace(time, value, mask)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, comments=["unit test"])
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back.time_s, trace.time_s)
        np.testing.assert_array_equal(back.value, trace.value)
        np.testing.assert_array_equal(back.mask, trace.mask)

    def test_sweep_bit_exact(self, tmp_path, rng):
        x = np.sort(rng.uniform(0.0, 10.0, 33))
        v = rng.standard_normal(33) / 7.0
        s = rng.uniform(0.001, 0.1, 33)
        sweep = SweepData(x, v, s)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, sweep)
        back = read_sweep_csv(path)
        np.testing.assert_array_equal(back.abscissa, sweep.abscissa)
        np.testing.assert_array_equal(back.value, sweep.value)
        np.testing.assert_array_equal(back.sigma, sweep.sigma)

    def test_rewrite_is_byte_identical(self, tmp_path, rng):
        x = np.sort(rng.uniform(0.0, 10.0, 21))
        sweep = SweepData(x, np.sqrt(x + 0.1))
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_sweep_csv(first, sweep)
        write_sweep_csv(second, read_sweep_csv(first))
        assert first.read_bytes() == second.read_bytes()


class TestCsvParsing:
    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# a comment\ntime_s,value\n# another\n0.0,1.0\n1.0,2.0\n",
            encoding="utf-8",
        )
        trace = read_trace_csv(path)
        assert len(trace) == 2

    def test_shuffled_sweep_sorted_with_warning(self, tmp_path, caplog):
        path = tmp_path / "s.csv"
        path.write_text(
            "pump_power_mW,value\n2.0,0.3\n0.0,0.1\n1.0,0.2\n", encoding="utf-8"
        )
        with caplog.at_level("WARNING"):
            sweep = read_sweep_csv(path)
        np.testing.assert_array_equal(sweep.abscissa, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(sweep.value, [0.1, 0.2, 0.3])
        assert any("re-ordered" in rec.message for rec in caplog.records)

    def test_nonmonotone_time_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,value\n0.0,1.0\n2.0,1.0\n1.0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2"):
            read_trace_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,value\n0.0,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            read_trace_csv(path)

    def test_column_count_mismatch_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,value\n0.0,1.0\n1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3"):
            read_trace_csv(path)

    def test_unknown_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,value,foo\n0.0,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="unexpected column"):
            read_trace_csv(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s\n0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required column"):
            read_trace_csv(path)

    def test_unparsable_cell_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,value\n0.0,abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2.*abc"):
            read_trace_csv(path)

    def test_masked_interval_column(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = ["time_s,value,masked"]
        for t in range(120):
            masked = 1.0 if 25.0 <= t <= 85.0 else 0.0
            rows.append(f"{float(t)},1.0,{masked}")
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        trace = read_trace_csv(path)
        kept, _ = trace.unmasked()
        assert kept.max() == 119.0
        assert not np.any((kept >= 25.0) & (kept <= 85.0))


READERS = [read_trace_csv, read_sweep_csv]

# Arbitrary bytes, and text behind each reader's header so rows get parsed.
CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.tuples(
        st.sampled_from(["", "time_s,value\n", "pump_power_mW,value,sigma\n"]),
        st.text(alphabet=st.sampled_from("0123456789.,-+eE#\"\r\n nainf\x00\xe9"),
                max_size=200),
    ).map(lambda parts: "".join(parts).encode("utf-8")),
)


class TestMalformedFiles:
    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "content",
        [b"time_s,value\n0,\xff\n", b"time_s,value\n0," + b"1" * 200_000 + b"\n"],
        ids=["invalid-utf8", "oversized-field"],
    )
    def test_unreadable_file_names_path(self, tmp_path, reader, content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{path}: "):
            reader(path)

    @pytest.mark.parametrize("reader", READERS)
    @settings(max_examples=150, deadline=None)
    @given(content=CSV_BYTES)
    def test_fuzzed_file_returns_or_names_path(self, tmp_path_factory, reader, content):
        path = tmp_path_factory.mktemp("fuzz") / "fuzz.csv"
        path.write_bytes(content)
        try:
            reader(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")


class TestWriteRefusesNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_no_file_written(self, tmp_path, bad):
        path = tmp_path / "columns.csv"
        with pytest.raises(FloatingPointError, match="column 'value' row 3"):
            write_columns_csv(
                path, ["x", "value"], [[0.0, 1.0, 2.0], [1.0, 2.0, bad]], ["note"]
            )
        assert not path.exists()
