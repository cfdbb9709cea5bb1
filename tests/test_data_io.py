import dataclasses
import warnings

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
        with pytest.raises(ValueError, match=r"strictly increasing \(sample 2\)"):
            Trace([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_trace_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            Trace([0.0, 1.0], [1.0, np.nan])

    def test_trace_mask_interval(self):
        trace = Trace([0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        masked = trace.with_masked_interval(1.0, 2.0)  # both ends inclusive
        np.testing.assert_array_equal(masked.time_s, [0.0, 3.0])
        np.testing.assert_array_equal(masked.value, [1.0, 4.0])
        assert len(trace) == 4  # the original is untouched

    def test_sweep_keeps_given_order(self):
        sweep = SweepData([0.0, 2.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(sweep.abscissa, [0.0, 2.0, 1.0, 1.0])
        np.testing.assert_array_equal(sweep.value, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(sweep.sigma, [0.1, 0.2, 0.3, 0.4])

    def test_empty_and_single_sample_containers(self):
        for n in (0, 1):
            assert len(Trace(np.arange(n, dtype=float), np.ones(n))) == n
            assert len(SweepData(np.arange(n, dtype=float), np.ones(n))) == n

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
        trace = Trace(time, value)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, comments=["unit test"])
        assert path.read_text(encoding="utf-8").splitlines()[1] == "time_s,transmission"
        back = read_trace_csv(path)
        np.testing.assert_array_equal(back.time_s, trace.time_s)
        np.testing.assert_array_equal(back.value, trace.value)

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
            "# a comment\ntime_s,transmission\n# another\n0.0,1.0\n1.0,2.0\n",
            encoding="utf-8",
        )
        trace = read_trace_csv(path)
        assert len(trace) == 2

    def test_shuffled_sweep_keeps_file_order(self, tmp_path, caplog):
        path = tmp_path / "s.csv"
        path.write_text(
            "pump_power_mW,value\n2.0,0.3\n0.0,0.1\n1.0,0.2\n", encoding="utf-8"
        )
        with caplog.at_level("DEBUG"):
            sweep = read_sweep_csv(path)
        np.testing.assert_array_equal(sweep.abscissa, [2.0, 0.0, 1.0])
        np.testing.assert_array_equal(sweep.value, [0.3, 0.1, 0.2])
        assert caplog.records == []

    def test_nonmonotone_time_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,transmission\n0.0,1.0\n2.0,1.0\n1.0,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"strictly increasing \(sample 2\)"):
            read_trace_csv(path)

    def test_nan_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,transmission\n0.0,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="non-finite"):
            read_trace_csv(path)

    def test_column_count_mismatch_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,transmission\n0.0,1.0\n1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 3"):
            read_trace_csv(path)

    @pytest.mark.parametrize("column", ["foo", "masked"])
    def test_unknown_column_rejected(self, tmp_path, column):
        """A trace has exactly two columns: a ``masked`` column is refused too."""
        path = tmp_path / "t.csv"
        path.write_text(f"time_s,transmission,{column}\n0.0,1.0,0.0\n", encoding="utf-8")
        assert read_outcome(read_trace_csv, path) == f"{path}: unexpected column {column!r}"

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s\n0.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing required column"):
            read_trace_csv(path)

    def test_unparsable_cell_names_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time_s,transmission\n0.0,abc\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row 2.*abc"):
            read_trace_csv(path)


READERS = [read_trace_csv, read_sweep_csv]

# Arbitrary bytes, and text behind each reader's header so rows get parsed.
CSV_BYTES = st.one_of(
    st.binary(max_size=200),
    st.tuples(
        st.sampled_from(["", "time_s,transmission\n", "pump_power_mW,value,sigma\n"]),
        st.text(alphabet=st.sampled_from("0123456789.,-+eE#\"\r\n nainf\x00\xe9"),
                max_size=200),
    ).map(lambda parts: "".join(parts).encode("utf-8")),
)


class TestMalformedFiles:
    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize(
        "content",
        [b"time_s,transmission\n0,\xff\n", b"time_s,transmission\n0," + b"1" * 200_000 + b"\n"],
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


def read_outcome(reader, path):
    """What a reader returns, or the message of the ValueError it raises."""
    try:
        return reader(path)
    except ValueError as exc:
        return str(exc)


def assert_bit_exact(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def comment_lines(rng, lines):
    """``lines`` with blank and comment lines inserted at seeded places."""
    out = list(lines)
    for _ in range(rng.integers(0, 4)):
        extra = rng.choice(["", "# note", "  #, indented", "#"])
        out.insert(int(rng.integers(0, len(out) + 1)), str(extra))
    return out


class TestOneReader:
    """What the readers accept, with which values, and how they word a refusal."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40))
    def test_seeded_traces(self, tmp_path_factory, seed, rows):
        rng = np.random.default_rng(seed)
        time = np.cumsum(rng.uniform(0.01, 1.0, rows))
        value = rng.standard_normal(rows) * 10.0 ** rng.integers(-20, 20)
        path = tmp_path_factory.mktemp("trace") / "trace.csv"
        write_trace_csv(path, Trace(time, value), comments=["seeded", "trace"])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(comment_lines(rng, lines)) + "\n", encoding="utf-8")
        back = read_trace_csv(path)
        assert_bit_exact(back.time_s, time)
        assert_bit_exact(back.value, value)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 20))
    def test_seeded_sweeps(self, tmp_path_factory, seed, rows):
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 10.0, rows)  # unsorted: read in the file's order
        v = rng.uniform(0.0, 1.0, rows)
        s = rng.uniform(1e-3, 1e-1, rows)
        path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
        lines = ["pump_power_mW,value,sigma"] + [
            f"{a!r},{b!r},{c!r}" for a, b, c in zip(x.tolist(), v.tolist(), s.tolist())
        ]
        path.write_text("\n".join(comment_lines(rng, lines)), encoding="utf-8")
        back = read_sweep_csv(path)
        assert_bit_exact(back.abscissa, x)
        assert_bit_exact(back.value, v)
        assert_bit_exact(back.sigma, s)

    @pytest.mark.parametrize(
        "reader, content",
        [
            (read_trace_csv, "# note\n\ntime_s,transmission\n\n# end\n"),
            (read_sweep_csv, "pump_power_mW,value,sigma\n"),
        ],
        ids=["trace", "sweep"],
    )
    def test_header_only_file_is_empty_without_warning(
        self, tmp_path, caplog, reader, content
    ):
        path = tmp_path / "empty.csv"
        path.write_text(content, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with caplog.at_level("DEBUG"):
                container = reader(path)
        assert caught == [] and caplog.records == []
        assert len(container) == 0
        for field in dataclasses.fields(container):
            assert getattr(container, field.name).shape == (0,), field.name

    @pytest.mark.parametrize("value", ["0.1", "inf"])
    def test_unsorted_sweep_read_without_warning(self, tmp_path, caplog, value):
        path = tmp_path / "s.csv"
        path.write_text(f"pump_power_mW,value\n2.0,0.3\n0.0,{value}\n", encoding="utf-8")
        with caplog.at_level("DEBUG"):
            outcome = read_outcome(read_sweep_csv, path)
        assert caplog.records == []
        if value == "inf":
            assert outcome == f"{path}: non-finite value in value at index 1"
        else:
            assert_bit_exact(outcome.abscissa, np.array([2.0, 0.0]))
            assert_bit_exact(outcome.value, np.array([0.3, 0.1]))

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"time_s,transmission\n0.0,1.0#x\n", "row 2: cannot parse '1.0#x' as a number"),
            (b'time_s,transmission\n0.0,"1.0"\n1.0,2.0\n', ([0.0, 1.0], [1.0, 2.0])),
            (b'"time_s", "transmission"\n"0.0","1.0"\n', ([0.0], [1.0])),
            (b"time_s,transmission\r\n0.0,1.0\r\n1.0,2.0\r\n", ([0.0, 1.0], [1.0, 2.0])),
            (b"time_s,transmission\r0.0,1.0\r1.0,2.0\r", ([0.0, 1.0], [1.0, 2.0])),
            (b"time_s,transmission\n0," + b"1" * 200_000 + b"\n",
             "non-finite value in value at index 0"),
            (b"time_s,transmission\n0,0." + b"0" * 200_000 + b"1\n", ([0.0], [0.0])),
            (b"# " + b"x" * 200_000 + b"\ntime_s,transmission\n0,1\n", ([0.0], [1.0])),
            (b"time_s,transmission\n0.0,1.0\x1c\n", ([0.0], [1.0])),
            (b"time_s,transmission\n0.0,1_0\n", "row 2: cannot parse '1_0' as a number"),
            (b"time_s,transmission\n0.0,1.0\n   \n", "row 3: expected 2 columns, got 1"),
            (b"time_s,transmission,transmission\n0.0,1.0,2.0\n", "repeated column 'transmission'"),
            (b"time_s,transmission\n0.0,1.0\n0.0,2.0\n",
             "time must be strictly increasing (sample 1)"),
            (b"# c\ntime_s,transmission\n0.0,1.0\n2.0,abc\n",
             "row 4: cannot parse 'abc' as a number"),
            (b"# c\ntime_s,transmission\n0.0,1.0\n2.0,1.0\n1.0,1.0\n",
             "time must be strictly increasing (sample 2)"),
            (b'time_s,transmission\n0,"1.0\n', "row 2: unclosed quote"),
            (b'time_s,transmission\n0,1.0\n1,"2.0\n', "row 3: unclosed quote"),
            (b'time_s,transmission\n0,"1.0\n1,2.0\n2,3.0\n', "row 2: unclosed quote"),
            (b'# c\n"time_s,transmission\n0,1.0\n', "row 2: unclosed quote"),
            (b'# say "hi\ntime_s,transmission\n0,1.0\n', ([0.0], [1.0])),
        ],
        ids=[
            "inline-hash", "quoted-cell", "quoted-header", "crlf", "cr-only", "oversized-field",
            "oversized-finite-field", "oversized-comment", "separator-control",
            "underscore-digits", "blank-cell-row", "repeated-column", "repeated-time",
            "row-is-file-line", "sample-is-index", "unclosed-only-row", "unclosed-last-row",
            "unclosed-runs-on", "unclosed-header", "quote-in-comment",
        ],
    )
    def test_named_cases(self, tmp_path, content, expected):
        path = tmp_path / "case.csv"
        path.write_bytes(content)
        outcome = read_outcome(read_trace_csv, path)
        if isinstance(expected, str):
            assert outcome == f"{path}: {expected}"
        else:
            assert isinstance(outcome, Trace)
            assert_bit_exact(outcome.time_s, np.array(expected[0]))
            assert_bit_exact(outcome.value, np.array(expected[1]))


class TestWriteRefusesNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_no_file_written(self, tmp_path, bad):
        path = tmp_path / "columns.csv"
        with pytest.raises(FloatingPointError, match="column 'value' row 3"):
            write_columns_csv(
                path, ["x", "value"], [[0.0, 1.0, 2.0], [1.0, 2.0, bad]], ["note"]
            )
        assert not path.exists()


def per_cell_csv(header, columns, comments=()):
    """The text of the former writer, one ``%.17g`` cell at a time: the oracle."""
    lines = [f"# {comment}\n" for comment in comments] + [",".join(header) + "\n"]
    columns = [np.asarray(column, dtype=float) for column in columns]
    for row in zip(*columns):
        lines.append(",".join("%.17g" % cell for cell in row) + "\n")
    return "".join(lines)


class TestWriteMatchesPerCellFormat:
    """The row-template writer gives the per-cell writer's text, byte for byte."""

    @pytest.mark.parametrize(
        "columns",
        [
            [[-0.0, 0.0, 5e-324, -5e-324], [1e308, -1e308, 2.2250738585072014e-308, 1.0]],
            [[0.0, 1.0, 2.0, 1e16, 2.0**53 + 2.0], [-3.0, 7.0, 1e22, 123456789.0, -1.0]],
            [[0.1, 1.0 / 3.0, 2.0 / 3.0], [np.pi, np.e, -np.sqrt(2.0)], [0.0, 1.0, 0.0]],
            [[], []],
        ],
        ids=["zeros-and-extremes", "integer-valued", "three-columns", "empty"],
    )
    def test_named_cases(self, tmp_path, columns):
        header = ["a", "b", "c"][: len(columns)]
        path = tmp_path / "columns.csv"
        write_columns_csv(path, header, columns, ["note"])
        assert path.read_text(encoding="utf-8") == per_cell_csv(header, columns, ["note"])

    def test_masked_trace(self, tmp_path, rng):
        time = np.linspace(0.0, 60.0, 2401)
        value = rng.uniform(0.0, 1.0, 2401)
        trace = Trace(time, value).with_masked_interval(20.0, 23.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        keep = (time < 20.0) | (time > 23.0)
        expected = per_cell_csv(["time_s", "transmission"], [time[keep], value[keep]])
        assert path.read_text(encoding="utf-8") == expected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        ),
        max_size=30,
    ))
    def test_random_rows(self, tmp_path_factory, rows):
        columns = [[a for a, _ in rows], [b for _, b in rows]]
        path = tmp_path_factory.mktemp("csv") / "columns.csv"
        write_columns_csv(path, ["x", "y"], columns)
        assert path.read_text(encoding="utf-8") == per_cell_csv(["x", "y"], columns)
