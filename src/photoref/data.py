"""Measurement containers and their CSV representation.

Two container kinds are used throughout: time traces (transmission versus
time, optionally with masked intervals to exclude from fitting) and power
sweeps (a quantity versus pump power, optionally with per-point standard
deviations).  CSV files are UTF-8, comma-separated, one header row with
``name_unit`` column names, ``#``-prefixed comment lines ignored, floats
rendered with 17 significant digits so containers round-trip bit-exactly.
The readers parse a valid body in one numpy call and leave everything else
to a row parser built on the csv module, which words every refusal.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

__all__ = [
    "Trace",
    "SweepData",
    "read_trace_csv",
    "read_sweep_csv",
    "write_trace_csv",
    "write_sweep_csv",
    "write_columns_csv",
]

log = logging.getLogger(__name__)

_FLOAT_FMT = "%.17g"

TRACE_TIME_COLUMN = "time_s"
TRACE_VALUE_COLUMN = "value"
TRACE_MASK_COLUMN = "masked"
SWEEP_POWER_COLUMN = "pump_power_mW"
SWEEP_VALUE_COLUMN = "value"
SWEEP_SIGMA_COLUMN = "sigma"


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        bad = int(np.flatnonzero(~np.isfinite(arr))[0])
        raise ValueError(f"non-finite value in {name} at index {bad}")
    return arr


@dataclass(frozen=True)
class Trace:
    """Time series with strictly increasing time and an optional sample mask.

    ``mask`` marks samples to exclude from fitting (True = excluded), e.g.
    intervals contaminated by pump mode hopping.
    """

    time_s: np.ndarray
    value: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        t = _as_float_array(self.time_s, "time_s")
        v = _as_float_array(self.value, "value")
        if len(t) != len(v):
            raise ValueError("time and value columns must have equal length")
        if not (t[1:] > t[:-1]).all():
            bad = int(np.flatnonzero(np.diff(t) <= 0)[0]) + 1
            raise ValueError(f"time must be strictly increasing (row {bad})")
        m = self.mask
        if m is None:
            m = np.zeros(len(t), dtype=bool)
        else:
            m = np.asarray(m, dtype=bool)
            if len(m) != len(t):
                raise ValueError("mask length must match the time column")
        object.__setattr__(self, "time_s", t)
        object.__setattr__(self, "value", v)
        object.__setattr__(self, "mask", m)

    def __len__(self) -> int:
        return len(self.time_s)

    def with_masked_interval(self, start_s: float, end_s: float) -> "Trace":
        """Copy of the trace with samples in [start_s, end_s] masked."""
        extra = (self.time_s >= start_s) & (self.time_s <= end_s)
        return Trace(self.time_s, self.value, self.mask | extra)

    def unmasked(self) -> tuple[np.ndarray, np.ndarray]:
        keep = ~self.mask
        return self.time_s[keep], self.value[keep]


@dataclass(frozen=True)
class SweepData:
    """Quantity versus pump power, sorted ascending."""

    abscissa: np.ndarray
    value: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        x = _as_float_array(self.abscissa, "abscissa")
        v = _as_float_array(self.value, "value")
        if len(x) != len(v):
            raise ValueError("abscissa and value columns must have equal length")
        if not (x[1:] >= x[:-1]).all():
            bad = int(np.flatnonzero(np.diff(x) < 0)[0]) + 1
            raise ValueError(f"abscissa must be sorted ascending (row {bad})")
        s = self.sigma
        if s is not None:
            s = _as_float_array(s, "sigma")
            if len(s) != len(x):
                raise ValueError("sigma length must match the abscissa")
            object.__setattr__(self, "sigma", s)
        object.__setattr__(self, "abscissa", x)
        object.__setattr__(self, "value", v)

    def __len__(self) -> int:
        return len(self.abscissa)


def _read_rows(path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Header and (line_number, cells) rows of a CSV file, comments stripped."""
    header: list[str] | None = None
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if not row or (row[0].lstrip().startswith("#")):
                    continue
                if header is None:
                    header = [cell.strip() for cell in row]
                    continue
                rows.append((lineno, row))
        except (csv.Error, UnicodeDecodeError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if header is None:
        raise ValueError(f"{path}: no header row found")
    return header, rows


def _parse_columns(
    path, header: list[str], rows, required: list[str], optional: list[str]
) -> dict[str, np.ndarray]:
    known = required + optional
    for name in required:
        if name not in header:
            raise ValueError(f"{path}: missing required column {name!r}")
    for name in header:
        if name not in known:
            raise ValueError(f"{path}: unexpected column {name!r}")
    columns: dict[str, list[float]] = {name: [] for name in header}
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"{path}: row {lineno}: expected {len(header)} columns, got {len(row)}"
            )
        for name, cell in zip(header, row):
            try:
                columns[name].append(float(cell))
            except ValueError:
                raise ValueError(
                    f"{path}: row {lineno}: cannot parse {cell!r} as a number"
                ) from None
    return {name: np.asarray(vals, dtype=float) for name, vals in columns.items()}


# The characters the fast path reads: printable ASCII but the quote, tab and
# newline.  Text with any other goes to the row parser: the csv module also
# ends lines at "\r", and numpy strips \x1c-\x1f around a number where
# float() refuses it.
_FAST_PATH_CHARS = bytes([0x09, 0x0A, 0x20, 0x21, *range(0x23, 0x7F)])


def _parse_fast(path, required: list[str], optional: list[str]) -> dict | None:
    """Columns of a plain, valid CSV file in one numpy parse, or None.

    Accepts only what the row parser accepts, with the same values: no
    quotes or control characters, a known header without repeats, no line
    over the csv module's field size limit, and a body whose every line
    parses into finite numbers, one per header column.  Blank and ``#``
    lines are dropped as the row parser drops them.  Anything else is None,
    and the row parser decides it.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        return None
    if not text.isascii() or text.encode("ascii").translate(None, _FAST_PATH_CHARS):
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()  # the csv module applies it to comments too
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    if "#" in text:
        lines = [line for line in lines if not line.lstrip().startswith("#")]
    first = next((i for i, line in enumerate(lines) if line), None)
    if first is None:
        return None
    header = [cell.strip() for cell in lines[first].split(",")]
    names = set(header)
    if len(names) != len(header) or not set(required) <= names <= set(required + optional):
        return None
    body = lines[first + 1:]
    rows = len(body) - body.count("")  # loadtxt skips the blank lines too
    if not rows:
        return {name: np.empty(0) for name in header}
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (rows, len(header)) or not np.all(np.isfinite(table)):
        return None
    return dict(zip(header, np.ascontiguousarray(table.T)))


def _read_columns(path, required: list[str], optional: list[str], build):
    """``build(path, columns)`` on a CSV file's columns.

    A valid body is parsed in one numpy call.  Whatever that path does not
    accept, or ``build`` refuses, is re-read row by row: the row parser
    defines every refusal and its row-numbered message.
    """
    columns = _parse_fast(path, required, optional)
    if columns is not None:
        try:
            return build(path, columns)
        except ValueError:
            pass
    header, rows = _read_rows(path)
    columns = _parse_columns(path, header, rows, required, optional)
    try:
        return build(path, columns)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _trace_from_columns(path, cols: dict[str, np.ndarray]) -> Trace:
    mask = cols.get(TRACE_MASK_COLUMN)
    if mask is not None:
        mask = mask != 0.0
    return Trace(cols[TRACE_TIME_COLUMN], cols[TRACE_VALUE_COLUMN], mask)


def _sweep_from_columns(path, cols: dict[str, np.ndarray]) -> SweepData:
    x = cols[SWEEP_POWER_COLUMN]
    order = np.arange(len(x))
    if len(x) and np.any(np.diff(x) < 0):
        log.warning("%s: abscissa not sorted; rows re-ordered ascending", path)
        order = np.argsort(x, kind="stable")
    sigma = cols.get(SWEEP_SIGMA_COLUMN)
    return SweepData(
        x[order],
        cols[SWEEP_VALUE_COLUMN][order],
        sigma[order] if sigma is not None else None,
    )


def read_trace_csv(path) -> Trace:
    """Load a trace; refuses non-monotonic time or non-finite values.

    Valid files are parsed in one numpy call; every refusal comes from the
    row parser and names the file (and the row where one is at fault).
    """
    return _read_columns(
        path, [TRACE_TIME_COLUMN, TRACE_VALUE_COLUMN], [TRACE_MASK_COLUMN],
        _trace_from_columns,
    )


def read_sweep_csv(path) -> SweepData:
    """Load a sweep; out-of-order rows are sorted with a warning.

    Parsed like ``read_trace_csv``: valid files in one numpy call, and
    every refusal from the row parser.
    """
    return _read_columns(
        path, [SWEEP_POWER_COLUMN, SWEEP_VALUE_COLUMN], [SWEEP_SIGMA_COLUMN],
        _sweep_from_columns,
    )


def write_columns_csv(path, header: list[str], columns: Iterable, comments=()) -> None:
    """Write aligned columns as CSV with 17-significant-digit floats.

    Raises FloatingPointError, before the file is opened, when a column holds
    a non-finite value; the message names the column and the data row (from 1).
    """
    columns = [np.asarray(column, dtype=float) for column in columns]
    for name, column in zip(header, columns):
        bad = np.flatnonzero(~np.isfinite(column))
        if len(bad):
            raise FloatingPointError(
                f"{path}: column {name!r} row {bad[0] + 1}: non-finite value "
                f"{float(column[bad[0]])}"
            )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        row = ",".join([_FLOAT_FMT] * len(columns)) + "\n"
        fh.writelines(row % cells for cells in zip(*(c.tolist() for c in columns)))


def write_trace_csv(path, trace: Trace, comments=()) -> None:
    header = [TRACE_TIME_COLUMN, TRACE_VALUE_COLUMN]
    columns = [trace.time_s, trace.value]
    if np.any(trace.mask):
        header.append(TRACE_MASK_COLUMN)
        columns.append(trace.mask.astype(float))
    write_columns_csv(path, header, columns, comments)


def write_sweep_csv(path, sweep: SweepData, comments=()) -> None:
    header = [SWEEP_POWER_COLUMN, SWEEP_VALUE_COLUMN]
    columns = [sweep.abscissa, sweep.value]
    if sweep.sigma is not None:
        header.append(SWEEP_SIGMA_COLUMN)
        columns.append(sweep.sigma)
    write_columns_csv(path, header, columns, comments)
