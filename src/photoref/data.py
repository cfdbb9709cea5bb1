"""Measurement containers and their CSV representation.

Two container kinds are used throughout: time traces (transmission versus
time, holding only the samples a fit uses) and power sweeps (a quantity
versus pump power in the order given, optionally with per-point standard
deviations).  A trace file has exactly the columns ``time_s,transmission``;
samples spoilt by mode hopping are excluded by the fit's mask intervals
(``run.fit_fpi.mask_intervals_s``), never by the file.
CSV files are UTF-8, comma-separated, one header row with ``name_unit``
column names, blank and ``#``-prefixed comment lines ignored, floats
rendered with 17 significant digits so containers round-trip bit-exactly.
The readers accept any line ending, ``"``-quoted cells and what
``numpy.loadtxt`` parses as a float; they refuse a missing, unknown or
repeated column name and a quote still open at the end of its line.
Every refusal is a ValueError that starts with the file path; a line at
fault is named by its line number in the file (``row n: expected k
columns, got m``, ``row n: cannot parse 'x' as a number``, ``row n:
unclosed quote``), a value the container refuses by its sample index.
"""

from __future__ import annotations

from dataclasses import dataclass
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

_FLOAT_FMT = "%.17g"

TRACE_TIME_COLUMN = "time_s"
TRACE_VALUE_COLUMN = "transmission"  # T/T_max, the fraction of the fringe maximum
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
    """Time series with strictly increasing time; every sample is fitted."""

    time_s: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        t = _as_float_array(self.time_s, "time_s")
        v = _as_float_array(self.value, "value")
        if len(t) != len(v):
            raise ValueError("time and value columns must have equal length")
        if not (t[1:] > t[:-1]).all():
            bad = int(np.flatnonzero(np.diff(t) <= 0)[0]) + 1
            raise ValueError(f"time must be strictly increasing (sample {bad})")
        object.__setattr__(self, "time_s", t)
        object.__setattr__(self, "value", v)

    def __len__(self) -> int:
        return len(self.time_s)

    def with_masked_interval(self, start_s: float, end_s: float) -> "Trace":
        """Copy of the trace without its samples in [start_s, end_s]."""
        keep = ~((self.time_s >= start_s) & (self.time_s <= end_s))
        return Trace(self.time_s[keep], self.value[keep])


@dataclass(frozen=True)
class SweepData:
    """Quantity versus pump power, in the order given."""

    abscissa: np.ndarray
    value: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        x = _as_float_array(self.abscissa, "abscissa")
        v = _as_float_array(self.value, "value")
        if len(x) != len(v):
            raise ValueError("abscissa and value columns must have equal length")
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


def _loadtxt(lines, **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', **kwargs)


def _line_refusal(lines: list[str], start: int, width: int) -> str | None:
    """Why the first body line from ``lines[start]`` is not ``width`` numbers.

    Lines are numbered from 1 in the file; blank and ``#`` lines are skipped.
    """
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line or line.lstrip().startswith("#"):
            continue
        cells = _loadtxt([line], dtype=object, ndmin=1)
        if len(cells) != width:
            return f"row {lineno}: expected {width} columns, got {len(cells)}"
        for j, cell in enumerate(cells.tolist()):
            try:
                _loadtxt([line], usecols=j)
            except ValueError:
                return f"row {lineno}: cannot parse {cell!r} as a number"
    return None


def _read_columns(path, required: list[str], optional: list[str], build):
    """``build(columns)`` on a CSV file's columns.

    The text is read once and its body parsed in one numpy call; the lines
    are numbered only when numpy refuses the body, to name the one at fault.
    Every refusal is a ValueError that starts with the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    lines = text.split("\n")
    first = next(
        (i for i, line in enumerate(lines) if line and not line.lstrip().startswith("#")),
        None,
    )
    if first is None:
        raise ValueError(f"{path}: no header row found")
    if '"' in text:  # numpy would run an unclosed quote on into the next line
        for lineno, line in enumerate(lines[first:], start=first + 1):
            if line.count('"') % 2 and not line.lstrip().startswith("#"):
                raise ValueError(f"{path}: row {lineno}: unclosed quote")
    header = [name.strip().strip('"') for name in lines[first].split(",")]
    for name in required:
        if name not in header:
            raise ValueError(f"{path}: missing required column {name!r}")
    for i, name in enumerate(header):
        if name not in required + optional:
            raise ValueError(f"{path}: unexpected column {name!r}")
        if name in header[:i]:
            raise ValueError(f"{path}: repeated column {name!r}")
    body = lines[first + 1:]
    if "#" in text:
        body = [line for line in body if not line.lstrip().startswith("#")]
    table = np.empty((0, len(header)))
    if any(body):  # loadtxt warns on a body without data
        try:
            table = _loadtxt(body, ndmin=2)
            if table.shape[1] != len(header):
                raise ValueError(f"expected {len(header)} columns")
        except ValueError as exc:
            refusal = _line_refusal(lines, first + 1, len(header)) or exc
            raise ValueError(f"{path}: {refusal}") from None
    try:
        return build(dict(zip(header, np.ascontiguousarray(table.T))))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _trace_from_columns(cols: dict[str, np.ndarray]) -> Trace:
    return Trace(cols[TRACE_TIME_COLUMN], cols[TRACE_VALUE_COLUMN])


def _sweep_from_columns(cols: dict[str, np.ndarray]) -> SweepData:
    return SweepData(
        cols[SWEEP_POWER_COLUMN], cols[SWEEP_VALUE_COLUMN], cols.get(SWEEP_SIGMA_COLUMN)
    )


def read_trace_csv(path) -> Trace:
    """Load a trace; every row is kept and checked."""
    return _read_columns(path, [TRACE_TIME_COLUMN, TRACE_VALUE_COLUMN], [], _trace_from_columns)


def read_sweep_csv(path) -> SweepData:
    """Load a sweep; its rows keep the file's order."""
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
    write_columns_csv(
        path, [TRACE_TIME_COLUMN, TRACE_VALUE_COLUMN], [trace.time_s, trace.value], comments
    )


def write_sweep_csv(path, sweep: SweepData, comments=()) -> None:
    header = [SWEEP_POWER_COLUMN, SWEEP_VALUE_COLUMN]
    columns = [sweep.abscissa, sweep.value]
    if sweep.sigma is not None:
        header.append(SWEEP_SIGMA_COLUMN)
        columns.append(sweep.sigma)
    write_columns_csv(path, header, columns, comments)
