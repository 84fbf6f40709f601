"""Benchmark CSV ingestion and the in-memory series table.

Expected layout (the public ETT/Electricity/Traffic files): UTF-8, comma
separated, one header row, first column a date/identifier, remaining
columns numeric.  Missing or non-numeric cells are load errors, never
imputed.
"""

import csv
import math
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError


@dataclass
class RawSeries:
    """A timestamped T x C table; timestamps are carried as opaque strings."""

    timestamps: list[str]
    values: np.ndarray  # (T, C) float64
    channel_names: list[str]

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def _decoded_lines(path, fh):
    """``fh``'s lines, with a decoding failure reported as a ``DataError``."""
    try:
        yield from fh
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def load_csv(path) -> RawSeries:
    """Read a benchmark-layout CSV.

    One ``csv.reader`` pass converts each data row's cells with
    ``float()`` into a flat float64 buffer, 8 bytes a cell, which is then
    read as the (T, C) table and checked for finiteness as a whole.  Errors
    name the first offending position in row-major order: rows count from
    1 at the first data row, blank lines included, and columns from 1 at
    the date column.
    """
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(_decoded_lines(path, fh))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty") from None
        if len(header) < 2:
            raise DataError(f"{path}: expected a date column plus at least one channel")
        channel_names = [name.strip() for name in header[1:]]
        width = len(header)
        timestamps: list[str] = []
        cells = array("d")
        blank_rows: list[int] = []
        for row_no, row in enumerate(reader, start=1):
            if not row:
                blank_rows.append(row_no)
                continue
            if len(row) == width:
                try:
                    cells.extend(map(float, row[1:]))
                except ValueError:
                    pass
                else:
                    timestamps.append(row[0])
                    continue
            # a row before this one may hold the file's first error
            parsed = np.frombuffer(cells, count=len(timestamps) * (width - 1))
            _check_finite(path, parsed.reshape(-1, width - 1), blank_rows)
            _raise_row_error(path, row_no, row, width)
    if not timestamps:
        raise DataError(f"{path}: no data rows")
    values = np.frombuffer(cells).reshape(len(timestamps), width - 1)
    _check_finite(path, values, blank_rows)
    return RawSeries(timestamps, values, channel_names)


def _first_non_finite(values: np.ndarray) -> tuple[int, int] | None:
    """(row, column) index of ``values``' first non-finite cell in row-major order."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    return divmod(int(np.argmin(finite)), values.shape[1])


def _non_finite_error(path, row_no: int, col_idx: int) -> DataError:
    return DataError(f"{path}: missing/non-finite cell at row {row_no}, col {col_idx}")


def _check_finite(path, values: np.ndarray, blank_rows: list[int]) -> None:
    """Reject the table's first non-finite cell, numbered as in the file."""
    bad = _first_non_finite(values)
    if bad is not None:
        row_no = bad[0] + 1
        for blank in blank_rows:  # ascending, so each one passed shifts the row
            if blank > row_no:
                break
            row_no += 1
        raise _non_finite_error(path, row_no, bad[1] + 2)


def _raise_row_error(path, row_no: int, row: list[str], width: int) -> None:
    """Raise the error of a row that is ragged or has a cell ``float()`` rejects."""
    if len(row) != width:
        raise DataError(f"{path}: ragged row {row_no}: expected {width} columns, got {len(row)}")
    for col_idx, cell in enumerate(row[1:], start=2):
        try:
            value = float(cell)
        except ValueError:
            raise DataError(
                f"{path}: non-numeric cell at row {row_no}, col {col_idx}: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise _non_finite_error(path, row_no, col_idx)


def save_csv(series: RawSeries, path) -> None:
    """Write a RawSeries back out in the benchmark layout.

    Values are written with shortest round-trip precision, so
    load_csv(save_csv(s)) recovers the numeric content exactly.  A
    timestamp or channel-name count that differs from the table's rows or
    columns, and a non-finite value, which load_csv would reject, are
    refused before any file is written.  The bytes are those
    ``csv.writer`` writes, but each row is one join: the date cell, quoted
    as the writer quotes it, and the ``repr`` of each value, which never
    needs quoting.  Rows are converted and written one at a time, so no
    Python copy of the table is built.
    """
    path = Path(path)
    values = np.asarray(series.values, np.float64)
    rows, columns = values.shape
    if len(series.timestamps) != rows:
        raise DataError(f"cannot write {path}: {len(series.timestamps)} timestamps "
                        f"for {rows} rows")
    if len(series.channel_names) != columns:
        raise DataError(f"cannot write {path}: {len(series.channel_names)} channel names "
                        f"for {columns} columns")
    bad = _first_non_finite(values)
    if bad is not None:
        raise DataError(f"cannot write {path}: non-finite value at row {bad[0] + 1}, "
                        f"col {bad[1] + 2}")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerow(["date", *series.channel_names])
            for ts, row in zip(series.timestamps, values):
                fh.write(",".join([_csv_cell(ts), *map(repr, row.tolist())]) + "\r\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer``'s default dialect writes it beside other cells."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text
