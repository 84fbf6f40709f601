"""Benchmark CSV ingestion and the in-memory series table.

Expected layout (the public ETT/Electricity/Traffic files): UTF-8, comma
separated, one header row, first column a date/identifier, remaining
columns numeric.  Missing or non-numeric cells are load errors, never
imputed.
"""

import csv
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

    Errors name the offending position: rows count from 1 at the first
    data row, columns from 1 at the date column.
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
        timestamps: list[str] = []
        rows: list[list[float]] = []
        width = len(header)
        for row_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) != width:
                raise DataError(
                    f"{path}: ragged row {row_no}: expected {width} columns, got {len(row)}"
                )
            timestamps.append(row[0])
            parsed = []
            for col_idx, cell in enumerate(row[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: non-numeric cell at row {row_no}, col {col_idx}: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DataError(
                        f"{path}: missing/non-finite cell at row {row_no}, col {col_idx}"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return RawSeries(timestamps, np.asarray(rows, dtype=np.float64), channel_names)


def save_csv(series: RawSeries, path) -> None:
    """Write a RawSeries back out in the benchmark layout.

    Values are written with shortest round-trip precision, so
    load_csv(save_csv(s)) recovers the numeric content exactly.
    """
    path = Path(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", *series.channel_names])
            for ts, row in zip(series.timestamps, series.values):
                writer.writerow([ts, *(repr(float(v)) for v in row)])
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
