"""Chronological splitting and train-statistics standardization.

Validation and test segments are extended backward by the look-back
length so their first windows see a full history; labels never cross the
boundary, matching the protocol the public benchmarks inherit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError, DataError
from .series import RawSeries


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions."""

    train_frac: float
    val_frac: float
    test_frac: float

    def __post_init__(self):
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f <= 0 for f in fracs):
            raise ConfigError(f"split fractions must be positive, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {fracs}")

    @classmethod
    def ett(cls) -> "SplitSpec":
        return cls(0.6, 0.2, 0.2)

    @classmethod
    def default(cls) -> "SplitSpec":
        return cls(0.7, 0.1, 0.2)

    @classmethod
    def preset(cls, name: str) -> "SplitSpec":
        presets = {"ett": cls.ett, "default": cls.default}
        try:
            return presets[name.lower()]()
        except KeyError:
            raise ConfigError(
                f"unknown split preset {name!r}; expected one of {sorted(presets)}"
            ) from None

    def boundaries(self, total_rows: int) -> tuple[int, int]:
        b1 = math.floor(total_rows * self.train_frac)
        b2 = math.floor(total_rows * (self.train_frac + self.val_frac))
        return b1, b2


@dataclass
class Segment:
    """One contiguous slice of the timeline: rows [start, start + rows) of its series.

    ``values`` is that row slice, a view of the series (``split_series``) or
    of its one standardized copy (``standardize``).
    """

    values: np.ndarray  # (rows, C)
    name: str = ""
    standardized: bool = False
    start: int = 0

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def split_series(series: RawSeries, spec: SplitSpec, lookback: int = 0,
                 horizon: int = 0) -> tuple[Segment, Segment, Segment]:
    """Cut train/val/test segments at floor-of-cumulative-fraction indices.

    Each segment is a row slice (a view) of ``series.values`` and records
    its first row as ``start``.  ``lookback`` rows are prepended (read-only
    overlap) to val and test; when ``horizon`` is given, every segment must
    fit at least one (lookback, horizon) window.
    """
    total = series.length
    b1, b2 = spec.boundaries(total)
    if b1 - lookback < 0 or b2 - lookback < 0:
        raise ConfigError(
            f"dataset of {total} rows is too short for lookback {lookback} "
            f"with boundaries ({b1}, {b2})"
        )
    segments = (
        Segment(series.values[0:b1], "train"),
        Segment(series.values[b1 - lookback:b2], "val", start=b1 - lookback),
        Segment(series.values[b2 - lookback:total], "test", start=b2 - lookback),
    )
    minimum = lookback + horizon
    if minimum > 0:
        for seg in segments:
            if seg.rows < minimum:
                raise ConfigError(
                    f"{seg.name} segment has {seg.rows} rows, need at least "
                    f"{minimum} for lookback {lookback} + horizon {horizon}"
                )
    return segments


# A channel whose train std is at most this fraction of its largest |x| is
# constant up to round-off (float64 carries ~16 digits; a variation below 1e-9
# of the level keeps at most ~7 of them), and dividing by that std would
# scale rounding noise up to unit variance.
CONSTANT_CHANNEL_TOLERANCE = 1e-9


@dataclass(frozen=True)
class NormalizationStats:
    """Per-channel mean/std computed on the train split only."""

    mean: np.ndarray  # (C,)
    std: np.ndarray   # (C,)


def standardize(series: RawSeries, splits) -> tuple[tuple[Segment, ...], NormalizationStats]:
    """Z-score ``series`` once with the first (train) split's statistics.

    ``splits`` are segments of ``series`` as ``split_series`` cuts them;
    of each, only its name, flag, ``start`` row and row count are read.
    The series is standardized into one C-contiguous array, whatever its
    memory order, as ``(x - mean) / std`` rounds it but in place, and each
    returned segment is its rows of that array: a view, so the splits and
    their look-back overlaps hold no copy of their own.

    Rejects a segment that is already standardized or lies outside the
    series, and a channel that is constant on the train split up to
    round-off: std <= ``CONSTANT_CHANNEL_TOLERANCE`` * max|x|, which
    includes std == 0.
    """
    splits = tuple(splits)
    if not splits:
        raise ConfigError("no splits to standardize")
    for seg in splits:
        if seg.standardized:
            raise DataError(f"segment {seg.name!r} is already standardized")
        if seg.start < 0 or seg.start + seg.rows > series.length:
            raise ConfigError(f"segment {seg.name!r} (rows {seg.start} to "
                              f"{seg.start + seg.rows}) lies outside a series of "
                              f"{series.length} rows")
    first = splits[0]
    train = series.values[first.start:first.start + first.rows]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    scale = np.abs(train).max(axis=0)
    flat = np.flatnonzero(std <= CONSTANT_CHANNEL_TOLERANCE * scale)
    if flat.size:
        raise DataError(
            f"zero-variance channel(s) {flat.tolist()} in the train split "
            f"(std at most {CONSTANT_CHANNEL_TOLERANCE:g} of the channel's largest "
            "magnitude); constant channels cannot be standardized"
        )
    # (x - mean) / std would hold two series-sized arrays at once
    values = np.subtract(series.values, mean, order="C")
    values /= std
    out = tuple(
        replace(seg, values=values[seg.start:seg.start + seg.rows], standardized=True)
        for seg in splits
    )
    return out, NormalizationStats(mean, std)
