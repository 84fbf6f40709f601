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
    """One contiguous slice of the timeline."""

    values: np.ndarray  # (rows, C)
    name: str = ""
    standardized: bool = False

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


def split_series(series: RawSeries, spec: SplitSpec, lookback: int = 0,
                 horizon: int = 0) -> tuple[Segment, Segment, Segment]:
    """Cut train/val/test segments at floor-of-cumulative-fraction indices.

    ``lookback`` rows are prepended (read-only overlap) to val and test;
    when ``horizon`` is given, every segment must fit at least one
    (lookback, horizon) window.
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
        Segment(series.values[b1 - lookback:b2], "val"),
        Segment(series.values[b2 - lookback:total], "test"),
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

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def standardize(splits) -> tuple[tuple[Segment, ...], NormalizationStats]:
    """Z-score every split with the first (train) split's statistics.

    Rejects a channel that is constant on the train split up to round-off:
    std <= ``CONSTANT_CHANNEL_TOLERANCE`` * max|x|, which includes std == 0.
    """
    splits = tuple(splits)
    if not splits:
        raise ConfigError("no splits to standardize")
    for seg in splits:
        if seg.standardized:
            raise DataError(f"segment {seg.name!r} is already standardized")
    train = splits[0]
    mean = train.values.mean(axis=0)
    std = train.values.std(axis=0)
    scale = np.abs(train.values).max(axis=0)
    flat = np.flatnonzero(std <= CONSTANT_CHANNEL_TOLERANCE * scale)
    if flat.size:
        raise DataError(
            f"zero-variance channel(s) {flat.tolist()} in the train split "
            f"(std at most {CONSTANT_CHANNEL_TOLERANCE:g} of the channel's largest "
            "magnitude); constant channels cannot be standardized"
        )
    stats = NormalizationStats(mean, std)
    out = tuple(
        replace(seg, values=stats.apply(seg.values), standardized=True)
        for seg in splits
    )
    return out, stats
