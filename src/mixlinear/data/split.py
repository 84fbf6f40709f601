"""Chronological splitting and train-statistics standardization.

Validation and test splits are extended backward by the look-back
length so their first windows see a full history; labels never cross the
boundary, matching the protocol the public benchmarks inherit.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError


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


def split_rows(total: int, spec: SplitSpec, lookback: int,
               horizon: int) -> tuple[slice, slice, slice]:
    """The train, val and test row ranges of a ``total``-row series.

    They are [0, b1), [b1 - lookback, b2) and [b2 - lookback, total), cut at
    ``spec``'s boundaries: val and test start ``lookback`` rows early, a
    read-only overlap.  Raises ``ConfigError``, naming the split, when one
    holds fewer than lookback + horizon rows, too few for one window.
    """
    b1, b2 = spec.boundaries(total)
    rows = (slice(0, b1), slice(b1 - lookback, b2), slice(b2 - lookback, total))
    minimum = lookback + horizon
    for name, part in zip(("train", "val", "test"), rows):
        if part.stop - part.start < minimum:
            raise ConfigError(
                f"{name} split of a {total}-row series has {part.stop - part.start} "
                f"rows, need at least {minimum} for lookback {lookback} + horizon {horizon}"
            )
    return rows


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


def standardize(values: np.ndarray,
                train_rows: slice) -> tuple[np.ndarray, NormalizationStats]:
    """Z-score ``values`` once with the statistics of its ``train_rows``.

    Returns one C-contiguous array, whatever the input's memory order,
    rounded as ``(x - mean) / std`` rounds it but written in place, so the
    splits are row views of it.  Rejects a channel that is constant on the
    train rows up to round-off: std <= ``CONSTANT_CHANNEL_TOLERANCE`` *
    max|x|, which includes std == 0, and raises ``ConfigError`` on an empty
    train range.
    """
    train = values[train_rows]
    if not train.shape[0]:
        start, stop, _ = train_rows.indices(values.shape[0])
        raise ConfigError(f"train rows [{start}, {stop}) of a {values.shape[0]}-row series "
                          "are empty; standardizing needs at least one")
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
    out = np.subtract(values, mean, order="C")
    out /= std
    return out, NormalizationStats(mean, std)
