"""Stride-1 sliding (look-back, horizon) windows over one segment."""

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import ConfigError
from .split import Segment


@dataclass
class WindowSet:
    """Index pairs into one standardized segment.

    Window k reads rows [k, k+L) as input and rows [k+L, k+L+H) as
    target; windows never cross the segment's bounds.
    """

    base: np.ndarray  # (rows, C)
    lookback: int
    horizon: int

    @property
    def count(self) -> int:
        return self.base.shape[0] - self.lookback - self.horizon + 1

    @property
    def channels(self) -> int:
        return self.base.shape[1]

    def window(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (input, target) views of window k."""
        if not 0 <= k < self.count:
            raise IndexError(f"window {k} out of range [0, {self.count})")
        x = self.base[k:k + self.lookback]
        y = self.base[k + self.lookback:k + self.lookback + self.horizon]
        return x, y

    def batch(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """Stack windows into (b, L, C) and (b, H, C) arrays."""
        idx = np.asarray(indices, dtype=np.intp)
        bad = idx[(idx < 0) | (idx >= self.count)]
        if bad.size:
            raise IndexError(f"window {bad[0]} out of range [0, {self.count})")
        block = self._spans[idx]                               # (b, C, L+H)
        return (block[:, :, :self.lookback].transpose(0, 2, 1),
                block[:, :, self.lookback:].transpose(0, 2, 1))

    @cached_property
    def _spans(self) -> np.ndarray:
        """(count, C, L+H) view of every window over a channel-major copy.

        Gathering channel-major puts both ``batch`` results over one
        C-contiguous (b, C, L+H) block, which flattens to (b*C, T) rows
        without a copy.  The copy is made once per window set.
        """
        series = np.ascontiguousarray(self.base.T)             # (C, rows)
        spans = sliding_window_view(series, self.lookback + self.horizon, axis=1)
        return spans.transpose(1, 0, 2)

    def content_hash(self) -> str:
        """Digest of the window geometry and the underlying data."""
        digest = hashlib.sha256()
        digest.update(
            f"{self.base.shape};{self.lookback};{self.horizon};".encode()
        )
        digest.update(np.ascontiguousarray(self.base, dtype="<f8").tobytes())
        return digest.hexdigest()


def make_windows(segment: Segment, lookback: int, horizon: int) -> WindowSet:
    if lookback < 1 or horizon < 1:
        raise ConfigError(
            f"lookback and horizon must be >= 1, got ({lookback}, {horizon})"
        )
    if segment.rows < lookback + horizon:
        raise ConfigError(
            f"segment {segment.name!r} has {segment.rows} rows; too short for "
            f"lookback {lookback} + horizon {horizon}"
        )
    return WindowSet(segment.values, lookback, horizon)
