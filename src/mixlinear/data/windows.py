"""Stride-1 sliding (look-back, horizon) windows over one segment."""

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from .split import Segment


@dataclass
class WindowSet:
    """Index pairs into one standardized segment.

    Window k reads rows [k, k+L) as input and rows [k+L, k+L+H) as
    target; windows never cross the segment's bounds.
    """

    base: np.ndarray  # (rows, C), made C-contiguous
    lookback: int
    horizon: int

    def __post_init__(self):
        # consecutive windows of a C-contiguous base are views that
        # ``evaluate`` predicts from their series; a no-op for ``make_windows``
        self.base = np.ascontiguousarray(self.base)

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

    def batch(self, indices, out=None) -> tuple[np.ndarray, np.ndarray]:
        """Stack windows into (b, L, C) and (b, H, C) arrays.

        Both are the (1, 0, 2) transposes of time-major (L, b, C) and
        (H, b, C) arrays with x[t, k, c] = base[idx[k] + t, c].  A run of
        consecutive indices i, i+1, ..., which is what ``evaluate`` asks
        for, is a slice of the windows' steps in ``_view``: read-only views
        of ``base``.  Any other indices are gathered, one ``take`` of base
        rows each, into ``out``, a pair of writable C-contiguous (L, b, C)
        and (H, b, C) arrays, or into a fresh pair of them: ``backward``
        passes the rows of its step's conv buffer and target block, so a
        block of a training step is never copied again.  Over a
        C-contiguous base the flattened (b*C, L) and (b*C, H) rows are then
        the ``.T`` of time-major (L, b*C) and (H, b*C) arrays either way,
        which the forward reads as they stand.
        """
        idx = np.asarray(indices, dtype=np.intp)
        bad = idx[(idx < 0) | (idx >= self.count)]
        if bad.size:
            raise IndexError(f"window {bad[0]} out of range [0, {self.count})")
        length, horizon = self.lookback, self.horizon
        if out is None and idx.size and (np.diff(idx) == 1).all():
            block = self._view[:, idx[0]:idx[-1] + 1]
            x, y = block[:length], block[length:]
        else:
            x, y = out if out is not None else (
                np.empty((length, idx.size, self.channels), self.base.dtype),
                np.empty((horizon, idx.size, self.channels), self.base.dtype))
            at = np.add.outer(np.arange(length + horizon), idx)
            # indices checked above, so no step reads past base
            self.base.take(at[:length], axis=0, out=x, mode="clip")
            self.base.take(at[length:], axis=0, out=y, mode="clip")
        return x.transpose(1, 0, 2), y.transpose(1, 0, 2)

    @property
    def _view(self) -> np.ndarray:
        """Read-only (L+H, count, C) view of every window: [t, k, c] = base[k+t, c]."""
        step, across = self.base.strides
        view = np.ndarray((self.lookback + self.horizon, self.count, self.channels),
                          self.base.dtype, self.base, 0, (step, step, across))
        view.flags.writeable = False
        return view

    def content_hash(self) -> str:
        """Digest of the window geometry and the underlying data."""
        digest = hashlib.sha256()
        digest.update(
            f"{self.base.shape};{self.lookback};{self.horizon};".encode()
        )
        digest.update(np.ascontiguousarray(self.base, dtype="<f8").tobytes())
        return digest.hexdigest()


def window_runs(count: int, most: int, fewest: int) -> list[tuple[int, int]]:
    """As few near-equal [lo, hi) runs of ``count`` windows as hold at most ``most`` each.

    When there are ``fewest`` windows or more, no run holds fewer, even if
    a run must then hold more than ``most``; fewer windows make one run.
    """
    parts = max(1, min(-(-count // most), count // fewest))
    return [(i * count // parts, (i + 1) * count // parts) for i in range(parts)]


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
