"""Stride-1 sliding (look-back, horizon) windows over one split."""

import hashlib
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


@dataclass
class WindowSet:
    """Index pairs into one standardized split.

    Window k reads rows [k, k+L) as input and rows [k+L, k+L+H) as
    target; windows never cross the split's bounds.  A C-contiguous
    float64 base, such as a split of ``standardize``'s one array, is kept
    as the view it is.  A set with no window, L < 1 or H < 1, a base that
    is not 2-D or one of fewer than L+H rows, raises ``ConfigError``.
    """

    base: np.ndarray  # (rows, C), made C-contiguous float64
    lookback: int
    horizon: int

    def __post_init__(self):
        # consecutive windows of a C-contiguous float64 base are views that
        # ``evaluate`` predicts from their series; a no-op for a split's rows
        self.base = np.ascontiguousarray(self.base, dtype=np.float64)
        if min(self.lookback, self.horizon) < 1 or self.base.ndim != 2 or self.count < 1:
            raise ConfigError(f"a base of shape {self.base.shape} holds no window of lookback "
                              f"{self.lookback} + horizon {self.horizon} rows, each at least 1")

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
        """The (b*C, L) input and (b*C, H) target rows of windows ``indices``.

        Row k*C + c is channel c of window idx[k], the univariate row the
        forward reads: both are the ``.T`` of time-major (L, b*C) and
        (H, b*C) arrays, [t, k*C + c] = base[idx[k] + t, c].  A run of
        consecutive indices i, i+1, ..., which is what ``evaluate`` asks
        for, is a slice of ``_view``: read-only views of ``base``.  Any
        other indices are gathered, one ``take`` of base rows each, into
        ``out``, a pair of writable (L, b*C) and (H, b*C) arrays (another
        shape raises ``ValueError``), or into a fresh C-contiguous pair:
        ``backward`` passes its step's ``inputs`` and target block, so a
        block of a training step is never copied again.  ``indices`` must be
        a 1-D integer array, or empty; anything else, or an index out of
        range, raises ``IndexError``.
        """
        idx = _check_indices(indices, self.count)
        length, horizon, channels = self.lookback, self.horizon, self.channels
        if out is None and idx.size and (np.diff(idx) == 1).all():
            block = self._view[:, idx[0] * channels:(idx[-1] + 1) * channels]
            x, y = block[:length], block[length:]
        else:
            width = idx.size * channels
            x, y = out if out is not None else (np.empty((length, width)),
                                                np.empty((horizon, width)))
            # of these shapes, whatever the strides, take's reshaped outs are views
            if x.shape != (length, width) or y.shape != (horizon, width):
                raise ValueError(f"out must be ({length}, {width}) and ({horizon}, {width}) arrays")
            at = np.add.outer(np.arange(length + horizon), idx)
            # indices checked above, so no step reads past base
            self.base.take(at[:length], axis=0, out=x.reshape(length, idx.size, channels),
                           mode="clip")
            self.base.take(at[length:], axis=0, out=y.reshape(horizon, idx.size, channels),
                           mode="clip")
        return x.T, y.T

    @property
    def _view(self) -> np.ndarray:
        """Read-only (L+H, count*C) view of every window: [t, k*C + c] = base[k+t, c]."""
        item = self.base.itemsize  # not base.strides: a size-1 axis may have any stride
        view = np.ndarray((self.lookback + self.horizon, self.count * self.channels),
                          self.base.dtype, self.base, 0, (self.channels * item, item))
        view.flags.writeable = False
        return view

    def content_hash(self) -> str:
        """Digest of the window geometry and the underlying data.

        The data are hashed as little-endian float64 bytes, read in place
        from the C-contiguous base: no copy on a little-endian machine.
        """
        digest = hashlib.sha256()
        digest.update(
            f"{self.base.shape};{self.lookback};{self.horizon};".encode()
        )
        digest.update(np.ascontiguousarray(self.base, dtype="<f8"))
        return digest.hexdigest()


def _check_indices(indices, count: int) -> np.ndarray:
    """``indices`` as ``intp``, or ``IndexError`` unless 1-D integer windows in [0, count)."""
    idx = np.asarray(indices)
    if idx.ndim != 1 or idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise IndexError(f"window indices must be a 1-D integer array, got "
                         f"{idx.dtype} of shape {idx.shape}")
    idx = idx.astype(np.intp, copy=False)
    bad = idx[(idx < 0) | (idx >= count)]
    if bad.size:
        raise IndexError(f"window {bad[0]} out of range [0, {count})")
    return idx


def window_runs(count: int, most: int, fewest: int) -> list[tuple[int, int]]:
    """As few near-equal [lo, hi) runs of ``count`` windows as hold at most ``most`` each.

    When there are ``fewest`` windows or more, no run holds fewer, even if
    a run must then hold more than ``most``; fewer windows make one run.
    """
    parts = max(1, min(-(-count // most), count // fewest))
    return [(i * count // parts, (i + 1) * count // parts) for i in range(parts)]
