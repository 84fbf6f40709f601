"""Training loop with seeded shuffling, early stopping, and evaluation."""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.windows import WindowSet, window_runs
from ..errors import ConfigError, NumericError
from ..model.config import ModelConfig
from ..model.forward import SeriesSetup, forward_batch
from ..model.params import MixLinearParams, init_params
from .adam import adam_step, init_adam
from .backward import _flatten_windows, backward

HISTORY_HEADER = ("epoch", "train_mse", "val_mse", "seconds")

# predicted values and rows per forward_batch call in evaluate; see _eval_block_windows
EVAL_BLOCK_VALUES = 1 << 18
EVAL_BLOCK_ROWS = 1 << 12


def batch_size_for_channels(channels: int) -> int:
    """Default batch size: 256 below 100 channels, 128 below 300, else 64."""
    if channels < 100:
        return 256
    if channels < 300:
        return 128
    return 64


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.02
    max_epochs: int = 30
    patience: int = 10
    batch_size: int | None = None  # None: resolved from the channel count
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainHistory:
    """Per-epoch record; ``seconds`` covers the optimization loop only,
    ``total_seconds`` additionally includes the validation pass."""

    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    total_seconds: list[float] = field(default_factory=list)
    best_epoch: int = 0

    @property
    def epochs(self) -> int:
        return len(self.train_mse)


def write_history(history: TrainHistory, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_HEADER)
        for epoch in range(history.epochs):
            writer.writerow(
                [
                    epoch,
                    repr(history.train_mse[epoch]),
                    repr(history.val_mse[epoch]),
                    repr(history.seconds[epoch]),
                ]
            )


def train(train_windows: WindowSet, val_windows: WindowSet, config: ModelConfig,
          train_config: TrainConfig) -> tuple[MixLinearParams, TrainHistory]:
    """Fit a fresh parameter set; returns the best-validation-epoch params.

    Mini-batches are shuffled with a generator seeded from the train
    config, so identical (seed, data, config) reproduce the run exactly.
    Each step hands ``backward`` the windows and the step's indices, and
    ``backward`` gathers them a block at a time, so a step holds one block
    of windows, not the whole batch.
    Training stops after ``patience`` epochs without validation
    improvement or at ``max_epochs``.
    """
    if train_windows.count < 1:
        raise ConfigError("train split yields no windows")
    if val_windows.count < 1:
        raise ConfigError("validation split yields no windows")

    batch_size = train_config.batch_size or batch_size_for_channels(train_windows.channels)
    params = init_params(config, train_config.seed)
    state = init_adam(params)
    rng = np.random.default_rng(train_config.seed)
    history = TrainHistory()

    best_params = params.copy()
    best_val = np.inf
    stale_epochs = 0

    for epoch in range(train_config.max_epochs):
        start = time.perf_counter()
        order = rng.permutation(train_windows.count)
        loss_sum = 0.0
        weight_sum = 0
        for lo in range(0, order.size, batch_size):
            idx = order[lo:lo + batch_size]
            loss, grads = backward(train_windows, idx, params, config)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, batch offset {lo}"
                )
            params, state = adam_step(params, grads, state, train_config.learning_rate)
            loss_sum += loss * idx.size
            weight_sum += idx.size
        train_end = time.perf_counter()

        val_mse, _ = evaluate(params, val_windows, config)
        total_end = time.perf_counter()

        history.train_mse.append(loss_sum / weight_sum)
        history.val_mse.append(val_mse)
        history.seconds.append(train_end - start)
        history.total_seconds.append(total_end - start)

        if val_mse < best_val:
            best_val = val_mse
            best_params = params.copy()
            history.best_epoch = epoch
            stale_epochs = 0
        else:
            stale_epochs += 1
            if stale_epochs >= train_config.patience:
                break
    return best_params, history


def _eval_block_windows(channels: int, config: ModelConfig) -> int:
    """Most windows an ``evaluate`` block holds.

    A block predicts at most ``EVAL_BLOCK_VALUES`` values (2 MB) from at
    most ``EVAL_BLOCK_ROWS`` rows, the second bound for short horizons,
    where each row's edge terms (up to 2w-2 values) outweigh its forecast.
    It holds 2L/H windows when that is more: a block convolves its series,
    L-1 steps longer than its windows, and this keeps those steps to at most
    half the values it predicts per channel (at 321 channels, L=720 and
    H=96, blocks of 15 windows, not 8).  At the three benchmark shapes
    (L=720; H=96 over 7 and 321 channels, H=720 over 1) ``evaluate`` peaks
    at 3.4, 5.0 and 2.3 MB (tracemalloc), against 4.5, 6.3 and 7.5 MB for
    the dense (L, H) window map it once used, in blocks of about 1024 rows.
    With the series set up once per ``evaluate``, half the values per block
    ran the 7-channel shape 1.7x slower and the 1-channel one about as fast,
    and twice them ran both 1.4-2.0x slower (1 thread, 2-vCPU Xeon); half
    the 2L/H bound ran Electricity's 1.5x slower, and twice it passed its
    old peak, when the series was set up per block.
    """
    return max(1, min(EVAL_BLOCK_VALUES // (channels * config.horizon),
                      EVAL_BLOCK_ROWS // channels),
               2 * config.lookback // config.horizon)


def _eval_blocks(count: int, channels: int, config: ModelConfig) -> list[tuple[int, int]]:
    """The [lo, hi) window ranges ``evaluate`` predicts, one ``forward_batch`` call each.

    As few near-equal blocks as keep within ``_eval_block_windows``, except
    that no block holds a single window when there are two or more (under a
    bound of one or two windows, blocks hold two or three), so that every
    block takes ``Path.SERIES``.
    """
    return window_runs(count, _eval_block_windows(channels, config), 2)


def evaluate(params: MixLinearParams, windows: WindowSet,
             config: ModelConfig) -> tuple[float, float]:
    """Average MSE/MAE over every window and channel, standardized scale.

    Streams the windows through ``forward_batch`` a block at a time, all
    channels at once: view a block of consecutive windows in place, predict
    it, accumulate its errors.  ``_eval_blocks`` sizes the blocks, so the
    memory in use is bounded by the block, not by the split length, and
    every block of two or more windows is predicted from its series
    (``Path.SERIES``).  One ``SeriesSetup`` holds what the blocks share,
    the phase map and the constants built from it, and the buffers each
    block's forecast is written to.  The targets are subtracted in the
    forecast's own time-major (H, b*C) layout, which numpy iterates along
    its rows whatever the channel count.  A block holds every channel of at
    least 2L/H windows, so past 2^18/(2L) channels (about 182 at L=720)
    its prediction grows with the channel count.  Each block's squared
    errors are summed by ``einsum``, whose result, unlike a BLAS dot
    product's, does not depend on the thread count.
    Raises ``NumericError`` at the first block whose error sums are not
    finite, such as one that reads a NaN.
    """
    if windows.count < 1:
        raise ConfigError("window set is empty")
    sq_sum = 0.0
    abs_sum = 0.0
    setup = SeriesSetup(params, config)
    for lo, hi in _eval_blocks(windows.count, windows.channels, config):
        x, y = windows.batch(np.arange(lo, hi))
        rows = _flatten_windows(x, config.lookback, "inputs")
        err = forward_batch(rows, params, config, setup)
        # in the forecast's time-major (H, b*C) layout
        np.subtract(err.T, _flatten_windows(y, config.horizon, "targets").T, out=err.T)
        flat = err.ravel(order="K")  # a view of that layout
        # an overflow is reported as the NumericError below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sq_sum += float(np.einsum("i,i->", flat, flat))
            abs_sum += float(np.abs(flat, out=flat).sum())
        if not (math.isfinite(sq_sum) and math.isfinite(abs_sum)):
            raise NumericError(
                f"non-finite evaluation error in windows [{lo}, {hi})"
            )
        del err, flat  # so that a larger block can replace the buffer
    count = windows.count * windows.channels * config.horizon
    return sq_sum / count, abs_sum / count
