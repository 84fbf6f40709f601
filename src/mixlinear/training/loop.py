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
from .backward import _check_windows, backward

HISTORY_HEADER = ("epoch", "train_mse", "val_mse", "seconds")

# predicted values, rows and series-length floats per forward_batch call in
# evaluate; see _eval_block_shape
EVAL_BLOCK_VALUES = 1 << 18
EVAL_BLOCK_ROWS = 1 << 12
EVAL_SERIES_FLOATS = 1 << 16


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
    improvement or at ``max_epochs``.  Either set cut at another
    (lookback, horizon) than the config's raises ``ConfigError`` at once;
    neither can be empty, since a ``WindowSet`` holds at least one window.
    """
    _check_windows(train_windows, config)
    _check_windows(val_windows, config)

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


def _eval_block_shape(count: int, channels: int, config: ModelConfig) -> tuple[int, int]:
    """(windows, channels): the most of each an ``evaluate`` block of ``count`` windows holds.

    A block of b windows of G channels predicts b*G*H values from b*G rows
    and convolves (b + (n+1)*w)*G steps of its series: at most
    ``EVAL_BLOCK_VALUES`` (2 MB), ``EVAL_BLOCK_ROWS`` (the bound for short
    horizons, where each row's edge terms, up to 2w-2 values, outweigh its
    forecast) and ``EVAL_SERIES_FLOATS`` of them.  The group G is the
    widest that holds min(count, L/2) windows within those bounds, and at
    least one channel; its blocks then hold as many windows as those
    bounds allow.  So a series with few windows is predicted in groups of
    all of them, each channel's series convolved once, and a long one in
    runs of at least L/2 windows where one channel's bounds allow that,
    each convolving about three times the steps it predicts at most.  At
    the three benchmark shapes (L=720; H=96 over 7 and 321 channels, H=720
    over 1) the blocks are 376 or 377 windows of 7 channels, 64 windows of
    42 channels (the last group 27) and 345 or 346 windows of 1 channel,
    and ``evaluate`` peaks at 3.4, 4.4 and 2.3 MB (tracemalloc); at 200
    windows over 321, 862 or 2000 channels, in groups of 13, at 3.5 MB.
    Groups that held all of a long split's windows would be one channel
    wide, and evaluated the 7-channel shape slower.
    """
    horizon = config.horizon
    edge = (config.plan.n + 1) * config.period

    def widest(windows):
        return min(EVAL_BLOCK_VALUES // (windows * horizon), EVAL_BLOCK_ROWS // windows,
                   EVAL_SERIES_FLOATS // (windows + edge))

    group = max(1, min(channels, widest(max(1, min(count, config.lookback // 2)))))
    most = min(EVAL_BLOCK_VALUES // (group * horizon), EVAL_BLOCK_ROWS // group,
               EVAL_SERIES_FLOATS // group - edge)
    return max(1, most), group


def _eval_blocks(count: int, channels: int,
                 config: ModelConfig) -> list[tuple[int, int, int, int]]:
    """The (lo, hi, first, last) blocks ``evaluate`` predicts, one ``forward_batch`` call each.

    Block (lo, hi, first, last) is windows [lo, hi) of channels [first,
    last).  The channels are cut into groups of ``_eval_block_shape``'s
    width, the last narrower, and each group's windows into as few
    near-equal runs as keep within its window count, except that no run
    holds a single window when there are two or more (under a bound of one
    or two windows, runs hold two or three), so that ``series_channels``
    finds every block to be a run of windows of its group's series.
    """
    most, group = _eval_block_shape(count, channels, config)
    runs = window_runs(count, most, 2)
    return [(lo, hi, first, min(first + group, channels))
            for first in range(0, channels, group) for lo, hi in runs]


def evaluate(params: MixLinearParams, windows: WindowSet,
             config: ModelConfig) -> tuple[float, float]:
    """Average MSE/MAE over every window and channel, standardized scale.

    Streams the windows through ``forward_batch`` a block at a time:
    ``_eval_blocks`` cuts the split into runs of windows of groups of
    channels, so the memory in use is bounded by the block, not by the
    split's length or width.  Each block is a ``WindowSet`` over its steps
    of its channels, a C-contiguous copy when the group is narrower than
    the split, so the input and target rows ``WindowSet.batch`` gives of
    its windows are views of their series: each block of two or more
    windows is predicted from its series (``series_channels``), and its
    forecast is C-contiguous.  One ``SeriesSetup``, sized for the
    largest block, holds what the blocks share: the phase map, the
    constants built from it, and the buffers each block's forecast is
    written to.  Each block's targets go to ``forward_batch`` with its
    inputs, so its result is the residual; a block's targets are the
    windows of its series too, so the series path takes them off VG, at
    about 1/w of the forecast's size, and writes no forecast.  Each
    block's squared errors are summed by ``einsum``, whose result, unlike
    a BLAS dot product's, does not depend on the thread count.
    A ``WindowSet`` holds at least one window, so there is always one
    block.  Raises ``ConfigError`` when the windows' (lookback, horizon)
    is not the config's, and ``NumericError`` at the first block whose
    error sums are not finite, such as one that reads a NaN.
    """
    _check_windows(windows, config)
    length, horizon = config.lookback, config.horizon
    sq_sum = 0.0
    abs_sum = 0.0
    blocks = _eval_blocks(windows.count, windows.channels, config)
    setup = SeriesSetup(params, config, max(hi - lo for lo, hi, _, _ in blocks),
                        max(last - first for _, _, first, last in blocks))
    for lo, hi, first, last in blocks:
        block = WindowSet(windows.base[lo:hi + length + horizon - 1, first:last], length, horizon)
        x, y = block.batch(np.arange(hi - lo))
        err = forward_batch(x, params, config, setup, y)
        flat = err.ravel(order="K")  # a view of its time-major (H, b*G) layout
        # an overflow is reported as the NumericError below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            sq_sum += float(np.einsum("i,i->", flat, flat))
            abs_sum += float(np.abs(flat, out=flat).sum())
        if not (math.isfinite(sq_sum) and math.isfinite(abs_sum)):
            raise NumericError(
                f"non-finite evaluation error in windows [{lo}, {hi}) of channels "
                f"[{first}, {last})"
            )
    count = windows.count * windows.channels * horizon
    return sq_sum / count, abs_sum / count
