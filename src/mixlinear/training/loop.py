"""Training loop with seeded shuffling, early stopping, and evaluation."""

import csv
import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.windows import WindowSet
from ..errors import ConfigError, NumericError
from ..model.config import ModelConfig, plan_shapes
from ..model.forward import forward_batch, uses_window_map
from ..model.params import MixLinearParams, init_params
from .adam import adam_step, init_adam
from .backward import _flatten_windows, backward

HISTORY_HEADER = ("epoch", "train_mse", "val_mse", "seconds")

# windows per forward_batch call in evaluate when such a chunk runs the graph
EVAL_CHUNK_WINDOWS = 256
# rows per forward_batch call in evaluate when the chunk would take the window
# map: the gathered block stays near cache size and the memory in use does not
# grow with the channels.  At L=720, H=96 (2-vCPU Xeon, OpenBLAS) blocks of
# 512-2048 rows ran within noise of each other; 4096 rows and up were slower.
EVAL_BLOCK_ROWS = 1024


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
            x, y = train_windows.batch(idx)
            loss, grads = backward(x, y, params, config)
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
    """Windows per ``forward_batch`` call in ``evaluate``.

    ``EVAL_CHUNK_WINDOWS`` when such a chunk runs the graph; otherwise about
    ``EVAL_BLOCK_ROWS`` rows, and at least L+2, so a full block still takes
    the window map.
    """
    if not uses_window_map(EVAL_CHUNK_WINDOWS * channels, config):
        return EVAL_CHUNK_WINDOWS
    block = max(1, EVAL_BLOCK_ROWS // channels)
    if not uses_window_map(block * channels, config):
        block = (config.lookback + 1) // channels + 1
    return block


def evaluate(params: MixLinearParams, windows: WindowSet,
             config: ModelConfig) -> tuple[float, float]:
    """Average MSE/MAE over every window and channel, standardized scale.

    Streams the windows through ``forward_batch`` a block at a time, all
    channels at once: gather a block, predict it, accumulate its errors.
    When a chunk of ``EVAL_CHUNK_WINDOWS`` windows would run the graph, the
    blocks are such chunks.  Otherwise each block has about
    ``EVAL_BLOCK_ROWS`` rows (at least L+2) and goes through the window map
    f(x) = xM + c, which ``forecast_map`` builds once for the parameter set,
    so the memory in use is bounded by the block, not by the channel count.
    """
    if windows.count < 1:
        raise ConfigError("window set is empty")
    plan = plan_shapes(config)
    block = _eval_block_windows(windows.channels, config)
    sq_sum = 0.0
    abs_sum = 0.0
    for lo in range(0, windows.count, block):
        idx = np.arange(lo, min(lo + block, windows.count))
        x, y = windows.batch(idx)
        rows = _flatten_windows(x, config.lookback, "inputs")
        err = forward_batch(rows, params, config, plan)
        err -= _flatten_windows(y, config.horizon, "targets")
        del x, y, rows  # free the gathered block before the next one is gathered
        flat = err.ravel(order="K")  # a view in either layout forward_batch returns
        sq_sum += float(flat @ flat)
        abs_sum += float(np.abs(flat, out=flat).sum())
    count = windows.count * windows.channels * config.horizon
    return sq_sum / count, abs_sum / count
