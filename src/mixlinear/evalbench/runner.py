"""Benchmark orchestration: full pipeline runs, ablations, cutoff sweeps."""

import hashlib
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from ..data.series import RawSeries
from ..data.split import SplitSpec, split_series, standardize
from ..data.windows import WindowSet, make_windows
from ..errors import ConfigError, MixLinearError
from ..model.config import Mode, ModelConfig
from ..model.params import config_to_dict, param_count
from ..training.loop import TrainConfig, batch_size_for_channels, evaluate, train
from .macs import MAC_CONVENTION, count_macs
from .report import RunReport


@contextmanager
def _stage(name: str):
    """Re-raise package errors with the failing pipeline stage prepended."""
    try:
        yield
    except MixLinearError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _split_name(spec: SplitSpec) -> str:
    if spec == SplitSpec.ett():
        return "ett"
    if spec == SplitSpec.default():
        return "default"
    return f"custom({spec.train_frac},{spec.val_frac},{spec.test_frac})"


def prepare_windows(series: RawSeries, split_spec: SplitSpec,
                    config: ModelConfig) -> tuple[WindowSet, WindowSet, WindowSet, str]:
    """load -> split -> standardize -> window, plus the pipeline digest.

    The series is standardized into one array, and the three window sets'
    bases are row views of it, the overlaps of val and test held once.
    """
    with _stage("split"):
        segments = split_series(series, split_spec, config.lookback, config.horizon)
    with _stage("standardize"):
        (train_seg, val_seg, test_seg), _ = standardize(series, segments)
    with _stage("window"):
        train_ws = make_windows(train_seg, config.lookback, config.horizon)
        val_ws = make_windows(val_seg, config.lookback, config.horizon)
        test_ws = make_windows(test_seg, config.lookback, config.horizon)
    digest = hashlib.sha256()
    for ws in (train_ws, val_ws, test_ws):
        digest.update(ws.content_hash().encode())
    return train_ws, val_ws, test_ws, digest.hexdigest()


def run_benchmark(series: RawSeries, dataset_id: str, split_spec: SplitSpec,
                  config: ModelConfig, train_config: TrainConfig) -> RunReport:
    """Full pipeline on one dataset; the report carries the trained params
    and history as runtime attachments."""
    train_ws, val_ws, test_ws, pipeline_hash = prepare_windows(series, split_spec, config)
    batch_size = train_config.batch_size or batch_size_for_channels(train_ws.channels)
    train_config = replace(train_config, batch_size=batch_size)
    with _stage("train"):
        params, history = train(train_ws, val_ws, config, train_config)
    with _stage("evaluate"):
        test_mse, test_mae = evaluate(params, test_ws, config)
    return RunReport(
        dataset=dataset_id,
        split=_split_name(split_spec),
        **config_to_dict(config),
        **asdict(train_config),
        epochs_run=history.epochs,
        best_epoch=history.best_epoch,
        test_mse=test_mse,
        test_mae=test_mae,
        param_count=param_count(config),
        mac_count=count_macs(config),
        mac_convention=MAC_CONVENTION,
        pipeline_hash=pipeline_hash,
        train_seconds_per_epoch=float(np.mean(history.seconds)) if history.epochs else 0.0,
        total_seconds=float(np.sum(history.total_seconds)),
        history=history,
        params=params,
    )


def _run_configs(series: RawSeries, dataset_id: str, split_spec: SplitSpec,
                 configs: list[ModelConfig], train_config: TrainConfig) -> list[RunReport]:
    """One full run per config, in order, over an identical data pipeline.

    Every config was validated when it was built, so before the first run.
    The shared-pipeline claim is checked, not assumed: all reports must
    carry the same window-set digest.
    """
    reports = [run_benchmark(series, dataset_id, split_spec, config, train_config)
               for config in configs]
    hashes = {r.pipeline_hash for r in reports}
    if len(hashes) > 1:
        raise MixLinearError(f"data pipelines diverged: {sorted(hashes)}")
    return reports


ABLATION_MODES = (Mode.MIX, Mode.TIME_ONLY, Mode.FREQ_ONLY)


def run_ablation(series: RawSeries, dataset_id: str, split_spec: SplitSpec,
                 base_config: ModelConfig, train_config: TrainConfig) -> list[RunReport]:
    """Run Mix, TimeOnly, and FreqOnly over an identical data pipeline."""
    configs = [replace(base_config, mode=mode) for mode in ABLATION_MODES]
    return _run_configs(series, dataset_id, split_spec, configs, train_config)


def run_lpf_sweep(series: RawSeries, dataset_id: str, split_spec: SplitSpec,
                  config: ModelConfig, cutoffs, train_config: TrainConfig) -> list[RunReport]:
    """One full train/eval per distinct cutoff, reports sorted by cutoff."""
    values = sorted(set(int(c) for c in cutoffs))
    if not values:
        raise ConfigError("no cutoffs given")
    configs = [replace(config, lpf_cutoff=cutoff) for cutoff in values]
    return _run_configs(series, dataset_id, split_spec, configs, train_config)
