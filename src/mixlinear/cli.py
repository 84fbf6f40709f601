"""Command-line entry point: train, eval, sweep, ablate, gradcheck, synth.

Setting precedence is flags > config file > built-in defaults; the fully
resolved configuration is echoed as ``key = value`` lines before any work
starts, in the same flat format the ``--config`` file uses, so an echoed
block can be fed straight back in to reproduce a run.

Exit codes: 0 success, 1 failed gradient check, 2 configuration error,
3 data/I-O error (every failed file read or write), 4 numeric failure
(non-finite loss).
"""

import os


def _valid_thread_count(text: str) -> bool:
    return text.isascii() and text.isdigit() and int(text) > 0


# Cap BLAS/OpenMP pools before numpy loads; MIXLINEAR_THREADS bounds all
# internal parallelism.  main() rejects values that are not positive
# integers.
_threads = os.environ.get("MIXLINEAR_THREADS")
if _threads and _valid_thread_count(_threads):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import math
import sys
from pathlib import Path

from .data.series import RawSeries, load_csv, save_csv
from .data.split import SplitSpec
from .data.synth import synth_generate
from .errors import CheckpointError, ConfigError, DataError, NumericError
from .evalbench.reference import reported_mse
from .evalbench.report import write_key_values, write_report, write_reports_csv, write_sweep
from .evalbench.runner import prepare_windows, run_ablation, run_benchmark, run_lpf_sweep
from .model.config import Mode, ModelConfig
from .model.params import load_checkpoint, save_checkpoint
from .training.backward import grad_check, gradcheck_trials
from .training.loop import TrainConfig, evaluate, write_history

REQUIRED = object()


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_batch(text: str):
    if text.lower() in ("auto", "none", ""):
        return None
    return _parse_int(text)


def _parse_split(text: str) -> str:
    SplitSpec.preset(text)  # validates
    return text.lower()


def _parse_int_list(text: str) -> list[int]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"expected a comma-separated integer list, got {text!r}")
    return [_parse_int(part) for part in items]


def _parse_float_list(text: str) -> list[float]:
    items = [part.strip() for part in text.split(",") if part.strip()]
    return [_parse_float(part) for part in items]


def _fmt(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, Mode):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return ",".join(_fmt(v) for v in value)
    return str(value)


# setting name -> (default, parser, help)
_MODEL_SETTINGS = {
    "lookback": (720, _parse_int, "look-back window length L"),
    "horizon": (REQUIRED, _parse_int, "forecast horizon H"),
    "period": (REQUIRED, _parse_int, "dominant cycle length w (24 for hourly daily cycles)"),
    "cutoff": (5, _parse_int, "low-pass filter cutoff (spectrum bins kept)"),
    "latent": (2, _parse_int, "latent spectral width"),
}
_TRAIN_SETTINGS = {
    "lr": (0.02, _parse_float, "Adam learning rate"),
    "epochs": (30, _parse_int, "maximum training epochs"),
    "patience": (10, _parse_int, "early-stopping patience in epochs"),
    "batch": (None, _parse_batch, "batch size ('auto' resolves from the channel count)"),
    "seed": (0, _parse_int, "seed for init and shuffling"),
}

SETTINGS = {
    "train": {
        "data": (REQUIRED, str, "dataset CSV path"),
        "out": ("runs/train", str, "output directory"),
        **_MODEL_SETTINGS,
        "mode": (Mode.MIX, Mode.parse, "Mix | TimeOnly | FreqOnly | SparseBaseline"),
        **_TRAIN_SETTINGS,
        "split": ("default", _parse_split, "split preset: ett (6:2:2) or default (7:1:2)"),
    },
    "eval": {
        "checkpoint": (REQUIRED, str, "trained checkpoint path"),
        "data": (REQUIRED, str, "dataset CSV path"),
        "out": ("", str, "optional directory for an eval report"),
        "split": ("default", _parse_split, "split preset: ett or default"),
    },
    "sweep": {
        "data": (REQUIRED, str, "dataset CSV path"),
        "out": ("runs/sweep", str, "output directory"),
        **_MODEL_SETTINGS,
        "cutoffs": (REQUIRED, _parse_int_list, "comma-separated cutoff list"),
        "mode": (Mode.MIX, Mode.parse, "model mode for every sweep run"),
        **_TRAIN_SETTINGS,
        "split": ("default", _parse_split, "split preset: ett or default"),
    },
    "ablate": {
        "data": (REQUIRED, str, "dataset CSV path"),
        "out": ("runs/ablate", str, "output directory"),
        **_MODEL_SETTINGS,
        **_TRAIN_SETTINGS,
        "split": ("default", _parse_split, "split preset: ett or default"),
    },
    "gradcheck": {
        "trials": (20, _parse_int, "number of random small configurations"),
        "seed": (0, _parse_int, "seed for config/data generation"),
    },
    "synth": {
        "out": (REQUIRED, str, "output CSV path"),
        "length": (2000, _parse_int, "number of rows T"),
        "period": (REQUIRED, _parse_int, "cycle length w"),
        "channels": (1, _parse_int, "number of channels"),
        "amplitudes": ([1.0], _parse_float_list, "harmonic amplitudes, comma separated"),
        "slope": (0.0, _parse_float, "linear trend slope"),
        "noise": (0.0, _parse_float, "gaussian noise std"),
        "seed": (0, _parse_int, "generator seed"),
    },
}

# sweep sets the cutoff per run from --cutoffs
SETTINGS["sweep"].pop("cutoff")


def read_config_file(path) -> dict[str, str]:
    """Flat ``key = value`` file with ``#`` comment lines."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def resolve_settings(command: str, args) -> dict:
    """Materialize every setting from defaults, config file, then flags."""
    schema = SETTINGS[command]
    raw: dict[str, str] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        file_values = read_config_file(config_path)
        unknown = sorted(set(file_values) - set(schema))
        if unknown:
            raise ConfigError(
                f"{config_path}: unknown config keys {unknown}; "
                f"valid keys: {sorted(schema)}"
            )
        raw.update(file_values)
    for key in schema:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            raw[key] = flag_value
    resolved = {}
    for key, (default, parser, _help) in schema.items():
        if key in raw:
            resolved[key] = parser(raw[key]) if parser is not str else raw[key]
        elif default is REQUIRED:
            raise ConfigError(f"missing required setting '{key}' (--{key})")
        else:
            resolved[key] = default
    return resolved


def echo_manifest(command: str, settings: dict, config_path) -> None:
    print(f"# mixlinear {command}: effective configuration")
    if config_path:
        print(f"# config file: {config_path}")
    for key in SETTINGS[command]:
        print(f"{key} = {_fmt(settings[key])}")
    print("", flush=True)


def _model_config(settings: dict) -> ModelConfig:
    return ModelConfig(
        lookback=settings["lookback"],
        horizon=settings["horizon"],
        period=settings["period"],
        lpf_cutoff=settings["cutoff"],
        latent_width=settings["latent"],
        mode=settings["mode"],
    )


def _train_config(settings: dict) -> TrainConfig:
    return TrainConfig(
        learning_rate=settings["lr"],
        max_epochs=settings["epochs"],
        patience=settings["patience"],
        batch_size=settings["batch"],
        seed=settings["seed"],
    )


def _out_dir(settings: dict) -> Path:
    out = Path(settings["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _print_metrics(report) -> None:
    print(f"test_mse = {report.test_mse!r}")
    print(f"test_mae = {report.test_mae!r}")
    print(f"param_count = {report.param_count}")
    print(f"mac_count = {report.mac_count}")
    print(f"epochs_run = {report.epochs_run} (best epoch {report.best_epoch})")
    references = reported_mse(report.dataset, report.horizon)
    if references:
        print("# reported reference MSE:")
        for model, value in references.items():
            print(f"#   {model}: {value}")


def _dataset(settings: dict) -> tuple[RawSeries, str, SplitSpec]:
    """The data commands' shared prologue: series, dataset id, split."""
    series = load_csv(settings["data"])
    return series, Path(settings["data"]).stem, SplitSpec.preset(settings["split"])


def cmd_train(settings: dict) -> int:
    config = _model_config(settings)
    train_config = _train_config(settings)
    report = run_benchmark(*_dataset(settings), config, train_config)
    out = _out_dir(settings)
    save_checkpoint(out / "model.ckpt", config, report.params)
    write_history(report.history, out / "history.csv")
    write_report(report, out / f"{report.basename()}.report")
    _print_metrics(report)
    print(f"wrote {out / 'model.ckpt'}, {out / 'history.csv'}, "
          f"{out / (report.basename() + '.report')}")
    return 0


def cmd_eval(settings: dict) -> int:
    config, _plan, params = load_checkpoint(settings["checkpoint"])
    series, dataset_id, split_spec = _dataset(settings)
    try:
        _, _, test_windows, _ = prepare_windows(series, split_spec, config)
    except ConfigError as exc:
        raise ConfigError(
            f"checkpoint expects windows of (lookback={config.lookback}, "
            f"horizon={config.horizon}); dataset {dataset_id} has shape "
            f"({series.length} rows, {series.channels} channels): {exc}"
        ) from exc
    mse, mae = evaluate(params, test_windows, config)
    print(f"test_mse = {mse!r}")
    print(f"test_mae = {mae!r}")
    if settings["out"]:
        path = _out_dir(settings) / f"eval_{dataset_id}_h{config.horizon}.report"
        write_key_values({
            "checkpoint": settings["checkpoint"],
            "dataset": dataset_id,
            "split": settings["split"],
            "lookback": config.lookback,
            "horizon": config.horizon,
            "mode": config.mode.value,
            "test_mse": mse,
            "test_mae": mae,
        }, path)
        print(f"wrote {path}")
    return 0


def cmd_sweep(settings: dict) -> int:
    base = _model_config({**settings, "cutoff": max(settings["cutoffs"])})
    train_config = _train_config(settings)
    reports = run_lpf_sweep(*_dataset(settings), base, settings["cutoffs"], train_config)
    out = _out_dir(settings)
    write_sweep(reports, out / "sweep.report")
    for report in reports:
        print(f"cutoff {report.lpf_cutoff}: test_mse = {report.test_mse!r}")
    print(f"wrote {out / 'sweep.report'}, {out / 'sweep.csv'}")
    return 0


def cmd_ablate(settings: dict) -> int:
    config = _model_config({**settings, "mode": Mode.MIX})
    train_config = _train_config(settings)
    reports = run_ablation(*_dataset(settings), config, train_config)
    out = _out_dir(settings)
    write_reports_csv(reports, out / "ablation.csv")
    for report in reports:
        write_report(report, out / f"{report.basename()}.report")
        print(f"{report.mode}: test_mse = {report.test_mse!r} (seed {report.seed})")
    print(f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_gradcheck(settings: dict) -> int:
    if not settings["trials"] > 0:
        raise ConfigError(f"trials must be >= 1, got {settings['trials']}")
    if settings["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {settings['seed']}")
    worst = 0.0
    worst_param = ""
    for config, params, x, y in gradcheck_trials(settings["seed"], settings["trials"]):
        result = grad_check(params, x, y, config)
        if result.max_rel_error > worst:
            worst = result.max_rel_error
            worst_param = result.worst_param
    print(f"checked {settings['trials']} configs; "
          f"max relative discrepancy = {worst:.3e} (parameter {worst_param!r})")
    if not worst <= 1e-12:
        print(f"error: gradient check failed on parameter {worst_param!r} "
              f"(max relative discrepancy {worst:.3e} > 1e-12)", file=sys.stderr)
        return 1
    return 0


def cmd_synth(settings: dict) -> int:
    series = synth_generate(
        length=settings["length"],
        period=settings["period"],
        amplitudes=tuple(settings["amplitudes"]),
        trend_slope=settings["slope"],
        noise_std=settings["noise"],
        seed=settings["seed"],
        channels=settings["channels"],
    )
    out = Path(settings["out"])
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(series, out)
    print(f"wrote {out} ({series.length} rows, {series.channels} channels)")
    return 0


COMMANDS = {
    "train": (cmd_train, "train a forecaster and write checkpoint/history/report"),
    "eval": (cmd_eval, "evaluate a checkpoint on any dataset's test split"),
    "sweep": (cmd_sweep, "train once per low-pass cutoff and compare"),
    "ablate": (cmd_ablate, "train Mix, TimeOnly, and FreqOnly on one pipeline"),
    "gradcheck": (cmd_gradcheck, "verify analytic gradients with finite differences"),
    "synth": (cmd_synth, "generate a synthetic benchmark-layout CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixlinear",
        description="Ultra-lightweight long-term time series forecasting benchmark rig",
    )
    subparsers = parser.add_subparsers(dest="command")
    for name, (func, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", default=None,
                         help="flat key = value config file (flags override it)")
        for key, (_default, _parser, key_help) in SETTINGS[name].items():
            sub.add_argument(f"--{key}", default=None, help=key_help)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    threads = os.environ.get("MIXLINEAR_THREADS")
    if threads and not _valid_thread_count(threads):
        print(f"error: MIXLINEAR_THREADS must be a positive integer, got {threads!r}",
              file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        settings = resolve_settings(args.command, args)
        echo_manifest(args.command, settings, args.config)
        return args.func(settings)
    except (ConfigError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
