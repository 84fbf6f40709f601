"""The benchmark's workloads: generated inputs, set-up, timed passes, checks.

A workload runs in one process.  Its inputs come from ``synth_generate``
with the seed the benchmark receives; the CSV (and, for the eval workload,
the checkpoint) is written once per (workload, seed) outside any timed
region, and the program then ingests it through ``load_csv`` as the CLI
does.  A *pass* is the workload's fixed unit of timed work; passes repeat
until the run's time is used up, and every pass of one run must produce
the bit-identical test MSE.

A row is one (window, channel) univariate series: channels are forecast
independently, so rows are the unit the model's cost scales with.
"""

import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mixlinear.data import SplitSpec, load_csv, save_csv, synth_generate
from mixlinear.data.windows import WindowSet
from mixlinear.errors import NumericError
from mixlinear.evalbench import count_macs, prepare_windows
from mixlinear.model import ModelConfig, forward_batch, load_checkpoint, save_checkpoint
from mixlinear.numerics import dft_matrix, idft_matrix
from mixlinear.training import TrainConfig, evaluate, train

from tracer import Site, Tracer

PERIOD = 24
LOOKBACK = 720
# Set-up repeats at least this many times and for at least this long, so
# that even a 50 ms set-up reports the median of many samples.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
PROBE_WINDOWS = 8
# The workload seed drives the generated data only.  Initialisation and
# shuffling use a fixed seed: with the seed varying too, the test MSE of the
# short training passes spread by a factor of two across seeds.
TRAIN_SEED = 0
# The eval checkpoint is fitted on a channel subset with small batches, so
# that it is cheap to make yet trained enough for its test MSE to be stable.
CHECKPOINT_FIT = {"channels": 7, "batch_size": 8, "max_epochs": 6}


@dataclass(frozen=True)
class Workload:
    name: str
    length: int
    channels: int
    split: str
    horizon: int
    epochs: int                     # per pass; 0 means the pass only evaluates
    eval_windows: int | None = None  # test-window prefix an eval-only pass scores

    @property
    def config(self) -> ModelConfig:
        return ModelConfig(LOOKBACK, self.horizon, PERIOD)

    @property
    def trains(self) -> bool:
        return self.epochs > 0


WORKLOADS = {
    w.name: w
    for w in (
        # ETTh1 shape, the paper's headline setting: 7 channels x 256 windows
        # = 1792 rows per optimisation step.
        Workload("etth1-train", 17420, 7, "ett", 96, epochs=1),
        # Electricity width (321 channels), forward only.  The series is
        # shortened and the prefix kept to 64 windows (20544 rows per forward
        # call) so that ingest and peak memory fit a small shared machine.
        Workload("electricity-eval", 2000, 321, "default", 96, epochs=0,
                 eval_windows=64),
        # Single-channel ETTh1 at the long horizon: 256 rows per step, so
        # per-step fixed costs weigh more.
        Workload("etth1-univariate-train", 17420, 1, "ett", 720, epochs=1),
    )
}

COMMON_SPANS = {"data.load_csv", "evalbench.prepare_windows", "data.batch",
                "model.forward", "numerics.conv1d", "numerics.rfft",
                "training.evaluate"}
TRAIN_SPANS = {"training.train", "training.backward", "model.trace_forward",
               "training.adam"}
EVAL_SPANS = {"model.load_checkpoint"}


def generator_params(workload: Workload, seed: int) -> dict:
    return {"length": workload.length, "period": PERIOD,
            "amplitudes": (1.0, 0.5, 0.25), "trend_slope": 1e-4,
            "noise_std": 0.3, "seed": seed, "channels": workload.channels}


class Checks:
    """Output checks; each one is an operation that passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)


@dataclass
class Inputs:
    csv: Path
    checkpoint: Path | None
    record: dict


@dataclass
class Prepared:
    config: ModelConfig
    params: object  # MixLinearParams from the checkpoint, eval workload only
    train: WindowSet
    val: WindowSet
    test: WindowSet
    digest: str


@dataclass
class Pass:
    wall_seconds: float
    epoch_seconds: list[float]
    rows_per_epoch: int
    eval_seconds: float
    eval_rows: int
    test_mse: float
    losses: list[float] = field(default_factory=list)
    params: object = None


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def _prefix(windows: WindowSet, count: int) -> WindowSet:
    """The first ``count`` windows of a window set."""
    rows = count + windows.lookback + windows.horizon - 1
    return WindowSet(windows.base[:rows], windows.lookback, windows.horizon)


def _fit_checkpoint(series, workload: Workload, path: Path) -> None:
    """A briefly trained checkpoint for the eval workload to score."""
    config = workload.config
    train_ws, val_ws, _, _ = prepare_windows(series, SplitSpec.preset(workload.split), config)
    channels = CHECKPOINT_FIT["channels"]
    subset = [WindowSet(ws.base[:, :channels], ws.lookback, ws.horizon)
              for ws in (train_ws, val_ws)]
    train_config = TrainConfig(batch_size=CHECKPOINT_FIT["batch_size"],
                               max_epochs=CHECKPOINT_FIT["max_epochs"], seed=TRAIN_SEED)
    params, _ = train(*subset, config, train_config)
    save_checkpoint(path, config, params)


def ensure_inputs(workload: Workload, seed: int, root: Path) -> Inputs:
    """Generate the series, write its files once, and describe them.

    The series is regenerated on every run, so its digest proves the
    generator deterministic even when the files already exist.
    """
    params = generator_params(workload, seed)
    series = synth_generate(**params)
    folder = root / "inputs"
    folder.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-s{seed}"
    csv_path = folder / f"{stem}.csv"
    if not csv_path.exists():
        partial = csv_path.with_name(csv_path.name + ".partial")
        save_csv(series, partial)
        partial.replace(csv_path)
    checkpoint = None
    if not workload.trains:
        checkpoint = folder / f"{stem}.ckpt"
        if not checkpoint.exists():
            partial = checkpoint.with_name(checkpoint.name + ".partial")
            _fit_checkpoint(series, workload, partial)
            partial.replace(checkpoint)
    record = {
        "generator": {**params, "amplitudes": list(params["amplitudes"])},
        "series_sha256": _sha256(np.ascontiguousarray(series.values, "<f8").tobytes()),
        "csv_sha256": _sha256(csv_path.read_bytes()),
        "checkpoint_sha256": checkpoint and _sha256(checkpoint.read_bytes()),
    }
    return Inputs(csv_path, checkpoint, record)


def set_up(workload: Workload, inputs: Inputs) -> Prepared:
    """What a user pays before the first forecast: ingest and windowing."""
    params = None
    config = workload.config
    if inputs.checkpoint is not None:
        config, _, params = load_checkpoint(inputs.checkpoint)
    series = load_csv(inputs.csv)
    train_ws, val_ws, test_ws, digest = prepare_windows(
        series, SplitSpec.preset(workload.split), config)
    if workload.eval_windows is not None:
        test_ws = _prefix(test_ws, workload.eval_windows)
    return Prepared(config, params, train_ws, val_ws, test_ws, digest)


def run_pass(workload: Workload, prep: Prepared) -> Pass:
    config = workload.config
    eval_rows = prep.test.count * prep.test.channels
    start = time.perf_counter()
    if not workload.trains:
        test_mse, _ = evaluate(prep.params, prep.test, config)
        seconds = time.perf_counter() - start
        return Pass(seconds, [seconds], eval_rows, seconds, eval_rows, test_mse,
                    params=prep.params)
    train_config = TrainConfig(max_epochs=workload.epochs, patience=workload.epochs,
                               seed=TRAIN_SEED)
    params, history = train(prep.train, prep.val, config, train_config)
    eval_start = time.perf_counter()
    test_mse, _ = evaluate(params, prep.test, config)
    end = time.perf_counter()
    return Pass(end - start, list(history.seconds),
                prep.train.count * prep.train.channels, end - eval_start, eval_rows,
                test_mse, history.train_mse + history.val_mse, params)


def _probe_mse(params, windows: WindowSet, config: ModelConfig) -> float:
    """MSE over the first windows, recomputed window by window."""
    sq_sum = 0.0
    count = 0
    for k in range(min(PROBE_WINDOWS, windows.count)):
        x, y = windows.window(k)
        err = forward_batch(x.T, params, config).T - y
        sq_sum += float(np.sum(err * err))
        count += err.size
    return sq_sum / count


def check_pass(checks: Checks, workload: Workload, prep: Prepared, result: Pass,
               first: Pass) -> None:
    checks.expect(all(np.isfinite(result.losses + [result.test_mse])),
                  "losses and test MSE are finite")
    if workload.trains:
        checks.expect(len(result.epoch_seconds) == workload.epochs,
                      f"every pass runs {workload.epochs} epoch(s)")
    probe = _prefix(prep.test, PROBE_WINDOWS)
    evaluated, _ = evaluate(result.params, probe, workload.config)
    recomputed = _probe_mse(result.params, probe, workload.config)
    checks.expect(abs(evaluated - recomputed) <= 1e-12 * recomputed,
                  f"evaluate MSE {evaluated!r} matches forward_batch MSE {recomputed!r}")
    checks.expect(result.test_mse == first.test_mse,
                  f"test MSE {result.test_mse!r} repeats the first pass's {first.test_mse!r}")


def check_record(checks: Checks, root: Path, workload: Workload, seed: int,
                 record: dict) -> None:
    """Fail when another run of this (workload, seed) saw different inputs."""
    folder = root / "records"
    folder.mkdir(parents=True, exist_ok=True)
    path = folder / f"{workload.name}-s{seed}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        for key, value in record.items():
            checks.expect(previous.get(key) == value,
                          f"{key} matches the earlier run of seed {seed}")
    else:
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def _windows_work(windows, indices, *_):
    count = len(indices)
    width = windows.lookback + windows.horizon
    return {"windows": count, "bytes": count * width * windows.channels * 8}


def _rows_work(rows, *_):
    return {"rows": rows.shape[0]}


def call_sites() -> list[Site]:
    """Every wrapped call, named where it is called from."""
    here = sys.modules[__name__]
    loop = importlib.import_module("mixlinear.training.loop")
    backward = importlib.import_module("mixlinear.training.backward")
    forward = importlib.import_module("mixlinear.model.forward")
    return [
        Site(here, "load_csv", "data.load_csv"),
        Site(here, "prepare_windows", "evalbench.prepare_windows"),
        Site(here, "load_checkpoint", "model.load_checkpoint"),
        Site(here, "train", "training.train"),
        Site(here, "evaluate", "training.evaluate"),
        Site(loop, "evaluate", "training.evaluate"),
        Site(loop, "backward", "training.backward"),
        Site(loop, "adam_step", "training.adam"),
        Site(loop, "forward_batch", "model.forward", _rows_work),
        Site(backward, "forward_batch_with_trace", "model.trace_forward", _rows_work),
        Site(forward, "conv1d_same_batch", "numerics.conv1d", _rows_work),
        Site(forward, "rfft_batch", "numerics.rfft"),
        Site(WindowSet, "batch", "data.batch", _windows_work),
    ]


@contextmanager
def traced(tracer: Tracer | None, request: str):
    if tracer is None:
        yield
        return
    tracer.request = request
    tracer.install(call_sites())
    try:
        yield
    finally:
        tracer.uninstall()


def _dft_cache() -> tuple[int, int]:
    infos = (dft_matrix.cache_info(), idft_matrix.cache_info())
    return sum(i.hits for i in infos), sum(i.hits + i.misses for i in infos)


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, 0 for no samples."""
    return float(np.percentile(values, q)) if values else 0.0


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
    }


def _epoch_seconds(passes: list[Pass]) -> list[float]:
    return [s for p in passes for s in p.epoch_seconds]


def _eval_rates(passes: list[Pass]) -> list[float]:
    return [p.eval_rows / p.eval_seconds for p in passes]


def end_to_end(setups: list[float], passes: list[Pass]) -> dict:
    """name -> (value, sample count), measured with tracing off."""
    epochs = _epoch_seconds(passes)
    rows = sum(p.rows_per_epoch * len(p.epoch_seconds) for p in passes)
    eval_rates = _eval_rates(passes)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "epoch_s": (statistics.median(epochs), len(epochs)),
        "train_rows_per_s": (rows / sum(epochs), len(epochs)),
        "eval_rows_per_s": (statistics.median(eval_rates), len(eval_rates)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "test_mse": (passes[0].test_mse, len(passes)),
    }


def per_layer(tracer: Tracer, workload: Workload, untraced: list[Pass],
              traced_passes: list[Pass], cache: tuple[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes and set-ups, and each
    layer's share of traced pass time."""
    n = len(traced_passes)
    in_pass = [s for s in tracer.spans if s.request.startswith("pass")]
    in_setup = [s for s in tracer.spans if s.request.startswith("setup")]

    def spans(name, pool=in_pass):
        return [s for s in pool if s.name == name]

    def per_pass(values) -> tuple[float, int]:
        values = list(values)
        return sum(values) / n, len(values)

    def setup_median(name) -> tuple[float, int]:
        seconds = [s.seconds for s in spans(name, in_setup)]
        return (statistics.median(seconds) if seconds else 0.0), len(seconds)

    forward = spans("model.forward")
    forward_seconds = sum(s.seconds for s in forward)
    forward_rows = sum(s.work["rows"] for s in forward)
    backward_ms = [s.seconds * 1e3 for s in spans("training.backward")]
    hits, lookups = cache
    metrics = {
        "data.load_csv_s": setup_median("data.load_csv"),
        "data.batch_s": per_pass(s.seconds for s in spans("data.batch")),
        "data.batch_windows": per_pass(s.work["windows"] for s in spans("data.batch")),
        "data.batch_bytes": per_pass(s.work["bytes"] for s in spans("data.batch")),
        "evalbench.prepare_windows_s": setup_median("evalbench.prepare_windows"),
        "model.load_checkpoint_s": setup_median("model.load_checkpoint"),
        "model.forward_calls": (len(forward) / n, len(forward)),
        "model.forward_rows": per_pass(s.work["rows"] for s in forward),
        "model.forward_self_s": per_pass(s.self_seconds for s in forward),
        "model.trace_forward_self_s": per_pass(
            s.self_seconds for s in spans("model.trace_forward")),
        "model.forward_macs_per_s": (
            forward_rows * count_macs(workload.config) / forward_seconds
            if forward_seconds else 0.0, len(forward)),
        "numerics.conv1d_s": per_pass(s.seconds for s in spans("numerics.conv1d")),
        "numerics.conv1d_rows": per_pass(s.work["rows"] for s in spans("numerics.conv1d")),
        "numerics.rfft_s": per_pass(s.seconds for s in spans("numerics.rfft")),
        "numerics.dft_cache_hit_ratio": (hits / lookups if lookups else 0.0, lookups),
        "numerics.dft_cache_lookups": (lookups / n, lookups),
        "training.backward_self_s": per_pass(
            s.self_seconds for s in spans("training.backward")),
        "training.backward_calls": (len(backward_ms) / n, len(backward_ms)),
        "training.backward_ms_p50": (_percentile(backward_ms, 50), len(backward_ms)),
        "training.backward_ms_p90": (_percentile(backward_ms, 90), len(backward_ms)),
        "training.adam_s": per_pass(s.seconds for s in spans("training.adam")),
        "training.adam_calls": (len(spans("training.adam")) / n,
                                len(spans("training.adam"))),
        "training.evaluate_self_s": per_pass(
            s.self_seconds for s in spans("training.evaluate")),
        "training.train_self_s": per_pass(
            s.self_seconds for s in spans("training.train")),
        "trace.overhead_epoch_s": (
            statistics.median(_epoch_seconds(traced_passes))
            - statistics.median(_epoch_seconds(untraced)), n),
        "trace.overhead_eval_rows_per_s": (
            statistics.median(_eval_rates(traced_passes))
            - statistics.median(_eval_rates(untraced)), n),
    }
    wall = sum(p.wall_seconds for p in traced_passes)
    shares = {}
    for s in in_pass:
        shares[s.name] = shares.get(s.name, 0.0) + s.self_seconds / wall
    shares["other"] = 1.0 - sum(shares.values())
    return metrics, dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload; returns metrics, checks and the run's record."""
    workload = WORKLOADS[name]
    checks = Checks()
    inputs = ensure_inputs(workload, seed, root)
    tracer = Tracer() if trace else None

    setups = []
    digests = set()
    while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_SECONDS:
        with traced(tracer, f"setup{len(setups)}"):
            start = time.perf_counter()
            prep = set_up(workload, inputs)
            setups.append(time.perf_counter() - start)
        digests.add(prep.digest)
    checks.expect(len(digests) == 1, "every set-up yields the same pipeline digest")
    checks.expect(prep.config == workload.config,
                  "the checkpoint holds the workload's configuration")
    record = {**inputs.record, "pipeline_sha256": prep.digest}
    check_record(checks, root, workload, seed, record)

    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    hits = lookups = 0
    deadline = time.perf_counter() + seconds
    try:
        while not untraced or time.perf_counter() < deadline:
            untraced.append(run_pass(workload, prep))
            check_pass(checks, workload, prep, untraced[-1], untraced[0])
            if tracer is not None:
                before = _dft_cache()
                with traced(tracer, f"pass{len(traced_passes)}"):
                    traced_passes.append(run_pass(workload, prep))
                after = _dft_cache()
                hits += after[0] - before[0]
                lookups += after[1] - before[1]
                check_pass(checks, workload, prep, traced_passes[-1], untraced[0])
    except NumericError as exc:
        checks.expect(False, f"training stays finite: {exc}")
        if not untraced or (tracer is not None and not traced_passes):
            raise

    result = {"environment": environment(seed), "record": record,
              "setup_seconds": setups,
              "passes": [{"traced": is_traced, "wall_seconds": p.wall_seconds,
                          "epoch_seconds": p.epoch_seconds,
                          "eval_seconds": p.eval_seconds}
                         for is_traced, group in ((False, untraced), (True, traced_passes))
                         for p in group]}
    if tracer is None:
        result["metrics"] = end_to_end(setups, untraced)
    else:
        fired = tracer.fired()
        required = COMMON_SPANS | (TRAIN_SPANS if workload.trains else EVAL_SPANS)
        forbidden = EVAL_SPANS if workload.trains else TRAIN_SPANS
        checks.expect(not required - fired, f"spans fired: missing {sorted(required - fired)}")
        checks.expect(not forbidden & fired, f"spans not fired: {sorted(forbidden & fired)}")
        result["metrics"], result["layer_shares"] = per_layer(
            tracer, workload, untraced, traced_passes, (hits, lookups))
        result["spans"] = tracer.to_json()
    result["checks"] = {"attempted": checks.attempted, "failures": checks.failures}
    return result
