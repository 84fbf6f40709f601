"""MAC accounting, report serialization, and the benchmark runners."""

import tracemalloc

import numpy as np
import pytest

from mixlinear.data.series import RawSeries
from mixlinear.data.split import SplitSpec
from mixlinear.data.synth import synth_generate
from mixlinear.errors import ConfigError, DataError
from mixlinear.evalbench import (
    REPORT_FIELDS,
    TIMING_FIELDS,
    count_macs,
    parse_report,
    run_ablation,
    run_benchmark,
    run_lpf_sweep,
    write_report,
    write_sweep,
)
from mixlinear.evalbench.runner import prepare_windows
from mixlinear.model import Mode, ModelConfig, param_count
from mixlinear.training import TrainConfig

SPLIT = SplitSpec.default()


def tiny_series(seed=0, periodic_only=True):
    return synth_generate(
        800, 8,
        amplitudes=(1.0, 0.3),
        noise_std=0.0 if periodic_only else 0.1,
        seed=seed,
        channels=2,
    )


def tiny_config(**overrides):
    base = dict(lookback=64, horizon=16, period=8, lpf_cutoff=5, latent_width=2)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_train_config(**overrides):
    base = dict(max_epochs=30, patience=10, batch_size=64, seed=1)
    base.update(overrides)
    return TrainConfig(**base)


class TestCountMacs:
    def test_hand_counted_trivial_config(self):
        config = ModelConfig(1, 1, 1, lpf_cutoff=1, latent_width=1)
        # conv 1*1; time 1*(1*1*(1+1)) = 2; freq 1*(2*1*1 + 4*(1+1) + 2*1*1) = 12
        assert count_macs(config) == 1 + 2 + 12

    def test_benchmark_order_of_magnitude(self):
        per_channel = count_macs(ModelConfig(720, 720, 24))
        electricity_channels = 321
        total = per_channel * electricity_channels
        reference = 9_860_000
        assert 0.1 < total / reference < 10.0

    def test_doubling_horizon_roughly_doubles_freq_term(self):
        def freq_term(horizon):
            mix = count_macs(ModelConfig(720, horizon, 24))
            time_only = count_macs(ModelConfig(720, horizon, 24, mode=Mode.TIME_ONLY))
            return mix - time_only

        ratio = freq_term(1440) / freq_term(720)
        assert 1.5 < ratio < 2.5

    def test_monotone_in_each_knob(self):
        base = dict(lookback=240, horizon=240, period=24, lpf_cutoff=3, latent_width=2)
        for knob, values in [
            ("lookback", [240, 480, 720, 1200]),
            ("horizon", [240, 480, 720, 1200]),
            ("lpf_cutoff", [3, 4, 5, 6]),
            ("latent_width", [2, 3]),
        ]:
            counts = [count_macs(ModelConfig(**{**base, knob: v})) for v in values]
            assert counts == sorted(counts), knob

    def test_sparse_baseline_count(self):
        config = ModelConfig(720, 720, 24, mode=Mode.SPARSE_BASELINE)
        assert count_macs(config) == 720 * 24 + 24 * 30 * 30


@pytest.fixture(scope="module")
def benchmark_report():
    return run_benchmark(tiny_series(), "synthtiny", SPLIT, tiny_config(),
                         tiny_train_config())


class TestPrepareWindows:
    CONFIG = ModelConfig(24, 8, 4, lpf_cutoff=2, latent_width=1)

    @staticmethod
    def fixed_series(order="C"):
        # only correctly rounded arithmetic, so the values are the same anywhere
        t = np.arange(400.0)[:, None]
        values = ((t * 37 + np.arange(3.0) * 11) % 101) / 7.0 + 0.001 * t
        return RawSeries([f"t{i}" for i in range(400)], np.array(values, order=order),
                         ["a", "b", "c"])

    def test_bases_view_one_standardized_array(self):
        lookback = self.CONFIG.lookback
        train, val, test, _ = prepare_windows(self.fixed_series(), SplitSpec.ett(), self.CONFIG)
        owner = train.base.base
        assert owner.shape == (400, 3) and owner.flags.c_contiguous
        assert all(np.shares_memory(ws.base, owner) for ws in (val, test))
        # each look-back overlap is the previous split's last rows, held once
        assert val.base[:lookback].ctypes.data == train.base[-lookback:].ctypes.data
        assert test.base[:lookback].ctypes.data == val.base[-lookback:].ctypes.data

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bases_are_each_split_standardized(self, order):
        series = self.fixed_series(order)
        b1, b2 = SplitSpec.ett().boundaries(series.length)
        lookback = self.CONFIG.lookback
        splits = (series.values[:b1], series.values[b1 - lookback:b2],
                  series.values[b2 - lookback:])
        mean, std = splits[0].mean(axis=0), splits[0].std(axis=0)
        windows = prepare_windows(series, SplitSpec.ett(), self.CONFIG)[:3]
        for ws, split in zip(windows, splits):
            assert ws.base.tobytes() == ((split - mean) / std).tobytes()

    def test_pipeline_digest_is_pinned(self):
        # the digest of the three splits standardized one by one
        *_, digest = prepare_windows(self.fixed_series(), SplitSpec.ett(), self.CONFIG)
        assert digest == "f6dd03b64de4eda4130dc99bfbbafe28c507cbbb9692765dd47222c800ac621b"

    def test_peak_memory_is_one_series(self):
        # three standardized splits and a tobytes() copy per hash peaked at 1.65x;
        # the 64 KiB are numpy's iteration buffer
        values = np.random.default_rng(8).normal(size=(4000, 64))
        series = RawSeries([f"t{i}" for i in range(4000)], values,
                           [f"c{j}" for j in range(64)])
        config = ModelConfig(96, 24, 12, lpf_cutoff=2, latent_width=1)
        prepare_windows(series, SplitSpec.ett(), config)
        tracemalloc.start()
        try:
            prepare_windows(series, SplitSpec.ett(), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * values.nbytes + 64 * 1024


class TestRunBenchmark:
    def test_periodic_synthetic_reaches_low_mse(self, benchmark_report):
        assert benchmark_report.test_mse < 1e-2

    def test_param_count_matches_model(self, benchmark_report):
        assert benchmark_report.param_count == param_count(tiny_config())

    def test_report_carries_attachments(self, benchmark_report):
        assert benchmark_report.params is not None
        assert benchmark_report.history is not None
        assert benchmark_report.epochs_run == benchmark_report.history.epochs

    def test_reproducible_metrics(self, benchmark_report):
        again = run_benchmark(tiny_series(), "synthtiny", SPLIT, tiny_config(),
                              tiny_train_config())
        assert abs(again.test_mse - benchmark_report.test_mse) < 1e-9
        assert abs(again.test_mae - benchmark_report.test_mae) < 1e-9
        assert again.pipeline_hash == benchmark_report.pipeline_hash

    def test_stage_context_on_errors(self):
        short = synth_generate(60, 8, seed=0, channels=1)
        with pytest.raises(ConfigError, match=r"\[split\]"):
            run_benchmark(short, "short", SPLIT, tiny_config(), tiny_train_config())


class TestReportSerialization:
    def test_write_parse_round_trip(self, benchmark_report, tmp_path):
        path = tmp_path / "run.report"
        write_report(benchmark_report, path)
        loaded = parse_report(path)
        for name in REPORT_FIELDS:
            assert getattr(loaded, name) == getattr(benchmark_report, name), name

    def test_same_inputs_identical_apart_from_timing(self, benchmark_report, tmp_path):
        again = run_benchmark(tiny_series(), "synthtiny", SPLIT, tiny_config(),
                              tiny_train_config())
        a, b = tmp_path / "a.report", tmp_path / "b.report"
        write_report(benchmark_report, a)
        write_report(again, b)

        def stable_lines(path):
            return [
                line for line in path.read_text().splitlines()
                if line.split(" = ")[0] not in TIMING_FIELDS
            ]

        assert stable_lines(a) == stable_lines(b)

    def test_csv_written_beside_report(self, benchmark_report, tmp_path):
        path = tmp_path / "run.report"
        write_report(benchmark_report, path)
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["schema_version", "dataset"]
        assert len(lines) == 2

    # the file layout, written out: reordering RunReport's fields must fail here
    LAYOUT = [
        "schema_version", "dataset", "mode", "lookback", "horizon", "period",
        "lpf_cutoff", "latent_width", "seed", "split", "batch_size",
        "learning_rate", "max_epochs", "patience", "epochs_run", "best_epoch",
        "test_mse", "test_mae", "param_count", "mac_count", "mac_convention",
        "pipeline_hash", "train_seconds_per_epoch", "total_seconds",
    ]

    def test_layout_pinned(self, benchmark_report, tmp_path):
        path = tmp_path / "run.report"
        write_report(benchmark_report, path)
        keys = [line.split(" = ")[0] for line in path.read_text().splitlines()]
        header = (tmp_path / "run.csv").read_text().splitlines()[0].split(",")
        assert keys == self.LAYOUT
        assert header == self.LAYOUT
        assert list(REPORT_FIELDS) == self.LAYOUT

    def test_unconvertible_value_names_field_and_file(self, benchmark_report, tmp_path):
        path = tmp_path / "run.report"
        write_report(benchmark_report, path)
        path.write_text(path.read_text().replace("lookback = 64\n", "lookback = 64.5\n"))
        with pytest.raises(DataError, match=r"run\.report.*lookback.*'64\.5'"):
            parse_report(path)

    def test_non_utf8_report_is_data_error(self, benchmark_report, tmp_path):
        path = tmp_path / "run.report"
        write_report(benchmark_report, path)
        path.write_bytes(path.read_bytes().replace(b"synthtiny", b"synth\xfftiny"))
        with pytest.raises(DataError, match=r"run\.report"):
            parse_report(path)


@pytest.fixture(scope="module")
def ablation_reports():
    return run_ablation(tiny_series(), "synthtiny", SPLIT, tiny_config(),
                        tiny_train_config())


class TestRunAblation:
    def test_three_modes_in_order(self, ablation_reports):
        assert [r.mode for r in ablation_reports] == ["Mix", "TimeOnly", "FreqOnly"]

    def test_shared_pipeline_hashes(self, ablation_reports):
        hashes = {r.pipeline_hash for r in ablation_reports}
        assert len(hashes) == 1

    def test_mix_and_time_only_near_zero_on_periodic_data(self, ablation_reports):
        by_mode = {r.mode: r for r in ablation_reports}
        assert by_mode["Mix"].test_mse < 1e-2
        assert by_mode["TimeOnly"].test_mse < 1e-2

    def test_freq_only_beats_constant_mean_predictor(self):
        # sinusoid whose own period (12) is incommensurate with the model
        # period (8): the phase drifts between windows, so predicting the
        # window mean is far from optimal while the spectral path can track it
        series = synth_generate(800, 12, amplitudes=(1.0,), noise_std=0.0,
                                seed=3, channels=1)
        config = tiny_config(mode=Mode.FREQ_ONLY)
        report = run_benchmark(series, "drift", SPLIT, config, tiny_train_config())

        from mixlinear.evalbench.runner import prepare_windows
        from mixlinear.model import init_params
        from mixlinear.training import evaluate
        _, _, test_ws, _ = prepare_windows(series, SPLIT, config)
        zero_params = init_params(config, 0)
        for _, arr in zero_params.named_arrays():
            arr[...] = 0.0
        mean_mse, _ = evaluate(zero_params, test_ws, config)
        assert report.test_mse < 0.5 * mean_mse


@pytest.fixture(scope="module")
def sweep():
    return run_lpf_sweep(tiny_series(), "synthtiny", SPLIT, tiny_config(),
                         [5, 2, 3], tiny_train_config(max_epochs=6))


class TestRunLpfSweep:
    def test_unsorted_cutoffs_sorted_in_output(self, sweep):
        assert [r.lpf_cutoff for r in sweep] == [2, 3, 5]

    def test_identical_pipeline_hashes(self, sweep):
        assert len({r.pipeline_hash for r in sweep}) == 1

    def test_sweep_files(self, sweep, tmp_path):
        path = tmp_path / "sweep.report"
        write_sweep(sweep, path)
        text = path.read_text()
        assert "swept_values = 2,3,5" in text
        csv_lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(csv_lines) == 4  # header + 3 rows

    def test_out_of_range_cutoff_rejected(self):
        with pytest.raises(ConfigError):
            run_lpf_sweep(tiny_series(), "synthtiny", SPLIT, tiny_config(),
                          [1, 99], tiny_train_config())

    def test_full_spectrum_cutoff_is_no_op_slice(self):
        # cutoff == bins_in keeps the whole spectrum: same run as slicing
        # nothing, checked at the forward level
        from mixlinear.model import forward, init_params, plan_shapes
        config = tiny_config(lpf_cutoff=5)  # bins_in = 5 for n_hat = 9
        plan = plan_shapes(config)
        assert config.lpf_cutoff == plan.bins_in
        params = init_params(config, 5)
        x = np.random.default_rng(8).normal(size=config.lookback)
        out = forward(x, params, config)
        assert out.shape == (config.horizon,)
