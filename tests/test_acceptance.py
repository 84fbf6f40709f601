"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS`` line (run with ``-s`` to see
them live; ``-v`` shows the per-criterion pass/fail status either way).
The ETTh1 reproduction criteria (5, 6, 8) need the real dataset; they
skip with instructions when ``ETTh1.csv`` is not available.
"""

import time

import numpy as np
import pytest

from conftest import require_etth1
from mixlinear.cli import main
from mixlinear.data import SplitSpec, load_csv, synth_generate
from mixlinear.evalbench import run_ablation, run_benchmark, run_lpf_sweep
from mixlinear.model import Mode, ModelConfig, param_count
from mixlinear.numerics import idft_matrix, rfft_batch, spectrum_bins
from mixlinear.training import TrainConfig
from oracles import naive_irfft, naive_rfft

ETTH1_SPLIT = SplitSpec.ett()


def _pass(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS: {message}")


@pytest.fixture(scope="module")
def etth1_series():
    return load_csv(require_etth1())


@pytest.fixture(scope="module")
def etth1_mix_96(etth1_series):
    config = ModelConfig(lookback=720, horizon=96, period=24)
    return run_benchmark(etth1_series, "etth1", ETTH1_SPLIT, config, TrainConfig(seed=0))


def test_criterion_1_dft_oracle_equivalence():
    # the model's own kernels, each vector run as a one-row (1, n) batch
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst_f = worst_i = 0.0
    sizes = [36] + [int(rng.integers(4, 129)) for _ in range(199)]
    for n in sizes:
        x = rng.normal(size=n)
        fast = rfft_batch(x[None, :])[0]
        naive = naive_rfft(x)
        scale = max(float(np.max(np.abs(naive))), 1e-300)
        worst_f = max(worst_f, float(np.max(np.abs(fast - naive))) / scale)

        bins = spectrum_bins(n)
        spectrum = rng.normal(size=bins) + 1j * rng.normal(size=bins)
        fast_inv = (spectrum[None, :] @ idft_matrix(n).T).real[0]
        naive_inv = naive_irfft(list(spectrum), n)
        scale = max(float(np.max(np.abs(naive_inv))), 1e-300)
        worst_i = max(worst_i, float(np.max(np.abs(fast_inv - naive_inv))) / scale)
    elapsed = time.perf_counter() - started
    assert worst_f < 1e-10
    assert worst_i < 1e-10
    assert elapsed < 5.0
    _pass(1, f"rfft_batch/idft_matrix vs naive oracles: {worst_f:.2e}/{worst_i:.2e} "
             f"over {len(sizes)} vectors in {elapsed:.2f}s")


def test_criterion_2_roundtrip_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for n in [1, 2, 3, 4, 7, 16, 36, 100, 255, 512, 1000, 1024]:
        x = rng.normal(size=n)
        back = (rfft_batch(x[None, :]) @ idft_matrix(n).T).real[0]
        worst = max(worst, float(np.max(np.abs(back - x))))
    assert worst < 1e-9
    _pass(2, f"(rfft_batch(x) @ idft_matrix(N).T).real max abs error {worst:.2e} "
             f"up to N=1024")


def test_criterion_3_gradient_correctness(capsys):
    started = time.perf_counter()
    rc = main(["gradcheck", "--trials", "20", "--seed", "202"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    assert rc == 0
    line = [l for l in out.splitlines() if "max relative discrepancy" in l][0]
    value = float(line.split("=")[1].split("(")[0])
    assert value < 1e-4
    assert elapsed < 30.0
    with capsys.disabled():
        _pass(3, f"cmd_gradcheck over 20 configs: {value:.2e} in {elapsed:.1f}s")


def test_criterion_4_synthetic_oracle():
    # a noiseless w-periodic signal is exactly predictable from one period
    series = synth_generate(5000, 24, amplitudes=(1.0,), trend_slope=0.0,
                            noise_std=0.0, seed=400, channels=2)
    config = ModelConfig(lookback=720, horizon=96, period=24)
    started = time.perf_counter()
    report = run_benchmark(series, "synthetic", SplitSpec.default(), config,
                           TrainConfig(seed=0))
    elapsed = time.perf_counter() - started
    assert report.test_mse < 1e-2
    assert elapsed < 120.0
    _pass(4, f"synthetic periodic test MSE {report.test_mse:.2e} in {elapsed:.0f}s")


def test_criterion_5_etth1_reproduction(etth1_series, etth1_mix_96):
    targets = {96: 0.351, 720: 0.423}
    results = {96: etth1_mix_96.test_mse}
    started = time.perf_counter()
    config = ModelConfig(lookback=720, horizon=720, period=24)
    report720 = run_benchmark(etth1_series, "etth1", ETTH1_SPLIT, config,
                              TrainConfig(seed=0))
    elapsed = time.perf_counter() - started
    results[720] = report720.test_mse
    for horizon, target in targets.items():
        assert abs(results[horizon] - target) <= 0.02, (
            f"H={horizon}: got {results[horizon]:.4f}, want {target}+-0.02"
        )
    assert elapsed < 900.0
    _pass(5, f"ETTh1 MSE h96={results[96]:.4f} (target 0.351+-0.02), "
             f"h720={results[720]:.4f} (target 0.423+-0.02)")


def test_criterion_6_ablation_ordering(etth1_series):
    config = ModelConfig(lookback=720, horizon=96, period=24)
    reports = run_ablation(etth1_series, "etth1", ETTH1_SPLIT, config,
                           TrainConfig(seed=0))
    by_mode = {r.mode: r.test_mse for r in reports}
    assert by_mode["Mix"] <= by_mode["TimeOnly"] + 0.005
    assert by_mode["Mix"] <= by_mode["FreqOnly"] + 0.005
    _pass(6, f"ETTh1/96 Mix {by_mode['Mix']:.4f} <= TimeOnly "
             f"{by_mode['TimeOnly']:.4f} and FreqOnly {by_mode['FreqOnly']:.4f} + 0.005")


def test_criterion_7_parameter_budget():
    benchmark = ModelConfig(720, 720, 24)
    count = param_count(benchmark)
    assert 150 <= count <= 250
    quadrupled = param_count(ModelConfig(2880, 2880, 24))
    assert quadrupled < 3 * count
    sparse = param_count(ModelConfig(720, 720, 24, mode=Mode.SPARSE_BASELINE))
    sparse_quadrupled = param_count(ModelConfig(2880, 2880, 24, mode=Mode.SPARSE_BASELINE))
    assert sparse_quadrupled > 10 * sparse
    _pass(7, f"param count {count} in [150, 250]; 4x growth {quadrupled / count:.2f}x "
             f"vs baseline {sparse_quadrupled / sparse:.1f}x")


def test_criterion_8_lpf_sweep_trend(etth1_series):
    config = ModelConfig(lookback=720, horizon=96, period=24)
    reports = run_lpf_sweep(etth1_series, "etth1", ETTH1_SPLIT, config, [1, 5],
                            TrainConfig(seed=0))
    mse = {r.lpf_cutoff: r.test_mse for r in reports}
    assert mse[1] >= mse[5] - 0.005
    _pass(8, f"ETTh1/96 MSE cutoff1 {mse[1]:.4f} >= cutoff5 {mse[5]:.4f} - 0.005")


def test_criterion_9_determinism(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    rc = main(["synth", "--out", str(csv_path), "--length", "1500",
               "--period", "8", "--channels", "2", "--noise", "0.1",
               "--seed", "900"])
    assert rc == 0
    flags = [
        "--data", str(csv_path), "--lookback", "64", "--horizon", "16",
        "--period", "8", "--epochs", "5", "--batch", "64", "--seed", "42",
    ]
    assert main(["train", *flags, "--out", str(tmp_path / "a")]) == 0
    assert main(["train", *flags, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()

    ckpt_a = (tmp_path / "a" / "model.ckpt").read_bytes()
    ckpt_b = (tmp_path / "b" / "model.ckpt").read_bytes()
    assert ckpt_a == ckpt_b

    from mixlinear.evalbench import parse_report
    report_a = parse_report(next((tmp_path / "a").glob("*.report")))
    report_b = parse_report(next((tmp_path / "b").glob("*.report")))
    assert abs(report_a.test_mse - report_b.test_mse) < 1e-9
    assert abs(report_a.test_mae - report_b.test_mae) < 1e-9
    with capsys.disabled():
        _pass(9, "identical seeds: byte-identical checkpoints, metrics equal")
