"""Gradients, Adam, and the train/evaluate loop."""

import csv
import importlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlinear.data.split import Segment
from mixlinear.data.synth import synth_generate
from mixlinear.data.windows import WindowSet, make_windows
from mixlinear.errors import ConfigError, NumericError
from mixlinear.model import (
    Mode,
    ModelConfig,
    forward,
    forward_batch,
    forward_batch_with_trace,
    init_params,
    plan_shapes,
)
from mixlinear.model.forward import (
    ForwardTrace,
    Path,
    choose_path,
    forecast_map,
    phase_map,
    window_map,
)
from mixlinear.training import (
    TrainConfig,
    adam_step,
    backward,
    evaluate,
    grad_check,
    init_adam,
    random_small_config,
    train,
    write_history,
)
from mixlinear.training.backward import _affine_map_adjoint, _window_map_adjoint
from oracles import decompose_trend_loop, forward_loop, loop_mae, loop_mse
from test_model import zeroed

# the package re-exports functions that shadow these module names
backward_module = importlib.import_module("mixlinear.training.backward")
forward_module = importlib.import_module("mixlinear.model.forward")
loop_module = importlib.import_module("mixlinear.training.loop")


class TestBackward:
    def test_degenerate_zero_param_graph(self):
        # Zero parameters: prediction is the window mean everywhere, so the
        # only surviving gradient is the second segment bias, weighted by
        # how many output positions each of its entries feeds.
        config = ModelConfig(8, 6, 2, lpf_cutoff=2, latent_width=1)
        plan = plan_shapes(config)
        params = zeroed(init_params(config, 0))
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 8))
        target_value = 1.25
        y = np.full((3, 6), target_value)
        loss, grads = backward(x, y, params, config)

        means = x.mean(axis=1)
        assert loss == pytest.approx(float(np.mean((means[:, None] - y) ** 2)))

        counts = np.zeros(plan.seg_out)
        for j in range(plan.m):
            for i in range(config.period):
                if j * config.period + i < config.horizon:
                    counts[j % plan.seg_out] += 1
        expected = (2.0 / (3 * config.horizon)) * float(np.sum(means - target_value)) * counts
        assert np.allclose(grads["b_inter"], expected, atol=1e-12)
        for name, grad in grads.items():
            if name != "b_inter":
                assert np.allclose(grad, 0.0, atol=1e-12), name

    def test_loss_equals_mse_of_forward(self):
        config = ModelConfig(12, 8, 3, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 3)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 12, 2))
        y = rng.normal(size=(4, 8, 2))
        loss, _ = backward(x, y, params, config)
        rows = x.transpose(0, 2, 1).reshape(-1, 12)
        targets = y.transpose(0, 2, 1).reshape(-1, 8)
        assert loss == pytest.approx(loop_mse(forward_batch(rows, params, config), targets))

    def test_empty_batch_rejected(self):
        config = ModelConfig(8, 4, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 0)
        with pytest.raises(ValueError):
            backward(np.zeros((0, 8)), np.zeros((0, 4)), params, config)


class TestGradCheck:
    def test_minimal_square_config(self):
        config = ModelConfig(8, 8, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=(4, 8))
        result = grad_check(params, x, y, config, step=1e-5)
        assert result.max_rel_error < 1e-4

    def test_property_gate_twenty_random_configs(self):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(20):
            config = random_small_config(rng)
            params = init_params(config, int(rng.integers(0, 2**31)))
            x = rng.normal(size=(3, config.lookback))
            y = rng.normal(size=(3, config.horizon))
            result = grad_check(params, x, y, config)
            worst = max(worst, result.max_rel_error)
        assert worst < 1e-4

    def test_step_size_no_cancellation_blow_up(self):
        config = ModelConfig(10, 6, 2, lpf_cutoff=3, latent_width=2)
        params = init_params(config, 7)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 10))
        y = rng.normal(size=(3, 6))
        coarse = grad_check(params, x, y, config, step=1e-3).max_rel_error
        fine = grad_check(params, x, y, config, step=1e-5).max_rel_error
        assert fine < 1e-4 and coarse < 1e-4
        assert fine <= coarse + 1e-7

    def test_expanding_encoder_gradients(self):
        config = ModelConfig(12, 8, 3, lpf_cutoff=1, latent_width=2)
        params = init_params(config, 8)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 12))
        y = rng.normal(size=(3, 8))
        assert grad_check(params, x, y, config).max_rel_error < 1e-4

    def test_zero_batch_zero_targets(self):
        config = ModelConfig(8, 4, 2, lpf_cutoff=2, latent_width=1)
        params = zeroed(init_params(config, 0))
        result = grad_check(params, np.zeros((2, 8)), np.zeros((2, 4)), config)
        assert result.max_rel_error == 0.0

    def test_rejects_nonpositive_step(self):
        # a non-finite step would difference nothing and pass any gate
        config = ModelConfig(8, 4, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 0)
        for step in (0.0, -1e-5, np.nan, np.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                grad_check(params, np.zeros((1, 8)), np.zeros((1, 4)), config, step=step)


class TestAdam:
    def _scalar_setup(self):
        config = ModelConfig(4, 4, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 11)
        return config, params

    def test_zero_gradient_leaves_params(self):
        _, params = self._scalar_setup()
        state = init_adam(params)
        zero = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
        updated, state2 = adam_step(params, zero, state, lr=0.02)
        for (name, arr), (_, arr2) in zip(params.named_arrays(), updated.named_arrays()):
            assert np.array_equal(arr, arr2), name
        assert state2.step == 1

    def test_moments_decay_toward_zero(self):
        _, params = self._scalar_setup()
        state = init_adam(params)
        ones = {name: np.ones_like(arr) for name, arr in params.named_arrays()}
        zero = {name: np.zeros_like(arr) for name, arr in params.named_arrays()}
        params, state = adam_step(params, ones, state, lr=0.01)
        m1 = float(state.m["conv_kernel"][0])
        v1 = float(state.v["conv_kernel"][0])
        params, state = adam_step(params, zero, state, lr=0.01)
        assert abs(float(state.m["conv_kernel"][0])) < abs(m1)
        assert float(state.v["conv_kernel"][0]) < v1
        assert float(state.v["conv_kernel"][0]) >= 0.0

    def test_first_step_is_signed_lr(self):
        _, params = self._scalar_setup()
        state = init_adam(params)
        rng = np.random.default_rng(12)
        grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
        updated, _ = adam_step(params, grads, state, lr=0.02)
        for name, arr in params.named_arrays():
            g = grads[name]
            delta = np.asarray(updated.__getattribute__(name)) - arr
            mask = np.abs(g) > 1e-3
            assert np.allclose(delta[mask], -0.02 * np.sign(g[mask]), atol=1e-4), name

    def test_three_step_hand_trace(self):
        # scripted scalar trace, recomputed with the literal update formulas
        _, params = self._scalar_setup()
        state = init_adam(params)
        lr = 0.1
        gs = [0.5, -0.25, 1.0]
        theta0 = float(params.conv_bias)
        m = v = 0.0
        theta = theta0
        for t, g in enumerate(gs, start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            m_hat = m / (1 - 0.9 ** t)
            v_hat = v / (1 - 0.999 ** t)
            theta = theta - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
        for g in gs:
            grads = {
                name: (np.full(arr.shape, g) if name == "conv_bias" else np.zeros_like(arr))
                for name, arr in params.named_arrays()
            }
            params, state = adam_step(params, grads, state, lr=lr)
        assert float(params.conv_bias) == pytest.approx(theta, rel=1e-12)
        assert state.step == 3

    def test_gradient_scaling_keeps_first_update_direction(self):
        _, params = self._scalar_setup()
        rng = np.random.default_rng(13)
        grads = {name: rng.normal(size=arr.shape) for name, arr in params.named_arrays()}
        scaled = {name: 7.3 * g for name, g in grads.items()}
        a, _ = adam_step(params, grads, init_adam(params), lr=0.02)
        b, _ = adam_step(params, scaled, init_adam(params), lr=0.02)
        for name, arr in params.named_arrays():
            da = np.sign(np.asarray(getattr(a, name)) - arr)
            db = np.sign(np.asarray(getattr(b, name)) - arr)
            assert np.array_equal(da, db), name


def _window_set(values: np.ndarray, lookback: int, horizon: int) -> WindowSet:
    return make_windows(Segment(values, "test", standardized=True), lookback, horizon)


class TestTrainLoop:
    def _tiny_setup(self, seed=0):
        series = synth_generate(200, 4, amplitudes=(1.0, 0.4), noise_std=0.05,
                                seed=seed, channels=2)
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        split = int(0.7 * 200)
        train_ws = _window_set(series.values[:split], 16, 8)
        val_ws = _window_set(series.values[split - 16:], 16, 8)
        return config, train_ws, val_ws

    def test_returns_best_validation_params(self):
        config, train_ws, val_ws = self._tiny_setup()
        tc = TrainConfig(max_epochs=5, patience=10, batch_size=32, seed=1)
        params, history = train(train_ws, val_ws, config, tc)
        best_again, _ = evaluate(params, val_ws, config)
        assert best_again == pytest.approx(min(history.val_mse), rel=1e-12)
        assert history.best_epoch == int(np.argmin(history.val_mse))

    def test_patience_at_least_max_epochs_runs_all(self):
        config, train_ws, val_ws = self._tiny_setup()
        tc = TrainConfig(max_epochs=4, patience=4, batch_size=32, seed=2)
        _, history = train(train_ws, val_ws, config, tc)
        assert history.epochs == 4

    def test_deterministic_given_seed(self):
        config, train_ws, val_ws = self._tiny_setup()
        tc = TrainConfig(max_epochs=3, patience=10, batch_size=32, seed=3)
        params_a, hist_a = train(train_ws, val_ws, config, tc)
        params_b, hist_b = train(train_ws, val_ws, config, tc)
        assert hist_a.train_mse == hist_b.train_mse
        assert hist_a.val_mse == hist_b.val_mse
        for (name, arr_a), (_, arr_b) in zip(params_a.named_arrays(),
                                             params_b.named_arrays()):
            assert arr_a.tobytes() == arr_b.tobytes(), name

    def test_empty_split_rejected(self):
        config, train_ws, _ = self._tiny_setup()
        too_short = Segment(np.zeros((10, 1)), "val", standardized=True)
        with pytest.raises(ConfigError):
            make_windows(too_short, 16, 8)
        with pytest.raises(ConfigError):
            train(train_ws, WindowSet(np.zeros((20, 1)), 16, 8), config,
                  TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("rate", [0.0, -0.02, np.nan, np.inf])
    def test_invalid_learning_rate_rejected(self, rate):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=rate)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_numeric_error(self):
        config, train_ws, val_ws = self._tiny_setup()
        tc = TrainConfig(learning_rate=1e160, max_epochs=5, patience=10,
                         batch_size=32, seed=4)
        with pytest.raises(NumericError):
            train(train_ws, val_ws, config, tc)

    def test_non_finite_validation_window_raises_numeric_error(self):
        # unreported, a NaN makes every val_mse < best_val test False, and
        # train returns its untrained initial parameters
        config, train_ws, val_ws = self._tiny_setup()
        values = val_ws.base.copy()
        values[20, 1] = np.nan
        with pytest.raises(NumericError, match="non-finite evaluation error"):
            train(train_ws, WindowSet(values, 16, 8), config,
                  TrainConfig(max_epochs=2, batch_size=32))

    def test_descent_on_fixed_tiny_batch(self):
        # 50 full-batch Adam steps at lr 0.02 on noiseless periodic data
        series = synth_generate(120, 8, amplitudes=(1.0,), noise_std=0.0, seed=9)
        config = ModelConfig(24, 8, 8, lpf_cutoff=3, latent_width=2)
        ws = _window_set(series.values, 24, 8)
        idx = np.arange(0, 16)
        x, y = ws.batch(idx)
        params = init_params(config, 0)
        state = init_adam(params)
        loss0, _ = backward(x, y, params, config)
        loss = loss0
        for _ in range(50):
            loss, grads = backward(x, y, params, config)
            params, state = adam_step(params, grads, state, lr=0.02)
        assert loss <= 0.1 * loss0

    def test_history_csv_round_trip(self, tmp_path):
        config, train_ws, val_ws = self._tiny_setup()
        tc = TrainConfig(max_epochs=3, patience=10, batch_size=32, seed=5)
        _, history = train(train_ws, val_ws, config, tc)
        path = tmp_path / "history.csv"
        write_history(history, path)
        with open(path, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["epoch", "train_mse", "val_mse", "seconds"]
        assert [int(r[0]) for r in rows] == list(range(history.epochs))
        assert [float(r[1]) for r in rows] == history.train_mse
        assert [float(r[2]) for r in rows] == history.val_mse
        assert [float(r[3]) for r in rows] == history.seconds


class TestEvaluate:
    def test_perfect_predictor_scores_zero(self):
        # an exactly periodic signal is exactly predictable from one period:
        # constant phase rows survive the zero conv, and segment maps that
        # average the five populated segments reproduce them
        config = ModelConfig(720, 720, 24)
        params = zeroed(init_params(config, 0))
        params.w_intra[:] = 1.0 / 6.0
        params.w_inter[:, :5] = 1.0 / 5.0
        pattern = np.random.default_rng(20).normal(size=24)
        values = np.tile(pattern, 90)[:, None]  # 2160 rows, 1 channel
        ws = _window_set(values, 720, 720)
        mse, mae = evaluate(params, ws, config)
        assert mse < 1e-20
        assert mae < 1e-10

    def test_constant_mean_predictor_on_standardized_noise(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(4000, 1))
        values = (values - values.mean()) / values.std()
        config = ModelConfig(64, 16, 8, lpf_cutoff=4, latent_width=2)
        params = zeroed(init_params(config, 0))
        mse, _ = evaluate(params, _window_set(values, 64, 16), config)
        assert 0.9 < mse < 1.15

    def test_matches_scalar_loop_recomputation(self):
        config = ModelConfig(12, 6, 3, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 22)
        rng = np.random.default_rng(22)
        values = rng.normal(size=(30, 2))
        ws = _window_set(values, 12, 6)
        mse, mae = evaluate(params, ws, config)
        preds, targets = [], []
        for k in range(ws.count):
            x, y = ws.window(k)
            for c in range(2):
                preds.append(forward(x[:, c], params, config))
                targets.append(y[:, c])
        assert mse == pytest.approx(loop_mse(np.array(preds), np.array(targets)), rel=1e-10)
        assert mae == pytest.approx(loop_mae(np.array(preds), np.array(targets)), rel=1e-10)

    @pytest.mark.parametrize("config, count, block", [
        (ModelConfig(12, 6, 3, lpf_cutoff=2, latent_width=1), 23, "[0, 23)"),
        # two graph blocks, the NaN in the second
        (ModelConfig(720, 96, 24), 385, "[256, 385)"),
    ])
    def test_non_finite_window_raises_numeric_error(self, config, count, block):
        lookback, horizon = config.lookback, config.horizon
        values = np.random.default_rng(23).normal(size=(count + lookback + horizon - 1, 1))
        values[-10, 0] = np.nan
        with pytest.raises(NumericError, match=re.escape(f"windows {block}")):
            evaluate(init_params(config, 23), _window_set(values, lookback, horizon),
                     config)


def _mode_configs(count_per_mode=4, seed=30):
    rng = np.random.default_rng(seed)
    return [(replace(random_small_config(rng), mode=mode), int(rng.integers(0, 2**31)))
            for mode in Mode for _ in range(count_per_mode)]


def _graph_backward(x, y, params, config):
    """backward on parts of at most L+1 rows, so that every part runs the
    graph; the row-weighted mean is the whole batch's loss and gradient."""
    parts = -(-x.shape[0] // (config.lookback + 1))
    results = [(xs.shape[0], backward(xs, ys, params, config))
               for xs, ys in zip(np.array_split(x, parts), np.array_split(y, parts))]
    loss = sum(rows * part_loss for rows, (part_loss, _) in results) / x.shape[0]
    grads = {name: sum(rows * part_grads[name] for rows, (_, part_grads) in results)
             / x.shape[0] for name in results[0][1][1]}
    return loss, grads


class TestAffineMap:
    """Past L+1 rows, forward_batch and backward run through the window map
    f(x) = (x - mean)A + mean + c, built in closed form from the parameters."""

    @pytest.mark.parametrize("channels, count", [
        # one full 256-window chunk, then 2 more windows
        pytest.param(3, loop_module.EVAL_CHUNK_WINDOWS + 2, id="2"),
        pytest.param(3, 2 * loop_module.EVAL_CHUNK_WINDOWS, id="256"),
        # more channels than a block has rows: one window per call
        pytest.param(loop_module.EVAL_BLOCK_ROWS + 1, 3, id="wide"),
        # blocks of 16 windows, then a tail of 5
        pytest.param(64, 3 * (loop_module.EVAL_BLOCK_ROWS // 64) + 5, id="ragged"),
        pytest.param(3, 1, id="single"),
    ])
    def test_evaluate_matches_per_window_forward(self, channels, count):
        for config, seed in _mode_configs():
            params = init_params(config, seed)
            rng = np.random.default_rng(seed)
            values = rng.normal(size=(config.lookback + config.horizon + count - 1, channels))
            ws = _window_set(values, config.lookback, config.horizon)
            assert ws.count == count
            mse, mae = evaluate(params, ws, config)
            errors = []
            for k in range(ws.count):
                x, y = ws.window(k)
                errors.append(forward_batch(x.T, params, config).T - y)
            errors = np.array(errors)
            assert mse == pytest.approx(np.mean(errors ** 2), rel=1e-12, abs=0), config
            assert mae == pytest.approx(np.mean(np.abs(errors)), rel=1e-12, abs=0), config

    def test_forward_matches_loop_oracle_past_switch(self):
        # every parameter perturbed, so the biases feed the map's offset, and
        # windows at a level, so the mean folded into the untraced map counts
        rng = np.random.default_rng(35)
        widths = set()
        for config, seed in _mode_configs():
            params = init_params(config, seed)
            for _, arr in params.named_arrays():
                arr += 0.1 * rng.normal(size=arr.shape)
            plan = plan_shapes(config)
            for rows in (config.lookback + 2, 2 * config.lookback + 3):
                x = 5.0 + rng.normal(size=(rows, config.lookback))
                want = np.array([forward_loop(row, params, config, plan) for row in x])
                traced, trace = forward_batch_with_trace(x, params, config)
                assert trace.path is Path.WINDOW_MAP
                for pred in (forward_batch(x, params, config), traced):
                    error = np.max(np.abs(pred - want))
                    assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), (config, rows)
            widths.add(config.period % 2)
        assert widths == {0, 1}

    @staticmethod
    def _evaluate_call_sizes(monkeypatch, config, channels, count, params=None):
        """Rows of every forward_batch call one evaluate makes."""
        seen = []

        def recording(rows, *args):
            seen.append(rows.shape[0])
            return forward_batch(rows, *args)

        rng = np.random.default_rng(31)
        values = rng.normal(size=(config.lookback + config.horizon + count - 1, channels))
        if params is None:
            params = init_params(config, 0)
        with monkeypatch.context() as patch:
            patch.setattr(loop_module, "forward_batch", recording)
            evaluate(params, _window_set(values, config.lookback, config.horizon), config)
        return seen

    def test_evaluate_builds_map_in_bounded_chunks(self, monkeypatch):
        # past the switch, full blocks take the window map and stay within
        # the block bound, whatever the channel count
        short = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        # L+1 > EVAL_BLOCK_ROWS: a block grows to the fewest windows past L+1 rows
        long = ModelConfig(1100, 8, 100, lpf_cutoff=3, latent_width=2)
        count = 1300
        for config, channels in ((short, 2), (short, 64), (long, 10)):
            seen = self._evaluate_call_sizes(monkeypatch, config, channels, count)
            bound = max(loop_module.EVAL_BLOCK_ROWS, config.lookback + 1 + channels)
            full, tail = seen[:-1], seen[-1]
            assert len(full) >= 2 and len(set(full)) == 1, (config, channels)
            assert config.lookback + 2 <= full[0] <= bound, (config, channels)
            assert 0 < tail <= full[0]
            assert sum(seen) == count * channels

    @pytest.mark.parametrize("channels", [1, 2])
    def test_evaluate_keeps_graph_chunks(self, monkeypatch, channels):
        # 256 windows of 1 or 2 channels are at most L+1 rows: the chunks run
        # the graph and keep EVAL_CHUNK_WINDOWS windows
        config = ModelConfig(512, 8, 8, lpf_cutoff=3, latent_width=2)
        chunk = loop_module.EVAL_CHUNK_WINDOWS
        assert chunk * channels <= config.lookback + 1
        seen = self._evaluate_call_sizes(monkeypatch, config, channels, 2 * chunk + 2)
        assert seen == [chunk * channels] * 2 + [2 * channels]

    def test_evaluate_memory_is_bounded_by_block(self):
        # 300 windows of 64 channels: gathering all 19200 rows at once peaks
        # at 11.1 MB; blocks keep the peak near two gathered blocks
        config = ModelConfig(48, 12, 12, lpf_cutoff=2, latent_width=2)
        values = np.random.default_rng(32).normal(size=(48 + 12 + 300 - 1, 64))
        ws = _window_set(values, 48, 12)
        tracemalloc.start()
        try:
            evaluate(init_params(config, 32), ws, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * loop_module.EVAL_BLOCK_ROWS * (48 + 12) * 8

    def test_evaluate_builds_window_map_once(self, monkeypatch):
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        params = init_params(config, 0)
        params.conv_kernel += 0.125  # parameters no earlier test has used
        builds = []

        def counting(*args):
            builds.append(1)
            return window_map(*args)

        monkeypatch.setattr(forward_module, "window_map", counting)
        seen = self._evaluate_call_sizes(monkeypatch, config, 64, 100, params)
        assert len(seen) >= 3 and len(builds) == 1
        # the same parameter set scored again reuses the map
        self._evaluate_call_sizes(monkeypatch, config, 64, 100, params)
        assert len(builds) == 1

    def test_forecast_map_follows_in_place_edits(self):
        # an edit between two calls (as grad_check makes) changes the memo's
        # key, so the second call predicts with the edited parameters
        rng = np.random.default_rng(36)
        for config, seed in _mode_configs(count_per_mode=2):
            params = init_params(config, seed)
            plan = plan_shapes(config)
            x = rng.normal(size=(config.lookback + 2, config.lookback))
            before = forward_batch(x, params, config)
            for _, arr in params.named_arrays():
                arr += 0.1 * rng.normal(size=arr.shape)
                pred = forward_batch(x, params, config)
                want = np.array([forward_loop(row, params, config, plan) for row in x])
                error = np.max(np.abs(pred - want))
                assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), config
            assert not np.array_equal(pred, before)

    def test_forecast_map_is_read_only(self):
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        window_gain, window_offset = forecast_map(init_params(config, 0), config)
        for arr in (window_gain, window_offset):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("extra_rows", [-1, 0, 1])
    def test_backward_matches_graph_on_both_sides_of_switch(self, extra_rows,
                                                           monkeypatch):
        paths = []

        def recording(rows, *args):
            pred, trace = forward_batch_with_trace(rows, *args)
            paths.append(trace.path)
            return pred, trace

        monkeypatch.setattr(backward_module, "forward_batch_with_trace", recording)
        for config, seed in _mode_configs():
            params = init_params(config, seed)
            rng = np.random.default_rng(seed)
            rows = config.lookback + 1 + extra_rows
            x = rng.normal(size=(rows, config.lookback))
            y = rng.normal(size=(rows, config.horizon))
            paths.clear()
            loss, grads = backward(x, y, params, config)
            assert paths == [choose_path(rows, config)]
            assert (paths[0] is Path.WINDOW_MAP) == (extra_rows > 0)

            paths.clear()
            want_loss, want = _graph_backward(x, y, params, config)
            assert Path.WINDOW_MAP not in paths
            assert loss == pytest.approx(want_loss, rel=1e-10, abs=0)
            assert grads.keys() == want.keys()
            for name, grad in grads.items():
                error = np.linalg.norm(grad - want[name])
                assert error <= 1e-10 * np.linalg.norm(want[name]), (config, name)

    def test_backward_on_level_shifted_windows_matches_graph(self):
        # windows at a level of about 30: the map path centres them before
        # its GEMMs, so the bias gradients do not cancel
        rng = np.random.default_rng(33)
        rows = 730
        for mode in Mode:
            config = ModelConfig(720, 96, 24, mode=mode)
            params = init_params(config, 33)
            for _, arr in params.named_arrays():
                arr += 0.05 * rng.normal(size=arr.shape)
            walks = 30.0 + np.cumsum(0.3 * rng.normal(size=(rows, 816)), axis=1)
            x, y = walks[:, :720], walks[:, 720:]
            assert rows > config.lookback + 1
            loss, grads = backward(x, y, params, config)
            want_loss, want = _graph_backward(x, y, params, config)
            assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
            for name, grad in grads.items():
                error = np.linalg.norm(grad - want[name])
                assert error <= 1e-12 * np.linalg.norm(want[name]), (mode, name)

    def test_window_map_adjoint_is_exact(self):
        # (kernel, conv_bias, gain, offset) -> (A, c) is bilinear, so the
        # central difference with a unit step is its exact derivative
        rng = np.random.default_rng(34)
        widths = set()
        for _ in range(60):
            config = random_small_config(rng)
            plan = plan_shapes(config)
            shapes = [(config.period,), (), (plan.n, plan.m), (plan.m,)]
            point = [rng.normal(size=shape) for shape in shapes]
            delta = [rng.normal(size=shape) for shape in shapes]

            def window_map_at(values):
                kernel, bias, gain, offset = values
                return window_map(gain, offset, kernel, float(bias), config)

            plus = window_map_at([p + d for p, d in zip(point, delta)])
            minus = window_map_at([p - d for p, d in zip(point, delta)])
            jvp = [(a - b) / 2 for a, b in zip(plus[:2], minus[:2])]
            cotangent = [rng.normal(size=(config.lookback, config.horizon)),
                         rng.normal(size=config.horizon)]
            interleave = window_map_at(point)[2]
            vjp = _window_map_adjoint(*cotangent, interleave, point[0], float(point[1]),
                                      config)
            lhs = sum(np.sum(j * c) for j, c in zip(jvp, cotangent))
            rhs = sum(np.sum(d * v) for d, v in zip(delta, vjp))
            scale = sum(np.sum(np.abs(j * c)) for j, c in zip(jvp, cotangent))
            assert abs(lhs - rhs) <= 1e-12 * scale, config
            widths.add(config.period % 2)
        assert widths == {0, 1}

    def test_pull_back_is_exact_adjoint(self, monkeypatch):
        # images -> rows @ gain + offset, with (gain, offset) from phase_map's
        # split of the n+1 basis images, against the pull-back _graph_grads makes
        rng = np.random.default_rng(32)
        for _ in range(20):
            config = random_small_config(rng)
            rows = int(rng.integers(1, 40))
            x = rng.normal(size=(rows, config.plan.n))
            images = rng.normal(size=(config.plan.n + 1, config.plan.m))
            grad = rng.normal(size=(rows, config.plan.m))
            with monkeypatch.context() as patch:
                patch.setattr(forward_module, "_branches", lambda *_: images)
                gain, offset = phase_map(None, config, None)
            pred = x @ gain + offset
            lhs = np.sum(pred * grad)
            rhs = np.sum(images * _affine_map_adjoint(x.T @ grad, grad.sum(axis=0)))
            assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(pred * grad))


def _phase_configs():
    """Random configs of every mode, plus one with period 1 per mode, where
    the batch size alone sets the phase-row count."""
    return _mode_configs() + [
        (ModelConfig(9, 8, 1, lpf_cutoff=3, latent_width=2, mode=mode), 40 + i)
        for i, mode in enumerate(Mode)
    ]


def _phase_switch_batches(config):
    """Batch sizes whose B*w phase rows lie at and either side of n+1.

    With period 1 these are exactly n, n+1 and n+2 phase rows.
    """
    below = max((plan_shapes(config).n + 1) // config.period, 1)
    return sorted({below - 1, below, below + 1} - {0})


class TestPhaseMap:
    """Past n+1 phase rows the branches run on the n+1 basis rows only."""

    def test_forward_matches_loop_oracle_across_switch(self):
        for config, seed in _phase_configs():
            params = init_params(config, seed)
            plan = plan_shapes(config)
            rng = np.random.default_rng(seed)
            for batch in _phase_switch_batches(config):
                x = rng.normal(size=(batch, config.lookback))
                pred = forward_batch(x, params, config)
                want = np.array([forward_loop(row, params, config, plan) for row in x])
                error = np.max(np.abs(pred - want))
                assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), (config, batch)

    def test_backward_above_switch_is_mean_of_single_windows(self, monkeypatch):
        paths = []

        def recording(rows, *args):
            pred, trace = forward_batch_with_trace(rows, *args)
            paths.append(trace.path)
            return pred, trace

        monkeypatch.setattr(backward_module, "forward_batch_with_trace", recording)
        checked = set()
        for config, seed in _phase_configs():
            plan = plan_shapes(config)
            batch = (plan.n + 1) // config.period + 1   # the fewest windows past n+1
            if config.period > plan.n + 1 or batch > config.lookback + 1:
                # one window alone is past the switch, or the batch would
                # run through the window-level map on L+1 basis rows
                continue
            params = init_params(config, seed)
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(batch, config.lookback))
            y = rng.normal(size=(batch, config.horizon))
            paths.clear()
            loss, grads = backward(x, y, params, config)
            singles = [backward(x[i:i + 1], y[i:i + 1], params, config)
                       for i in range(batch)]
            assert paths == [Path.PHASE_MAP] + [Path.OWN_ROWS] * batch
            assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-10, abs=0)
            for name, grad in grads.items():
                want = np.mean([g[name] for _, g in singles], axis=0)
                error = np.max(np.abs(grad - want))
                assert error <= 1e-10 * max(np.max(np.abs(want)), 1e-300), (config, name)
            checked.add(config.mode)
        assert checked == set(Mode)

    def test_backward_on_level_shifted_windows_is_mean_of_single_windows(self):
        # windows at a level of about 30 through the phase map: the zero-row
        # image's gradient g_b - sum_j G_W[j] cancels, and one window alone
        # (24 phase rows, no map) is the reference that does not
        rng = np.random.default_rng(36)
        rows = 64
        for mode in Mode:
            config = ModelConfig(720, 720, 24, mode=mode)
            params = init_params(config, 36)
            for _, arr in params.named_arrays():
                arr += 0.05 * rng.normal(size=arr.shape)
            walks = 30.0 + np.cumsum(0.3 * rng.normal(size=(rows, 1440)), axis=1)
            x, y = walks[:, :720], walks[:, 720:]
            loss, grads = backward(x, y, params, config)
            singles = [backward(x[i:i + 1], y[i:i + 1], params, config)
                       for i in range(rows)]
            assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12, abs=0)
            for name, grad in grads.items():
                want = np.mean([g[name] for _, g in singles], axis=0)
                error = np.linalg.norm(grad - want)
                assert error <= 1e-12 * np.linalg.norm(want), (mode, name)

    def test_branches_see_rows_or_basis(self, monkeypatch):
        seen = []

        def recording(rows, *args):
            seen.append(rows.copy())
            return branches(rows, *args)

        branches = forward_module._branches
        monkeypatch.setattr(forward_module, "_branches", recording)
        for config, seed in _phase_configs():
            params = init_params(config, seed)
            plan = plan_shapes(config)
            rng = np.random.default_rng(seed)
            for batch in _phase_switch_batches(config):
                x = rng.normal(size=(batch, config.lookback))
                seen.clear()
                forward_batch(x, params, config)
                # the graph runs time-major: phase row p*B + b is window b's
                # subsequence at phase offset p
                trends = [decompose_trend_loop(row, params.conv_kernel,
                                               float(params.conv_bias), config.period,
                                               plan.n)[0] for row in x]
                phase_rows = np.stack(trends, axis=1).reshape(-1, plan.n)
                assert len(seen) == 1
                if phase_rows.shape[0] > plan.n + 1:
                    np.testing.assert_array_equal(seen[0], np.eye(plan.n + 1, plan.n))
                else:
                    np.testing.assert_allclose(seen[0], phase_rows, rtol=0, atol=1e-13)


class TestViewRows:
    """``evaluate`` passes rows that view the series; the forward reads them
    as they stand and predicts what it predicts on C-ordered copies."""

    @pytest.mark.parametrize("count, channels, mapped", [
        (1, 1, False), (2, 3, False), (5, 1, False), (40, 3, True), (300, 1, True)])
    def test_forward_on_view_rows_matches_contiguous_rows(self, count, channels, mapped):
        rng = np.random.default_rng(37)
        ws = WindowSet(rng.normal(size=(count + 23, channels)), 16, 8)
        x, _ = ws.batch(np.arange(count))
        rows = backward_module._flatten_windows(x, 16, "inputs")
        assert np.shares_memory(rows, ws.base)
        for mode in Mode:
            config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2, mode=mode)
            assert (choose_path(rows.shape[0], config) is Path.WINDOW_MAP) == mapped
            params = init_params(config, 37)
            got = forward_batch(rows, params, config)
            want = forward_batch(np.ascontiguousarray(rows), params, config)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), mode


class TestChoosePath:
    """``choose_path`` decides the path of every forward, and the trace records it."""

    @staticmethod
    def _switch_rows(config):
        """L+1 and L+2 rows, and the fewest windows whose R*w phase rows
        exceed n+1 and one fewer."""
        phase = (config.plan.n + 1) // config.period + 1
        return sorted({config.lookback + 1, config.lookback + 2, phase, phase - 1} - {0})

    def test_trace_records_the_planned_path(self):
        rng = np.random.default_rng(38)
        bases = [random_small_config(rng) for _ in range(60)] + [ModelConfig(720, 96, 24)]
        reached = {mode: set() for mode in Mode}
        for base in bases:
            for mode in Mode:
                config = replace(base, mode=mode)
                params = init_params(config, int(rng.integers(1000)))
                for _, arr in params.named_arrays():
                    arr += 0.1 * rng.normal(size=arr.shape)
                for rows in self._switch_rows(config):
                    x = rng.normal(size=(rows, config.lookback))
                    traced, trace = forward_batch_with_trace(x, params, config)
                    assert trace.path is choose_path(rows, config), (config, rows)
                    reached[mode].add(trace.path)
                    # every row of a small config, a sample of the L=720 ones
                    picks = range(rows) if rows <= 64 else rng.choice(rows, 4, replace=False)
                    want = np.array([forward_loop(x[i], params, config, config.plan)
                                     for i in picks])
                    for pred in (forward_batch(x, params, config), traced):
                        error = np.max(np.abs(pred[list(picks)] - want))
                        assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), (config, rows)
        assert all(paths == set(Path) for paths in reached.values())


def _assert_dot_products(core, adjoint, inputs, rng):
    """<core(x + v) - core(x), g> = <v, adjoint(g)[name]> for every input.

    ``core`` maps the dict ``inputs`` to an array and is affine in each
    input on its own, so the identity is exact up to rounding.
    """
    out = core(inputs)
    cotangent = rng.normal(size=out.shape)
    adjoints = adjoint(cotangent)
    for name, value in inputs.items():
        delta = rng.normal(size=np.shape(value))
        moved = core({**inputs, name: value + delta})
        lhs = np.sum((moved - out) * cotangent)
        rhs = np.sum(delta * adjoints[name])
        scale = np.sum(np.abs(moved * cotangent)) + np.sum(np.abs(out * cotangent))
        assert abs(lhs - rhs) <= 1e-12 * scale, name


class TestAdjoints:
    """Each stage's hand-written adjoint against its forward core."""

    @staticmethod
    def _branch_case(seed, mode):
        rng = np.random.default_rng(seed)
        config = replace(random_small_config(rng), mode=mode)
        params = init_params(config, int(rng.integers(1000)))
        rows = rng.normal(size=(int(rng.integers(1, 9)), config.plan.n_hat))
        return rng, config, params, rows

    @staticmethod
    def _branch_dot_products(rng, params, rows, names, core, grads):
        """Dot-product identities of ``core(rows, params, trace)`` in the rows
        and the named parameters; ``grads(g, trace, grads_dict)`` returns the
        rows' gradient and fills the parameters'."""

        def forward_at(inputs):
            moved = replace(params, **{n: inputs[n] for n in names})
            return core(inputs["rows"], moved, None)

        def adjoint(cotangent):
            trace = ForwardTrace(None, None, rows_padded=rows)
            core(rows, params, trace)
            found = {}
            found["rows"] = grads(cotangent, trace, found)
            return found

        inputs = {"rows": rows, **{n: getattr(params, n) for n in names}}
        _assert_dot_products(forward_at, adjoint, inputs, rng)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([Mode.MIX, Mode.TIME_ONLY]))
    @settings(max_examples=100, deadline=None)
    def test_time_branch(self, seed, mode):
        rng, config, params, rows = self._branch_case(seed, mode)
        plan = config.plan
        self._branch_dot_products(
            rng, params, rows, ("w_intra", "b_intra", "w_inter", "b_inter"),
            lambda r, p, t: forward_module._time_branch_core(r, p, plan, t),
            lambda g, t, found: backward_module._time_branch_grads(g, t, params, plan,
                                                                   found))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([Mode.MIX, Mode.FREQ_ONLY]))
    @settings(max_examples=100, deadline=None)
    def test_freq_branch(self, seed, mode):
        rng, config, params, rows = self._branch_case(seed, mode)
        self._branch_dot_products(
            rng, params, rows, ("w_enc_re", "w_enc_im", "w_dec_re", "w_dec_im"),
            lambda r, p, t: forward_module._freq_branch_core(r, p, config, t),
            lambda g, t, found: backward_module._freq_branch_grads(g, t, params, config,
                                                                   found))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_conv_through_folded_phase_block(self, seed):
        # the identity rides in the centre tap, so the phase block is
        # conv(x) by kernel + e_centre: its kernel gradient is the conv's
        rng = np.random.default_rng(seed)
        config = random_small_config(rng)
        params = init_params(config, int(rng.integers(1000)))
        x = rng.normal(size=(int(rng.integers(1, 6)), config.lookback))
        width = config.period

        def phase_at(inputs):
            return forward_module._phase_block(x, replace(params, **inputs), config)[0]

        def adjoint(cotangent):
            # as _graph_grads: undo the de-interleave, drop the zero-filled tail
            centred = forward_module._phase_block(x, params, config)[2]
            grad_agg = cotangent.reshape(config.plan.n * width, -1)[:config.lookback]
            return {"conv_kernel": backward_module._conv_kernel_grad(
                        centred.T, grad_agg.T, width),
                    "conv_bias": grad_agg.sum()}

        inputs = {"conv_kernel": params.conv_kernel, "conv_bias": params.conv_bias}
        _assert_dot_products(phase_at, adjoint, inputs, rng)
