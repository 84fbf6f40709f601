"""Gradients, Adam, and the train/evaluate loop."""

import csv
import importlib
import itertools
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    init_params,
    plan_shapes,
)
from mixlinear.model.forward import (
    Path,
    StepSetup,
    choose_path,
    forward_batch_with_trace,
    phase_map,
    series_channels,
)
from mixlinear.training import (
    TrainConfig,
    adam_step,
    backward,
    draw_biases,
    evaluate,
    grad_check,
    gradcheck_trials,
    init_adam,
    random_small_config,
    train,
    write_history,
)
from conftest import REPO_ROOT
from oracles import (
    forward_loop,
    freq_branch_loop,
    loop_mae,
    loop_mse,
    loop_real_affine,
    time_branch_loop,
)
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
        # a step of 2-channel windows, and the rows WindowSet.batch gives of them
        config = ModelConfig(12, 8, 3, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 3)
        ws = WindowSet(np.random.default_rng(3).normal(size=(30, 2)), 12, 8)
        idx = np.array([4, 0, 9, 2])
        loss, _ = backward(ws, idx, params, config)
        rows, targets = ws.batch(idx)
        assert loss == pytest.approx(loop_mse(forward_batch(rows, params, config), targets))
        assert backward(rows, targets, params, config)[0] == pytest.approx(loss)

    def test_empty_batch_rejected(self):
        config = ModelConfig(8, 4, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 0)
        with pytest.raises(ValueError):
            backward(np.zeros((0, 8)), np.zeros((0, 4)), params, config)

    def test_inputs_and_targets_of_other_windows_rejected(self):
        # rows only, in pairs of one count, targets required: 3-D windows
        # are not rows, and targets of another count would pair row r with
        # another window's, or, one row of them, broadcast over every input row
        config = ModelConfig(16, 4, 4, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 0)
        rng = np.random.default_rng(1)
        for x_shape, y_shape, message in (
                ((2, 16, 3), (6, 4), "expected input of shape (batch, 16), got (2, 16, 3)"),
                ((6, 16), (2, 4, 3), "expected targets of shape (6, 4), got (2, 4, 3)"),
                ((6, 16), (3, 4), "expected targets of shape (6, 4), got (3, 4)"),
                ((6, 16), (1, 4), "expected targets of shape (6, 4), got (1, 4)"),
                ((6, 16), None, "expected targets of shape (6, 4), got ()")):
            x = rng.normal(size=x_shape)
            y = None if y_shape is None else rng.normal(size=y_shape)
            for check in (backward, grad_check):
                args = (x, y, params, config) if check is backward else (params, x, y, config)
                with pytest.raises(ValueError, match=re.escape(message)):
                    check(*args)


def _third_difference(params, x, y, config):
    """The largest |L(t+2) - 3L(t+1) + 3L(t) - L(t-1)| of the loss along any
    one parameter entry t, relative to the largest of the four losses."""
    def loss():
        d = forward_batch(x, params, config) - y
        return float(np.mean(d * d))

    worst = 0.0
    for _, arr in params.named_arrays():
        flat = arr.reshape(-1)
        for idx, original in enumerate(flat.copy()):
            losses = []
            for shift in (2.0, 1.0, 0.0, -1.0):
                flat[idx] = original + shift
                losses.append(loss())
            flat[idx] = original
            third = losses[0] - 3 * losses[1] + 3 * losses[2] - losses[3]
            worst = max(worst, abs(third) / max(map(abs, losses)))
    return worst


class TestGradCheck:
    def test_minimal_square_config(self):
        config = ModelConfig(8, 8, 2, lpf_cutoff=2, latent_width=1)
        params = init_params(config, 5)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 8))
        y = rng.normal(size=(4, 8))
        assert grad_check(params, x, y, config).max_rel_error <= 1e-12

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
        assert worst <= 1e-12

    def test_expanding_encoder_gradients(self):
        config = ModelConfig(12, 8, 3, lpf_cutoff=1, latent_width=2)
        params = init_params(config, 8)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 12))
        y = rng.normal(size=(3, 8))
        assert grad_check(params, x, y, config).max_rel_error <= 1e-12

    def test_zero_batch_zero_targets(self):
        config = ModelConfig(8, 4, 2, lpf_cutoff=2, latent_width=1)
        params = zeroed(init_params(config, 0))
        result = grad_check(params, np.zeros((2, 8)), np.zeros((2, 4)), config)
        assert result.max_rel_error == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 202])
    def test_gradcheck_draws_every_bias_nonzero(self, seed):
        # a gradient term proportional to a bias is differenced only when the
        # biases are nonzero, and init_params zeroes them
        seen = set()
        for config, params, _, _ in gradcheck_trials(seed, 20):
            biases = {name: arr for name, arr in params.named_arrays()
                      if name == "conv_bias" or name.startswith("b_")}
            assert all(np.all(arr != 0.0) for arr in biases.values()), config
            seen |= set(biases)
        assert seen == {"conv_bias", "b_intra", "b_inter"}

    def test_loss_is_quadratic_along_each_coordinate(self):
        # grad_check's central difference at step 1 is exact only because the
        # prediction is affine in each parameter on its own, so the loss is
        # quadratic along each coordinate and its third difference is zero up
        # to round-off.  gradcheck's own draws, and every mode at L=720, w=24
        # on level-30 walks.  Over seeds 0-199 of gradcheck's draws (4000
        # configs) the worst was 2.6e-15, and over 50 draws of the L=720
        # cases 1.9e-15; the gate is a decade above
        cases = list(gradcheck_trials(0, 20))
        rng = np.random.default_rng(9)
        for mode, horizon in itertools.product(Mode, (96, 720)):
            config = ModelConfig(720, horizon, 24, mode=mode)
            params = draw_biases(init_params(config, int(rng.integers(0, 2**31))), rng)
            cases.append((config, params, *_level_walks(rng, 3, config)))
        for config, params, x, y in cases:
            assert _third_difference(params, x, y, config) <= 3e-14, config


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

    def test_stops_patience_epochs_after_the_best(self, monkeypatch):
        # validation MSE improves until epoch 2, then never again: the run
        # stops after its patience of 3 stale epochs, at epoch 5
        config, train_ws, val_ws = self._tiny_setup()
        scores = iter([3.0, 2.0, 1.0, 1.5, 1.2, 1.1, 1.05, 0.5, 0.4])
        monkeypatch.setattr(loop_module, "evaluate", lambda *_: (next(scores), 0.0))
        tc = TrainConfig(max_epochs=9, patience=3, batch_size=32, seed=2)
        _, history = train(train_ws, val_ws, config, tc)
        assert history.best_epoch == 2
        assert history.epochs == history.best_epoch + tc.patience + 1

    @pytest.mark.parametrize("channels, batch", [(1, 256), (99, 256), (100, 128), (299, 128),
                                                 (300, 64), (862, 64)])
    def test_batch_size_steps_down_at_100_and_300_channels(self, channels, batch):
        assert loop_module.batch_size_for_channels(channels) == batch

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

    @pytest.mark.parametrize("lookback, horizon", [(20, 8), (16, 4), (12, 8)])
    def test_windows_of_another_shape_rejected(self, lookback, horizon, monkeypatch):
        # windows cut at another (lookback, horizon) than the config's would
        # be read at the config's: a wrong MSE or an error from deep inside;
        # train rejects either set before its first step
        config, train_ws, _ = self._tiny_setup()
        other = WindowSet(train_ws.base, lookback, horizon)
        params = init_params(config, 0)
        message = re.escape(f"({lookback}, {horizon}) do not match the config's (16, 8)")
        with pytest.raises(ConfigError, match=message):
            evaluate(params, other, config)
        with pytest.raises(ConfigError, match=message):
            backward(other, np.arange(8), params, config)
        def step(*_):
            raise AssertionError("train ran a step before it checked both window sets")

        monkeypatch.setattr(loop_module, "backward", step)
        for windows in ((other, train_ws), (train_ws, other)):
            with pytest.raises(ConfigError, match=message):
                train(*windows, config, TrainConfig(max_epochs=1))

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
        # a 2^14-value budget cuts each channel's windows into three runs,
        # the NaN in the last of channel 0
        (ModelConfig(720, 96, 24), 385, "[256, 385)"),
    ])
    def test_non_finite_window_raises_numeric_error(self, config, count, block, monkeypatch):
        lookback, horizon = config.lookback, config.horizon
        if count == 385:
            monkeypatch.setattr(loop_module, "EVAL_BLOCK_VALUES", 1 << 14)
        values = np.random.default_rng(23).normal(size=(count + lookback + horizon - 1, 16))
        # the last ten windows read this step, and of channel 0's blocks only
        # the last holds them
        values[-10, 0] = np.nan
        blocks = loop_module._eval_blocks(count, 16, config)
        first = next(b for b in blocks if b[2] == 0 and b[1] > count - 10)
        assert block == f"[{first[0]}, {first[1]})" and first[0] <= count - 10
        message = f"windows {block} of channels [0, {first[3]})"
        with pytest.raises(NumericError, match=re.escape(message)):
            evaluate(init_params(config, 23), _window_set(values, lookback, horizon),
                     config)


def _mode_configs(count_per_mode=4, seed=30):
    rng = np.random.default_rng(seed)
    return [(replace(random_small_config(rng), mode=mode), int(rng.integers(0, 2**31)))
            for mode in Mode for _ in range(count_per_mode)]


def _ragged_period_configs():
    """A config of each mode with w not dividing L and m*w > H: L=40, H=13, w=7."""
    return [(ModelConfig(40, 13, 7, lpf_cutoff=3, latent_width=2, mode=mode), 50 + i)
            for i, mode in enumerate(Mode)]


def _gain_first_configs():
    """Configs of each mode where w divides L and gain-first costs fewer MACs than the graph."""
    return [(ModelConfig(length, horizon, w, lpf_cutoff=2, latent_width=2, mode=mode), 60 + i)
            for i, mode in enumerate(Mode) for length, horizon, w in ((15, 6, 3), (24, 8, 4))]


def _forced(path, config):
    """The map path ``_map_paths_as(path)`` gives ``config``'s forwards: gain-first
    runs only where w divides L, as ``choose_path`` has it, elsewhere the graph."""
    if path is Path.GAIN_FIRST and config.plan.n * config.period != config.lookback:
        return Path.PHASE_MAP
    return path


def _map_paths_as(monkeypatch, path):
    """Make every map-path forward take ``_forced(path)``."""
    monkeypatch.setattr(forward_module, "choose_path", lambda config: _forced(path, config))


def _recorded_paths(monkeypatch, *modules):
    """Record the path of every forward the ``modules`` (``backward``'s) run through a step."""
    paths = []

    def recording(rows, config, step):
        pred = forward_batch_with_trace(rows, config, step)
        paths.append(step.path)
        return pred

    for module in modules or (backward_module,):
        monkeypatch.setattr(module, "forward_batch_with_trace", recording)
    return paths


def _counting(calls, fn):
    """``fn``, appending to ``calls`` on every call."""
    def wrapper(*args):
        calls.append(1)
        return fn(*args)
    return wrapper


def _step_forward(x, params, config):
    """(prediction, step) of a map-path forward through a ``StepSetup`` of its own."""
    step = StepSetup(params, config, x.shape[0])
    return forward_batch_with_trace(x, config, step), step


def _block_adjoint(grad_pred, step, config):
    """(grads, grad_gain, grad_offset) of the block last run through ``step``,
    finished as a one-block step."""
    sums = backward_module._StepSums(step, config)
    backward_module._add_block(grad_pred, step, sums, config)
    return backward_module._step_grads(sums, step, config)


def _assert_gradients_match(grads, want, config, *context):
    """Each gradient array's largest error entry within 1e-12 of the largest
    reference entry over all arrays, and its error's norm within 1e-12 of the
    reference's norm at the benchmark shapes' L=720, 1e-10 on small configs,
    where gradients that cancel larger terms reached 1.8e-12 of their norm.  A
    reference that is a roundoff zero (the one-tap kernel's under a DC-only
    FreqOnly cutoff) is held to the first bound alone."""
    assert grads.keys() == want.keys()
    largest = max(np.max(np.abs(ref)) for ref in want.values())
    rel = 1e-12 if config.lookback == 720 else 1e-10
    for name, grad in grads.items():
        error, norm = grad - want[name], np.linalg.norm(want[name])
        where = (config, *context, name)
        assert np.max(np.abs(error)) <= 1e-12 * largest, where
        assert norm <= 1e-12 * largest or np.linalg.norm(error) <= rel * norm, where


def _at_benchmark_shapes(rows, **fixed):
    """Pin a property's examples at L=720, w=24: every mode at H 96 and 720, each
    of ``rows``, level 30.  Drawn, L=720 would meet conv_bias gradients that
    cancel to near zero, below what 1e-12 of their own norm can hold."""
    def pin(test):
        for mode, period, count in itertools.product(Mode, ("H=96", "H=720"), rows):
            test = example(seed=33, mode=mode, period=period, rows=count, level=30.0,
                           **fixed)(test)
        return test
    return pin


def _level_walks(rng, rows, config, level=30.0):
    """(x, y) of random-walk windows around ``level``, so the window means differ."""
    walks = level + np.cumsum(0.3 * rng.normal(size=(rows, config.lookback + config.horizon)),
                              axis=1)
    return walks[:, :config.lookback], walks[:, config.lookback:]


class TestAffineMap:
    """backward and forward_batch on rows that are not a run of windows
    apply the phase map before the conv (``Path.GAIN_FIRST``) where that
    costs fewer MACs than the graph; evaluate's blocks are runs of windows
    and take the series path instead."""

    @pytest.mark.parametrize("channels, blocks, extra, configs, level", [
        # one full block, then 2 more windows
        pytest.param(3, 1, 2, _mode_configs, None, id="2"),
        pytest.param(3, 2, 0, _mode_configs, None, id="256"),
        # one window alone predicts more values than a block may
        pytest.param(1025, 0, 3, _mode_configs, None, id="wide"),
        # three full blocks, then a tail of 5
        pytest.param(64, 3, 5, _mode_configs, None, id="ragged"),
        pytest.param(3, 0, 1, _mode_configs, None, id="single"),
        # one channel, whose targets are rows with strides (8, 8)
        pytest.param(1, 2, 3, _mode_configs, None, id="one-channel"),
        # w does not divide L and m*w > H, so the edges and the padded steps
        # put two terms on some phases
        pytest.param(1, 2, 3, _ragged_period_configs, None, id="ragged-period-one-channel"),
        pytest.param(3, 2, 3, _ragged_period_configs, None, id="ragged-period"),
        # groups of 3, 3 and 2 channels, each cut into four runs of 20 or 21
        # windows, of random walks at level 30, so that a block's windows
        # drift from the level its series is centred on
        pytest.param(8, 3, 5, _ragged_period_configs, 30.0, id="groups"),
    ])
    def test_evaluate_matches_per_window_forward(self, channels, blocks, extra, configs,
                                                 level, monkeypatch):
        # a 1024-value budget makes blocks of tens of windows on these configs
        monkeypatch.setattr(loop_module, "EVAL_BLOCK_VALUES", 1024)

        class NaNFilled(forward_module.SeriesSetup):
            # buffers that hold NaN: each block writes every entry it reads,
            # though the blocks differ in their window counts
            def __init__(self, *args):
                super().__init__(*args)
                for buffer in self._buffers.values():
                    buffer.fill(np.nan)

        monkeypatch.setattr(loop_module, "SeriesSetup", NaNFilled)
        for config, seed in configs():
            # every parameter moved, so that conv_bias, which init_params
            # zeroes, reaches the series path's tail terms
            rng = np.random.default_rng(seed)
            params = _moved_params(rng, config, seed)
            # from L windows on, the block shape does not depend on the count
            most, group = loop_module._eval_block_shape(config.lookback, channels, config)
            count = blocks * most + extra
            steps = config.lookback + config.horizon + count - 1
            if level is not None:
                assert (most, group) == (26, 3)
                values = level + np.cumsum(0.3 * rng.normal(size=(steps, channels)), axis=0)
            else:
                values = rng.normal(size=(steps, channels))
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

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even", "ragged", "H=96",
                                   "H=720"]),
           path=st.sampled_from(list(Path)), rows=st.integers(1, 40),
           level=st.sampled_from([0.0, 30.0]))
    @settings(max_examples=150, deadline=None)
    def test_forward_matches_loop_oracle_past_switch(self, seed, mode, period, path, rows,
                                                      level):
        # every map-path forward against the per-row forward_loop, which runs
        # no map: every parameter moved, so the biases feed the map's offset,
        # and windows at a level, so the centring both predictions share
        # counts.  forward_batch runs the rows through a step of its own, so
        # it agrees bit for bit with the rows run through a step; gain-first
        # runs only where w divides L.  At L=720 two rows meet the oracle
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        params = _moved_params(rng, config)
        x = level + rng.normal(size=(rows, config.lookback))
        with pytest.MonkeyPatch.context() as patch:
            _map_paths_as(patch, path)
            stepped, step = _step_forward(x, params, config)
            assert np.array_equal(forward_batch(x, params, config), stepped)
        assert step.path is _forced(path, config)
        picks = rng.choice(rows, min(rows, 2), replace=False) if period[0] == "H" else range(rows)
        want = np.array([forward_loop(x[i], params, config, config.plan) for i in picks])
        error = np.max(np.abs(stepped[list(picks)] - want))
        assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), (config, rows)

    @staticmethod
    def _evaluate_calls(monkeypatch, config, channels, count):
        """(rows, series_channels) of every forward_batch call one evaluate makes."""
        seen = []

        def recording(rows, *args):
            seen.append((rows.shape[0], series_channels(rows)))
            return forward_batch(rows, *args)

        rng = np.random.default_rng(31)
        values = rng.normal(size=(config.lookback + config.horizon + count - 1, channels))
        with monkeypatch.context() as patch:
            patch.setattr(loop_module, "forward_batch", recording)
            evaluate(init_params(config, 0), _window_set(values, config.lookback,
                                                         config.horizon), config)
        return seen

    def test_evaluate_blocks_are_bounded(self, monkeypatch):
        # runs of windows of groups of channels within the block rule: the
        # runs near-equal, the groups all but the last as wide as the rule
        # allows, each window of each channel in one block, and every block
        # predicted from its series
        most_values, most_rows = loop_module.EVAL_BLOCK_VALUES, loop_module.EVAL_BLOCK_ROWS
        most_floats = loop_module.EVAL_SERIES_FLOATS
        for config, channels, count, shape in (
                # the predicted values bound the runs
                (ModelConfig(16, 96, 4, lpf_cutoff=3, latent_width=2), 2, 3000,
                 (most_values // (2 * 96), 2)),
                # the rows bound them
                (ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2), 2, 20000,
                 (most_rows // 2, 2)),
                (ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2), 64, 1300,
                 (most_rows // 64, 64)),
                # L/2 = 550 windows of 64 channels are more rows than a block
                # holds: groups of 7 channels, in runs of 585 windows
                (ModelConfig(1100, 8, 100, lpf_cutoff=3, latent_width=2), 64, 1300,
                 (most_rows // 7, 7)),
                # 10 windows convolve 2110 steps: the series floats bound the
                # groups to 31 channels
                (ModelConfig(2000, 8, 100, lpf_cutoff=3, latent_width=2), 64, 10, (14, 31))):
            assert loop_module._eval_block_shape(count, channels, config) == shape
            blocks = loop_module._eval_blocks(count, channels, config)
            calls = self._evaluate_calls(monkeypatch, config, channels, count)
            assert [rows for rows, _ in calls] == [(hi - lo) * (last - first)
                                                   for lo, hi, first, last in blocks]
            assert all(series for _, series in calls)
            most, group = shape
            runs = sorted({(lo, hi) for lo, hi, _, _ in blocks})
            groups = sorted({(first, last) for _, _, first, last in blocks})
            assert len(runs) == -(-count // most) and len(blocks) == len(runs) * len(groups)
            assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
            assert runs[-1][1] == count
            sizes = [hi - lo for lo, hi in runs]
            assert max(sizes) <= most and max(sizes) - min(sizes) <= 1
            assert groups == [(c, min(c + group, channels)) for c in range(0, channels, group)]
            edge = (config.plan.n + 1) * config.period
            for lo, hi, first, last in blocks:
                windows, width = hi - lo, last - first
                assert windows * width * config.horizon <= most_values
                assert windows * width <= most_rows
                assert (windows + edge) * width <= most_floats

    @pytest.mark.parametrize("channels", [1, 2])
    def test_evaluate_blocks_take_series_path(self, monkeypatch, channels):
        # two full blocks and two windows more make three near-equal blocks
        # of every channel, each read as a view of the series and predicted
        # from it
        config = ModelConfig(512, 8, 8, lpf_cutoff=3, latent_width=2)
        # from L windows on, the block shape does not depend on the count
        bound, group = loop_module._eval_block_shape(config.lookback, channels, config)
        assert group == channels
        assert bound == min(loop_module.EVAL_BLOCK_VALUES // (channels * config.horizon),
                            loop_module.EVAL_BLOCK_ROWS // channels)
        count = 2 * bound + 2
        calls = self._evaluate_calls(monkeypatch, config, channels, count)
        sizes = [count // 3 + (i < count % 3) for i in range(3)]
        assert sorted(rows for rows, _ in calls) == sorted(s * channels for s in sizes)
        assert [series for _, series in calls] == [channels] * 3

    @pytest.mark.parametrize("count, want", [(1, [1]), (2, [2]), (3, [3]), (5, [2, 3])])
    def test_evaluate_leaves_no_single_window_block(self, monkeypatch, count, want):
        # with a bound of one window of one channel, each channel's runs
        # hold two or three windows
        config = ModelConfig(8, 32, 4, lpf_cutoff=3, latent_width=2)
        monkeypatch.setattr(loop_module, "EVAL_BLOCK_VALUES", 0)
        assert loop_module._eval_block_shape(count, 3, config) == (1, 1)
        calls = self._evaluate_calls(monkeypatch, config, 3, count)
        assert [rows for rows, _ in calls] == want * 3
        assert {series > 0 for _, series in calls} == {count > 1}

    def test_column_slice_evaluates_on_series_path(self, monkeypatch):
        # a set over some columns of a wider series, as a checkpoint fit on
        # a few channels makes, holds them C-contiguous; its blocks, groups
        # of 4 and 3 of those channels, copy their steps C-contiguous too,
        # so every block is a view of its series and predicted from it
        monkeypatch.setattr(loop_module, "EVAL_BLOCK_VALUES", 256)
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        values = np.random.default_rng(41).normal(size=(300, 9))
        sliced = WindowSet(values[:, :7], 16, 8)
        assert sliced.base.flags.c_contiguous
        assert loop_module._eval_block_shape(sliced.count, 7, config) == (8, 4)
        params = init_params(config, 41)
        calls = []

        def recording(rows, *args):
            calls.append((rows.shape[0], series_channels(rows)))
            return forward_batch(rows, *args)

        with monkeypatch.context() as patch:
            patch.setattr(loop_module, "forward_batch", recording)
            got = evaluate(params, sliced, config)
        assert len(calls) >= 3 and {width for _, width in calls} == {4, 3}
        assert all(rows * config.horizon <= 256 for rows, _ in calls)
        copy = WindowSet(np.ascontiguousarray(values[:, :7]), 16, 8)
        assert got == evaluate(params, copy, config)

    def test_evaluate_memory_is_bounded_by_block(self):
        # 300 windows of 64 channels: gathering all 19200 rows at once peaks
        # at 11.1 MB; blocks keep the peak near one block's prediction
        config = ModelConfig(48, 12, 12, lpf_cutoff=2, latent_width=2)
        values = np.random.default_rng(32).normal(size=(48 + 12 + 300 - 1, 64))
        ws = _window_set(values, 48, 12)
        tracemalloc.start()
        try:
            evaluate(init_params(config, 32), ws, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 1024 * (48 + 12) * 8

    @pytest.mark.parametrize("length, channels, horizon, count, parent_peak", [
        # the test splits of the three benchmark workloads, and the peaks the
        # window-map evaluate had on them
        pytest.param(4204, 7, 96, None, 4.52e6, id="etth1-train"),
        pytest.param(2000, 321, 96, 64, 6.25e6, id="electricity-eval"),
        pytest.param(4204, 1, 720, None, 7.46e6, id="etth1-univariate-train"),
        # wider series in groups of 13 channels: no more than at 321
        pytest.param(None, 862, 96, 200, 6.25e6, id="wide-862"),
        pytest.param(None, 2000, 96, 200, 6.25e6, id="wide-2000"),
    ])
    def test_evaluate_memory_at_workload_shapes(self, length, channels, horizon, count,
                                                parent_peak):
        config = ModelConfig(720, horizon, 24)
        rows = length if count is None else count + 720 + horizon - 1
        values = np.random.default_rng(39).normal(size=(rows, channels))
        ws = _window_set(values, 720, horizon)
        params = init_params(config, 39)
        tracemalloc.start()
        try:
            evaluate(params, ws, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= parent_peak

    def test_evaluate_allocates_each_buffer_once(self, monkeypatch):
        # near-equal runs alternate sizes (here 376 and 377 windows), yet
        # every buffer is made with the setup, for the largest block, and
        # each block is written into those same buffers
        config = ModelConfig(720, 96, 24)
        count = 3389
        assert {hi - lo for lo, hi, _, _ in loop_module._eval_blocks(count, 7, config)} \
            == {376, 377}
        made, forwards = [], []

        class Recording(forward_module.SeriesSetup):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(dict(self._buffers))

            def buffers(self, windows, channels):
                views = super().buffers(windows, channels)
                forwards.append(all(view.base is made[-1][name]
                                    for name, view in views.items()))
                return views

        monkeypatch.setattr(loop_module, "SeriesSetup", Recording)
        self._evaluate_calls(monkeypatch, config, 7, count)
        assert len(made) == 1 and set(made[0]) == {"forecast", "padded", "conv", "vg", "terms"}
        assert forwards == [True] * 9

    def test_evaluate_runs_no_gain_first(self, monkeypatch):
        # every block, runs of 7 or 8 windows of groups of 512 and 88 channels,
        # runs the conv on its own series, and the phase map is built once
        # for all of them
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        assert choose_path(config) is Path.GAIN_FIRST
        gain_firsts, convs, phase_maps = [], [], []
        monkeypatch.setattr(forward_module, "_gain_first",
                            _counting(gain_firsts, forward_module._gain_first))
        monkeypatch.setattr(forward_module, "conv1d_same_batch",
                            _counting(convs, forward_module.conv1d_same_batch))
        monkeypatch.setattr(forward_module, "phase_map", _counting(phase_maps, phase_map))
        assert loop_module._eval_block_shape(100, 600, config) == (8, 512)
        calls = self._evaluate_calls(monkeypatch, config, 600, 100)
        assert sorted({rows for rows, _ in calls}) == [7 * 88, 8 * 88, 7 * 512, 8 * 512]
        assert all(series for _, series in calls) and gain_firsts == []
        assert len(convs) == len(calls) and len(phase_maps) == 1

    def test_gain_first_follows_in_place_edits(self, monkeypatch):
        # an edit between two calls (as grad_check makes) changes the map,
        # so the second call predicts with the edited parameters
        _map_paths_as(monkeypatch, Path.GAIN_FIRST)
        rng = np.random.default_rng(36)
        for config, seed in _mode_configs(count_per_mode=2) + _gain_first_configs():
            params = init_params(config, seed)
            x = rng.normal(size=(config.lookback + 2, config.lookback))
            before = forward_batch(x, params, config)
            for _, arr in params.named_arrays():
                arr += 0.1 * rng.normal(size=arr.shape)
                pred = forward_batch(x, params, config)
                want = np.array([forward_loop(row, params, config, config.plan) for row in x])
                error = np.max(np.abs(pred - want))
                assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), config
            assert not np.array_equal(pred, before)

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even"]),
           rows=st.sampled_from([1, 2, 7, 64, 730, 1792]), level=st.sampled_from([0.0, 30.0]))
    @settings(max_examples=100, deadline=None)
    @_at_benchmark_shapes(rows=(730, 1792))
    def test_backward_on_level_shifted_windows_matches_graph(self, seed, mode, period, rows,
                                                             level):
        # gain-first against the phase-map graph, each forced, where w
        # divides L, the only configs gain-first runs on.  At a level of
        # about 30 gain-first centres the windows before its GEMMs, so the
        # bias gradients do not cancel; at L=720 and H=96, the pinned 730
        # and 1792 rows run in 10 and 23 blocks
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        assume(_forced(Path.GAIN_FIRST, config) is Path.GAIN_FIRST)
        params = _moved_params(rng, config)
        x, y = _level_walks(rng, rows, config, level)
        with pytest.MonkeyPatch.context() as patch:
            paths = _recorded_paths(patch)
            _map_paths_as(patch, Path.GAIN_FIRST)
            loss, grads = backward(x, y, params, config)
            _map_paths_as(patch, Path.PHASE_MAP)
            want_loss, want = backward(x, y, params, config)
        assert set(paths) == set(Path)
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        _assert_gradients_match(grads, want, config, rows)

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even", "ragged"]),
           path=st.sampled_from(list(Path)), rows=st.integers(2, 160),
           level=st.sampled_from([0.0, 30.0]))
    @settings(max_examples=60, deadline=None)
    @_at_benchmark_shapes(rows=(730,), path=Path.GAIN_FIRST)
    @_at_benchmark_shapes(rows=(64,), path=Path.PHASE_MAP)
    def test_backward_on_level_shifted_windows_is_mean_of_single_windows(self, seed, mode,
                                                                          period, path, rows,
                                                                          level):
        # the loss is the mean over the windows, so a step's gradient is the
        # mean of its one-window steps' gradients, here taken on the graph,
        # each its own block; at L=720 a step of more than 80 rows (H=96) or
        # 45 (H=720) runs in blocks, as the pinned ones do
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        params = _moved_params(rng, config)
        x, y = _level_walks(rng, rows, config, level)
        with pytest.MonkeyPatch.context() as patch:
            _map_paths_as(patch, Path.PHASE_MAP)
            singles = [backward(x[i:i + 1], y[i:i + 1], params, config) for i in range(rows)]
            _map_paths_as(patch, path)
            loss, grads = backward(x, y, params, config)
        assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-12, abs=0)
        want = {name: np.mean([g[name] for _, g in singles], axis=0) for name in grads}
        _assert_gradients_match(grads, want, config, rows)

    def test_backward_on_level_shifted_windows_matches_directional_differences(self):
        # a reference that runs no adjoint: along a random direction v in one
        # parameter array the prediction is affine, so the loss is quadratic
        # in the step and its central difference is <grad, v> up to
        # rounding.  v is scaled so that a unit step moves the predictions
        # by about the residual, and the gate is relative to the terms'
        # magnitudes, mean(|residual| |J v|): over 30 seeds the error
        # reached 2.3e-15 of it, under an eighth of the gate.  H=96 takes
        # gain-first, H=720 the graph, and so does w=25, which does not
        # divide L, with its 5 padded steps; every mode at L=720, w=24
        rng = np.random.default_rng(42)
        ragged = ModelConfig(720, 96, 25)
        assert choose_path(ragged) is Path.PHASE_MAP
        for config in [ModelConfig(720, horizon, 24, mode=mode)
                       for horizon in (96, 720) for mode in Mode] + [ragged]:
            params = _moved_params(rng, config, seed=33, scale=0.05)
            walks_x, walks_y = _level_walks(rng, 1792, config)
            for rows in (1, 256):
                x, y = walks_x[:rows], walks_y[:rows]
                _, grads = backward(x, y, params, config)
                residual = forward_batch(x, params, config) - y

                def moved(name, arr, v):
                    return [forward_batch(x, replace(params, **{name: arr + t * v}), config)
                            for t in (1.0, -1.0)]

                for name, arr in params.named_arrays():
                    v = rng.normal(size=arr.shape)
                    plus, minus = moved(name, arr, v)
                    v *= np.sqrt(np.mean(residual ** 2) / np.mean(((plus - minus) / 2) ** 2))
                    plus, minus = moved(name, arr, v)
                    numeric = (np.mean((plus - y) ** 2) - np.mean((minus - y) ** 2)) / 2
                    scale = np.mean(np.abs(residual) * np.abs(plus - minus))
                    error = abs(numeric - np.sum(grads[name] * v))
                    assert error <= 2e-14 * scale, (config, rows, name, error / scale)

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "lookback", "even"]),
           rows=st.integers(1, 12), level=st.sampled_from([0.0, 30.0]))
    @settings(max_examples=150, deadline=None)
    def test_gain_first_adjoint_is_exact(self, seed, mode, period, rows, level):
        # the gain-first map is affine in each of (kernel, conv_bias, W, b)
        # on its own; a block's sums, finished, give all four gradients.  A
        # drawn or even w that does not divide L runs the graph's adjoint
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        # conv_bias starts at 0, where its terms in W's gradient vanish
        params = _moved_params(rng, config)
        x = level + rng.normal(size=(rows, config.lookback))
        plan = config.plan
        images = rng.normal(size=(plan.n + 1, plan.m))

        def gain_first(inputs):
            moved = replace(params, conv_kernel=inputs["conv_kernel"],
                            conv_bias=inputs["conv_bias"])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(forward_module, "phase_map",
                              lambda *_: (inputs["gain"], inputs["offset"]))
                _map_paths_as(patch, Path.GAIN_FIRST)
                pred, step = _step_forward(x, moved, config)
            assert step.path is _forced(Path.GAIN_FIRST, config)
            return pred, step

        def adjoint(cotangent):
            _, step = gain_first(inputs)
            grads, grad_gain, grad_offset = _block_adjoint(cotangent, step, config)
            return {**grads, "gain": grad_gain, "offset": grad_offset}

        inputs = {"conv_kernel": params.conv_kernel, "conv_bias": params.conv_bias,
                  "gain": images[:-1] - images[-1], "offset": images[-1]}
        _assert_dot_products(lambda values: gain_first(values)[0], adjoint, inputs, rng)

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)))
    @settings(max_examples=150, deadline=None)
    def test_pull_back_is_exact_adjoint(self, seed, mode):
        # rows -> rows @ W + b, with (W, b) the phase map, in every array
        # phase_map reads, against the pull-back backward makes: rows' @ G
        # and G's column sums on (W, b), through _phase_map_grads
        rng = np.random.default_rng(seed)
        config = replace(random_small_config(rng), mode=mode)
        params = _moved_params(rng, config)
        rows = rng.normal(size=(int(rng.integers(1, 40)), config.plan.n))
        inputs = {name: arr for name, arr in params.named_arrays()
                  if name not in ("conv_kernel", "conv_bias")}

        def core(values):
            gain, offset = phase_map(replace(params, **values), config)
            return rows @ gain + offset

        def adjoint(cotangent):
            grads = {}
            backward_module._phase_map_grads(rows.T @ cotangent, cotangent.sum(axis=0), params,
                                             config, grads)
            assert grads.keys() == inputs.keys()
            return grads

        _assert_dot_products(core, adjoint, inputs, rng)


class TestPhaseMap:
    """``phase_map`` writes the branches' map (W, b) from the weights, once per forward."""

    @pytest.mark.parametrize("horizon", [96, 720])
    @pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
    def test_map_matches_branch_oracles_on_basis_rows(self, horizon, mode):
        # row i of W is the scalar-loop branches' image of e_i without their
        # biases, and b the image of the zero row with them
        config = ModelConfig(720, horizon, 24, mode=mode)
        plan = config.plan
        rng = np.random.default_rng(horizon)
        params = _moved_params(rng, config, seed=48)
        want = []
        for i, row in enumerate(np.eye(plan.n + 1, plan.n)):
            image = np.zeros(plan.m)
            if mode is Mode.SPARSE_BASELINE:
                image = loop_real_affine(params.w_point, row, np.zeros(plan.m))
            if config.has_time_branch:
                biases = 1.0 if i == plan.n else 0.0
                image = image + time_branch_loop(row, params.w_intra, biases * params.b_intra,
                                                 params.w_inter, biases * params.b_inter, plan)
            if config.has_freq_branch:
                padded = np.concatenate([row, np.zeros(plan.n_hat - plan.n)])
                image = image + freq_branch_loop(padded, params.w_enc, params.w_dec,
                                                 config.lpf_cutoff, plan)
            want.append(image)
        want = np.array(want)
        got = np.vstack(phase_map(params, config))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_one_phase_map_per_forward(self, monkeypatch):
        built = []
        monkeypatch.setattr(forward_module, "phase_map", _counting(built, phase_map))
        for config, seed in _mode_configs():
            params = init_params(config, seed)
            rng = np.random.default_rng(seed)
            for batch in (1, 5):
                x = rng.normal(size=(batch, config.lookback))
                built.clear()
                forward_batch(x, params, config)
                assert len(built) == 1, (config, batch)


class TestStreamedStep:
    """``backward`` streams a step's windows in blocks of ``_train_blocks``:
    one phase map and one branch adjoint per step, a forward and back per
    block."""

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "even", "ragged"]),
           path=st.sampled_from([Path.GAIN_FIRST, Path.PHASE_MAP]),
           split=st.sampled_from(["one window", "two blocks", "many blocks"]),
           channels=st.integers(1, 3), level=st.sampled_from([0.0, 30.0]))
    @settings(max_examples=120, deadline=None)
    def test_streamed_step_matches_one_block(self, seed, mode, period, path, split, channels,
                                             level):
        # gain-first is drawn only where w divides L, where it runs
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        assume(_forced(path, config) is path)
        params = _moved_params(rng, config)
        size = int(rng.integers(1, 4))     # windows in the smallest block
        if split == "one window":
            count, most = int(rng.integers(2, 6)), 1
        elif split == "two blocks":
            count = 2 * size + int(rng.integers(0, size + 1))
            most = -(-count // 2)
        else:
            count = int(rng.integers(3, 7)) * size + int(rng.integers(0, size))
            most = size
        parts = -(-count // most)
        width = config.lookback + config.horizon
        # the rows of count windows of a C-channel series: row k*C + c is
        # channel c of window k
        x = level + rng.normal(size=(count, config.lookback, channels))
        y = level + rng.normal(size=(count, config.horizon, channels))
        x, y = (part.transpose(0, 2, 1).reshape(count * channels, -1) for part in (x, y))

        with pytest.MonkeyPatch.context() as patch:
            _map_paths_as(patch, path)
            paths = _recorded_paths(patch)
            patch.setattr(backward_module, "TRAIN_BLOCK_FLOATS", most * width * channels)
            loss, grads = backward(x, y, params, config)
            assert paths == [path] * parts
            patch.setattr(backward_module, "TRAIN_BLOCK_FLOATS", count * width * channels)
            want_loss, want = backward(x, y, params, config)
            assert paths[parts:] == [path]
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        _assert_gradients_match(grads, want, config)

    @pytest.mark.parametrize("count, channels, horizon, blocks", [
        # a full etth1-train step, and the epoch's partial last one
        pytest.param(256, 7, 96, 24, id="etth1-train"),
        pytest.param(165, 7, 96, 15, id="etth1-train-last"),
        pytest.param(256, 1, 720, 6, id="etth1-univariate-train"),
        pytest.param(165, 1, 720, 4, id="etth1-univariate-train-last"),
        # one window is over the bound, so each block holds one
        pytest.param(64, 321, 720, 64, id="321-channels"),
    ])
    def test_blocks_at_workload_shapes(self, count, channels, horizon, blocks):
        config = ModelConfig(720, horizon, 24)
        runs = backward_module._train_blocks(count, channels, config)
        sizes = [hi - lo for lo, hi in runs]
        assert len(runs) == blocks
        assert [lo for lo, _ in runs] == [0] + [hi for _, hi in runs[:-1]]
        assert runs[-1][1] == count and max(sizes) - min(sizes) <= 1
        floats = (720 + horizon) * channels
        assert max(sizes) * floats <= max(backward_module.TRAIN_BLOCK_FLOATS, floats)

    def test_train_matches_whole_batch_loop(self, monkeypatch):
        # train streams (windows, idx) in blocks of 5 windows; the reference
        # gathers each batch whole and takes one block per step
        config, train_ws, val_ws = TestTrainLoop()._tiny_setup()
        width = (config.lookback + config.horizon) * train_ws.channels
        tc = TrainConfig(max_epochs=2, patience=10, batch_size=32, seed=6)
        with monkeypatch.context() as patch:
            patch.setattr(backward_module, "TRAIN_BLOCK_FLOATS", 5 * width)
            paths = _recorded_paths(patch)
            params, history = train(train_ws, val_ws, config, tc)
            sizes = [min(32, train_ws.count - lo) for lo in range(0, train_ws.count, 32)]
            blocks = [len(backward_module._train_blocks(size, train_ws.channels, config))
                      for size in sizes]
        assert blocks[0] > 1 and len(paths) == tc.max_epochs * sum(blocks)

        monkeypatch.setattr(backward_module, "TRAIN_BLOCK_FLOATS", train_ws.count * width)
        want = init_params(config, tc.seed)
        state = init_adam(want)
        rng = np.random.default_rng(tc.seed)
        ends = []
        for epoch in range(tc.max_epochs):
            order = rng.permutation(train_ws.count)
            losses = []
            for lo in range(0, order.size, tc.batch_size):
                idx = order[lo:lo + tc.batch_size]
                loss, grads = backward(*train_ws.batch(idx), want, config)
                want, state = adam_step(want, grads, state, tc.learning_rate)
                losses.append(loss * idx.size)
            assert history.train_mse[epoch] == pytest.approx(sum(losses) / order.size,
                                                             rel=1e-12, abs=0)
            ends.append(want.copy())
        for (name, got), (_, arr) in zip(params.named_arrays(),
                                         ends[history.best_epoch].named_arrays()):
            assert np.max(np.abs(got - arr)) <= 1e-12 * max(np.max(np.abs(arr)), 1e-300), name

    @pytest.mark.parametrize("config, channels, most, path", [
        # the etth1-train shape: blocks of 10 and 11 windows
        *(pytest.param(ModelConfig(720, 96, 24), 7, None, path, id=f"etth1-train-{path}")
          for path in Path),
        # w does not divide L (n*w = 56 > 50) and m*w = 35 > H = 30, so the
        # step runs the graph: blocks of 3 and 4 windows
        pytest.param(ModelConfig(50, 30, 7, lpf_cutoff=3, latent_width=2), 3, 4,
                     Path.PHASE_MAP, id=f"ragged-{Path.PHASE_MAP}"),
    ])
    def test_step_does_not_depend_on_the_step_before(self, config, channels, most, path,
                                                     monkeypatch):
        # a step sets up its constants, workspace and sums afresh: the same
        # windows give the same bits alone and right after a step of another
        # size, and its blocks of unequal size, each gathered into the one
        # workspace over what the block before left there, match the step
        # run as one block
        rng = np.random.default_rng(47)
        params = _moved_params(rng, config, seed=47, scale=0.05)
        count = 256 if most is None else 61
        width = config.lookback + config.horizon
        values = 30.0 + np.cumsum(0.3 * rng.normal(size=(2 * count + width, channels)), axis=0)
        ws = WindowSet(values, config.lookback, config.horizon)
        order = rng.permutation(ws.count)
        idx, other = order[:count], order[count:count + count * 2 // 3]
        _map_paths_as(monkeypatch, path)
        if most is not None:
            monkeypatch.setattr(backward_module, "TRAIN_BLOCK_FLOATS", most * width * channels)
        sizes = [hi - lo for lo, hi in backward_module._train_blocks(count, channels, config)]
        assert len(set(sizes)) == 2 and any(a > b for a, b in zip(sizes, sizes[1:]))

        alone = backward(ws, idx, params, config)
        backward(ws, other, params, config)
        after = backward(ws, idx, params, config)
        assert after[0] == alone[0]
        for name, grad in alone[1].items():
            assert np.array_equal(after[1][name], grad), name

        monkeypatch.setattr(backward_module, "TRAIN_BLOCK_FLOATS", count * width * channels)
        want_loss, want = backward(ws, idx, params, config)
        assert alone[0] == pytest.approx(want_loss, rel=1e-12, abs=0)
        _assert_gradients_match(alone[1], want, config)

    def test_step_memory_is_one_block(self):
        # one 256-window step at the etth1-train shape (7 channels, L=720,
        # H=96): gathered and run whole it peaked at 25.4 MB
        config = ModelConfig(720, 96, 24)
        rng = np.random.default_rng(45)
        ws = WindowSet(rng.normal(size=(2000, 7)), 720, 96)
        idx = rng.permutation(ws.count)[:256]
        params = _moved_params(rng, config, seed=45, scale=0.05)
        backward(ws, idx, params, config)
        tracemalloc.start()
        try:
            backward(ws, idx, params, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestBiasGradients:
    """The time branch's biases enter ``phase_map``'s offset alone, so their
    gradients come from the offset's gradient G_b, not from W's."""

    @pytest.mark.parametrize("path", [Path.GAIN_FIRST, Path.PHASE_MAP])
    @pytest.mark.parametrize("horizon", [96, 720])
    @pytest.mark.parametrize("mode", [Mode.MIX, Mode.TIME_ONLY])
    def test_bias_gradients_match_long_double_reference(self, path, horizon, mode,
                                                        monkeypatch):
        # level-30 random walks, 256 windows; the reference sums the step's
        # own residual in long double into G_b and routes G_b to the biases
        config = ModelConfig(720, horizon, 24, mode=mode)
        plan = config.plan
        rng = np.random.default_rng(46)
        params = _moved_params(rng, config, seed=46, scale=0.05)
        x, y = _level_walks(rng, 256, config)
        preds = []

        def recording(rows, config, step):
            pred = forward_batch_with_trace(rows, config, step)
            preds.append(np.array(pred))
            return pred

        _map_paths_as(monkeypatch, path)
        monkeypatch.setattr(backward_module, "forward_batch_with_trace", recording)
        _, grads = backward(x, y, params, config)

        wide = np.longdouble
        residual = np.zeros((x.shape[0], plan.m * config.period), dtype=wide)
        residual[:, :horizon] = np.concatenate(preds).astype(wide) - y.astype(wide)
        residual *= 2 / wide(y.size)
        grid = np.zeros(plan.m_hat, dtype=wide)
        grid[:plan.m] = residual.reshape(-1, plan.m, config.period).sum(axis=(0, 2))
        grid = grid.reshape(plan.seg_out, plan.seg_out)
        want = {"b_inter": grid.sum(axis=0),
                "b_intra": grid @ params.w_inter.astype(wide).sum(axis=1)}
        for name, ref in want.items():
            error = np.max(np.abs(grads[name] - ref)) / np.max(np.abs(ref))
            assert error <= 1e-14, (name, float(error))


def test_loss_and_evaluate_do_not_depend_on_blas_threads():
    # one 256-window H=720 step (184,320 squared errors) and one evaluate,
    # each in a process at 1 and at 2 OpenBLAS threads
    script = """
import numpy as np
from mixlinear.data.windows import WindowSet
from mixlinear.model import ModelConfig, init_params
from mixlinear.training import backward, evaluate
config = ModelConfig(720, 720, 24)
rng = np.random.default_rng(44)
params = init_params(config, 44)
for _, arr in params.named_arrays():
    arr += 0.05 * rng.normal(size=arr.shape)
walks = np.cumsum(0.3 * rng.normal(size=(256, 1440)), axis=1)
loss, _ = backward(walks[:, :720], walks[:, 720:], params, config)
series = np.cumsum(0.3 * rng.normal(size=(4000, 1)), axis=0)
print(repr(loss), *map(repr, evaluate(params, WindowSet(series, 720, 720), config)))
"""
    outputs = _outputs_at_blas_threads([sys.executable, "-c", script])
    assert outputs[0] == outputs[1]


def test_step_gradients_do_not_depend_on_blas_threads():
    # one streamed 256-window step, as train takes it, at the etth1-train
    # shape (7 channels, H=96, gain-first) and the etth1-univariate-train
    # one (1 channel, H=720, the graph), each in a process at 1 and at 2
    # OpenBLAS threads: the loss and every gradient array, bit for bit
    script = """
import hashlib
import numpy as np
from mixlinear.data.windows import WindowSet
from mixlinear.model import ModelConfig, init_params
from mixlinear.model.forward import choose_path
from mixlinear.training import backward
for channels, horizon, path in ((7, 96, "gain first"), (1, 720, "phase map")):
    config = ModelConfig(720, horizon, 24)
    assert choose_path(config).value == path
    rng = np.random.default_rng(48)
    params = init_params(config, 48)
    for _, arr in params.named_arrays():
        arr += 0.05 * rng.normal(size=arr.shape)
    ws = WindowSet(np.cumsum(0.3 * rng.normal(size=(2000, channels)), axis=0), 720, horizon)
    loss, grads = backward(ws, rng.permutation(ws.count)[:256], params, config)
    print(repr(loss), *(name + "=" + hashlib.sha256(grad.tobytes()).hexdigest()
                        for name, grad in grads.items()))
"""
    outputs = _outputs_at_blas_threads([sys.executable, "-c", script])
    assert outputs[0].count("=") == 2 * 10   # the ten arrays of Mix, at both shapes
    assert outputs[0] == outputs[1]


def _outputs_at_blas_threads(argv, cwd=None) -> list[str]:
    """The stdout of ``argv`` run at 1 and at 2 OpenBLAS threads, with src importable."""
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                              os.environ.get("PYTHONPATH", "")])}
        env.pop("MIXLINEAR_THREADS", None)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True,
                              cwd=cwd)
        outputs.append(done.stdout)
    return outputs


class TestViewRows:
    """``evaluate`` passes rows that view the series; the forward reads them
    as they stand and predicts what it predicts on C-ordered copies."""

    # at H=1 gain-first costs fewer MACs than the graph, so the C-ordered
    # copies take it; the views of two or more windows take the series path
    @pytest.mark.parametrize("count, channels", [(1, 1), (2, 3), (5, 1), (40, 3), (300, 1)])
    def test_forward_on_view_rows_matches_contiguous_rows(self, count, channels):
        rng = np.random.default_rng(37)
        ws = WindowSet(rng.normal(size=(count + 23, channels)), 16, 8)
        rows, _ = ws.batch(np.arange(count))
        assert np.shares_memory(rows, ws.base)
        for mode in Mode:
            config = ModelConfig(16, 1, 1, lpf_cutoff=3, latent_width=2, mode=mode)
            assert choose_path(config) is Path.GAIN_FIRST
            params = init_params(config, 37)
            got = forward_batch(rows, params, config)
            want = forward_batch(np.ascontiguousarray(rows), params, config)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), mode


def _with_period(config: ModelConfig, period: int) -> ModelConfig:
    """``config`` at another period, its cutoff clipped to the new spectrum."""
    probe = replace(config, period=period, lpf_cutoff=1, latent_width=1)
    return replace(probe, lpf_cutoff=min(config.lpf_cutoff, probe.plan.bins_in),
                   latent_width=config.latent_width)


def _drawn_config(rng, mode: Mode, period: str) -> ModelConfig:
    """A ``random_small_config`` of ``mode`` at the named period: as drawn,
    1, L, even, or L - 1, which does not divide L once L > 2; "H=96" and
    "H=720" name the L=720, w=24 config of the benchmark shapes, and
    "L=3, H=4" (w=3) and "L=40, H=13" (w=7, which does not divide L) two
    with m*w > H, whose last output drops its later phases."""
    if period in ("H=96", "H=720"):
        return ModelConfig(720, int(period[2:]), 24, mode=mode)
    if period == "L=3, H=4":
        return ModelConfig(3, 4, 3, lpf_cutoff=1, latent_width=1, mode=mode)
    if period == "L=40, H=13":
        return ModelConfig(40, 13, 7, lpf_cutoff=3, latent_width=2, mode=mode)
    config = replace(random_small_config(rng), mode=mode)
    lookback = config.lookback
    chosen = {"drawn": config.period, "one": 1, "lookback": lookback,
              "even": 2 * max(1, lookback // 4),
              "ragged": lookback - 1 if lookback > 2 else config.period}[period]
    return _with_period(config, chosen)


class TestSeriesPath:
    """Two or more consecutive windows of one series are predicted from the
    series, exactly, and no other layout takes that path; given targets, the
    forward returns the residual."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even", "ragged", "L=3, H=4",
                                   "L=40, H=13"]),
           channels=st.integers(1, 4), count=st.integers(1, 40),
           level=st.sampled_from([0.0, 30.0]))
    # w does not divide L there, so some phases have fewer terms than others
    # (gaps) and the padded steps read the series conv plus conv_bias (tails)
    @example(seed=0, mode=Mode.MIX, period="L=40, H=13", channels=2, count=2, level=30.0)
    @example(seed=1, mode=Mode.TIME_ONLY, period="L=40, H=13", channels=3, count=9, level=30.0)
    def test_series_path_matches_loop_oracle(self, seed, mode, period, channels, count,
                                             level):
        # given the windows' targets too, the forward returns the residual,
        # within 1e-12 of its largest entry
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        lookback, horizon = config.lookback, config.horizon
        params = _moved_params(rng, config)
        steps = count + lookback + horizon - 1
        # level 30: a random walk around it, so the window means differ
        values = (level + np.cumsum(rng.normal(size=(steps, channels)), axis=0) if level
                  else rng.normal(size=(steps, channels)))
        ws = WindowSet(values, lookback, horizon)
        rows, targets = ws.batch(np.arange(count))
        assert series_channels(rows) == (channels if count >= 2 else 0)
        # at H=1 the targets' column stride is numpy's choice, which may send
        # them to the forecast's subtract
        assert series_channels(targets) == series_channels(rows) or horizon == 1
        # through a setup whose buffers hold NaN: a forward writes every entry it reads
        setup = forward_module.SeriesSetup(params, config, count, channels)
        for buffer in setup._buffers.values():
            buffer.fill(np.nan)
        pred = forward_batch(rows, params, config, setup)
        if count >= 2:
            assert pred.T.flags.c_contiguous
        want = np.array([forward_loop(row, params, config, config.plan) for row in rows])
        error = np.max(np.abs(pred - want))
        assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), (config, channels, count)
        residual = pred - targets
        error = np.max(np.abs(forward_batch(rows, params, config, setup, targets) - residual))
        assert error <= 1e-12 * np.max(np.abs(residual)), (config, channels, count)

    def test_targets_of_any_layout_give_the_residual(self):
        # targets that are a series' windows but step 16 bytes (every other
        # column of a 6-column series), so they are taken off VG too; and
        # targets that are not a series as wide as the rows (a C-ordered
        # copy, a series of another width), or those of a single window,
        # which runs a map path, subtracted from the forecast
        rng = np.random.default_rng(42)
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        params = _moved_params(rng, config, seed=42)
        values = rng.normal(size=(60, 6))
        # row k*3 + c, step t of 17 windows is values[start + k + t, 2c]
        every_other = tuple(np.ndarray((51, length), values.dtype, values, start * 48, (16, 48))
                            for start, length in ((0, 16), (16, 8)))
        rows, targets = WindowSet(values[:, :3], 16, 8).batch(np.arange(20))
        wide = WindowSet(values, 16, 8).batch(np.arange(10))[1]
        cases = {
            "a strided series": every_other,
            "C-ordered targets": (rows, np.ascontiguousarray(targets)),
            "targets of another width": (rows, wide),
            "a single window": (rows[7 * 3:8 * 3], targets[7 * 3:8 * 3]),
        }
        assert cases["a strided series"][1].strides[0] == 16
        assert [series_channels(t) for _, t in cases.values()] == [3, 0, 6, 0]
        for name, (inputs, wanted) in cases.items():
            want = forward_batch(inputs, params, config) - wanted
            got = forward_batch(inputs, params, config, None, wanted)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name
        with pytest.raises(ValueError, match=re.escape("targets of shape (60, 8), got (60, 7)")):
            forward_batch(rows, params, config, None, targets[:, :7])

    def test_other_layouts_do_not_take_series_path(self):
        rng = np.random.default_rng(40)
        config = ModelConfig(16, 8, 4, lpf_cutoff=3, latent_width=2)
        params = _moved_params(rng, config, seed=40)
        ws = WindowSet(rng.normal(size=(60, 3)), 16, 8)
        view = ws.batch(np.arange(20))[0]
        gathered = ws.batch(rng.permutation(20))[0]
        layouts = {
            "C-contiguous": np.ascontiguousarray(view),
            "training gather": gathered,
            "Fortran order": np.asfortranarray(view),
            "stride-0 rows": np.broadcast_to(view[0], view.shape),
            "reversed rows": view[::-1],
        }
        assert series_channels(view) == 3
        for name, rows in layouts.items():
            assert series_channels(rows) == 0, name
            want = np.array([forward_loop(row, params, config, config.plan) for row in rows])
            error = np.max(np.abs(forward_batch(rows, params, config) - want))
            assert error <= 1e-12 * max(1.0, np.max(np.abs(want))), name


class TestChoosePath:
    """``choose_path`` decides the path of every forward, and the step records it."""

    def test_trace_records_the_planned_path(self, monkeypatch):
        # rows that are not a run of windows go through a step of their own,
        # forward_batch's or a training step's, which records the config's
        # path, whatever the rows; over these configs every mode reaches both
        paths = _recorded_paths(monkeypatch, forward_module, backward_module)
        rng = np.random.default_rng(38)
        reached = {mode: set() for mode in Mode}
        for base in [random_small_config(rng) for _ in range(60)] + [ModelConfig(720, 96, 24)]:
            for mode in Mode:
                config = replace(base, mode=mode)
                params = init_params(config, 0)
                paths.clear()
                for rows in (1, 3, config.lookback + 2):
                    x = rng.normal(size=(rows, config.lookback))
                    forward_batch(x, params, config)
                backward(x, rng.normal(size=(rows, config.horizon)), params, config)
                assert len(paths) > 3 and set(paths) == {choose_path(config)}, config
                reached[mode].add(paths[0])
        assert all(paths == set(Path) for paths in reached.values())

    @staticmethod
    def _macs(config):
        """(gain-first, graph) MACs per row."""
        length, horizon, w, m = config.lookback, config.horizon, config.period, config.plan.m
        return 2 * length * m + 2 * horizon * w, 2 * length * w + length * m

    def test_switches_at_both_boundaries(self):
        # two windows of a series' C channels are predicted from the series,
        # one window is not; off the series the map goes where it costs
        # fewer MACs, and a tie goes to the graph
        config = ModelConfig(12, 8, 4, lpf_cutoff=2, latent_width=2)
        for channels in (1, 3):
            ws = WindowSet(np.zeros((config.lookback + config.horizon + 1, channels)), 12, 8)
            rows = ws.batch(np.arange(2))[0]
            assert series_channels(rows) == channels
            assert series_channels(rows[:2 * channels - 1]) == series_channels(rows[:1]) == 0
        assert choose_path(config) is Path.GAIN_FIRST

        for horizon, want in ((3, Path.GAIN_FIRST), (4, Path.PHASE_MAP), (5, Path.PHASE_MAP)):
            config = ModelConfig(8, horizon, 2, lpf_cutoff=2, latent_width=2)
            gain_first, graph = self._macs(config)
            assert (gain_first < graph, gain_first == graph) == (horizon == 3, horizon == 4)
            assert choose_path(config) is want
        # the benchmark shapes: H=96 trains gain-first, H=720 on the graph
        for horizon, want in ((96, Path.GAIN_FIRST), (720, Path.PHASE_MAP)):
            config = ModelConfig(720, horizon, 24)
            assert choose_path(config) is want
        # w does not divide L: the graph, though gain-first costs fewer MACs
        for config, _ in _ragged_period_configs():
            gain_first, graph = self._macs(config)
            assert gain_first < graph and choose_path(config) is Path.PHASE_MAP

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even", "ragged"]))
    @settings(max_examples=200, deadline=None)
    def test_gain_first_only_where_period_divides_lookback(self, seed, mode, period):
        # the graph zeroes the n*w - L padded steps; gain-first runs where
        # there are none and it costs fewer MACs
        config = _drawn_config(np.random.default_rng(seed), mode, period)
        gain_first, graph = self._macs(config)
        divides = config.plan.n * config.period == config.lookback
        assert (choose_path(config) is Path.GAIN_FIRST) == (divides and gain_first < graph)


def _moved_params(rng, config, seed=None, scale=0.1):
    """``init_params`` (at ``seed``, else one drawn from ``rng``) moved off its
    initial values by ``scale`` standard normals from ``rng``.

    The biases start at 0, where w_inter's term from b_intra vanishes.
    """
    params = init_params(config, int(rng.integers(1000)) if seed is None else seed)
    for _, arr in params.named_arrays():
        arr += scale * rng.normal(size=arr.shape)
    return params


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
    def _phase_map_dot_products(seed, mode, names):
        # (W, b) stacked, in the named arrays phase_map reads, against the
        # gradients _phase_map_grads gives them from a cotangent on (W, b)
        rng = np.random.default_rng(seed)
        config = replace(random_small_config(rng), mode=mode)
        params = _moved_params(rng, config)

        def adjoint(cotangent):
            grads = {}
            backward_module._phase_map_grads(cotangent[:-1], cotangent[-1], params, config,
                                             grads)
            return grads

        _assert_dot_products(
            lambda values: np.vstack(phase_map(replace(params, **values), config)),
            adjoint, {name: getattr(params, name) for name in names}, rng)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([Mode.MIX, Mode.TIME_ONLY]))
    @settings(max_examples=100, deadline=None)
    def test_time_branch(self, seed, mode):
        self._phase_map_dot_products(seed, mode, ("w_intra", "b_intra", "w_inter", "b_inter"))

    @given(st.integers(0, 2**32 - 1), st.sampled_from([Mode.MIX, Mode.FREQ_ONLY]))
    @settings(max_examples=100, deadline=None)
    def test_freq_branch(self, seed, mode):
        self._phase_map_dot_products(seed, mode, ("w_enc_re", "w_enc_im", "w_dec_re", "w_dec_im"))

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even", "ragged"]),
           rows=st.integers(1, 12), level=st.sampled_from([0.0, 30.0]))
    @settings(max_examples=100, deadline=None)
    def test_conv_through_folded_phase_block(self, seed, mode, period, rows, level):
        # the identity rides in the centre tap, so the graph's phase block is
        # the band conv by kernel + e_centre, zero past L, and conv_bias
        # reaches the outputs through the constant C; the prediction is affine
        # in each of kernel and conv_bias, and a block's sums, finished, give
        # their gradients
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        params = _moved_params(rng, config)
        x = level + rng.normal(size=(rows, config.lookback))

        def graph(inputs):
            moved = replace(params, **inputs)
            with pytest.MonkeyPatch.context() as patch:
                _map_paths_as(patch, Path.PHASE_MAP)
                pred, step = _step_forward(x, moved, config)
            assert step.path is Path.PHASE_MAP
            return pred, step

        def adjoint(cotangent):
            _, step = graph(inputs)
            return _block_adjoint(cotangent, step, config)[0]

        inputs = {"conv_kernel": params.conv_kernel, "conv_bias": params.conv_bias}
        _assert_dot_products(lambda values: graph(values)[0], adjoint, inputs, rng)

    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(list(Mode)),
           period=st.sampled_from(["drawn", "one", "lookback", "even", "ragged"]),
           batch=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_reinterleave(self, seed, mode, period, batch):
        # the (m, w*B) phase outputs -> the (B, H) forecast, truncated at H
        rng = np.random.default_rng(seed)
        config = _drawn_config(rng, mode, period)
        out = rng.normal(size=(config.plan.m, config.period * batch))
        mean = rng.normal(size=batch)
        _assert_dot_products(
            lambda inputs: forward_module._reinterleave(inputs["out"].copy(), mean, config),
            lambda g: {"out": backward_module._reinterleave_adjoint(g, config).reshape(
                config.plan.m, -1)},
            {"out": out}, rng)
