"""Shape planning, initialization, branches, and the forward pass."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from mixlinear.errors import CheckpointError, ConfigError
from mixlinear.model import (
    MixLinearParams,
    Mode,
    ModelConfig,
    forward,
    forward_batch,
    forward_multichannel,
    init_params,
    load_checkpoint,
    param_count,
    param_shapes,
    plan_shapes,
    save_checkpoint,
)
from mixlinear.model.forward import (
    _branches,
    _freq_branch_core,
    _phase_block,
    _time_branch_core,
)
from mixlinear.model.params import _array_table
from mixlinear.training import random_small_config
from oracles import (
    decompose_trend_loop,
    forward_loop,
    freq_branch_loop,
    time_branch_loop,
)


def zeroed(params: MixLinearParams) -> MixLinearParams:
    for _, arr in params.named_arrays():
        arr[...] = 0.0
    return params


def decompose_trend(x, params, config):
    """(trend, mean) of one window from the forward pass's trend stage.

    With one window, column p of the time-major (n, w) phase block is the
    aggregated subsequence at phase offset p, so its transpose is the
    (period, n) trend matrix.
    """
    x2d = np.asarray(x, dtype=np.float64)[None, :]
    phase, mean, _ = _phase_block(x2d, params, config)
    return phase.T, float(mean[0])


def time_branch(row, params, plan):
    """One length-n trend row through the time-branch core."""
    padded = np.zeros((1, plan.n_hat))
    padded[0, :plan.n] = row
    return _time_branch_core(padded, params, plan, None)[0]


def freq_branch(padded_row, params, config):
    """One padded (length n_hat) trend row through the freq-branch core."""
    return _freq_branch_core(np.asarray(padded_row)[None, :], params, config, None)[0]


class TestPlanShapes:
    def test_benchmark_square_case(self):
        plan = plan_shapes(ModelConfig(720, 720, 24))
        assert (plan.n, plan.m) == (30, 30)
        assert (plan.n_hat, plan.m_hat) == (36, 36)
        assert (plan.seg_in, plan.seg_out) == (6, 6)
        assert (plan.bins_in, plan.bins_out) == (19, 19)

    def test_short_horizon_case(self):
        plan = plan_shapes(ModelConfig(720, 96, 24))
        assert (plan.n, plan.m) == (30, 4)
        assert (plan.n_hat, plan.m_hat) == (36, 4)
        assert (plan.seg_in, plan.seg_out) == (6, 2)
        assert plan.bins_out == 3

    def test_small_case(self):
        plan = plan_shapes(ModelConfig(96, 96, 24, lpf_cutoff=3))
        assert (plan.n, plan.m, plan.n_hat, plan.m_hat) == (4, 4, 4, 4)
        assert (plan.seg_in, plan.seg_out) == (2, 2)

    def test_period_exceeding_lookback_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(10, 96, 24)

    def test_cutoff_beyond_bins_rejected(self):
        with pytest.raises(ConfigError, match="lpf_cutoff 4 exceeds the 3"):
            ModelConfig(96, 96, 24, lpf_cutoff=4)  # bins_in = 3
        config = ModelConfig(96, 96, 24, lpf_cutoff=3)
        with pytest.raises(ConfigError, match="lpf_cutoff 4 exceeds the 3"):
            replace(config, lpf_cutoff=4)

    @pytest.mark.parametrize("mode", [Mode.TIME_ONLY, Mode.SPARSE_BASELINE],
                             ids=lambda m: m.value)
    def test_cutoff_beyond_bins_accepted_without_freq_branch(self, mode):
        config = ModelConfig(96, 96, 24, lpf_cutoff=4, mode=mode)  # bins_in = 3
        mix = dict(init_params(ModelConfig(96, 96, 24, lpf_cutoff=3), 7).named_arrays())
        shared = [(name, arr) for name, arr in init_params(config, 7).named_arrays()
                  if name in mix]
        assert {"conv_kernel", "conv_bias"} <= {name for name, _ in shared}
        for name, arr in shared:
            assert arr.tobytes() == mix[name].tobytes(), name

    def test_plan_computed_once_outside_equality(self):
        config = ModelConfig(720, 96, 24)
        assert config.plan is config.plan
        assert config.plan == plan_shapes(config)
        fresh = ModelConfig(720, 96, 24)
        assert fresh == config and hash(fresh) == hash(config)
        assert replace(config, horizon=720).plan == plan_shapes(ModelConfig(720, 720, 24))

    def test_zero_latent_width_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(96, 96, 24, lpf_cutoff=3, latent_width=0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(96, 96, 24, lpf_cutoff=3, mode="Hybrid")


class TestInitParams:
    def test_same_seed_bit_identical(self):
        config = ModelConfig(96, 48, 12)
        a = init_params(config, 7)
        b = init_params(config, 7)
        for (name, arr_a), (_, arr_b) in zip(a.named_arrays(), b.named_arrays()):
            assert arr_a.tobytes() == arr_b.tobytes(), name

    def test_different_seeds_differ(self):
        config = ModelConfig(96, 48, 12)
        a = init_params(config, 0)
        b = init_params(config, 1)
        assert not np.allclose(a.w_intra, b.w_intra)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_weight_magnitudes_within_fan_in_bound(self, mode):
        config = ModelConfig(720, 720, 24, mode=mode)
        plan = plan_shapes(config)
        params = init_params(config, 3)
        bounds = {
            "conv_kernel": 1 / np.sqrt(config.period),
            "w_intra": 1 / np.sqrt(plan.seg_in),
            "w_inter": 1 / np.sqrt(plan.seg_in),
            "w_enc_re": 1 / np.sqrt(config.lpf_cutoff),
            "w_enc_im": 1 / np.sqrt(config.lpf_cutoff),
            "w_dec_re": 1 / np.sqrt(config.latent_width),
            "w_dec_im": 1 / np.sqrt(config.latent_width),
            "w_point": 1 / np.sqrt(plan.n),
        }
        for name, arr in params.named_arrays():
            if name in ("conv_bias", "b_intra", "b_inter"):
                assert np.all(arr == 0.0), name
            else:
                assert np.max(np.abs(arr)) <= bounds[name], name

    def test_mode_specific_fields(self):
        mix = init_params(ModelConfig(96, 96, 24, lpf_cutoff=3), 0)
        assert mix.w_intra is not None and mix.w_enc_re is not None
        time_only = init_params(ModelConfig(96, 96, 24, lpf_cutoff=3, mode=Mode.TIME_ONLY), 0)
        assert time_only.w_enc_re is None and time_only.w_intra is not None
        sparse = init_params(ModelConfig(96, 96, 24, lpf_cutoff=3, mode=Mode.SPARSE_BASELINE), 0)
        assert sparse.w_point is not None and sparse.w_intra is None


class TestDecomposeTrend:
    def test_constant_input_zero_kernel(self):
        config = ModelConfig(48, 48, 12, lpf_cutoff=3, latent_width=2)
        params = zeroed(init_params(config, 0))
        trend, mean = decompose_trend(np.full(48, 5.5), params, config)
        assert mean == pytest.approx(5.5)
        assert np.allclose(trend, 0.0)

    def test_hand_unrolled_small_case(self):
        # L=4, w=2, kernel [0, 1]: mean-subtract, shift-by-one conv with the
        # decided asymmetric padding, residual, de-interleave
        config = ModelConfig(4, 4, 2, lpf_cutoff=2, latent_width=1)
        params = zeroed(init_params(config, 0))
        params.conv_kernel[:] = [0.0, 1.0]
        trend, mean = decompose_trend(np.array([1.0, 2.0, 3.0, 4.0]), params, config)
        assert mean == pytest.approx(2.5)
        assert np.allclose(trend, [[-2.0, 2.0], [0.0, 1.5]], atol=1e-12)

    def test_benchmark_shape(self):
        config = ModelConfig(720, 720, 24)
        params = init_params(config, 0)
        trend, _ = decompose_trend(np.random.default_rng(0).normal(size=720),
                                   params, config)
        assert trend.shape == (24, 30)

    def test_matches_loop_oracle_with_ragged_tail(self):
        # L=10 not divisible by w=3: n=4, tail zero-filled
        config = ModelConfig(10, 6, 3, lpf_cutoff=3, latent_width=2)
        plan = plan_shapes(config)
        params = init_params(config, 5)
        x = np.random.default_rng(1).normal(size=10)
        trend, mean = decompose_trend(x, params, config)
        want, want_mean = decompose_trend_loop(
            x, params.conv_kernel, float(params.conv_bias), 3, plan.n
        )
        assert mean == pytest.approx(want_mean)
        assert np.allclose(trend, want, atol=1e-12)

    def test_length_mismatch_rejected(self):
        config = ModelConfig(8, 8, 2, lpf_cutoff=3, latent_width=2)
        params = init_params(config, 0)
        with pytest.raises(ValueError):
            forward_batch(np.zeros((1, 9)), params, config)


class TestTimeBranch:
    def test_identity_weights_square_case(self):
        config = ModelConfig(720, 720, 24)
        plan = plan_shapes(config)
        params = zeroed(init_params(config, 0))
        params.w_intra[:] = np.eye(6)
        params.w_inter[:] = np.eye(6)
        row = np.random.default_rng(2).normal(size=30)
        padded = np.concatenate([row, np.zeros(6)])
        want = padded.reshape(6, 6).T.reshape(-1)[:30]
        assert np.allclose(time_branch(row, params, plan), want, atol=1e-12)

    def test_constant_bias_output(self):
        config = ModelConfig(720, 720, 24)
        plan = plan_shapes(config)
        params = zeroed(init_params(config, 0))
        params.b_inter[:] = 2.5
        out = time_branch(np.random.default_rng(3).normal(size=30), params, plan)
        assert np.allclose(out, 2.5)

    def test_matches_loop_oracle_rectangular(self):
        config = ModelConfig(720, 96, 24)  # n=30, m=4
        plan = plan_shapes(config)
        params = init_params(config, 11)
        row = np.random.default_rng(4).normal(size=30)
        want = time_branch_loop(row, params.w_intra, params.b_intra,
                                params.w_inter, params.b_inter, plan)
        assert np.allclose(time_branch(row, params, plan), want, atol=1e-12)

    def test_wrong_length_rejected(self):
        config = ModelConfig(720, 96, 24)
        params = init_params(config, 0)
        with pytest.raises(ValueError):
            _branches(np.zeros((1, 31)), params, config, None)


class TestFreqBranch:
    def test_zero_input_zero_output(self):
        config = ModelConfig(720, 720, 24)
        params = init_params(config, 0)
        out = freq_branch(np.zeros(36), params, config)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_zero_weights_zero_output(self):
        config = ModelConfig(720, 720, 24)
        params = init_params(config, 0)
        params.w_enc_re[...] = 0.0
        params.w_enc_im[...] = 0.0
        out = freq_branch(np.random.default_rng(5).normal(size=36), params, config)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_matches_composed_naive_oracle(self):
        config = ModelConfig(720, 720, 24)  # n_hat=36, cutoff=5, latent=2, m=30
        plan = plan_shapes(config)
        params = init_params(config, 13)
        row = np.random.default_rng(6).normal(size=36)
        want = freq_branch_loop(row, params.w_enc, params.w_dec,
                                config.lpf_cutoff, plan)
        got = freq_branch(row, params, config)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_expanding_encoder_cutoff_below_latent(self):
        # the published sweep holds the latent width at 2 down to cutoff 1,
        # so a 1-bin filter feeding a wider latent space must work
        config = ModelConfig(720, 720, 24, lpf_cutoff=1, latent_width=2)
        plan = plan_shapes(config)
        params = init_params(config, 14)
        assert params.w_enc.shape == (2, 1)
        row = np.random.default_rng(7).normal(size=36)
        want = freq_branch_loop(row, params.w_enc, params.w_dec, 1, plan)
        got = freq_branch(row, params, config)
        assert np.max(np.abs(got - want)) < 1e-10


class TestForward:
    def test_zero_params_predict_window_mean(self):
        config = ModelConfig(96, 48, 12)
        params = zeroed(init_params(config, 0))
        x = np.random.default_rng(7).normal(size=96) + 3.0
        pred = forward(x, params, config)
        assert pred.shape == (48,)
        assert np.allclose(pred, x.mean(), atol=1e-12)

    def test_merge_is_additive(self):
        base = ModelConfig(96, 48, 12)
        params = init_params(base, 21)
        x = np.random.default_rng(8).normal(size=96)
        mix = forward(x, params, base)
        t_only = forward(x, params, replace(base, mode=Mode.TIME_ONLY))
        f_only = forward(x, params, replace(base, mode=Mode.FREQ_ONLY))
        assert np.max(np.abs(mix - t_only - f_only + x.mean())) < 1e-10

    @pytest.mark.parametrize("mode", list(Mode))
    def test_matches_end_to_end_loop_oracle(self, mode):
        config = ModelConfig(30, 20, 6, lpf_cutoff=3, latent_width=2, mode=mode)
        plan = plan_shapes(config)
        params = init_params(config, 17)
        x = np.random.default_rng(9).normal(size=30)
        want = forward_loop(x, params, config, plan)
        assert np.max(np.abs(forward(x, params, config) - want)) < 1e-10

    def test_benchmark_config_matches_loop_oracle(self):
        config = ModelConfig(720, 720, 24)
        plan = plan_shapes(config)
        params = init_params(config, 23)
        x = np.random.default_rng(10).normal(size=720)
        want = forward_loop(x, params, config, plan)
        assert np.max(np.abs(forward(x, params, config) - want)) < 1e-9

    def test_mean_equivariance(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 29)
        x = np.random.default_rng(11).normal(size=96)
        shift = forward(x + 13.5, params, config)
        assert np.max(np.abs(shift - (forward(x, params, config) + 13.5))) < 1e-9

    def test_homogeneity_on_centered_inputs(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 31)
        x = np.random.default_rng(12).normal(size=96)
        x -= x.mean()
        scaled = forward(4.0 * x, params, config)
        want = 4.0 * forward(x, params, config)
        scale = max(np.max(np.abs(want)), 1e-12)
        assert np.max(np.abs(scaled - want)) / scale < 1e-9

    def test_shape_safety_randomized(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            period = int(rng.integers(1, 49))
            lookback = int(rng.integers(period, 1025))
            horizon = int(rng.integers(period, 1025))
            probe = ModelConfig(lookback, horizon, period, lpf_cutoff=1, latent_width=1)
            bins = plan_shapes(probe).bins_in
            config = ModelConfig(lookback, horizon, period,
                                 lpf_cutoff=min(5, bins),
                                 latent_width=min(2, min(5, bins)))
            params = init_params(config, 1)
            x = rng.normal(size=lookback)
            assert forward(x, params, config).shape == (horizon,)

    def test_shape_safety_extremes(self):
        for lookback, horizon, period in [(1024, 1024, 1), (1024, 1, 48), (48, 1024, 48)]:
            probe = ModelConfig(lookback, horizon, period, lpf_cutoff=1, latent_width=1)
            bins = plan_shapes(probe).bins_in
            config = ModelConfig(lookback, horizon, period,
                                 lpf_cutoff=min(5, bins),
                                 latent_width=min(2, min(5, bins)))
            params = init_params(config, 2)
            x = np.random.default_rng(14).normal(size=lookback)
            assert forward(x, params, config).shape == (horizon,)


class TestForwardMultichannel:
    def test_single_channel_matches_forward(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 5)
        x = np.random.default_rng(15).normal(size=96)
        table = forward_multichannel(x[:, None], params, config)
        assert np.allclose(table[:, 0], forward(x, params, config))

    def test_duplicated_channel_duplicates_prediction(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 5)
        x = np.random.default_rng(16).normal(size=(96, 2))
        x[:, 1] = x[:, 0]
        out = forward_multichannel(x, params, config)
        assert np.array_equal(out[:, 0], out[:, 1])

    def test_permuting_channels_permutes_output(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 5)
        x = np.random.default_rng(17).normal(size=(96, 3))
        perm = [2, 0, 1]
        out = forward_multichannel(x, params, config)
        out_perm = forward_multichannel(x[:, perm], params, config)
        assert np.allclose(out_perm, out[:, perm])

    def test_corrupting_one_channel_is_local(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 5)
        rng = np.random.default_rng(18)
        x = rng.normal(size=(96, 4))
        out = forward_multichannel(x, params, config)
        corrupted = x.copy()
        corrupted[:, 2] += rng.normal(size=96)
        out2 = forward_multichannel(corrupted, params, config)
        for c in range(4):
            if c == 2:
                assert not np.allclose(out[:, c], out2[:, c])
            else:
                assert np.array_equal(out[:, c], out2[:, c])

    def test_empty_table_rejected(self):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 5)
        with pytest.raises(ValueError):
            forward_multichannel(np.zeros((96, 0)), params, config)


class TestParamCount:
    def test_benchmark_mix_count(self):
        assert param_count(ModelConfig(720, 720, 24)) == 205

    def test_time_only_count(self):
        assert param_count(ModelConfig(720, 720, 24, mode=Mode.TIME_ONLY)) == 109

    def test_full_spectrum_count(self):
        assert param_count(ModelConfig(720, 720, 24, lpf_cutoff=19)) == 261

    def test_sparse_baseline_count(self):
        assert param_count(ModelConfig(720, 720, 24, mode=Mode.SPARSE_BASELINE)) == 925

    def test_init_arrays_match_param_shapes(self):
        rng = np.random.default_rng(19)
        for mode in Mode:
            for seed in range(10):
                config = replace(random_small_config(rng), mode=mode)
                shapes = {n: a.shape for n, a in init_params(config, seed).named_arrays()}
                assert list(shapes.items()) == list(param_shapes(config).items())

    def test_subquadratic_growth(self):
        small = param_count(ModelConfig(720, 720, 24))
        large = param_count(ModelConfig(2880, 2880, 24))
        assert large < 3 * small
        sparse_small = param_count(ModelConfig(720, 720, 24, mode=Mode.SPARSE_BASELINE))
        sparse_large = param_count(ModelConfig(2880, 2880, 24, mode=Mode.SPARSE_BASELINE))
        assert sparse_large > 10 * sparse_small


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        config = ModelConfig(96, 48, 12, lpf_cutoff=3, latent_width=2)
        params = init_params(config, 41)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, config, params)
        loaded_config, plan, loaded = load_checkpoint(path)
        assert loaded_config == config
        assert plan == plan_shapes(config)
        for (name, arr), (_, arr2) in zip(params.named_arrays(), loaded.named_arrays()):
            assert arr.tobytes() == arr2.tobytes(), name

    def test_byte_identical_on_rewrite(self, tmp_path):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 1)
        a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(a, config, params)
        save_checkpoint(b, config, params)
        assert a.read_bytes() == b.read_bytes()

    def test_save_rejects_params_of_another_mode(self, tmp_path):
        config = ModelConfig(96, 48, 12, mode=Mode.TIME_ONLY)
        mix_params = init_params(replace(config, mode=Mode.MIX), 4)
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match="TimeOnly"):
            save_checkpoint(path, config, mix_params)
        assert not path.exists()

    def test_save_rejects_misshapen_params(self, tmp_path):
        config = ModelConfig(96, 48, 12)
        params = init_params(config, 5)
        params.w_intra = params.w_intra[:, :-1]
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match="w_intra"):
            save_checkpoint(path, config, params)
        assert not path.exists()

    def test_sparse_round_trip(self, tmp_path):
        config = ModelConfig(96, 48, 12, mode=Mode.SPARSE_BASELINE)
        params = init_params(config, 2)
        path = tmp_path / "sparse.ckpt"
        save_checkpoint(path, config, params)
        _, _, loaded = load_checkpoint(path)
        assert np.array_equal(loaded.w_point, params.w_point)

    # sha256 of save_checkpoint(init_params(ModelConfig(720, H, 24, mode), 0)):
    # initialisation and the file layout must not drift between versions
    PINNED_INIT = {
        (96, Mode.MIX): "e265b6dd6318a0944fc35b098abdbda4f081408865f0dc62ddfe165978287c6b",
        (96, Mode.TIME_ONLY): "8608622bac9ff1cf678043e05af309a4d80f71a90412b29499218f181a9813fd",
        (96, Mode.FREQ_ONLY): "0eee064a715921255b80fa4880f9d511ba47d6815c539900e0e51ec022f13f43",
        (96, Mode.SPARSE_BASELINE):
            "07f1a09144bb376afa1074f3e3a040b7fe8a5359dc8590c89ee6954f364dfccc",
        (720, Mode.MIX): "ed1623ece1d092ff4480b4d37b9ed998f67676162089430117ed0d0caa4ecf90",
        (720, Mode.TIME_ONLY): "89022afdcb7c7f3ea8ae88e97e3f7bdb95ab97d80ed194e12f4b8141bd47f869",
        (720, Mode.FREQ_ONLY): "593500cc803103a48063d3486c275fe1966fc0b82bf1baefc2089e5527c29381",
        (720, Mode.SPARSE_BASELINE):
            "b50de0408b6350174d3c4b060c711b1c55a43c0e8a280801ea053e722dcb3e79",
    }

    @pytest.mark.parametrize("horizon,mode", list(PINNED_INIT),
                             ids=lambda v: getattr(v, "value", str(v)))
    def test_init_checkpoint_hash_pinned(self, tmp_path, horizon, mode):
        config = ModelConfig(720, horizon, 24, mode=mode)
        path = tmp_path / "init.ckpt"
        save_checkpoint(path, config, init_params(config, 0))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.PINNED_INIT[(horizon, mode)]


def _trailing_bytes(header, blob):
    return header, blob + bytes(16)


def _nan_value(header, blob):
    return header, np.array([np.nan]).tobytes() + blob[8:]


def _overlapping_offset(header, blob):
    header["arrays"][1]["offset"] = 0
    return header, blob


def _extra_array(header, blob):
    header["arrays"].append(
        {"name": "w_enc_re", "shape": [2, 5], "dtype": "<f8", "offset": len(blob)})
    return header, blob + bytes(8 * 10)


def _duplicated_entry(header, blob):
    header["arrays"].append(dict(header["arrays"][-1]))
    return header, blob


def _plan_mismatch(header, blob):
    header["plan"]["n"] += 1
    return header, blob


def _header_not_object(header, blob):
    return list(header), blob


def _mix_cutoff_beyond_bins(header, blob):
    # a complete Mix file at cutoff 6 of the 5 bins (L=96, w=12: n_hat = 9)
    shapes = param_shapes(ModelConfig(96, 48, 12, lpf_cutoff=5))
    shapes["w_enc_re"] = shapes["w_enc_im"] = (2, 6)
    header["config"].update(mode="Mix", lpf_cutoff=6)
    header["arrays"] = _array_table(shapes)
    return header, bytes(8 * sum(math.prod(shape) for shape in shapes.values()))


def _config_value(key, value):
    def corrupt(header, blob):
        header["config"][key] = value
        return header, blob
    corrupt.__name__ = f"_{key}_{value!r}"
    return corrupt


@pytest.mark.parametrize("corrupt", [
    _trailing_bytes, _nan_value, _overlapping_offset, _extra_array,
    _duplicated_entry, _plan_mismatch, _header_not_object, _mix_cutoff_beyond_bins,
    # non-integer sizes must not be coerced (96.7 would load as 96)
    _config_value("lookback", 96.7), _config_value("lookback", 96.0),
    _config_value("horizon", "48"), _config_value("latent_width", True),
], ids=lambda f: f.__name__.lstrip("_"))
def test_malformed_checkpoint_rejected(tmp_path, corrupt):
    config = ModelConfig(96, 48, 12, mode=Mode.TIME_ONLY)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, init_params(config, 3))
    magic, header, blob = path.read_bytes().split(b"\n", 2)
    header, blob = corrupt(json.loads(header), blob)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
