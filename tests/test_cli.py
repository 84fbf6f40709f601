"""End-to-end CLI workflows through main()."""

import csv
import importlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import REPO_ROOT
from mixlinear.cli import main
from mixlinear.data import load_csv
from mixlinear.evalbench import parse_report
from mixlinear.model import load_checkpoint, save_checkpoint
from mixlinear.model.forward import Path, choose_path
from mixlinear.training import gradcheck_trials


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    rc = main([
        "synth", "--out", str(path), "--length", "2000", "--period", "8",
        "--channels", "2", "--amplitudes", "1.0,0.3", "--seed", "11",
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def trained_run(synth_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("runs") / "smoke"
    started = time.perf_counter()
    rc = main([
        "train", "--data", str(synth_csv), "--out", str(out),
        "--lookback", "64", "--horizon", "16", "--period", "8",
        "--cutoff", "5", "--epochs", "8", "--batch", "64", "--seed", "3",
    ])
    elapsed = time.perf_counter() - started
    assert rc == 0
    assert elapsed < 60.0  # smoke config finishes quickly
    return out


class TestSynth:
    def test_output_loads_with_expected_shape(self, synth_csv):
        series = load_csv(synth_csv)
        assert series.length == 2000
        assert series.channels == 2

    def test_same_seed_byte_identical(self, synth_csv, tmp_path):
        other = tmp_path / "again.csv"
        rc = main([
            "synth", "--out", str(other), "--length", "2000", "--period", "8",
            "--channels", "2", "--amplitudes", "1.0,0.3", "--seed", "11",
        ])
        assert rc == 0
        assert other.read_bytes() == synth_csv.read_bytes()

    def test_noiseless_output_is_periodic(self, synth_csv):
        values = load_csv(synth_csv).values
        assert np.max(np.abs(values[8:] - values[:-8])) < 1e-12

    @pytest.mark.parametrize("flag,bad", [
        ("--period", "0"), ("--length", "0"), ("--channels", "0"),
        ("--noise", "-1"), ("--amplitudes", ""),
    ], ids=["--period", "--length", "--channels", "--noise", "--amplitudes"])
    def test_zero_size_exits_2(self, flag, bad, tmp_path, capsys):
        sizes = {"--period": "8", "--length": "100", "--channels": "1", flag: bad}
        out = tmp_path / "zero.csv"
        argv = ["synth", "--out", str(out)]
        for name, value in sizes.items():
            argv += [name, value]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and flag[2:] in err
        assert "Traceback" not in err
        assert not out.exists()


class TestTrain:
    def test_writes_checkpoint_history_report(self, trained_run):
        assert (trained_run / "model.ckpt").is_file()
        assert (trained_run / "history.csv").is_file()
        reports = list(trained_run.glob("*.report"))
        assert len(reports) == 1
        assert reports[0].name == "synthetic_Mix_h16_s3.report"

    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the same 2-epoch run at the etth1-train shape (L=720, H=96, 7
        # channels, so training takes gain-first), in a process at 1 and at
        # 2 OpenBLAS threads, writes the same checkpoint bytes
        data = tmp_path / "synth.csv"
        assert main(["synth", "--out", str(data), "--length", "2400", "--period", "24",
                     "--channels", "7", "--noise", "0.3", "--seed", "1"]) == 0
        script = ("import sys; from mixlinear.cli import main; "
                  "sys.exit(main(sys.argv[1:]))")
        checkpoints = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                                  os.environ.get("PYTHONPATH", "")])}
            env.pop("MIXLINEAR_THREADS", None)
            subprocess.run([sys.executable, "-c", script, "train", "--data", str(data),
                            "--out", str(out), "--horizon", "96", "--period", "24",
                            "--epochs", "2", "--seed", "1"],
                           env=env, capture_output=True, check=True)
            checkpoints.append((out / "model.ckpt").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_sparse_baseline_mode(self, synth_csv, tmp_path):
        out = tmp_path / "baseline"
        rc = main([
            "train", "--data", str(synth_csv), "--out", str(out),
            "--lookback", "64", "--horizon", "16", "--period", "8",
            "--mode", "SparseBaseline", "--epochs", "2", "--batch", "64",
        ])
        assert rc == 0
        config, _, params = load_checkpoint(out / "model.ckpt")
        assert config.mode.value == "SparseBaseline"
        assert params.w_point.shape == (2, 8)

    def test_missing_period_exits_2(self, synth_csv, capsys):
        rc = main(["train", "--data", str(synth_csv), "--horizon", "16"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "period" in captured.err

    def test_missing_data_file_exits_3(self, tmp_path):
        rc = main([
            "train", "--data", str(tmp_path / "absent.csv"), "--out",
            str(tmp_path / "o"), "--horizon", "16", "--period", "8",
        ])
        assert rc == 3

    def test_invalid_config_exits_2_before_reading_data(self, tmp_path, capsys):
        # cutoff 5 exceeds the 3 spectrum bins at L=16, w=4; the data file
        # is absent, so reading it first would exit 3
        rc = main(["train", "--data", str(tmp_path / "absent.csv"),
                   "--out", str(tmp_path / "o"),
                   "--lookback", "16", "--horizon", "4", "--period", "4"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "lpf_cutoff" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("length", [400, 17420])
    def test_channel_constant_up_to_round_off_exits_3(self, length, tmp_path, capsys):
        # every period-1 harmonic is constant at integer t, up to round-off
        data = tmp_path / "flat.csv"
        assert main(["synth", "--out", str(data), "--length", str(length),
                     "--period", "1", "--channels", "2"]) == 0
        capsys.readouterr()
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--lookback", "16", "--horizon", "4", "--period", "1"])
        err = capsys.readouterr().err
        assert rc == 3
        assert "error:" in err and "zero-variance" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "model.ckpt").exists()

    def test_non_utf8_config_file_exits_2(self, synth_csv, tmp_path, capsys):
        cfg = tmp_path / "latin1.conf"
        cfg.write_bytes(b"horizon = 16\nperiod = 8\n# caf\xe9 \xff\n")
        rc = main(["train", "--data", str(synth_csv), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "latin1.conf" in err
        assert "Traceback" not in err

    def test_non_utf8_data_file_exits_3(self, synth_csv, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(synth_csv.read_bytes().replace(b"t00000042", b"t\xff0000042"))
        rc = main(["train", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--lookback", "64", "--horizon", "16", "--period", "8"])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ") and "latin1.csv" in err
        assert "Traceback" not in err

    def test_unknown_config_key_exits_2(self, synth_csv, tmp_path, capsys):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("horizon = 16\nperiod = 8\nwat = 1\n")
        rc = main(["train", "--data", str(synth_csv), "--config", str(cfg)])
        assert rc == 2
        assert "wat" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, synth_csv, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(
            "# smoke config\n"
            f"data = {synth_csv}\n"
            "lookback = 64\nhorizon = 16\nperiod = 8\n"
            "epochs = 2\nbatch = 64\nseed = 5\n"
            f"out = {tmp_path / 'from_config'}\n"
        )
        rc = main(["train", "--config", str(cfg), "--epochs", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "epochs = 1" in out  # flag beat the config file
        assert (tmp_path / "from_config" / "model.ckpt").is_file()

    def test_effective_config_closure(self, synth_csv, trained_run, tmp_path, capsys):
        # echoed manifest, fed back as a config file, reproduces the metrics
        rc = main([
            "train", "--data", str(synth_csv), "--out", str(tmp_path / "a"),
            "--lookback", "64", "--horizon", "16", "--period", "8",
            "--epochs", "2", "--batch", "64", "--seed", "9",
        ])
        first = capsys.readouterr().out
        assert rc == 0
        manifest_lines = [
            line for line in first.splitlines()
            if " = " in line and not line.startswith(("#", "test_", "param_",
                                                      "mac_", "epochs_run"))
        ]
        cfg = tmp_path / "replay.conf"
        cfg.write_text("\n".join(manifest_lines) + "\n")
        rc = main(["train", "--config", str(cfg), "--out", str(tmp_path / "b")])
        second = capsys.readouterr().out
        assert rc == 0

        def metric(text, key):
            for line in text.splitlines():
                if line.startswith(f"{key} = "):
                    return float(line.split(" = ")[1])
            raise AssertionError(f"{key} not found")

        assert metric(first, "test_mse") == pytest.approx(
            metric(second, "test_mse"), abs=1e-12)


class TestEval:
    def test_matches_training_report(self, synth_csv, trained_run, capsys):
        report = parse_report(next(trained_run.glob("*.report")))
        rc = main([
            "eval", "--checkpoint", str(trained_run / "model.ckpt"),
            "--data", str(synth_csv),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        line = [l for l in out.splitlines() if l.startswith("test_mse = ")][0]
        assert float(line.split(" = ")[1]) == pytest.approx(report.test_mse, abs=1e-12)

    def test_checkpoint_config_round_trips(self, trained_run):
        config, plan, params = load_checkpoint(trained_run / "model.ckpt")
        assert (config.lookback, config.horizon, config.period) == (64, 16, 8)

    def test_too_short_dataset_exits_2(self, trained_run, tmp_path, capsys):
        rc = main([
            "synth", "--out", str(tmp_path / "short.csv"), "--length", "90",
            "--period", "8",
        ])
        assert rc == 0
        rc = main([
            "eval", "--checkpoint", str(trained_run / "model.ckpt"),
            "--data", str(tmp_path / "short.csv"),
        ])
        err = capsys.readouterr().err
        assert rc == 2
        assert "lookback=64" in err and "90 rows" in err

    def test_malformed_checkpoint_exits_2(self, synth_csv, trained_run, tmp_path,
                                          capsys):
        bad = tmp_path / "trailing.ckpt"
        bad.write_bytes((trained_run / "model.ckpt").read_bytes() + bytes(16))
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(synth_csv)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "payload" in err
        assert "Traceback" not in err

    def test_non_integer_config_value_exits_2(self, synth_csv, trained_run, tmp_path,
                                              capsys):
        magic, header, blob = (trained_run / "model.ckpt").read_bytes().split(b"\n", 2)
        header = json.loads(header)
        header["config"]["lookback"] += 0.7
        bad = tmp_path / "float.ckpt"
        bad.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(synth_csv)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "lookback must be an integer" in err
        assert "Traceback" not in err

    def test_overflowing_prediction_exits_4(self, synth_csv, trained_run, tmp_path,
                                            capsys):
        # finite parameters whose squared errors overflow to inf
        config, _, params = load_checkpoint(trained_run / "model.ckpt")
        params.b_inter[:] = 1e300
        bad = tmp_path / "overflow.ckpt"
        save_checkpoint(bad, config, params)
        rc = main(["eval", "--checkpoint", str(bad), "--data", str(synth_csv)])
        err = capsys.readouterr().err
        assert rc == 4
        assert err.startswith("error: non-finite evaluation error in windows [0, ")
        assert "Traceback" not in err

    def test_cross_dataset_eval_runs(self, trained_run, tmp_path, capsys):
        # checkpoint trained on one dataset evaluates on another (CI strategy
        # makes the parameter set channel-count agnostic)
        other = tmp_path / "other.csv"
        rc = main([
            "synth", "--out", str(other), "--length", "1200", "--period", "8",
            "--channels", "5", "--seed", "77",
        ])
        assert rc == 0
        rc = main([
            "eval", "--checkpoint", str(trained_run / "model.ckpt"),
            "--data", str(other),
        ])
        assert rc == 0
        assert "test_mse" in capsys.readouterr().out


class TestSweep:
    def test_unsorted_cutoffs_sorted_csv(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = main([
            "sweep", "--data", str(synth_csv), "--out", str(out),
            "--lookback", "64", "--horizon", "16", "--period", "8",
            "--cutoffs", "5,2,3", "--epochs", "2", "--batch", "64",
        ])
        assert rc == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["lpf_cutoff"]) for r in rows] == [2, 3, 5]
        assert len(rows) == 3


    def test_single_cutoff_matches_train(self, synth_csv, tmp_path, capsys):
        shared = [
            "--data", str(synth_csv), "--lookback", "64", "--horizon", "16",
            "--period", "8", "--epochs", "2", "--batch", "64", "--seed", "4",
        ]
        rc = main(["sweep", *shared, "--out", str(tmp_path / "sweep1"),
                   "--cutoffs", "4"])
        assert rc == 0
        rc = main(["train", *shared, "--out", str(tmp_path / "train4"),
                   "--cutoff", "4"])
        assert rc == 0
        capsys.readouterr()
        with open(tmp_path / "sweep1" / "sweep.csv", newline="") as fh:
            sweep_row = list(csv.DictReader(fh))[0]
        train_report = parse_report(next((tmp_path / "train4").glob("*.report")))
        assert float(sweep_row["test_mse"]) == pytest.approx(
            train_report.test_mse, abs=1e-12)


class TestAblate:
    def test_three_rows_with_shared_seed(self, synth_csv, tmp_path):
        out = tmp_path / "ablate"
        rc = main([
            "ablate", "--data", str(synth_csv), "--out", str(out),
            "--lookback", "64", "--horizon", "16", "--period", "8",
            "--epochs", "2", "--batch", "64", "--seed", "21",
        ])
        assert rc == 0
        with open(out / "ablation.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["mode"] for r in rows] == ["Mix", "TimeOnly", "FreqOnly"]
        assert {r["seed"] for r in rows} == {"21"}


class TestMisc:
    def test_no_command_prints_help_exit_2(self, capsys):
        rc = main([])
        assert rc == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_synth_io_error_exits_3(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        rc = main(["synth", "--out", str(blocker / "x.csv"), "--length", "50",
                   "--period", "5"])
        assert rc == 3

    # (argv before --data/--out, name made a directory under --out); {tmp},
    # {trained} and {out} are filled in per test
    TRAIN_SIZES = ["--lookback", "64", "--horizon", "16", "--period", "8",
                   "--epochs", "1", "--batch", "64"]
    IO_FAILURES = {
        "eval-absent-checkpoint": (["eval", "--checkpoint", "{tmp}/absent.ckpt"], None),
        "eval-checkpoint-is-dir": (["eval", "--checkpoint", "{tmp}"], None),
        "eval-report-is-dir": (["eval", "--checkpoint", "{trained}/model.ckpt"],
                               "eval_synthetic_h16.report"),
        "train-checkpoint-is-dir": (["train", *TRAIN_SIZES], "model.ckpt"),
        "train-history-is-dir": (["train", *TRAIN_SIZES], "history.csv"),
        "train-config-is-dir": (["train", *TRAIN_SIZES, "--config", "{out}/train.conf"],
                                "train.conf"),
        "ablate-csv-is-dir": (["ablate", *TRAIN_SIZES], "ablation.csv"),
    }

    @pytest.mark.parametrize("case", list(IO_FAILURES))
    def test_file_io_failure_exits_3(self, case, synth_csv, trained_run, tmp_path,
                                     capsys):
        args, blocked = self.IO_FAILURES[case]
        out = tmp_path / "out"
        if blocked:
            (out / blocked).mkdir(parents=True)
        argv = [arg.format(tmp=tmp_path, trained=trained_run, out=out) for arg in args]
        rc = main([*argv, "--data", str(synth_csv), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: ")
        assert "Traceback" not in err

    # (what data row 42's ch1 cell becomes, the loader's message after "<path>: ")
    BAD_CELLS = {
        "non-finite": ("-inf", "missing/non-finite cell at row 42, col 3"),
        "non-numeric": ("n/a", "non-numeric cell at row 42, col 3: 'n/a'"),
    }

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("case", list(BAD_CELLS))
    def test_bad_data_cell_exits_3_with_loader_message(self, command, case, synth_csv,
                                                       trained_run, tmp_path, capsys):
        text, message = self.BAD_CELLS[case]
        lines = synth_csv.read_text().splitlines()
        lines[42] = lines[42].rsplit(",", 1)[0] + "," + text
        data = tmp_path / "bad.csv"
        data.write_text("\n".join(lines) + "\n")
        args = {"train": ["train", *self.TRAIN_SIZES, "--out", str(tmp_path / "o")],
                "eval": ["eval", "--checkpoint", str(trained_run / "model.ckpt")]}
        rc = main([*args[command], "--data", str(data)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err == f"error: {data}: {message}\n"  # and so no traceback

    def test_eval_writes_report_when_out_given(self, synth_csv, trained_run,
                                               tmp_path, capsys):
        out = tmp_path / "evalout"
        rc = main([
            "eval", "--checkpoint", str(trained_run / "model.ckpt"),
            "--data", str(synth_csv), "--out", str(out),
        ])
        capsys.readouterr()
        assert rc == 0
        report = out / "eval_synthetic_h16.report"
        assert report.is_file()
        assert "test_mse = " in report.read_text()


class TestGradcheck:
    def test_default_invocation_passes(self, capsys):
        rc = main(["gradcheck", "--trials", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "checked 5 configs" in out

    @staticmethod
    def _corrupt(monkeypatch, change):
        """Make the backward that grad_check calls return ``change(grads)``."""
        # the package attribute mixlinear.training.backward is the function
        module = importlib.import_module("mixlinear.training.backward")
        original = module.backward

        def corrupted(*args):
            loss, grads = original(*args)
            return loss, change(grads)

        monkeypatch.setattr(module, "backward", corrupted)

    def test_corrupted_gradient_fails_naming_parameter(self, monkeypatch, capsys):
        self._corrupt(monkeypatch,
                      lambda grads: {**grads, "conv_kernel": grads["conv_kernel"] + 1.0})
        rc = main(["gradcheck", "--trials", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "conv_kernel" in captured.err

    def test_nan_gradient_fails(self, monkeypatch, capsys):
        self._corrupt(monkeypatch,
                      lambda grads: {**grads, "conv_bias": grads["conv_bias"] * np.nan})
        rc = main(["gradcheck", "--trials", "2", "--seed", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "discrepancy = inf" in captured.out and "conv_bias" in captured.err

    def test_forty_trials_reach_both_map_paths(self):
        # CI's --seed 1 --trials 40 run differences configs on both map paths
        assert {choose_path(config) for config, *_ in gradcheck_trials(1, 40)} == set(Path)

    @pytest.mark.parametrize("flag,value", [("--trials", "0")])
    def test_setting_that_checks_nothing_exits_2(self, flag, value, capsys):
        rc = main(["gradcheck", flag, value])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ") and value in captured.err
        assert "Traceback" not in captured.err
        assert "checked" not in captured.out


@pytest.mark.parametrize("argv", [
    ["train", "--data", "absent.csv", "--horizon", "16", "--period", "8"],
    ["synth", "--out", "{tmp}/never.csv", "--period", "8"],
    ["gradcheck", "--trials", "1"],
], ids=["train", "synth", "gradcheck"])
def test_negative_seed_exits_2(argv, tmp_path, capsys):
    rc = main([arg.format(tmp=tmp_path) for arg in argv] + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ") and "seed" in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "never.csv").exists()


class TestThreadsVariable:
    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_invalid_value_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("MIXLINEAR_THREADS", value)
        rc = main(["gradcheck", "--trials", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"error: MIXLINEAR_THREADS must be a positive integer, got {value!r}\n")
        assert captured.out == ""

    def test_positive_value_runs(self, monkeypatch, capsys):
        monkeypatch.setenv("MIXLINEAR_THREADS", "1")
        assert main(["gradcheck", "--trials", "1"]) == 0
        capsys.readouterr()
