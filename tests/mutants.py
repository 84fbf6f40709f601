"""Mutation audit: tier-1 must fail on every mutant listed here.

A mutant (name, file, old, new) puts ``new`` in place of ``old``, which
occurs exactly once in ``file``.  ``python tests/mutants.py [--root DIR]``
runs tier-1 with ``-x`` on a copy of the checkout's src, tests, perfbench
and pyproject.toml per mutant, after the unmutated copy, which must pass,
and prints which mutants are killed; on another checkout a mutant whose
old text does not occur once is n/a.  ``--check`` only checks that each
old text occurs once.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

TREE = ("src", "tests", "perfbench", "pyproject.toml")
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0",
          "--continue-on-collection-errors")
FORWARD = "src/mixlinear/model/forward.py"
BACKWARD = "src/mixlinear/training/backward.py"
LOOP = "src/mixlinear/training/loop.py"
WINDOWS = "src/mixlinear/data/windows.py"
SPLIT = "src/mixlinear/data/split.py"
SERIES = "src/mixlinear/data/series.py"

MUTANTS = [
    ("w_inter without its b_intra term", BACKWARD,
     "+ (params.b_intra @ bias)[:, None])", "+ 0.0 * (params.b_intra @ bias)[:, None])"),
    ("w_enc without spectra.conj()", BACKWARD, ".T @ spectra.conj()", ".T @ spectra"),
    ("w_dec without the latent's conj()", BACKWARD,
     "(spectra @ params.w_enc.T).conj()", "(spectra @ params.w_enc.T)"),
    ("inverse DFT adjoint without conj()", BACKWARD,
     "idft_matrix(plan.m_hat).conj()", "idft_matrix(plan.m_hat)"),
    ("w_intra einsum indices swapped", BACKWARD, '"ajqs,sa->qj"', '"ajqs,as->qj"'),
    ("b_intra through w_inter summed over axis 0", BACKWARD,
     "bias @ params.w_inter.sum(axis=1)", "bias @ params.w_inter.sum(axis=0)"),
    ("b_inter summed over axis 1", BACKWARD,
     'grads["b_inter"] = bias.sum(axis=0)', 'grads["b_inter"] = bias.sum(axis=1)'),
    ("w_point gradient rows reversed", BACKWARD,
     'grads["w_point"] = grad_gain.T', 'grads["w_point"] = grad_gain.T[::-1]'),
    ("phase map einsum output order", FORWARD, '"qj,sa->ajqs"', '"qj,sa->jaqs"'),
    ("offset's w_inter summed over axis 0", FORWARD,
     "np.outer(params.b_intra, params.w_inter.sum(axis=1))",
     "np.outer(params.b_intra, params.w_inter.sum(axis=0))"),
    ("inverse DFT untransposed", FORWARD,
     "(recon @ idft_matrix(plan.m_hat).T)", "(recon @ idft_matrix(plan.m_hat))"),
    ("counted W without its padded-step term", FORWARD,
     "- np.multiply.outer(self.gain[-1], self.padded)",
     "- 0.0 * np.multiply.outer(self.gain[-1], self.padded)"),
    ("_band_kernel_grad on the next diagonal", BACKWARD,
     "minlength=width + 1)[:width]", "minlength=width + 1)[1:]"),
    ("conv_bias gradient times 1 + 1e-6", BACKWARD,
     "np.asarray(np.sum(sums.outputs * step.counted))",
     "np.asarray(np.sum(sums.outputs * step.counted) * (1 + 1e-6))"),
    ("W gradient without conv_bias * G_b", BACKWARD,
     "grad_gain += step.conv_bias * grad_offset", "grad_gain += 0.0 * grad_offset"),
    ("W gradient keeps the padded phases' conv_bias term", BACKWARD,
     "grad_gain[-1] -= step.conv_bias *", "grad_gain[-1] -= 0.0 *"),
    ("output constant without conv_bias", FORWARD,
     "self.const = self.conv_bias * self.counted", "self.const = 0.0 * self.counted"),
    ("graph forward keeps its padded steps", FORWARD,
     "block.reshape(-1, rows)[length:] = 0.0", "block.reshape(-1, rows)[length:] *= 1.0"),
    ("_add_graph passes the padded steps' gradient", BACKWARD,
     "grad_phase.reshape(n * w, -1)[length:] = 0.0",
     "grad_phase.reshape(n * w, -1)[length:] *= 1.0"),
    ("output sums scaled by 0.999", BACKWARD,
     "sums.outputs += grad_out.sum(axis=2)", "sums.outputs += 0.999 * grad_out.sum(axis=2)"),
    ("series gaps not zeroed", FORWARD, "terms[phase, term] = 0.0", "terms[phase, term] *= 1.0"),
    ("series runs merged across terms", FORWARD,
     "runs[-1][0] == source and runs[-1][3] == term", "runs[-1][0] == source"),
    ("series edge weights' sign flipped", FORWARD,
     "self.coefs[phase, :, term] = -weight", "self.coefs[phase, :, term] = weight"),
    ("series tail without conv_bias", FORWARD,
     "start, count, windows), setup.conv_bias,", "start, count, windows), 0.0,"),
    ("evaluate blocks overlap by a channel", LOOP,
     "min(first + group, channels)", "min(first + group + 1, channels)"),
    ("choose_path without the w-divides-L test", FORWARD,
     "if (config.plan.n * w == length\n            and", "if (True\n            and"),
    ("series_channels without the two-window rule", FORWARD,
     "rows % channels == 0 and rows >= 2 * channels", "rows % channels == 0"),
    ("grad_check differencing at 1e-5", BACKWARD,
     "(loss_at(flat, idx, original + 1.0)\n"
     "                            - loss_at(flat, idx, original - 1.0)) / 2.0",
     "(loss_at(flat, idx, original + 1e-5)\n"
     "                            - loss_at(flat, idx, original - 1e-5)) / 2e-5"),
    ("gradcheck draws its biases at 0", BACKWARD,
     "arr[...] = 0.1 * rng.normal(size=arr.shape)", "arr[...] = 0.0 * rng.normal(size=arr.shape)"),
    ("VG's target view one step late", FORWARD,
     "as_strided(targets, (m - 1, span, channels)",
     "as_strided(targets[1:], (m - 1, span, channels)"),
    ("every VG row cut at the last row's span", FORWARD,
     "span, last = windows + w - 1,", "span, last = windows + config.horizon - 1 - (m - 1) * w,"),
    ("train stops one stale epoch late", LOOP,
     "if stale_epochs >= train_config.patience:", "if stale_epochs > train_config.patience:"),
    ("batch size steps down at 99 channels", LOOP,
     "if channels < 100:", "if channels < 99:"),
    ("forward quadratic in b_inter", FORWARD,
     "params.w_inter.sum(axis=1)) + params.b_inter",
     "params.w_inter.sum(axis=1)) + params.b_inter * (1 + params.b_inter)"),
    ("batch's target rows scrambled", WINDOWS,
     "return x.T, y.T", "return x.T, y.reshape(-1, horizon)"),
    ("rows check comparing only the targets' width", FORWARD,
     "if targets.shape != (x2d.shape[0], config.horizon):",
     "if targets.shape[1:] != (config.horizon,):"),
    ("batch accepting float indices", WINDOWS,
     "idx.size and not np.issubdtype(idx.dtype, np.integer)", "idx.size and False"),
    ("WindowSet keeping an integer base", WINDOWS,
     "np.ascontiguousarray(self.base, dtype=np.float64)", "np.ascontiguousarray(self.base)"),
    ("val's start one row late", SPLIT,
     '"val", start=b1 - lookback)', '"val", start=b1 - lookback + 1)'),
    ("standardize multiplying by 1 / std", SPLIT, "values /= std", "values *= 1.0 / std"),
    ("standardize accepting a segment past the series' end", SPLIT,
     "if seg.start < 0 or seg.start + seg.rows > series.length:", "if seg.start < 0:"),
    ("content_hash of the base's first row", WINDOWS,
     'np.ascontiguousarray(self.base, dtype="<f8")', 'np.ascontiguousarray(self.base[:1], dtype="<f8")'),
    ("save_csv accepting mismatched timestamps", SERIES,
     "if len(series.timestamps) != rows:", "if False:"),
    ("save_csv accepting mismatched channel names", SERIES,
     "if len(series.channel_names) != columns:", "if False:"),
]


def _tier1_fails(root: Path, mutant=None) -> bool:
    """Whether tier-1 fails on a copy of ``root``'s tree with ``mutant`` applied."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in TREE:
            if (root / part).is_dir():
                shutil.copytree(root / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(root / part, copy / part)
        if mutant is not None:
            _, file, old, new = mutant
            (copy / file).write_text((copy / file).read_text().replace(old, new))
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
        done = subprocess.run([sys.executable, *PYTEST], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode != 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that each old text occurs exactly once")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    missing = [name for name, file, old, _ in MUTANTS
               if not (root / file).is_file() or (root / file).read_text().count(old) != 1]
    if args.check:
        for name in missing:
            print(f"old text of {name!r} does not occur exactly once")
        print(f"{len(MUTANTS) - len(missing)} of {len(MUTANTS)} mutants apply")
        return 1 if missing else 0
    if _tier1_fails(root):
        print("error: tier-1 fails on the unmutated tree", file=sys.stderr)
        return 1
    survived = 0
    for mutant in MUTANTS:
        if mutant[0] in missing:
            result = "n/a"
        elif _tier1_fails(root, mutant):
            result = "killed"
        else:
            result, survived = "survived", survived + 1
        print(f"{result:8}  {mutant[0]}", flush=True)
    applied = len(MUTANTS) - len(missing)
    print(f"{applied - survived} of {applied} applicable mutants killed, {len(missing)} n/a")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
