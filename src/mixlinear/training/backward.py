"""Reverse-mode gradients through the fixed forecaster graph.

The graph is small and static, so the adjoints are written out by hand,
mirroring the forward pass stage by stage: linear maps transpose (complex
ones conjugate-transpose, with gradients taken with respect to the
independent real/imaginary components), index moves (pad, truncate,
reshape, interleave) route gradients by index, and the inverse-DFT
adjoint picks up the Hermitian pairing weights of its coefficient matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..model.config import Mode, ModelConfig
from ..model.forward import ForwardTrace, Path, forward_batch, forward_batch_with_trace
from ..model.params import MixLinearParams
from ..numerics import conv1d_same_batch, conv_blocks, conv_taps, dft_matrix, idft_matrix

GradientSet = dict[str, np.ndarray]


def _flatten_windows(batch: np.ndarray, length: int, what: str) -> np.ndarray:
    """(B, T) or (B, T, C) -> (B*C, T) univariate rows."""
    arr = np.asarray(batch, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3 or arr.shape[1] != length:
        raise ValueError(
            f"{what} must have shape (B, {length}) or (B, {length}, C), got {arr.shape}"
        )
    return arr.transpose(0, 2, 1).reshape(-1, length)


def backward(x_batch, y_batch, params: MixLinearParams,
             config: ModelConfig) -> tuple[float, GradientSet]:
    """Mean-squared-error loss of a window batch and its parameter gradients.

    Accepts (B, L[, C]) inputs and (B, H[, C]) targets; channels are
    flattened into the batch under the channel-independent strategy.
    Gradients are averaged over every predicted scalar, matching the
    returned loss = mean((forward(x) - y)^2).

    The reverse pass mirrors the path the trace records.  On
    ``Path.WINDOW_MAP`` the prediction is f(x) = (x - mean)A + mean + c,
    built in closed form from the conv and the phase map; its gradient
    flows back through that construction onto the n+1 phase basis rows the
    branches ran on.  The two graph paths ran time-major on the batch's own
    rows, and their gradient flows back the same way: the (H, B) prediction
    gradient read as the (m, w*B) phase block, on ``Path.PHASE_MAP`` the
    phase map's adjoint as one GEMM each for the gain's inputs and the
    basis images, and the conv's kernel gradient as block GEMMs.
    """
    x2d = _flatten_windows(x_batch, config.lookback, "inputs")
    y2d = _flatten_windows(y_batch, config.horizon, "targets")
    if x2d.shape[0] == 0:
        raise ValueError("empty batch")
    if x2d.shape[0] != y2d.shape[0]:
        raise ValueError(
            f"batch size mismatch: {x2d.shape[0]} inputs vs {y2d.shape[0]} targets"
        )
    pred, trace = forward_batch_with_trace(x2d, params, config)
    # subtract in pred's layout: on the graph path pred is the .T view of a
    # time-major (H, B) array, and diff.T is then time-major without a copy
    diff = (pred.T - y2d.T).T
    flat = diff.ravel(order="K")
    loss = float(flat @ flat) / flat.size
    diff *= 2.0 / flat.size
    grads = _backprop(diff, trace, params, config)
    return loss, grads


def _affine_map_adjoint(grad_gain: np.ndarray, grad_offset: np.ndarray) -> np.ndarray:
    """Gradient on the n+1 basis images from the gradient on ``phase_map``'s (gain, offset)."""
    return np.vstack([grad_gain, grad_offset - grad_gain.sum(axis=0)])


def _conv_kernel_grad(inputs: np.ndarray, grad_out: np.ndarray, width: int) -> np.ndarray:
    """Kernel gradient of conv1d_same_batch(inputs, kernel) given grad_out on its output.

    Both (B, L) arrays are cut into the conv's time-major blocks x[j] and
    g[j].  Block d of the Toeplitz form gets sum_j g[j] x[j+d]', three
    batched GEMMs, and each kernel tap sums its entries along the
    diagonals that ``conv_taps`` assigns it.
    """
    x = conv_blocks(inputs, width)
    g = conv_blocks(grad_out, width)
    block_grads = np.stack([
        (g[1:] @ x[:-1].swapaxes(1, 2)).sum(axis=0),
        (g @ x.swapaxes(1, 2)).sum(axis=0),
        (g[:-1] @ x[1:].swapaxes(1, 2)).sum(axis=0),
    ])
    return np.bincount(conv_taps(width).ravel(), weights=block_grads.ravel(),
                       minlength=width + 1)[:width]


def _backprop(grad_pred, trace: ForwardTrace, params, config) -> GradientSet:
    if trace.path is Path.WINDOW_MAP:
        # pred = x_norm A + c + mean, with (A, c) from window_map
        grads = {}
        grads["conv_kernel"], grads["conv_bias"], grad_gain, grad_offset = _window_map_adjoint(
            trace.x_norm.T @ grad_pred, grad_pred.sum(axis=0), trace.interleave,
            params.conv_kernel, float(params.conv_bias), config)
        grad_images = _affine_map_adjoint(grad_gain, grad_offset)
        _branch_grads(grad_images, trace, params, config, grads)
    else:
        grads = _graph_grads(grad_pred, trace, params, config)
    # keep checkpoint/declaration order
    return {name: grads[name] for name, _ in params.named_arrays()}


def _graph_grads(grad_pred, trace: ForwardTrace, params, config) -> GradientSet:
    batch = grad_pred.shape[0]
    w = config.period
    plan = config.plan

    # undo horizon truncation; the time-major (m*w, B) gradient read as
    # (m, w*B) undoes the re-interleave
    grad_seq = grad_pred.T
    if plan.m * w > config.horizon:
        grad_seq = np.vstack([grad_seq, np.zeros((plan.m * w - config.horizon, batch))])
    grad_out = grad_seq.reshape(plan.m, w * batch)

    grads: GradientSet = {}
    if trace.path is Path.PHASE_MAP:
        # the branches ran on the n+1 basis rows; the phase block saw only
        # gain' @ phase + offset
        grad_images = _affine_map_adjoint(trace.rows.T @ grad_out.T, grad_out.T.sum(axis=0))
        _branch_grads(grad_images, trace, params, config, grads)
        grad_phase = trace.gain @ grad_out
    else:
        grad_rows = _branch_grads(grad_out.T, trace, params, config, grads)
        grad_phase = grad_rows.T

    # undo the de-interleave, drop the zero-filled tail
    grad_agg = grad_phase.reshape(plan.n * w, batch)[:config.lookback]

    # aggregated = conv(x_norm) + x_norm; only the conv path carries params
    grads["conv_kernel"] = _conv_kernel_grad(trace.x_norm, grad_agg.T, w)
    grads["conv_bias"] = np.asarray(grad_agg.sum())
    return grads


def _window_map_adjoint(grad_gain, grad_offset, interleave, kernel, conv_bias: float,
                        config):
    """Adjoint of ``window_map``: gradients on (A, c) -> on (kernel, conv_bias, gain, offset).

    A = (I + K)B and c = conv_bias * 1'B + offset interleaved, where B
    re-interleaves the phase gain and rows @ K is the conv by ``kernel``.
    """
    w = config.period
    plan = config.plan
    # the conv's inputs in A = B + KB are B's columns, its outputs A's
    kernel_grad = _conv_kernel_grad(grad_gain.T, interleave.T, w)
    bias_grad = np.asarray(interleave.sum(axis=0) @ grad_offset)
    # G_B = (I + K)'G_A + conv_bias 1 g_c', and G_A'K is the conv of G_A's columns
    grad_interleave = (grad_gain + conv1d_same_batch(grad_gain.T, kernel, 0.0).T
                       + conv_bias * grad_offset)
    # gather gain[j, q] from its w copies B[j*w + p, q*w + p], offset[q] from c
    padded = np.zeros((plan.n * w, plan.m * w))
    padded[:config.lookback, :config.horizon] = grad_interleave
    grad_phase_gain = np.einsum("jpqp->jq", padded.reshape(plan.n, w, plan.m, w))
    padded_offset = np.zeros(plan.m * w)
    padded_offset[:config.horizon] = grad_offset
    grad_phase_offset = padded_offset.reshape(plan.m, w).sum(axis=1)
    return kernel_grad, bias_grad, grad_phase_gain, grad_phase_offset


def _branch_grads(grad_out, trace, params, config, grads):
    """Adjoint of ``_branches``: (P, m) -> (P, n); parameter grads into ``grads``."""
    if config.mode is Mode.SPARSE_BASELINE:
        grads["w_point"] = grad_out.T @ trace.branch_rows
        return grad_out @ params.w_point
    plan = config.plan
    grad_padded = np.zeros((grad_out.shape[0], plan.n_hat))
    if config.has_time_branch:
        grad_padded += _time_branch_grads(grad_out, trace, params, plan, grads)
    if config.has_freq_branch:
        grad_padded += _freq_branch_grads(grad_out, trace, params, config, grads)
    return grad_padded[:, :plan.n]


def _time_branch_grads(grad_out, trace, params, plan, grads):
    count = grad_out.shape[0]
    grad_tp_flat = np.zeros((count, plan.m_hat))
    grad_tp_flat[:, :plan.m] = grad_out
    grad_tp = grad_tp_flat.reshape(count, plan.seg_out, plan.seg_out)

    inter_in = trace.seg_inter_in
    grads["w_inter"] = np.einsum("bpq,bpr->qr", grad_tp, inter_in)
    grads["b_inter"] = grad_tp.sum(axis=(0, 1))
    grad_inter_in = grad_tp @ params.w_inter                 # (P, seg_out, seg_in)

    grad_intra = grad_inter_in.swapaxes(-1, -2)              # (P, seg_in, seg_out)
    segments = trace.rows_padded.reshape(count, plan.seg_in, plan.seg_in)
    grads["w_intra"] = np.einsum("bpq,bpr->qr", grad_intra, segments)
    grads["b_intra"] = grad_intra.sum(axis=(0, 1))
    grad_segments = grad_intra @ params.w_intra              # (P, seg_in, seg_in)
    return grad_segments.reshape(count, plan.n_hat)


def _freq_branch_grads(grad_out, trace, params, config, grads):
    count = grad_out.shape[0]
    plan = config.plan
    grad_full = np.zeros((count, plan.m_hat))
    grad_full[:, :plan.m] = grad_out

    # adjoint of x = real(recon @ G^T) is grad @ conj(G): paired bins get
    # the doubled weight G carries, DC/Nyquist do not
    grad_recon = grad_full @ idft_matrix(plan.m_hat).conj()  # (P, bins_out)

    grad_dec = grad_recon.T @ trace.latent.conj()
    grads["w_dec_re"] = grad_dec.real
    grads["w_dec_im"] = grad_dec.imag
    grad_latent = grad_recon @ params.w_dec.conj()           # (P, latent)

    grad_enc = grad_latent.T @ trace.spec_lpf.conj()
    grads["w_enc_re"] = grad_enc.real
    grads["w_enc_im"] = grad_enc.imag
    grad_lpf = grad_latent @ params.w_enc.conj()             # (P, cutoff)

    grad_spectrum = np.zeros((count, plan.bins_in), dtype=np.complex128)
    grad_spectrum[:, :config.lpf_cutoff] = grad_lpf
    return (grad_spectrum @ dft_matrix(plan.n_hat).conj()).real


# ---------------------------------------------------------------------------
# finite-difference oracle


@dataclass
class GradCheckResult:
    """Worst-case disagreement between analytic and numeric gradients."""

    max_rel_error: float
    worst_param: str


def random_small_config(rng: np.random.Generator) -> ModelConfig:
    """A valid config of any mode with lookback and horizon at most 16.

    Small enough for :func:`grad_check` to difference every parameter.
    """
    lookback = int(rng.integers(2, 17))
    horizon = int(rng.integers(1, 17))
    period = int(rng.integers(1, lookback + 1))
    mode = list(Mode)[int(rng.integers(0, len(Mode)))]
    probe = ModelConfig(lookback, horizon, period, lpf_cutoff=1, latent_width=1, mode=mode)
    cutoff = int(rng.integers(1, probe.plan.bins_in + 1))
    # latent may exceed the cutoff (the spectral encoder is allowed to expand)
    latent = int(rng.integers(1, cutoff + 2))
    return ModelConfig(lookback, horizon, period, lpf_cutoff=cutoff,
                       latent_width=latent, mode=mode)


def grad_check(params: MixLinearParams, x_batch, y_batch, config: ModelConfig,
               step: float = 1e-5) -> GradCheckResult:
    """Compare every analytic gradient entry against central differences.

    Relative discrepancy uses max(|analytic|, |numeric|, 1e-8) as the
    denominator; a non-finite discrepancy counts as infinite, so it fails
    any gate.
    """
    if not 0 < step < math.inf:
        raise ConfigError(f"step must be finite and positive, got {step}")
    x2d = _flatten_windows(x_batch, config.lookback, "inputs")
    y2d = _flatten_windows(y_batch, config.horizon, "targets")

    def loss_now() -> float:
        pred = forward_batch(x2d, params, config)
        d = pred - y2d
        return float(np.mean(d * d))

    _, grads = backward(x_batch, y_batch, params, config)

    worst = 0.0
    worst_param = ""
    for name, arr in params.named_arrays():
        analytic = np.asarray(grads[name]).reshape(-1)
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]
            flat[idx] = original + step
            plus = loss_now()
            flat[idx] = original - step
            minus = loss_now()
            flat[idx] = original
            numeric = (plus - minus) / (2.0 * step)
            a = float(analytic[idx])
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if not math.isfinite(rel):
                rel = math.inf
            if rel > worst:
                worst = rel
                worst_param = name
    return GradCheckResult(worst, worst_param)
