"""Forward computation: trend decoupling, the two branches, merge, upsample.

The public single-series operations are thin wrappers over a batched
engine that evaluates whole (batch, lookback) blocks with numpy matmuls.
``forward_batch_with_trace`` additionally records the intermediate
activations the reverse pass needs.
"""

from dataclasses import dataclass

import numpy as np

from ..numerics import (
    conv1d_same_batch,
    idft_matrix,
    rfft_batch,
)
from .config import Mode, ModelConfig, ShapePlan, check_spectral_bounds, plan_shapes
from .params import MixLinearParams


@dataclass
class ForwardTrace:
    """Intermediate activations cached for the reverse pass.

    P is the number of rows the branches ran on: the phase rows
    themselves, or the n+1 ``affine_basis(n)`` rows when a run has more
    phase rows than that or takes the window map.
    """

    x_norm: np.ndarray                 # (B, L) mean-centered windows
    branch_rows: np.ndarray            # (P, n) `rows`, or affine_basis(n)
    rows: np.ndarray | None = None     # (B*w, n) phase rows; None on the window map
    gain: np.ndarray | None = None     # (n, m) phase map when P = n+1 < B*w, else None
    interleave: np.ndarray | None = None    # (L, H) phase map re-interleaved, window map only
    rows_padded: np.ndarray | None = None   # (P, n_hat) branch input (mix modes)
    seg_inter_in: np.ndarray | None = None  # (P, seg_out, seg_in)
    spec_lpf: np.ndarray | None = None      # (P, cutoff) complex
    latent: np.ndarray | None = None        # (P, latent) complex


def _trend_rows(x2d: np.ndarray, params: MixLinearParams, config: ModelConfig,
                plan: ShapePlan):
    """Mean-center, aggregate, downsample into the (B, w, n) phase rows."""
    batch, length = x2d.shape
    w = config.period
    mean = x2d.mean(axis=1)
    x_norm = x2d - mean[:, None]
    aggregated = conv1d_same_batch(x_norm, params.conv_kernel, float(params.conv_bias)) + x_norm

    # De-interleave into w phase subsequences of length n; positions past
    # the lookback (when n*w > L) stay zero.
    padded_len = plan.n * w
    flat = np.zeros((batch, padded_len))
    flat[:, :length] = aggregated
    rows = np.ascontiguousarray(flat.reshape(batch, plan.n, w).transpose(0, 2, 1))
    return rows, mean, x_norm


def _time_branch_core(rows_padded: np.ndarray, params: MixLinearParams,
                      plan: ShapePlan, trace: ForwardTrace | None):
    """(P, n_hat) -> (P, m) through the two segment maps."""
    count = rows_padded.shape[0]
    segments = rows_padded.reshape(count, plan.seg_in, plan.seg_in)
    intra = segments @ params.w_intra.T + params.b_intra       # (P, seg_in, seg_out)
    inter_in = np.ascontiguousarray(intra.swapaxes(-1, -2))    # (P, seg_out, seg_in)
    if trace is not None:
        trace.seg_inter_in = inter_in
    inter = inter_in @ params.w_inter.T + params.b_inter       # (P, seg_out, seg_out)
    return inter.reshape(count, plan.m_hat)[:, :plan.m]


def _freq_branch_core(rows_padded: np.ndarray, params: MixLinearParams,
                      plan: ShapePlan, config: ModelConfig,
                      trace: ForwardTrace | None):
    """(P, n_hat) -> (P, m) through the latent spectral pipeline."""
    spectrum = rfft_batch(rows_padded)                   # (P, bins_in)
    spec_lpf = spectrum[:, :config.lpf_cutoff]
    latent = spec_lpf @ params.w_enc.T                   # (P, latent)
    recon = latent @ params.w_dec.T                      # (P, bins_out)
    if trace is not None:
        trace.spec_lpf = spec_lpf
        trace.latent = latent
    full = (recon @ idft_matrix(plan.m_hat).T).real      # (P, m_hat)
    return full[:, :plan.m]


def _branches(rows: np.ndarray, params: MixLinearParams, config: ModelConfig,
              plan: ShapePlan, trace: ForwardTrace | None) -> np.ndarray:
    """(P, n) phase rows -> (P, m) through the mode's branches."""
    if config.mode is Mode.SPARSE_BASELINE:
        return rows @ params.w_point.T
    rows_padded = np.zeros((rows.shape[0], plan.n_hat))
    rows_padded[:, :plan.n] = rows
    if trace is not None:
        trace.rows_padded = rows_padded
    out = np.zeros((rows.shape[0], plan.m))
    if config.has_time_branch:
        out += _time_branch_core(rows_padded, params, plan, trace)
    if config.has_freq_branch:
        out += _freq_branch_core(rows_padded, params, plan, config, trace)
    return out


def forward_batch(x2d: np.ndarray, params: MixLinearParams, config: ModelConfig,
                  plan: ShapePlan | None = None) -> np.ndarray:
    """Predict (B, horizon) from (B, lookback); no trace."""
    pred, _ = _forward_impl(x2d, params, config, plan, want_trace=False)
    return pred


def forward_batch_with_trace(x2d: np.ndarray, params: MixLinearParams,
                             config: ModelConfig,
                             plan: ShapePlan | None = None):
    return _forward_impl(x2d, params, config, plan, want_trace=True)


def _forward_impl(x2d, params, config, plan, want_trace):
    x2d = np.asarray(x2d, dtype=np.float64)
    if x2d.ndim != 2 or x2d.shape[1] != config.lookback:
        raise ValueError(
            f"expected input of shape (batch, {config.lookback}), got {x2d.shape}"
        )
    if plan is None:
        plan = plan_shapes(config)
    check_spectral_bounds(config, plan)
    if x2d.shape[0] > config.lookback + 1:
        return _window_map_forward(x2d, params, config, plan, want_trace)

    batch = x2d.shape[0]
    w = config.period
    rows, mean, x_norm = _trend_rows(x2d, params, config, plan)
    rows = rows.reshape(batch * w, plan.n)

    # The branches are affine in each phase row, g(r) = r @ gain + offset.
    # Past n+1 rows, run them on the n+1 basis rows only and apply the map.
    mapped = rows.shape[0] > plan.n + 1
    branch_rows = affine_basis(plan.n) if mapped else rows
    trace = ForwardTrace(x_norm, branch_rows, rows) if want_trace else None
    out_rows = _branches(branch_rows, params, config, plan, trace)
    if mapped:
        gain, offset = affine_map(out_rows)
        out_rows = rows @ gain + offset
        if trace is not None:
            trace.gain = gain

    out_rows = out_rows.reshape(batch, w, plan.m) + mean[:, None, None]
    # Re-interleave: sequence[j*w + i] = row_i[j], then keep the horizon.
    sequence = out_rows.transpose(0, 2, 1).reshape(batch, plan.m * w)
    return sequence[:, :config.horizon], trace


def _window_map_forward(x2d, params, config, plan, want_trace):
    """Predict more than L+1 windows through f(x) = (x - mean)A + mean + c."""
    basis = affine_basis(plan.n)
    trace = None
    if want_trace:
        # centred rows keep the reverse pass free of the window level
        mean = x2d.mean(axis=1, keepdims=True)
        trace = ForwardTrace(x2d - mean, basis)
    gain, offset = affine_map(_branches(basis, params, config, plan, trace))
    window_gain, window_offset, interleave = window_map(
        gain, offset, params.conv_kernel, float(params.conv_bias), config)
    if trace is None:
        # fold the mean in: x(A + (1 - 1'A)/L) + c, one GEMM on the raw rows
        window_gain += (1.0 - window_gain.sum(axis=0)) / config.lookback
        return x2d @ window_gain + window_offset, None
    trace.interleave = interleave
    # add the offset before the mean: at the window level its rounding
    # would bias every row of a column the same way
    return trace.x_norm @ window_gain + window_offset + mean, trace


def window_map(gain, offset, kernel, conv_bias: float, config: ModelConfig):
    """(A, c, B) with f(x) = (x - mean)A + mean + c for every window x.

    B (L, H) re-interleaves the phase map r -> r @ gain + offset:
    B[j*w + p, q*w + p] = gain[j, q].  The conv in front makes A = (I + K)B,
    where conv1d_same_batch(rows, kernel) = rows @ K, and its bias and the
    phase offset give c = conv_bias * 1'B + offset[q] at every q*w + p.
    """
    length, horizon, w = config.lookback, config.horizon, config.period
    interleave = np.kron(gain, np.eye(w))[:length, :horizon]
    # (KB)' = B'K' is the conv with the reversed kernel; an even width gets
    # one zero tap so that its padding splits as K' needs
    reversed_kernel = np.append(kernel[::-1], np.zeros(1 - w % 2))
    window_gain = interleave + conv1d_same_batch(interleave.T, reversed_kernel, 0.0).T
    window_offset = conv_bias * interleave.sum(axis=0) + np.repeat(offset, w)[:horizon]
    return window_gain, window_offset, interleave


def affine_basis(length: int) -> np.ndarray:
    """The length+1 rows [I; 0] whose images fix an affine map f(x) = xM + c.

    The branches are affine in each phase row, so their images of
    ``affine_basis(n)`` give the phase map that ``window_map`` builds the
    whole forecaster's map from.
    """
    return np.eye(length + 1, length)


def affine_map(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(M, c) from the forecasts of the ``affine_basis`` rows.

    c = f(0) is the image of the zero row and M[i] = f(e_i) - c.
    """
    offset = images[-1]
    return images[:-1] - offset, offset


# ---------------------------------------------------------------------------
# public single-series operations


def decompose_trend(x, params: MixLinearParams, config: ModelConfig):
    """Split one lookback window into its (period, n) trend matrix.

    Returns (trend, window_mean): row i of the trend matrix is the
    aggregated, mean-centered subsequence at phase offset i.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != config.lookback:
        raise ValueError(f"expected length-{config.lookback} input, got shape {x.shape}")
    plan = plan_shapes(config)
    rows, mean, _ = _trend_rows(x[None, :], params, config, plan)
    return rows[0], float(mean[0])


def time_branch(trend_row, params: MixLinearParams, plan: ShapePlan) -> np.ndarray:
    """Map one length-n trend row to its length-m time-domain prediction."""
    row = np.asarray(trend_row, dtype=np.float64)
    if row.ndim != 1 or row.size != plan.n:
        raise ValueError(f"expected length-{plan.n} trend row, got shape {row.shape}")
    padded = np.zeros((1, plan.n_hat))
    padded[0, :plan.n] = row
    return _time_branch_core(padded, params, plan, None)[0]


def freq_branch(trend_row_padded, params: MixLinearParams, plan: ShapePlan,
                config: ModelConfig) -> np.ndarray:
    """Map one padded (length n_hat) trend row through the spectral pipeline."""
    row = np.asarray(trend_row_padded, dtype=np.float64)
    if row.ndim != 1 or row.size != plan.n_hat:
        raise ValueError(
            f"expected length-{plan.n_hat} padded trend row, got shape {row.shape}"
        )
    check_spectral_bounds(config, plan)
    return _freq_branch_core(row[None, :], params, plan, config, None)[0]


def forward(x, params: MixLinearParams, config: ModelConfig) -> np.ndarray:
    """Predict the next ``horizon`` values of one univariate window."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D window, got shape {x.shape}")
    return forward_batch(x[None, :], params, config)[0]


def forward_multichannel(table, params: MixLinearParams, config: ModelConfig) -> np.ndarray:
    """Channel-independent forecast: one shared parameter set per column.

    Input (lookback, C) -> output (horizon, C); columns never interact.
    """
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != config.lookback or table.shape[1] < 1:
        raise ValueError(
            f"expected shape ({config.lookback}, C>=1), got {table.shape}"
        )
    return forward_batch(table.T, params, config).T
