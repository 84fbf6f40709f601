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
    conv_transpose_kernel,
    idft_matrix,
    rfft_batch,
)
from .config import Mode, ModelConfig, ShapePlan, check_spectral_bounds, plan_shapes
from .params import MixLinearParams


@dataclass
class ForwardTrace:
    """Intermediate activations cached for the reverse pass.

    The graph path runs time-major: its arrays keep time (or the phase
    index j) on the first axis and the batch on the last, so the phase
    rows and the re-interleave are reshapes, not copies.  P is the number
    of rows the branches ran on: the phase rows themselves, or the n+1
    ``affine_basis(n)`` rows when a run has more phase rows than that or
    takes the window map.
    """

    x_norm: np.ndarray                 # (B, L) mean-centred windows; on the graph
                                       # path the .T view of a time-major array
    branch_rows: np.ndarray            # (P, n) `rows`, or affine_basis(n)
    rows: np.ndarray | None = None     # (w*B, n) phase rows, row p*B + b the phase-p
                                       # row of window b; the .T view of the
                                       # (n, w*B) time-major phase block.  None on
                                       # the window map
    gain: np.ndarray | None = None     # (n, m) phase map when P = n+1 < w*B, else None
    interleave: np.ndarray | None = None    # (L, H) phase map re-interleaved, window map only
    rows_padded: np.ndarray | None = None   # (P, n_hat) branch input (mix modes)
    seg_inter_in: np.ndarray | None = None  # (P, seg_out, seg_in)
    spec_lpf: np.ndarray | None = None      # (P, cutoff) complex
    latent: np.ndarray | None = None        # (P, latent) complex


def _phase_block(x2d: np.ndarray, params: MixLinearParams, config: ModelConfig,
                 plan: ShapePlan):
    """Mean-centre, aggregate and de-interleave (B, L) windows, time-major.

    Returns (phase, mean, centred): ``phase`` is the (n, w*B) block with
    phase[j, p*B + b] = aggregated[b, j*w + p], zero where j*w + p >= L,
    and ``centred`` the C-contiguous (L, B) mean-centred windows.
    """
    batch, length = x2d.shape
    mean = x2d.mean(axis=1)
    centred = np.subtract(x2d.T, mean, order="C")
    aggregated = np.zeros((plan.n * config.period, batch))
    conv = conv1d_same_batch(centred.T, params.conv_kernel, float(params.conv_bias))
    np.add(conv.T, centred, out=aggregated[:length])
    return aggregated.reshape(plan.n, config.period * batch), mean, centred


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
    if uses_window_map(x2d.shape[0], config):
        return _window_map_forward(x2d, params, config, plan, want_trace)

    batch = x2d.shape[0]
    w = config.period
    phase, mean, centred = _phase_block(x2d, params, config, plan)
    rows = phase.T

    # The branches are affine in each phase row, g(r) = r @ gain + offset.
    # Past n+1 rows, run them on the n+1 basis rows only and apply the map
    # to the whole phase block as one GEMM.
    mapped = rows.shape[0] > plan.n + 1
    branch_rows = affine_basis(plan.n) if mapped else rows
    trace = ForwardTrace(centred.T, branch_rows, rows) if want_trace else None
    images = _branches(branch_rows, params, config, plan, trace)
    if mapped:
        gain, offset = affine_map(images)
        out = gain.T @ phase
        out += offset[:, None]
        if trace is not None:
            trace.gain = gain
    else:
        out = images.T

    # Re-interleave: sequence[j*w + p] is out[j] of phase p, so the (m, w*B)
    # block read as (m*w, B) is the time-major forecast.
    sequence = out.reshape(plan.m * w, batch)[:config.horizon] + mean
    return sequence.T, trace


def uses_window_map(rows: int, config: ModelConfig) -> bool:
    """Whether a forward of ``rows`` flattened windows takes the window map.

    Past L+1 rows one GEMM with the (L, H) map is cheaper than running the
    rows through the graph.
    """
    return rows > config.lookback + 1


def _window_map_forward(x2d, params, config, plan, want_trace):
    """Predict more than L+1 windows through f(x) = (x - mean)A + mean + c."""
    if not want_trace:
        window_gain, window_offset = forecast_map(params, config, plan)
        pred = x2d @ window_gain
        pred += window_offset
        return pred, None
    basis = affine_basis(plan.n)
    # centred rows keep the reverse pass free of the window level
    mean = x2d.mean(axis=1, keepdims=True)
    trace = ForwardTrace(x2d - mean, basis)
    gain, offset = affine_map(_branches(basis, params, config, plan, trace))
    window_gain, window_offset, trace.interleave = window_map(
        gain, offset, params.conv_kernel, float(params.conv_bias), config)
    # add the offset before the mean: at the window level its rounding
    # would bias every row of a column the same way
    return trace.x_norm @ window_gain + window_offset + mean, trace


# (key, M, c) of the last forecast_map build
_forecast_memo = None


def forecast_map(params: MixLinearParams, config: ModelConfig, plan: ShapePlan):
    """(M, c) with f(x) = xM + c for every raw window x.

    M = A + 1(1 - 1'A)/L folds the window mean into ``window_map``'s A.
    Memoised with one entry, keyed on the config and the exact bytes of
    every parameter array, so scoring many blocks with one parameter set
    builds the map once, and an in-place edit of a parameter rebuilds it.
    The returned arrays are shared, so they are read-only.
    """
    global _forecast_memo
    key = (config, tuple((name, arr.tobytes()) for name, arr in params.named_arrays()))
    if _forecast_memo is None or _forecast_memo[0] != key:
        gain, offset = affine_map(
            _branches(affine_basis(plan.n), params, config, plan, None))
        window_gain, window_offset, _ = window_map(
            gain, offset, params.conv_kernel, float(params.conv_bias), config)
        window_gain += (1.0 - window_gain.sum(axis=0)) / config.lookback
        window_gain.flags.writeable = False
        window_offset.flags.writeable = False
        _forecast_memo = key, window_gain, window_offset
    return _forecast_memo[1:]


def window_map(gain, offset, kernel, conv_bias: float, config: ModelConfig):
    """(A, c, B) with f(x) = (x - mean)A + mean + c for every window x.

    B (L, H) re-interleaves the phase map r -> r @ gain + offset:
    B[j*w + p, q*w + p] = gain[j, q].  The conv in front makes A = (I + K)B,
    where conv1d_same_batch(rows, kernel) = rows @ K, and its bias and the
    phase offset give c = conv_bias * 1'B + offset[q] at every q*w + p.
    """
    length, horizon, w = config.lookback, config.horizon, config.period
    interleave = np.kron(gain, np.eye(w))[:length, :horizon]
    # (KB)' = B'K' is the conv with the transposed kernel
    window_gain = interleave + conv1d_same_batch(
        interleave.T, conv_transpose_kernel(kernel), 0.0).T
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
