"""Reverse-mode gradients through the fixed forecaster graph.

The graph is small and static, so the adjoints are written out by hand,
mirroring the forward pass stage by stage: linear maps transpose (complex
ones conjugate-transpose, with gradients taken with respect to the
independent real/imaginary components), index moves (pad, truncate,
reshape, interleave) route gradients by index, and the inverse-DFT
adjoint picks up the Hermitian pairing weights of its coefficient matrix.
The branches reach the graph only through the phase map (W, b) that
``phase_map`` writes from their weights, so their gradients are the
adjoint of that closed form, taken once per step.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..data.windows import WindowSet, _check_indices, window_runs
from ..errors import ConfigError
from ..model.config import Mode, ModelConfig
from ..model.forward import (Path, StepSetup, _check_rows, basis_spectra, forward_batch,
                             forward_batch_with_trace)
from ..model.params import MixLinearParams, init_params
from ..numerics import band_pairs, band_taps, idft_matrix

GradientSet = dict[str, np.ndarray]

# floats one block of a training step gathers; see _train_blocks
TRAIN_BLOCK_FLOATS = 1 << 16


def _check_windows(windows: WindowSet, config: ModelConfig) -> None:
    """Raise ``ConfigError`` unless ``windows`` cut the config's (lookback, horizon)."""
    have, want = (windows.lookback, windows.horizon), (config.lookback, config.horizon)
    if have != want:
        raise ConfigError(f"windows of (lookback, horizon) {have} do not match the "
                          f"config's {want}")


def backward(x_batch, y_batch, params: MixLinearParams,
             config: ModelConfig) -> tuple[float, GradientSet]:
    """Mean-squared-error loss of a window batch and its parameter gradients.

    Takes the step either as a ``WindowSet`` of the config's (L, H) and the
    indices of its windows, a 1-D integer array, as ``train`` does, or as
    (B, L) input rows and (B, H) target rows, such as ``WindowSet.batch``
    gives: under the channel-independent strategy each channel of each
    window is one row, and targets are required.  Gradients are averaged
    over every predicted scalar, matching the returned
    loss = mean((forward(x) - y)^2).

    The step streams its windows: ``_train_blocks`` cuts them into runs of
    whole windows, and each block is run forward
    (``forward_batch_with_trace``) and back before the next.  What the
    blocks share is set up once per step: one ``StepSetup`` holds the
    constants and a workspace sized for the largest block, and one
    ``_StepSums`` the gradient sums.  A ``WindowSet`` block is gathered
    (``WindowSet.batch``) straight into the workspace's conv buffer and
    target block, where the forward centres it in place; a block of rows is
    centred into the buffer from the rows.  Every block applies the one
    phase map on the path ``choose_path`` names:
    ``phase_map`` writes it from the weights once per step, and
    ``_phase_map_grads`` takes its gradient back to them once at the end.
    The squared errors are summed block by block, in a fixed order and by
    ``einsum``, whose result does not depend on the BLAS thread count.

    Each block's reverse pass (``_add_block``) mirrors the step's forward
    and reads what it left in the step's workspace; it adds raw sums only,
    and ``_step_grads`` finishes them once per step.  Both map paths run
    time-major on the block's rows.  The (H, B) prediction gradient read
    as the (m, w, B) outputs' G undoes the re-interleave; its row sums
    give the gradients of the constant C both paths add.  On
    ``Path.GAIN_FIRST`` the block runs the forward's GEMMs transposed: it
    adds sum_q G_q U_q', the band's gradient, and G_U Z', the stacked
    map's.  On ``Path.PHASE_MAP`` it flows back through the phase map, one
    GEMM each for the map's gradient and the phase block's, onto the phase
    block, the band conv's output, and adds the band's gradient
    sum_j G_j pairs_j' over the buffer's block pairs.  The kernel's
    gradient is the band's summed along its diagonals.
    """
    if isinstance(x_batch, WindowSet):
        _check_windows(x_batch, config)
        windows, idx = x_batch, _check_indices(y_batch, x_batch.count)
        count, channels = idx.size, windows.channels
    else:
        x2d, y2d = _check_rows(x_batch, config, np.asarray(y_batch, dtype=np.float64))
        count, channels = x2d.shape[0], 1
    if count == 0:
        raise ValueError("empty batch")

    blocks = _train_blocks(count, channels, config)
    most = max(hi - lo for lo, hi in blocks) * channels
    step = StepSetup(params, config, most)
    sums = _StepSums(step, config)
    if isinstance(x_batch, WindowSet):
        targets = np.empty(config.horizon * most)

        def gather(lo, hi):
            rows = (hi - lo) * channels
            return windows.batch(idx[lo:hi], out=(
                step.inputs(rows), targets[:config.horizon * rows].reshape(-1, rows)))
    else:
        def gather(lo, hi):
            return x2d[lo:hi], y2d[lo:hi]

    values = count * channels * config.horizon
    sq_sum = 0.0
    for lo, hi in blocks:
        x_rows, y_rows = gather(lo, hi)
        pred = forward_batch_with_trace(x_rows, config, step)
        # the residual, in pred's buffer: pred is the .T view of a time-major
        # (H, B) array, so diff.T is time-major without a copy
        diff = np.subtract(pred, y_rows, out=pred)
        flat = diff.ravel(order="K")
        sq_sum += float(np.einsum("i,i->", flat, flat))
        diff *= 2.0 / values
        _add_block(diff, step, sums, config)
    grads, grad_gain, grad_offset = _step_grads(sums, step, config)
    _phase_map_grads(grad_gain, grad_offset, params, config, grads)
    # keep checkpoint/declaration order
    return sq_sum / values, {name: grads[name] for name, _ in params.named_arrays()}


def _train_blocks(count: int, channels: int, config: ModelConfig) -> list[tuple[int, int]]:
    """The [lo, hi) runs of a step's ``count`` windows that ``backward`` streams.

    As few near-equal runs of whole windows as gather at most
    ``TRAIN_BLOCK_FLOATS`` floats, (L+H)*C per window, but at least one
    window; every block applies the step's phase map whatever its rows.  2^16
    floats (512 KB) is 11 windows at L=720, H=96 and 7 channels, and 45 at
    H=720 and 1 channel.  There a 256-window step peaks at 1.8 and 2.3 MB
    (tracemalloc), against 26.6 and 9.2 MB as one block.  Over benchmark
    passes (1 thread, 2-vCPU Xeon) 2^15 ran the 7-channel epoch about 1.4x
    slower, and 2^17 and 2^18 made glibc trim and refault the heap every
    block: 49k minor faults per pass at 1 channel and 2^17, 85k at 7
    channels and 2^18, and slower epochs, where 2^16 took none after the
    first pass.
    """
    most = max(1, TRAIN_BLOCK_FLOATS // ((config.lookback + config.horizon) * channels))
    return window_runs(count, most, 1)


class _StepSums:
    """The raw gradient sums every block of one step adds to; ``_step_grads`` finishes them.

    With G a block's (m, w, B) gradient on its phase outputs:

    - ``band``: the gradient on kappa's (w, 2w) band, sum_j G_j pairs_j';
    - ``map``: gain-first's (2m, n+1) gradient G_U Z' on the stacked map,
      or the graph's (n, m) gradient on W, phase block times G';
    - ``outputs``: the (m, w) sums of G over the rows.
    """

    def __init__(self, step: StepSetup, config: ModelConfig):
        plan, w = config.plan, config.period
        n, m = plan.n, plan.m
        self.band = np.zeros((w, 2 * w))
        self.map = np.zeros((2 * m, n + 1) if step.path is Path.GAIN_FIRST else (n, m))
        self.outputs = np.zeros((m, w))


def _band_grad(grad: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Gradient on the band T of out[j] = T @ pairs[j], given grad[j] on out[j].

    ``grad`` is (K, w, R) and ``pairs`` (K, 2w, R); T gets sum_j grad[j]
    pairs[j]', one batched GEMM summed over j.
    """
    return np.matmul(grad, pairs.swapaxes(1, 2)).sum(axis=0)


def _band_kernel_grad(band: np.ndarray) -> np.ndarray:
    """Kernel gradient from the gradient on its (w, 2w) band T[p, c] = kernel[c - p].

    Each kernel tap sums the entries of T that ``band_taps`` assigns it,
    along T's diagonals.
    """
    width = band.shape[0]
    return np.bincount(band_taps(width).ravel(), weights=band.ravel(),
                       minlength=width + 1)[:width]


def _add_block(grad_pred, step: StepSetup, sums: _StepSums, config):
    """Add one block's raw gradient sums to the step's ``sums``, on ``step.path``.

    ``grad_pred`` is the (B, H) gradient on the prediction of the block's
    forward through ``step``, whose workspace still holds what it left.
    Read as the (m, w, B) output gradient G, its row sums are the constant
    C's; the path's adjoint takes G back through its linear part.
    """
    grad_out = _reinterleave_adjoint(grad_pred, config).reshape(
        config.plan.m, config.period, grad_pred.shape[0])
    sums.outputs += grad_out.sum(axis=2)
    if step.path is Path.GAIN_FIRST:
        _add_gain_first(grad_out, step, sums, config)
    else:
        _add_graph(grad_out, step, sums, config)


def _reinterleave_adjoint(grad_pred: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Adjoint of ``_reinterleave``: (B, H) prediction gradient -> (m*w, B) time-major.

    The m*w - H steps past the horizon get zero gradient; when there are
    none this is ``grad_pred.T`` itself, with no copy.
    """
    grad_seq = grad_pred.T
    extra = config.plan.m * config.period - config.horizon
    if extra:
        grad_seq = np.vstack([grad_seq, np.zeros((extra, grad_seq.shape[1]))])
    return grad_seq


def _add_graph(grad_out, step: StepSetup, sums: _StepSums, config):
    """``_add_block``'s linear part on ``Path.PHASE_MAP``, given the (m, w, B) G."""
    batch = grad_out.shape[2]
    length, w, n, m = config.lookback, config.period, config.plan.n, config.plan.m
    grad_out = grad_out.reshape(m, -1)
    # the (n, w*B) phase block saw only gain' @ phase; once read, its
    # workspace takes its gradient
    phase = step.block(batch).reshape(n, -1)
    sums.map += phase @ grad_out.T
    grad_phase = np.matmul(step.gain, grad_out, out=phase)

    # the phase block is the band conv of the buffer, with the n*w - L
    # padded steps zeroed, so those steps pass no gradient back
    grad_phase.reshape(n * w, -1)[length:] = 0.0
    sums.band += _band_grad(grad_phase.reshape(n, w, -1), band_pairs(step.buffer(batch), w))


def _add_gain_first(grad_out, step: StepSetup, sums: _StepSums, config):
    """``_add_block``'s linear part on ``Path.GAIN_FIRST``: the adjoint of ``_gain_first``.

    With G the (m, w, B) gradient on the outputs, the band T gets
    sum_q G_q U_q', U gets G_U = T'G, and the stacked phase map
    [W 0; 0 W]' gets G_U Z'.
    """
    batch = grad_out.shape[2]
    w, n, m = config.period, config.plan.n, config.plan.m
    sums.band += _band_grad(grad_out, step.block(batch).reshape(m, 2 * w, batch))
    grad_images = step.band.T @ grad_out                                # (m, 2w, B)
    sums.map += grad_images.reshape(2 * m, w * batch) @ step.buffer(batch).reshape(n + 1, -1).T


def _step_grads(sums: _StepSums, step: StepSetup, config: ModelConfig):
    """Finish a step's ``sums``: the conv's gradients, and the gradients on the phase map (W, b).

    Returns (grads, grad_gain, grad_offset), with the kernel's and
    conv_bias's gradients in ``grads``.  W's gradient is its path's linear
    part's plus that of C = conv_bias counted + b: conv_bias times b's
    gradient, less the last block's padded phases.  The output sums give
    b's gradient, summed over the phases, and conv_bias's, weighted by
    ``counted``.
    """
    n, m = config.plan.n, config.plan.m
    grads = {"conv_kernel": _band_kernel_grad(sums.band)}
    grad_offset = sums.outputs.sum(axis=1)
    grads["conv_bias"] = np.asarray(np.sum(sums.outputs * step.counted))
    if step.path is Path.GAIN_FIRST:
        stacked = sums.map.reshape(m, 2, n + 1)
        grad_gain = (stacked[:, 0, :n] + stacked[:, 1, 1:]).T
    else:
        grad_gain = sums.map
    grad_gain += step.conv_bias * grad_offset
    grad_gain[-1] -= step.conv_bias * sums.outputs[:, step.padded].sum(axis=1)
    return grads, grad_gain, grad_offset


def _phase_map_grads(grad_gain, grad_offset, params, config, grads):
    """Adjoint of ``phase_map`` in the parameters: the gradients on (W, b) into ``grads``.

    W and b are affine in each weight on its own, so each weight's
    gradient contracts the gradient on (W, b), zero-padded to the (n_hat,
    m_hat) segment grid, with the weights its entries are multiplied by.
    """
    if config.mode is Mode.SPARSE_BASELINE:
        grads["w_point"] = grad_gain.T
        return
    plan = config.plan
    n, m = plan.n, plan.m
    if config.has_time_branch:
        # grid[a, j, q, s] on W[a*seg_in + j, q*seg_out + s]; bias[q, s] on b
        grid = np.zeros((plan.n_hat, plan.m_hat))
        grid[:n, :m] = grad_gain
        grid = grid.reshape(plan.seg_in, plan.seg_in, plan.seg_out, plan.seg_out)
        bias = np.zeros(plan.m_hat)
        bias[:m] = grad_offset
        bias = bias.reshape(plan.seg_out, plan.seg_out)
        grads["w_intra"] = np.einsum("ajqs,sa->qj", grid, params.w_inter)
        grads["w_inter"] = (np.einsum("ajqs,qj->sa", grid, params.w_intra)
                            + (params.b_intra @ bias)[:, None])
        grads["b_intra"] = bias @ params.w_inter.sum(axis=1)
        grads["b_inter"] = bias.sum(axis=0)
    if config.has_freq_branch:
        grad_full = np.zeros((n, plan.m_hat))
        grad_full[:, :m] = grad_gain
        # adjoint of x = real(recon @ G^T) is grad @ conj(G): paired bins get
        # the doubled weight G carries, DC/Nyquist do not
        grad_recon = grad_full @ idft_matrix(plan.m_hat).conj()     # (n, bins_out)
        spectra = basis_spectra(config)
        grad_dec = grad_recon.T @ (spectra @ params.w_enc.T).conj()
        grads["w_dec_re"] = grad_dec.real
        grads["w_dec_im"] = grad_dec.imag
        grad_enc = (grad_recon @ params.w_dec.conj()).T @ spectra.conj()
        grads["w_enc_re"] = grad_enc.real
        grads["w_enc_im"] = grad_enc.imag


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


def draw_biases(params: MixLinearParams, rng: np.random.Generator) -> MixLinearParams:
    """``params`` with conv_bias and every b_* drawn at standard deviation 0.1.

    ``init_params`` zeroes the biases, and a gradient term proportional to
    a bias, such as W's ``conv_bias * G_b``, is differenced only when they
    are nonzero.
    """
    for name, arr in params.named_arrays():
        if name == "conv_bias" or name.startswith("b_"):
            arr[...] = 0.1 * rng.normal(size=arr.shape)
    return params


def gradcheck_trials(seed: int, trials: int):
    """(config, params, x, y) of each trial of ``mixlinear gradcheck``.

    A :func:`random_small_config`, its parameters with the biases drawn by
    :func:`draw_biases` from a generator of the trial's own, so that they
    leave the configs unchanged, and a batch of 3 windows.
    """
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        config = random_small_config(rng)
        params = init_params(config, seed=int(rng.integers(0, 2**31)))
        draw_biases(params, np.random.default_rng((seed, trial, 1)))
        yield (config, params, rng.normal(size=(3, config.lookback)),
               rng.normal(size=(3, config.horizon)))


def grad_check(params: MixLinearParams, x_batch, y_batch, config: ModelConfig) -> GradCheckResult:
    """Compare every analytic gradient entry against central differences.

    ``x_batch`` and ``y_batch`` are (B, L) input rows and (B, H) target
    rows, as ``backward``'s array form takes them.  The prediction is
    affine in each parameter on its own, so the loss is quadratic along
    each coordinate, and its central difference at step 1 is its
    derivative up to round-off.  An entry's discrepancy is
    |analytic - numeric| over the largest |analytic| or |numeric| of any
    entry of any array; it is 0 when every entry is 0, and a non-finite
    discrepancy counts as infinite, so it fails any gate.
    """
    x2d, y2d = _check_rows(x_batch, config, np.asarray(y_batch, dtype=np.float64))

    def loss_at(flat, idx, value) -> float:
        flat[idx] = value
        d = forward_batch(x2d, params, config) - y2d
        return float(np.mean(d * d))

    _, grads = backward(x2d, y2d, params, config)

    pairs = {}  # name -> (analytic, numeric)
    for name, arr in params.named_arrays():
        flat = arr.reshape(-1)
        numeric = np.empty(flat.size)
        for idx, original in enumerate(flat.copy()):
            numeric[idx] = (loss_at(flat, idx, original + 1.0)
                            - loss_at(flat, idx, original - 1.0)) / 2.0
            flat[idx] = original
        pairs[name] = (np.reshape(grads[name], -1), numeric)
    # the scale is over finite entries, so that a non-finite entry names its
    # own array; a finite nonzero error is at most twice it, so it is > 0
    entries = np.abs(np.concatenate([np.concatenate(pair) for pair in pairs.values()]))
    scale = float(np.max(entries, where=np.isfinite(entries), initial=0.0))
    worst = 0.0
    worst_param = ""
    for name, (analytic, numeric) in pairs.items():
        error = float(np.max(np.abs(analytic - numeric)))
        rel = 0.0 if error == 0.0 else error / scale if math.isfinite(error) else math.inf
        if rel > worst:
            worst = rel
            worst_param = name
    return GradCheckResult(worst, worst_param)
