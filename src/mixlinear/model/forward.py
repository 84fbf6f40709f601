"""Forward computation: trend decoupling, the two branches, merge, upsample.

The public single-series operations are thin wrappers over a batched
engine that evaluates whole (batch, lookback) blocks with numpy matmuls.
``forward_batch_with_trace`` is the one map-path forward: it leaves in a
``StepSetup``'s workspace what the reverse pass reads.
"""

import math
from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..numerics import band_taps, conv1d_same_batch, conv_pad_split, idft_matrix, rfft_batch
from .config import Mode, ModelConfig
from .params import MixLinearParams


class Path(Enum):
    """Where a forward off the series path applies the phase map; see ``choose_path``."""

    PHASE_MAP = "phase map"     # the graph, with the phase map as one GEMM
    GAIN_FIRST = "gain first"   # the phase map on the period blocks, then the conv


def series_channels(x2d: np.ndarray) -> int:
    """C when (R, L) rows are b >= 2 consecutive windows of one C-channel series, else 0.

    Such rows are predicted from their series, which they share all but
    one step of.  Row k*C + c reads steps k .. k+L-1 of channel c, so the
    rows have strides (s, C*s) and x2d[r + C, i] is x2d[r, i + 1].  Rows
    with those strides alias memory that way whatever made them, so the
    strides alone prove the layout, and ``as_strided(x2d, (b + L - 1, C),
    (C*s, s))`` is the series.
    """
    step, across = x2d.strides
    if step <= 0 or across <= 0 or across % step:
        return 0
    channels = across // step
    rows = x2d.shape[0]
    return channels if rows % channels == 0 and rows >= 2 * channels else 0


def choose_path(config: ModelConfig) -> Path:
    """Where every forward off the series path applies the phase map, from the config alone.

    The phase map (W, b), which ``phase_map`` writes from the weights, is
    applied either after the band conv, on the phase block (the graph,
    2*L*w + L*m MACs per row), or before it, on the period blocks of the
    centred windows (gain-first, 2*L*m + 2*H*w), whichever costs fewer; a
    tie goes to the graph.  Gain-first runs only where w divides L:
    elsewhere the graph zeroes the n*w - L padded steps, which gain-first's
    conv would read.
    """
    length, horizon, w = config.lookback, config.horizon, config.period
    m = config.plan.m
    if (config.plan.n * w == length
            and 2 * length * m + 2 * horizon * w < 2 * length * w + length * m):
        return Path.GAIN_FIRST
    return Path.PHASE_MAP


def _conv_buffer(steps: np.ndarray, level: np.ndarray, padded: np.ndarray, w: int) -> np.ndarray:
    """Fill ``padded`` as the zero-padded time-major buffer Z that ``conv1d_same_batch`` reads.

    ``padded`` is (blocks*w, R): it becomes zero but for the (S, R)
    time-major ``steps`` less their (R,) ``level``, which start at step
    left = (w-1)//2.  ``steps`` may be those very rows of ``padded``, which
    are then centred in place.  The conv of Z by kappa at step t is then
    sum_i kappa[i] (steps - level)[t - left + i], with zeros read outside
    the S steps, for every t < blocks*w - w.
    """
    left = conv_pad_split(w)[0]
    padded[:left] = 0.0
    padded[left + steps.shape[0]:] = 0.0
    np.subtract(steps, level, out=padded[left:left + steps.shape[0]])
    return padded


def _reinterleave(out: np.ndarray, mean: np.ndarray, config: ModelConfig) -> np.ndarray:
    """(m, w, B) phase outputs and the B window means -> the (B, H) forecast.

    sequence[j*w + p] is out[j] of phase p, so the block read as (m*w, B)
    is the time-major forecast; the steps past H are dropped and the means
    added in place.  Returns the ``.T`` of a time-major array.
    """
    sequence = out.reshape(-1, mean.size)[:config.horizon]
    sequence += mean
    return sequence.T


def _check_rows(x2d, config: ModelConfig, targets=None) -> tuple[np.ndarray, np.ndarray | None]:
    """(B, L) input rows and their (B, H) target rows, or None, as float64 arrays.

    Raises ``ValueError`` unless the inputs are 2-D rows of the config's
    lookback and the targets, if given, as many rows of its horizon.
    """
    x2d = np.asarray(x2d, dtype=np.float64)
    if x2d.ndim != 2 or x2d.shape[1] != config.lookback:
        raise ValueError(
            f"expected input of shape (batch, {config.lookback}), got {x2d.shape}"
        )
    if targets is not None:
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != (x2d.shape[0], config.horizon):
            raise ValueError(f"expected targets of shape ({x2d.shape[0]}, {config.horizon}), "
                             f"got {targets.shape}")
    return x2d, targets


def forward_batch(x2d: np.ndarray, params: MixLinearParams, config: ModelConfig,
                  series_setup: "SeriesSetup | None" = None,
                  targets: np.ndarray | None = None) -> np.ndarray:
    """Predict (B, horizon) from (B, lookback) rows, or, given (B, horizon) targets, the residual.

    Row k*C + c of rows that ``WindowSet.batch`` gives is channel c of
    window k.  ``series_setup`` is the ``SeriesSetup`` an ``evaluate`` made
    once for all its blocks, sized for the largest: rows of consecutive
    windows (``series_channels``) read its constants and are predicted
    into its forecast buffer, so the result holds until the next forward
    through it.  Without one the forward makes its own.  Other rows run
    ``forward_batch_with_trace`` through a ``StepSetup`` of their own.
    With ``targets`` the result is forecast - targets, written where the
    forecast would be: targets that are the consecutive windows of a
    series as wide as the rows' are subtracted from the series path's VG,
    at about 1/w of the forecast's size (``_series_forward``); any others
    from the forecast.
    """
    x2d, targets = _check_rows(x2d, config, targets)
    rows = x2d.shape[0]
    channels = series_channels(x2d)
    if channels:
        if series_setup is None:
            series_setup = SeriesSetup(params, config, rows // channels, channels)
        if targets is not None and series_channels(targets) == channels:
            return _series_forward(x2d, channels, series_setup, config, targets)
        pred = _series_forward(x2d, channels, series_setup, config)
    else:
        pred = forward_batch_with_trace(x2d, config, StepSetup(params, config, rows))
    if targets is not None:
        pred -= targets
    return pred


def forward_batch_with_trace(x2d: np.ndarray, config: ModelConfig,
                             step: "StepSetup") -> np.ndarray:
    """Predict (B, horizon) from (B, lookback) on ``step.path``, a map path.

    ``step`` is the ``StepSetup`` made for at least B rows, once for all
    the blocks of a training step: the forward reads its constants and
    leaves in its workspace what the reverse pass reads, the conv buffer
    Z (``step.buffer(B)``) and the phase block or U (``step.block(B)``).
    Z is centred in place when ``x2d`` is the ``.T`` of the step's
    ``inputs``, where ``backward`` gathers a block.  The paths differ only
    in their linear part, W' times the phase block or ``_gain_first``;
    every output then gets the step's constant C.  The parameters reach
    the forward only through the step, which was made from them.
    """
    rows = x2d.shape[0]
    # x2d.mean(axis=1) without its Python wrapper: the same sum, divided by L
    mean = np.add.reduce(x2d, axis=1)
    mean /= config.lookback
    padded = _conv_buffer(x2d.T, mean, step.buffer(rows), config.period)
    if step.path is Path.GAIN_FIRST:
        out = _gain_first(padded, config, step)
    else:
        # the graph: the phase block is the band conv's output, the n*w - L
        # padded steps zeroed
        length, n = config.lookback, config.plan.n
        block = conv1d_same_batch(padded.T, step.kernel, step.block(rows)).reshape(n, -1)
        block.reshape(-1, rows)[length:] = 0.0
        out = step.gain.T @ block
    out = out.reshape(config.plan.m, config.period, rows)
    out += step.const[:, :, None]
    return _reinterleave(out, mean, config)


class _MapConstants:
    """kappa, conv_bias, the gain W of ``phase_map``'s (W, b), and the output constant C.

    - ``kernel``, kappa: the conv kernel plus the identity in its centre
      tap, so the conv by kappa is the aggregation conv(x) + x;
    - ``padded``, the (w,) phases p whose last-block step (n-1)*w + p is
      past L, the graph's zero padding (none where w divides L);
    - ``counted``, the (m, w) sums of W[j, q] over the blocks j whose step
      j*w + p is before L;
    - ``const``, C[q, p] = conv_bias counted[q, p] + b[q], what output q at
      phase p gets after either map path's linear part.
    """

    def __init__(self, params: MixLinearParams, config: ModelConfig):
        w, n = config.period, config.plan.n
        self.kernel = params.conv_kernel.copy()
        self.kernel[conv_pad_split(self.kernel.size)[0]] += 1.0
        self.conv_bias = float(params.conv_bias)
        self.gain, offset = phase_map(params, config)
        self.padded = np.arange(w) >= config.lookback - (n - 1) * w
        self.counted = (self.gain.sum(axis=0)[:, None]
                        - np.multiply.outer(self.gain[-1], self.padded))
        self.const = self.conv_bias * self.counted + offset[:, None]


class StepSetup(_MapConstants):
    """What every forward of one step shares: its constants and one workspace.

    A training step makes one for all its blocks (``backward``); any other
    map-path forward makes its own.  It is the only record of a forward:
    the reverse pass reads the path and the workspace.  Made for ``rows``
    window rows, the most a forward through it takes, it holds:

    - ``path``, what ``choose_path`` names for the config;
    - the ``_MapConstants``;
    - on ``Path.GAIN_FIRST``, kappa's (w, 2w) band T (``band_taps``) and the
      stacked map [W 0; 0 W]';
    - the workspace: the conv buffer Z of (n+1)*w steps and the block the
      conv's output (graph) or U (gain-first) is written to, both flat, so
      that a forward of R <= ``rows`` rows uses their first entries as
      C-contiguous arrays.  Each forward writes every entry it reads,
      zero padding included.  Both run time-major, time (or the phase
      index j) on the first axis and the rows on the last, so the phase
      rows and the re-interleave are reshapes, not copies.  What a forward
      leaves there holds until the next forward through the step;
      ``backward`` writes the phase block's gradient over it once read.
    """

    def __init__(self, params: MixLinearParams, config: ModelConfig, rows: int):
        super().__init__(params, config)
        plan, w = config.plan, config.period
        n, m = plan.n, plan.m
        self.path = choose_path(config)
        lead = n
        if self.path is Path.GAIN_FIRST:
            self.band = np.append(self.kernel, 0.0)[band_taps(w)]
            stacked = np.zeros((m, 2, n + 1))
            stacked[:, 0, :n] = self.gain.T
            stacked[:, 1, 1:] = self.gain.T
            self.stacked = stacked.reshape(2 * m, n + 1)
            lead = 2 * m
        self._config, self._lead = config, lead
        self._padded = np.empty((n + 1) * w * rows)
        self._block = np.empty(lead * w * rows)

    def buffer(self, rows: int) -> np.ndarray:
        """The ((n+1)*w, rows) conv buffer Z."""
        steps = (self._config.plan.n + 1) * self._config.period
        return self._padded[:steps * rows].reshape(steps, rows)

    def inputs(self, rows: int) -> np.ndarray:
        """The (L, rows) steps of Z the windows fill, from step (w-1)//2 on."""
        left = conv_pad_split(self._config.period)[0]
        return self.buffer(rows)[left:left + self._config.lookback]

    def block(self, rows: int) -> np.ndarray:
        """The (n, w, rows) phase block (graph), or (2m, w, rows) U (gain-first)."""
        w = self._config.period
        return self._block[:self._lead * w * rows].reshape(self._lead, w, rows)


def phase_map(params: MixLinearParams, config: ModelConfig):
    """(gain, offset) with g(r) = r @ gain + offset the branches' map of a phase row.

    The branches are affine in each phase row r, zero-padded to n_hat, so
    the (n, m) gain W and the (m,) offset b are written from the weights:

    - the time branch cuts r into segments r[a*seg_in + j] and maps each by
      w_intra, then each of their transposes by w_inter, so
      W[a*seg_in + j, q*seg_out + s] = w_intra[q, j] w_inter[s, a], and its
      biases give b[q*seg_out + s] = b_intra[q] sum_a w_inter[s, a] + b_inter[s];
    - the frequency branch is linear: row i of W is the low-passed spectrum
      of e_i (``basis_spectra``) times w_enc', times w_dec', times the
      inverse DFT, real part;
    - SparseBaseline's W is w_point', with no offset.

    Both cut to n rows and m columns.
    """
    plan = config.plan
    n, m = plan.n, plan.m
    if config.mode is Mode.SPARSE_BASELINE:
        return np.ascontiguousarray(params.w_point.T), np.zeros(m)
    gain, offset = np.zeros((n, m)), np.zeros(m)
    if config.has_time_branch:
        outer = np.einsum("qj,sa->ajqs", params.w_intra, params.w_inter)
        gain += outer.reshape(plan.n_hat, plan.m_hat)[:n, :m]
        biases = np.outer(params.b_intra, params.w_inter.sum(axis=1)) + params.b_inter
        offset += biases.reshape(-1)[:m]
    if config.has_freq_branch:
        recon = basis_spectra(config) @ params.w_enc.T @ params.w_dec.T    # (n, bins_out)
        gain += (recon @ idft_matrix(plan.m_hat).T).real[:, :m]
    return gain, offset


def basis_spectra(config: ModelConfig) -> np.ndarray:
    """(n, cutoff): row i the low-passed half spectrum of e_i, zero-padded to n_hat."""
    plan = config.plan
    return rfft_batch(np.eye(plan.n, plan.n_hat))[:, :config.lpf_cutoff]


class SeriesSetup(_MapConstants):
    """What every series-path forward of one ``evaluate`` shares: its constants and buffers.

    ``evaluate`` makes one for all its blocks, sized for the most
    ``windows`` and ``channels`` any of them holds; a forward given none
    makes its own.  Besides the ``_MapConstants``, of which the forward
    reads C at phase 0, conv_bias sum_j W + b, it holds:

    - the edge terms.  A window's first (w-1)//2 steps and its last
      w-1-(w-1)//2 read the series across its edges, where its own conv
      reads zeros, and its n*w - L padded steps, zero in the graph, read
      the series conv.  What step t read is taken back from phase t % w
      with weight W[t // w].  ``runs`` lists them as (start, taps, term,
      phase, count): ``count`` steps, from ``phase`` on, that are term
      ``term`` of their phase, and read ``taps`` times the conv buffer's
      steps from ``start`` on, or, with no taps, the series conv's;
    - ``coefs``, the (w, m, K) weights of each phase's K terms: term 0 is
      the window means, the others its edge terms, zero where ``gaps``
      says the phase has fewer;
    - the buffers the forwards write to, each allocated once, for the
      largest forward, and reused, so a forecast holds until the next
      forward through the setup.
    """

    def __init__(self, params: MixLinearParams, config: ModelConfig, windows: int,
                 channels: int):
        super().__init__(params, config)
        length, w, n = config.lookback, config.period, config.plan.n
        left, right = conv_pad_split(w)
        taps = np.append(self.kernel, 0.0)
        index = np.arange(left)
        # step t < left of window k read kernel[i - t] * centred[k - left + i], t <= i < left
        before = taps[np.where(index >= index[:, None], index - index[:, None], w)]
        index = np.arange(right)
        # step L - right + r read kernel[i + w-1 - r] * centred[k + L + i], i <= r
        after = taps[np.where(index <= index[:, None], index + w - 1 - index[:, None], w)]
        # (source, step t, start, taps): the series conv's step k + t read taps
        # times the buffer from step start + k on, less the window's mean times
        # their sum; past L, the series conv less the mean times sum(kappa)
        first = length - right
        edges = ([("before", t, 0, before[t]) for t in range(left)]
                 + [("after", t, left + length, after[t - first]) for t in range(first, length)]
                 + [("tail", t, t, None) for t in range(length, n * w)])
        taken = np.bincount([t % w for _, t, _, _ in edges], minlength=w)
        self.coefs = np.zeros((w, config.plan.m, 1 + taken.max(initial=0)))
        # away from its edges, a window's mean weighs 1 - sum(kappa) sum_j W[j]
        self.coefs[:, :, 0] = 1.0 - self.kernel.sum() * self.gain.sum(axis=0)
        self.gaps = [(term, phase) for phase in range(w)
                     for term in range(1 + taken[phase], self.coefs.shape[2])]
        runs = []   # [source, start, taps rows, term, first phase, count]
        taken[:] = 0
        for source, t, start, row in edges:
            phase, weight = t % w, self.gain[t // w]
            taken[phase] += 1
            term = taken[phase]
            self.coefs[phase, :, term] = -weight
            self.coefs[phase, :, 0] += weight * (self.kernel.sum() if row is None else row.sum())
            if runs and runs[-1][0] == source and runs[-1][3] == term \
                    and runs[-1][4] + runs[-1][5] == phase:
                runs[-1][2].append(row)
                runs[-1][5] += 1
            else:
                runs.append([source, start, [row], term, phase, 1])
        self.runs = [(start, None if source == "tail" else np.array(rows), term, phase, count)
                     for source, start, rows, term, phase, count in runs]
        self._config = config
        self._buffers = {name: np.empty(math.prod(shape))
                         for name, shape in self._shapes(windows, channels).items()}

    def _shapes(self, windows: int, channels: int) -> dict[str, tuple[int, ...]]:
        """Each buffer's shape in a forward of ``windows`` windows of ``channels`` channels."""
        w, n, m = self._config.period, self._config.plan.n, self._config.plan.m
        blocks = -(-(windows + w - 1) // w)     # w-step blocks of the u = k + p that VG holds
        return {"forecast": (m, w, windows, channels),
                "padded": ((blocks + n) * w, channels),
                "conv": (blocks + n - 1, w, channels),
                "vg": (m, blocks * w * channels),
                "terms": (w, self.coefs.shape[2], windows * channels)}

    def buffers(self, windows: int, channels: int) -> dict[str, np.ndarray]:
        """name -> C-contiguous array of its ``_shapes``, the first entries of that buffer.

        A forward larger than the setup was made for raises ``ValueError``.
        """
        return {name: self._buffers[name][:math.prod(shape)].reshape(shape)
                for name, shape in self._shapes(windows, channels).items()}


def _series_forward(x2d: np.ndarray, channels: int, setup: SeriesSetup,
                    config: ModelConfig, targets: np.ndarray | None = None) -> np.ndarray:
    """Predict (B, H) rows of b >= 2 consecutive windows of a C-channel series from the series.

    Row k*C + c of ``x2d`` reads steps k .. k+L-1 of channel c, so the
    rows are a (b + L - 1, C) series (``series_channels``).  With kappa,
    conv_bias and (W, b) the setup's ``_MapConstants`` and S the series
    convolved once with kappa, window k's forecast at h = q*w + p is, for
    windows away from the series' edges,

        sum_j S[k + p + j*w] W[j, q] + mean_k (1 - sum(kappa) sum_j W[j, q])
            + conv_bias sum_j W[j, q] + b[q],

    and VG[q, u] = sum_j S[u + j*w] W[j, q] serves every window and phase
    with k + p = u.  The series is centred on its first window's mean, its
    level.  What S read across each window's edges (the (w-1)//2 first and
    w-1-(w-1)//2 last steps, and the n*w - L padded ones) is taken back per
    window: one GEMM per phase writes the setup's ``coefs`` times the
    phase's terms, the window means and the edge terms, and VG is added to
    it.  So the forecast, in the setup's forecast buffer, is written once
    and added to once, from arrays the size of the series, with no
    temporary of its size.  Each window and channel costs about n*m +
    (w-1)*w/2 + K*m*w multiply-adds, K the terms per phase (at most 2 when
    w divides L), and m*w adds, plus its share of the conv of the series,
    2w(b + L + w)/b, and of the phase map, which the ``setup`` built once;
    the window map costs L*H.  Every channel of the rows is predicted at
    once, so the series-length arrays grow with C: ``evaluate``'s block
    rule bounds them.  ``targets``, (B, H) rows with the same
    ``series_channels``, are the windows of a (b + H - 1, C) target series,
    whose step k + q*w + p output q at phase p of window k predicts; that
    step is a function of u = k + p as VG is, so it is taken off VG, and
    the result is the residual instead.  Returns the ``.T`` of a
    C-contiguous (H, b*C) array in the setup's forecast buffer.
    """
    rows, length = x2d.shape
    w, n, windows = config.period, config.plan.n, rows // channels
    series = as_strided(x2d, (windows + length - 1, channels), x2d.strides[::-1],
                        writeable=False)
    buffers = setup.buffers(windows, channels)
    left = conv_pad_split(w)[0]
    level = series[:length].mean(axis=0)
    # the series less its level; the conv of its buffer has every step VG
    # reads, which cover the whole series
    padded = _conv_buffer(series, level, buffers["padded"], w)
    centred = padded[left:]
    # the (w, K, rows) terms, each phase's first row the window means, from
    # running sums: window k+1 adds step k+L and drops step k
    terms = buffers["terms"]
    mean = terms[0, 0].reshape(windows, channels)
    mean[0] = 0.0
    np.subtract(centred[length:length + windows - 1], centred[:windows - 1], out=mean[1:])
    np.cumsum(mean, axis=0, out=mean)
    mean /= length
    terms[1:, 0] = terms[0, 0]

    conv = conv1d_same_batch(padded.T, setup.kernel, buffers["conv"]).reshape(-1, w * channels)
    # VG[q, u*C + c] = sum_j conv[u + j*w, c] W[j, q], one GEMM per w-step block of u
    sums = buffers["vg"]
    step = w * channels
    for block in range(sums.shape[1] // step):
        np.matmul(setup.gain.T, conv[block:block + n], out=sums[:, block * step:(block + 1) * step])
    vg = sums.reshape(sums.shape[0], -1, channels)
    vg += setup.const[:, 0, None, None] + level
    if targets is not None:
        # VG[q, u] less the target series' step u + q*w: on rows q < m-1 for
        # u < b + w - 1, on the last for u < b + H - 1 - (m-1)*w, the u its
        # phases below H read
        targets = as_strided(targets, (windows + config.horizon - 1, channels),
                             targets.strides[::-1], writeable=False)
        m, (row, item) = sums.shape[0], targets.strides
        span, last = windows + w - 1, windows + config.horizon - 1 - (m - 1) * w
        vg[:m - 1, :span] -= as_strided(targets, (m - 1, span, channels), (w * row, row, item),
                                        writeable=False)
        vg[m - 1, :last] -= targets[(m - 1) * w:]

    # the edge terms, from the conv buffer's or the series conv's steps
    for start, taps, term, phase, count in setup.runs:
        target = terms[phase:phase + count, term]
        if taps is None:
            np.add(_steps(conv.reshape(-1, channels), start, count, windows), setup.conv_bias,
                   out=target)
        else:
            np.matmul(taps, _steps(padded, start, taps.shape[1], windows), out=target)
    for term, phase in setup.gaps:
        terms[phase, term] = 0.0

    # out[q, p, k, c] = the correction + VG[q, (k + p)*C + c]
    out = buffers["forecast"]
    np.matmul(setup.coefs, terms, out=out.reshape(out.shape[0], w, rows).transpose(1, 0, 2))
    item = sums.itemsize
    out += np.ndarray(out.shape, sums.dtype, sums, 0,
                      (sums.strides[0], channels * item, channels * item, item))
    return out.reshape(-1, rows)[:config.horizon].T


def _steps(steps: np.ndarray, start: int, count: int, windows: int) -> np.ndarray:
    """(count, b*G) view [i, k*G + c] = steps[start + i + k, c] of a C-contiguous (T, G) array.

    Row i holds step start + i of each of b windows that start a step apart.
    """
    row = steps.strides[0]
    return np.ndarray((count, windows * steps.shape[1]), steps.dtype, steps, start * row,
                      (row, steps.itemsize))


def _gain_first(padded, config, step: StepSetup):
    """The (m, w, B) linear part of B windows' outputs: W on their period blocks, then the conv.

    ``padded`` is the windows' centred conv buffer Z of (n+1)*w steps, cut
    into n+1 blocks of w steps; w divides L, so n*w = L and no step of the
    phase block is padding.  The graph's phase block at block j is the
    band T[p, c] = kappa[c - p] (``band_taps``) times Z's blocks j and j+1
    (``conv1d_same_batch``), so W commutes past T.  U = [W 0; 0 W]' Z, the
    phase map W on both blocks, is one (2m, n+1) @ (n+1, w*B) GEMM, with
    row 2q + h the image of blocks j+h, and output q at phase p is then
    sum_c T[p, c] U[q, c].  The map and T are the ``step``'s.  Costs about
    2*L*m + 2*H*w multiply-adds per row.
    """
    rows, w = padded.shape[1], config.period
    n, m = config.plan.n, config.plan.m
    images = np.matmul(step.stacked, padded.reshape(n + 1, w * rows),
                       out=step.block(rows).reshape(2 * m, w * rows))
    return step.band @ images.reshape(m, 2 * w, rows)


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
