"""Independent reference implementations used to check the fast paths.

Everything here is written as literal scalar loops (cmath / pure Python
accumulation), deliberately sharing no code with the package: the naive
transform definitions, loop-based affine/convolution evaluation, a
stage-by-stage recomputation of the forward graph, and a cell-by-cell CSV
reader.
"""

import cmath
import csv
import math

import numpy as np


def naive_rfft(x):
    """Literal half-spectrum DFT: bin k = sum_t x[t] * exp(-2j*pi*k*t/n)."""
    x = list(x)
    n = len(x)
    out = []
    for k in range(n // 2 + 1):
        acc = 0j
        for t in range(n):
            acc += x[t] * cmath.exp(-2j * cmath.pi * k * t / n)
        out.append(acc)
    return np.array(out)


def hermitian_extend(spectrum, n):
    """Full length-n spectrum from its half-spectrum representation."""
    spectrum = list(spectrum)
    assert len(spectrum) == n // 2 + 1
    full = [0j] * n
    for k, value in enumerate(spectrum):
        full[k] = value
    for k in range(1, (n + 1) // 2):
        full[n - k] = spectrum[k].conjugate()
    return full


def naive_irfft(spectrum, n):
    """Literal inverse: real part of (1/n) * sum_k Xext[k] * exp(2j*pi*k*t/n)."""
    full = hermitian_extend(spectrum, n)
    out = []
    for t in range(n):
        acc = 0j
        for k in range(n):
            acc += full[k] * cmath.exp(2j * cmath.pi * k * t / n)
        out.append((acc / n).real)
    return np.array(out)


def loop_real_affine(w, x, b):
    rows = len(w)
    cols = len(w[0])
    out = []
    for i in range(rows):
        acc = b[i]
        for j in range(cols):
            acc += w[i][j] * x[j]
        out.append(acc)
    return np.array(out)


def loop_complex_affine(w, z, b=None):
    rows = len(w)
    cols = len(w[0])
    out = []
    for i in range(rows):
        acc = complex(b[i]) if b is not None else 0j
        for j in range(cols):
            acc += complex(w[i][j]) * complex(z[j])
        out.append(acc)
    return np.array(out)


def loop_conv_same(x, kernel, bias):
    x = list(x)
    kernel = list(kernel)
    length = len(x)
    width = len(kernel)
    left = (width - 1) // 2
    right = width - 1 - left
    padded = [0.0] * left + x + [0.0] * right
    out = []
    for t in range(length):
        acc = bias
        for i in range(width):
            acc += kernel[i] * padded[t + i]
        out.append(acc)
    return np.array(out)


def loop_mse(pred, target):
    pred = np.asarray(pred)
    target = np.asarray(target)
    total = 0.0
    count = 0
    for a, b in zip(pred.reshape(-1), target.reshape(-1)):
        total += (a - b) ** 2
        count += 1
    return total / count


def loop_mae(pred, target):
    pred = np.asarray(pred)
    target = np.asarray(target)
    total = 0.0
    count = 0
    for a, b in zip(pred.reshape(-1), target.reshape(-1)):
        total += abs(a - b)
        count += 1
    return total / count


# ---------------------------------------------------------------------------
# stage-by-stage recomputation of the model graph


def decompose_trend_loop(x, kernel, conv_bias, period, n):
    """Mean-subtract, convolve+residual, de-interleave into (period, n)."""
    x = list(x)
    length = len(x)
    mean = sum(x) / length
    x_norm = [v - mean for v in x]
    conv = loop_conv_same(x_norm, kernel, conv_bias)
    agg = [conv[t] + x_norm[t] for t in range(length)]
    trend = [[0.0] * n for _ in range(period)]
    for i in range(period):
        for j in range(n):
            pos = j * period + i
            if pos < length:
                trend[i][j] = agg[pos]
    return np.array(trend), mean


def time_branch_loop(row, w_intra, b_intra, w_inter, b_inter, plan):
    """Materialize every intermediate of the segment transformation."""
    si, so = plan.seg_in, plan.seg_out
    padded = list(row) + [0.0] * (plan.n_hat - len(row))
    segments = [[padded[p * si + r] for r in range(si)] for p in range(si)]
    intra = [loop_real_affine(w_intra, segments[p], b_intra) for p in range(si)]
    inter_in = [[intra[p][q] for p in range(si)] for q in range(so)]
    tp = [loop_real_affine(w_inter, inter_in[q], b_inter) for q in range(so)]
    flat = [tp[q][r] for q in range(so) for r in range(so)]
    return np.array(flat[:plan.m])


def freq_branch_loop(padded_row, w_enc, w_dec, cutoff, plan):
    """Compose the naive transforms and scalar complex matvecs."""
    spectrum = naive_rfft(padded_row)
    filtered = spectrum[:cutoff]
    latent = loop_complex_affine(w_enc, filtered)
    recon = loop_complex_affine(w_dec, latent)
    full = naive_irfft(recon, plan.m_hat)
    return np.array(full[:plan.m])


def forward_loop(x, params, config, plan):
    """End-to-end recomputation of one univariate prediction."""
    trend, mean = decompose_trend_loop(
        x, params.conv_kernel, float(params.conv_bias), config.period, plan.n
    )
    mode = config.mode.value
    rows_out = []
    for i in range(config.period):
        row = trend[i]
        if mode == "SparseBaseline":
            out = loop_real_affine(params.w_point, row, [0.0] * plan.m)
        else:
            out = np.zeros(plan.m)
            if mode in ("Mix", "TimeOnly"):
                out = out + time_branch_loop(
                    row, params.w_intra, params.b_intra,
                    params.w_inter, params.b_inter, plan,
                )
            if mode in ("Mix", "FreqOnly"):
                padded = list(row) + [0.0] * (plan.n_hat - len(row))
                out = out + freq_branch_loop(
                    padded, params.w_enc, params.w_dec, config.lpf_cutoff, plan,
                )
        rows_out.append([v + mean for v in out])
    sequence = [0.0] * (plan.m * config.period)
    for i in range(config.period):
        for j in range(plan.m):
            sequence[j * config.period + i] = rows_out[i][j]
    return np.array(sequence[:config.horizon])


def load_csv_loop(path):
    """Cell-by-cell benchmark-CSV reader: (timestamps, values, channel names).

    Stops at the first problem in row-major order, raising ``ValueError``
    with the message ``load_csv`` gives for it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: file is empty")
    header = rows[0]
    if len(header) < 2:
        raise ValueError(f"{path}: expected a date column plus at least one channel")
    timestamps, values = [], []
    for row_no, row in enumerate(rows[1:], start=1):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}: ragged row {row_no}: expected {len(header)} "
                             f"columns, got {len(row)}")
        parsed = []
        for col_idx, cell in enumerate(row[1:], start=2):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"{path}: non-numeric cell at row {row_no}, "
                                 f"col {col_idx}: {cell!r}") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}: missing/non-finite cell at row {row_no}, "
                                 f"col {col_idx}")
            parsed.append(value)
        timestamps.append(row[0])
        values.append(parsed)
    if not values:
        raise ValueError(f"{path}: no data rows")
    return timestamps, np.array(values), [name.strip() for name in header[1:]]
