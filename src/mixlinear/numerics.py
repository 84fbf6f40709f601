"""The real-input DFT pair and the length-preserving convolution.

Every arithmetic operation the model graph needs lives here: the
half-spectrum DFT/inverse-DFT coefficient matrices and the
length-preserving 1-D convolution.  The kernels are pure, run on float64 /
complex128 numpy arrays with a leading batch axis, and do not validate
their inputs: ``ModelConfig`` rejects shapes they cannot take and
``load_csv`` rejects non-finite data before either reaches the model.

The DFT pair is evaluated as a product with a precomputed coefficient
matrix.  Transform lengths in this model are tiny (a few dozen bins), so
the direct O(N^2) matrix form is both the fastest practical choice once
BLAS-batched and the one whose multiply count is exactly auditable for
cost reporting.  The convolution runs time-major on a zero-padded buffer
cut into blocks of ``width`` time steps: each output block is the
kernel's (width, 2*width) band times the two input blocks it overlaps,
and every block is one slice of a single batched GEMM.
"""

from functools import lru_cache

import numpy as np


# ---------------------------------------------------------------------------
# DFT pair (half spectrum: a real length-N signal is fully determined by its
# floor(N/2)+1 non-negative-frequency bins)


def spectrum_bins(n: int) -> int:
    """Number of half-spectrum bins for a real signal of length ``n``."""
    return n // 2 + 1


@lru_cache(maxsize=64)
def dft_matrix(n: int) -> np.ndarray:
    """Forward coefficient matrix F with F[k, t] = exp(-2j*pi*k*t/n).

    Shape (bins, n); ``rfft_batch(rows) == rows @ F.T``.
    """
    k = np.arange(spectrum_bins(n), dtype=np.float64)[:, None]
    t = np.arange(n, dtype=np.float64)[None, :]
    f = np.exp((-2j * np.pi / n) * (k * t))
    f.setflags(write=False)
    return f


@lru_cache(maxsize=64)
def idft_matrix(n: int) -> np.ndarray:
    """Inverse coefficient matrix G for the half-spectrum representation.

    G[t, k] = (c_k / n) * exp(+2j*pi*k*t/n) where c_k doubles every bin
    that has a Hermitian partner (i.e. all but DC, and Nyquist for even
    n).  A length-n real signal is ``(spectra @ G.T).real`` of its half
    spectrum.
    """
    bins = spectrum_bins(n)
    weights = np.full(bins, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    t = np.arange(n, dtype=np.float64)[:, None]
    k = np.arange(bins, dtype=np.float64)[None, :]
    g = (weights / n) * np.exp((2j * np.pi / n) * (k * t))
    g.setflags(write=False)
    return g


def rfft_batch(rows: np.ndarray) -> np.ndarray:
    """Half spectrum over the last axis of a real array.

    Bin k = sum_t x[t]*exp(-2j*pi*k*t/N); floor(N/2)+1 complex bins, as the
    remaining bins of the full DFT are redundant by Hermitian symmetry.
    """
    return rows @ dft_matrix(rows.shape[-1]).T


# ---------------------------------------------------------------------------
# length-preserving convolution


def conv_pad_split(width: int) -> tuple[int, int]:
    """(left, right) zero padding so a width-``width`` kernel preserves length."""
    left = (width - 1) // 2
    return left, width - 1 - left


def conv1d_same_batch(rows: np.ndarray, kernel: np.ndarray, out: np.ndarray | None = None
                      ) -> np.ndarray:
    """Length-preserving cross-correlation of R signals, from their zero-padded buffer.

    ``rows`` is the (R, (K+1)*w) ``.T`` view of a time-major buffer Z, with
    w = kernel.size, that holds each signal from step left = (w-1)//2 on,
    with zeros before it and at least w-1-left zeros after it.  Then
    out[t] = sum_i kernel[i] * Z[t + i] is the signal padded by left zeros
    in front and the rest behind and convolved, at its first K*w steps;
    the kernel is not flipped (deep-learning convention).

    Cut into blocks of w steps, output block j reads only Z's blocks j and
    j+1, as the band T[p, c] = kernel[c - p] (``band_taps``) times their
    2w steps.  ``band_pairs`` views those K overlapping pairs without a
    copy, so the conv is one batched (w, 2w) @ (K, 2w, R) GEMM, 2*K*w*w
    MACs per row, and allocates nothing but its output, or writes it to
    ``out``.  Returns the C-contiguous (K, w, R) blocks: out[j, p, r] is
    step j*w + p of signal r.
    """
    width = kernel.size
    return np.matmul(np.append(kernel, 0.0)[band_taps(width)], band_pairs(rows.T, width),
                     out=out)


def band_pairs(steps: np.ndarray, width: int) -> np.ndarray:
    """Read-only (K, 2*width, R) view of a ((K+1)*width, R) array's overlapping block pairs.

    [j, c, r] = steps[j*width + c, r]: pair j is blocks j and j+1.  The
    array is made C-contiguous first, a no-op for the conv's buffers.
    """
    steps = np.ascontiguousarray(steps)
    count = steps.shape[0] // width - 1
    row, item = steps.strides
    pairs = np.ndarray((count, 2 * width, steps.shape[1]), steps.dtype, steps, 0,
                       (width * row, row, item))
    pairs.flags.writeable = False
    return pairs


@lru_cache(maxsize=64)
def band_taps(width: int) -> np.ndarray:
    """Kernel tap of every entry of the (width, 2*width) band T[p, c] = kernel[c - p].

    T maps the 2*width steps of two consecutive blocks, padded in front by
    the conv's left padding, onto the conv's output at the first block's
    width steps; entries with c - p outside [0, width) hold ``width``, which
    ``np.append(kernel, 0.0)[taps]`` reads as zero.
    """
    taps = np.arange(2 * width) - np.arange(width)[:, None]
    taps[(taps < 0) | (taps >= width)] = width
    taps.setflags(write=False)
    return taps
