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
cost reporting.  The convolution runs time-major: the (L, B) columns are
cut into blocks of ``width`` time steps, and the conv is three GEMMs of
those blocks with the kernel's width x width Toeplitz blocks.
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


def conv1d_same_batch(rows: np.ndarray, kernel: np.ndarray, bias: float) -> np.ndarray:
    """Length-preserving cross-correlation over the last axis of (B, L) rows.

    Pads floor((w-1)/2) zeros in front and ceil((w-1)/2) behind, then
    out[t] = bias + sum_i kernel[i] * padded[t+i]; the kernel is not
    flipped (deep-learning convention).

    Works on the time-major (L, B) view: with the columns cut into blocks
    x[j] of width = kernel.size steps, out[j] = T[0] x[j-1] + T[1] x[j] +
    T[2] x[j+1] (see ``conv_taps``), three batched GEMMs that cost 3·L·width
    MACs per row.  The result is the transposed view of a C-contiguous
    (L, B) array, so rows given as the ``.T`` view of time-major data stay
    time-major without a copy; C-ordered rows give bitwise the same values.
    """
    batch, length = rows.shape
    blocks = conv_blocks(rows, kernel.size)
    before, within, after = np.append(kernel, 0.0)[conv_taps(kernel.size)]
    out = within @ blocks
    out[1:] += before @ blocks[:-1]
    out[:-1] += after @ blocks[1:]
    out = out.reshape(-1, batch)[:length]
    out += bias
    return out.T


def conv_blocks(rows: np.ndarray, width: int) -> np.ndarray:
    """(B, L) rows -> C-contiguous (ceil(L/width), width, B) blocks of the
    time-major columns, zero-filled past L; a view when L is a multiple of
    ``width`` and ``rows.T`` is already C-contiguous."""
    batch, length = rows.shape
    count = -(-length // width)
    if count * width == length:
        return np.ascontiguousarray(rows.T).reshape(count, width, batch)
    blocks = np.zeros((count * width, batch))
    blocks[:length] = rows.T
    return blocks.reshape(count, width, batch)


@lru_cache(maxsize=64)
def conv_taps(width: int) -> np.ndarray:
    """Kernel tap of every entry of the conv's three Toeplitz blocks.

    conv1d_same_batch maps input step s to output step t with weight
    kernel[s - t + left].  Between the block of output steps j·width + a and
    the block of input steps (j+d)·width + c, d = -1, 0, 1, that is
    T[d+1][a, c] = kernel[d·width + c - a + left]; the entries ``taps`` sets
    to ``width`` are zero, as ``np.append(kernel, 0.0)[taps]`` reads them.
    No other block pair is linked, since left < width.
    """
    left, _ = conv_pad_split(width)
    steps = np.arange(width)
    taps = (np.arange(-1, 2)[:, None, None] * width
            + steps[None, None, :] - steps[None, :, None] + left)
    taps[(taps < 0) | (taps >= width)] = width
    taps.setflags(write=False)
    return taps


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
