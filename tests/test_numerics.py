"""Numeric primitives against their literal-loop oracles.

Every test runs the kernels the model calls, on (B, n) rows as the model
passes them: ``rfft_batch``, the inverse ``(spectra @ idft_matrix(n).T).real``
and ``conv1d_same_batch`` on the zero-padded time-major buffer of the rows.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixlinear.numerics import (
    band_pairs,
    conv1d_same_batch,
    idft_matrix,
    rfft_batch,
    spectrum_bins,
)
from mixlinear.training.backward import _band_grad, _band_kernel_grad
from oracles import (
    hermitian_extend,
    loop_conv_same,
    naive_irfft,
    naive_rfft,
)


def conv_transpose_kernel(kernel: np.ndarray) -> np.ndarray:
    """The kernel whose length-preserving conv is the transpose of ``kernel``'s.

    With rows @ K the conv by ``kernel``, rows @ K' is the conv by the
    reversed kernel; an even width gets one zero tap appended so that its
    padding splits as K' needs.
    """
    return np.append(kernel[::-1], np.zeros(1 - kernel.size % 2))


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def rfft_row(x):
    """The half spectrum of one signal, run as a one-row batch."""
    return rfft_batch(np.asarray(x, dtype=np.float64)[None, :])[0]


def irfft_rows(spectra, n):
    """Length-n real signals from (B, bins) half spectra, as the model inverts."""
    return (spectra @ idft_matrix(n).T).real


def irfft_row(spectrum, n):
    return irfft_rows(np.asarray(spectrum, dtype=np.complex128)[None, :], n)[0]


def padded_buffer(rows: np.ndarray, width: int) -> np.ndarray:
    """The ((ceil(L/w)+1)*w, B) time-major buffer of (B, L) rows: each row
    from step (w-1)//2 on, zeros elsewhere."""
    batch, length = rows.shape
    left = (width - 1) // 2
    padded = np.zeros(((-(-length // width) + 1) * width, batch))
    padded[left:left + length] = rows.T
    return padded


def band_conv(rows: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """The length-preserving conv of (B, L) rows: conv1d_same_batch of their
    buffer's ``.T`` view, its (ceil(L/w), w, B) blocks cut back to (B, L)."""
    batch, length = rows.shape
    out = conv1d_same_batch(padded_buffer(rows, kernel.size).T, kernel)
    assert out.shape == (-(-length // kernel.size), kernel.size, batch)
    return out.reshape(-1, batch)[:length].T


def conv_row(x, kernel):
    """The band conv of one signal, run as a one-row batch."""
    rows = np.asarray(x, dtype=np.float64)[None, :]
    return band_conv(rows, np.asarray(kernel, dtype=np.float64))[0]


class TestRfft:
    def test_constant_signal_is_dc_only(self):
        out = rfft_row([1.0, 1.0, 1.0, 1.0])
        assert np.allclose(out, [4.0, 0.0, 0.0], atol=1e-12)

    def test_unit_impulse_is_flat(self):
        out = rfft_row([1.0, 0.0, 0.0, 0.0])
        assert np.allclose(out, [1.0, 1.0, 1.0], atol=1e-12)

    def test_matches_naive_dft_length_36(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=36)
        assert rel_err(rfft_row(x), naive_rfft(x)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 36, 64, 100])
    def test_matches_naive_dft(self, n):
        rng = np.random.default_rng(n)
        rows = rng.normal(size=(3, n))
        spectra = rfft_batch(rows)
        assert spectra.shape == (3, spectrum_bins(n))
        for x, spectrum in zip(rows, spectra):
            assert rel_err(spectrum, naive_rfft(x)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=24)
        y = rng.normal(size=24)
        a, b = 1.7, -0.3
        lhs = rfft_row(a * x + b * y)
        rhs = a * rfft_row(x) + b * rfft_row(y)
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("n", [4, 9, 36, 53])
    def test_parseval(self, n):
        rng = np.random.default_rng(n + 100)
        x = rng.normal(size=n)
        spectrum = rfft_row(x)
        full = np.array(hermitian_extend(list(spectrum), n))
        time_energy = float(np.sum(x * x))
        freq_energy = float(np.sum(np.abs(full) ** 2)) / n
        assert abs(time_energy - freq_energy) / time_energy < 1e-8


class TestIrfft:
    def test_dc_only_spectrum(self):
        out = irfft_row([4.0 + 0j, 0j, 0j], 4)
        assert np.allclose(out, [1.0, 1.0, 1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 36, 101, 128])
    def test_roundtrip(self, n):
        rng = np.random.default_rng(n + 5)
        rows = rng.normal(size=(3, n))
        assert np.max(np.abs(irfft_rows(rfft_batch(rows), n) - rows)) < 1e-9

    def test_roundtrip_1024(self):
        rng = np.random.default_rng(1024)
        x = rng.normal(size=1024)
        assert np.max(np.abs(irfft_row(rfft_row(x), 1024) - x)) < 1e-9

    @pytest.mark.parametrize("n", [4, 5, 12, 36])
    def test_matches_naive_inverse(self, n):
        # arbitrary half spectra, not necessarily Hermitian-consistent at
        # the DC/Nyquist bins
        rng = np.random.default_rng(n + 9)
        bins = spectrum_bins(n)
        spectra = rng.normal(size=(3, bins)) + 1j * rng.normal(size=(3, bins))
        for spectrum, signal in zip(spectra, irfft_rows(spectra, n)):
            assert rel_err(signal, naive_irfft(list(spectrum), n)) < 1e-10


class TestConv1dSame:
    def test_identity_kernel(self):
        x = np.array([1.0, 2.0, 3.0])
        assert np.allclose(conv_row(x, [1.0]), x)

    def test_moving_average_hand_case(self):
        out = conv_row([0.0, 3.0, 6.0, 9.0], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(out, [1.0, 3.0, 6.0, 5.0], atol=1e-12)

    @pytest.mark.parametrize("length,width", [(5, 1), (6, 2), (9, 4), (16, 7), (24, 24)])
    def test_matches_loop_oracle(self, length, width):
        rng = np.random.default_rng(length * 31 + width)
        x = rng.normal(size=length)
        kernel = rng.normal(size=width)
        got = conv_row(x, kernel)
        assert got.shape == (length,)
        assert rel_err(got, loop_conv_same(x, kernel, 0.0)) < 1e-10


@st.composite
def conv_cases(draw):
    """(rows, kernel, cotangent): 1-6 rows of length 1-40 around level 0 or
    30, any width up to L."""
    length = draw(st.integers(1, 40))
    width = draw(st.integers(1, length))
    batch = draw(st.integers(1, 6))
    level = draw(st.sampled_from([0.0, 30.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (level + rng.normal(size=(batch, length)), rng.normal(size=width),
            rng.normal(size=(batch, length)))


# width 1, even widths, width = L, and L not a multiple of the width, at
# levels 0 and 30
EDGE_SHAPES = [(4, 17, 1, 0.0), (3, 24, 6, 0.0), (2, 25, 4, 0.0), (3, 12, 12, 0.0),
               (1, 7, 7, 0.0), (2, 9, 2, 0.0), (3, 720, 24, 30.0), (2, 10, 3, 30.0)]


def edge_case(batch, length, width, level):
    rng = np.random.default_rng(batch * 1000 + length * 10 + width)
    return (level + rng.normal(size=(batch, length)), rng.normal(size=width),
            rng.normal(size=(batch, length)))


def with_edge_examples(test):
    for shape in EDGE_SHAPES:
        test = example(edge_case(*shape))(test)
    return test


def buffer_cotangent(rows, kernel, g):
    """The rows' buffer and a cotangent on all of the band conv's output
    blocks: ``g`` on the L steps, more draws on the padded ones."""
    padded = padded_buffer(rows, kernel.size)
    steps = padded.shape[0] - kernel.size
    cotangent = np.random.default_rng(g.size).normal(size=(steps, rows.shape[0]))
    cotangent[:rows.shape[1]] = g.T
    return padded, cotangent.reshape(-1, kernel.size, rows.shape[0])


class TestConvAdjoint:
    """The band conv and its kernel gradient as exact adjoints."""

    @with_edge_examples
    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_matches_loop_oracle_per_row(self, case):
        rows, kernel, _ = case
        got = band_conv(rows, kernel)
        want = np.array([loop_conv_same(row, kernel, 0.0) for row in rows])
        assert got.shape == rows.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @with_edge_examples
    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_transpose_kernel_gives_adjoint(self, case):
        # the input adjoint: <conv(x), g> = <x, conv'(g)>, with conv' the
        # conv by the transposed kernel
        x, kernel, g = case
        forward = band_conv(x, kernel)
        adjoint = band_conv(g, conv_transpose_kernel(kernel))
        lhs, rhs = np.sum(forward * g), np.sum(x * adjoint)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(forward * g))

    @with_edge_examples
    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_kernel_grad_is_adjoint(self, case):
        # the conv is linear in its kernel: <conv_k(Z), G> = <k, grad(G, pairs of Z)>
        # over every output block, the padded steps included
        rows, kernel, g = case
        padded, cotangent = buffer_cotangent(rows, kernel, g)
        forward = conv1d_same_batch(padded.T, kernel)
        grad = _band_kernel_grad(_band_grad(cotangent, band_pairs(padded, kernel.size)))
        assert grad.shape == kernel.shape
        lhs, rhs = np.sum(forward * cotangent), np.sum(kernel * grad)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(forward * cotangent))

    @with_edge_examples
    @given(conv_cases())
    @settings(max_examples=100, deadline=None)
    def test_row_layout_does_not_change_bits(self, case):
        # the .T view of the time-major buffer and a C-ordered copy of it
        rows, kernel, g = case
        padded, cotangent = buffer_cotangent(rows, kernel, g)
        row_major = np.ascontiguousarray(padded.T)
        assert np.array_equal(conv1d_same_batch(padded.T, kernel),
                              conv1d_same_batch(row_major, kernel))
        assert np.array_equal(_band_grad(cotangent, band_pairs(padded, kernel.size)),
                              _band_grad(cotangent, band_pairs(row_major.T, kernel.size)))

    def test_band_pairs_is_read_only_view(self):
        # pair j of a C-contiguous buffer is its blocks j and j+1, uncopied
        steps = np.arange(4 * 3 * 5, dtype=np.float64).reshape(4 * 3, 5)
        pairs = band_pairs(steps, 3)
        assert pairs.shape == (3, 6, 5)
        assert np.shares_memory(pairs, steps) and not pairs.flags.writeable
        for j in range(3):
            np.testing.assert_array_equal(pairs[j], steps[3 * j:3 * j + 6])


def test_all_primitives_against_oracles_random_sizes():
    rng = np.random.default_rng(99)
    for _ in range(20):
        n = int(rng.integers(1, 65))
        x = rng.normal(size=n)
        assert rel_err(rfft_row(x), naive_rfft(x)) < 1e-10
        spectrum = rng.normal(size=spectrum_bins(n)) + 1j * rng.normal(size=spectrum_bins(n))
        assert rel_err(irfft_row(spectrum, n), naive_irfft(list(spectrum), n)) < 1e-10

        width = int(rng.integers(1, n + 1))
        kernel = rng.normal(size=width)
        assert rel_err(conv_row(x, kernel), loop_conv_same(x, kernel, 0.0)) < 1e-10
