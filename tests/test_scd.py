"""Spectral correlation estimator tests.

scd_slice_naive is the reference implementation: the same definition
evaluated with explicit per-term loops over the direct O(N^2) transform.
The FFT-based fast path must agree with it to near machine precision for
every (N, L, shift) combination tried here.
"""

import io
import math
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosense import (ConfigurationError, ModulationKind, ModulationSpec, SampleBuffer,
                        SensingConfig, WindowKind, add_awgn, cycle_profile, dft, generate_signal,
                        make_window, scd_slice, write_profile_csv)
from cyclosense import harness, scd
from cyclosense.scd import BLOCK_ROWS, SliceWork, smoothed_slices
from oracles import (dft_naive, naive_scale, naive_shift, profile_grid_arithmetic,
                     scd_bins_direct, scd_slice_naive)


def rel_err(got, want):
    denom = float(np.max(np.abs(want)))
    if denom == 0.0:
        return float(np.max(np.abs(got)))
    return float(np.max(np.abs(got - want)) / denom)


def white_buffer(n, seed, rate=1.0):
    rng = np.random.default_rng(seed)
    return SampleBuffer(rng.normal(size=n), rate)


def cosine_buffer(n, cycles, rate=None):
    # bin-aligned real tone: spectral lines exactly at +-cycles
    if rate is None:
        rate = float(n)
    k = np.arange(n)
    return SampleBuffer(np.cos(2.0 * np.pi * cycles * k / n), rate)


def served(rows, *grid):
    # a SliceWork on grid served at nfft(0), as scd_slice and the trial engine serve theirs
    work = SliceWork(*grid)
    work.serve(rows, work.nfft(0))
    return work


class TestDft:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12, 16, 33, 64])
    def test_naive_matches_fft(self, n):
        buf = white_buffer(n, seed=n)
        assert rel_err(dft_naive(buf), dft(buf)) < 1e-9

    def test_impulse_is_flat(self):
        x = np.zeros(16)
        x[0] = 1.0
        bins = dft_naive(SampleBuffer(x, 1.0))
        assert rel_err(bins, np.ones(16)) < 1e-12

    def test_cosine_line_placement(self):
        n = 64
        bins = dft(cosine_buffer(n, cycles=5))
        assert abs(bins[5] - n / 2) < 1e-9
        assert abs(bins[n - 5] - n / 2) < 1e-9

    def test_linearity_of_naive(self):
        x = white_buffer(12, seed=1)
        y = white_buffer(12, seed=2)
        combo = SampleBuffer(3.0 * x.samples - 0.5 * y.samples, 1.0)
        want = 3.0 * dft_naive(x) - 0.5 * dft_naive(y)
        assert rel_err(dft_naive(combo), want) < 1e-9

    @pytest.mark.parametrize("n", [4, 10, 64, 257])
    def test_parseval(self, n):
        buf = white_buffer(n, seed=100 + n)
        bins = dft(buf)
        lhs = float(np.sum(np.abs(bins) ** 2))
        rhs = n * float(np.sum(buf.samples ** 2))
        assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_frequency_resolution(self):
        work = SliceWork(32, 3e6, WindowKind.RECTANGULAR, 1)
        assert 2.0 * work.shift(6 * 3e6 / 32) * work.bin_width == 2 * 3 * (3e6 / 32)

    def test_bins_read_only(self):
        bins = dft(white_buffer(4, seed=0))
        with pytest.raises(ValueError):
            bins[0] = 0.0


class TestMakeWindow:
    def test_rectangular_is_ones(self):
        assert np.array_equal(make_window(WindowKind.RECTANGULAR, 7), np.ones(7))

    def test_length_one_is_unity_for_both_kinds(self):
        for kind in WindowKind:
            assert np.array_equal(make_window(kind, 1), np.array([1.0]))

    def test_hamming_exactly_symmetric(self):
        w = make_window(WindowKind.HAMMING, 1301)
        assert np.array_equal(w, w[::-1])

    def test_hamming_unit_mean(self):
        w = make_window(WindowKind.HAMMING, 31)
        assert abs(float(np.mean(w)) - 1.0) <= 1e-12

    def test_hamming_shape(self):
        w = make_window(WindowKind.HAMMING, 31)
        assert np.argmax(w) == 15
        assert np.all(w > 0.0)
        assert w[0] < w[15]

    def test_half_and_length(self):
        # the kernel keeps bins L // 2 .. L // 2 + n of each linear convolution
        work = served(1, 64, 1.0, WindowKind.HAMMING, 31)
        assert work.weights is make_window(WindowKind.HAMMING, 31)
        assert (work.weights.size, work.weights.size // 2) == (31, 15)
        assert (work.products.shape, work.transform.shape) == ((1, 128), (128,))

    def test_even_length_suggests_neighbors(self):
        with pytest.raises(ConfigurationError, match="1299 or 1301"):
            make_window(WindowKind.HAMMING, 1300)

    def test_bad_lengths(self):
        for bad in (0, -3, 2.0):
            with pytest.raises(ConfigurationError):
                make_window(WindowKind.HAMMING, bad)

    def test_equal_requests_share_one_read_only_window(self):
        w = make_window(WindowKind.HAMMING, 31)
        assert make_window(WindowKind.HAMMING, np.int64(31)) is w
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0
        assert make_window(WindowKind.RECTANGULAR, 31) is not w

    @pytest.mark.parametrize("kind, length", [
        (WindowKind.HAMMING, [5]), ("hamming", 5), (None, 1)])
    def test_bad_request_refused_before_the_cache(self, kind, length):
        with pytest.raises(ConfigurationError):
            make_window(kind, length)

    @pytest.mark.parametrize("kind, length, message", [
        ("hamming", 5, "unknown window kind: 'hamming'"),
        (WindowKind.HAMMING, 4, "window length must be odd; use 3 or 5"),
        (WindowKind.RECTANGULAR, 17, "window length 17 must be below the transform size 16")])
    def test_slice_paths_refuse_by_the_window_rule(self, kind, length, message):
        buf = white_buffer(16, seed=0, rate=16.0)
        for call in (lambda: scd.check_window(kind, length, 16),
                     lambda: SliceWork(16, 16.0, kind, length),
                     lambda: scd_slice(buf, 4.0, kind, length),
                     lambda: cycle_profile(buf, [4.0], kind, length)):
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                call()


class TestWindowTransformCache:
    """The window transform is cached per (kind, length, nfft), by value."""

    def test_one_entry_per_window(self):
        scd._window_transform.cache_clear()
        works = [served(1, 64, 1.0, WindowKind.HAMMING, 5) for _ in range(2)]
        info = scd._window_transform.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert works[0].transform is works[1].transform

    def test_equal_windows_share_one_entry(self):
        # another grid with the same nfft = 128, and a length of another integer type
        scd._window_transform.cache_clear()
        first = served(1, 64, 1.0, WindowKind.HAMMING, 5)
        second = served(4, 65, 3e6, WindowKind.HAMMING, np.int64(5))
        info = scd._window_transform.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        assert first.transform is second.transform
        want = np.fft.fft(make_window(WindowKind.HAMMING, 5), 128)
        assert first.transform.tobytes() == want.tobytes()


@st.composite
def slice_cases(draw):
    n = draw(st.sampled_from([8, 16, 32]))
    length = draw(st.sampled_from([1, 3, 5]))
    shift = draw(st.integers(min_value=-(n // 2 - 1), max_value=n // 2 - 1))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(list(WindowKind)))
    return n, length, shift, seed, kind


class TestSliceAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(slice_cases())
    def test_fast_path_matches_reference(self, case):
        n, length, shift, seed, kind = case
        buf = white_buffer(n, seed=seed)
        window = (kind, length)
        alpha = 2.0 * shift * (buf.sample_rate_hz / n)
        fast = scd_slice(buf, alpha, *window)
        slow = scd_slice_naive(buf, alpha, *window)
        assert rel_err(fast, slow) < 1e-9
        work = SliceWork(n, buf.sample_rate_hz, *window)
        assert work.shift(alpha) == naive_shift(buf, alpha)
        assert work.scale == naive_scale(buf)

    def test_reference_and_fast_quantize_ties_to_even(self):
        buf = white_buffer(16, seed=7, rate=16.0)
        window = (WindowKind.RECTANGULAR, 3)
        work = SliceWork(16, 16.0, *window)
        # resolution is 1 Hz, so the half-bin boundary sits at odd alphas
        for alpha, effective in [(1.0, 0.0), (3.0, 4.0), (-1.0, 0.0), (-3.0, -4.0)]:
            assert 2.0 * work.shift(alpha) * work.bin_width == effective
            assert naive_shift(buf, alpha) == work.shift(alpha)
            assert scd_slice(buf, alpha, *window).tobytes() == scd_slice(
                buf, effective, *window).tobytes()


@st.composite
def grid_cases(draw):
    """Shifts up to +-n on an n-bin grid, on bins and on half-bin ties."""
    n = draw(st.integers(min_value=2, max_value=40))
    length = draw(st.sampled_from([1, 3]).filter(lambda length: length < n))
    half_shifts = draw(st.integers(min_value=-2 * n, max_value=2 * n))
    rate = draw(st.sampled_from([float(n), 3e6]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    kind = draw(st.sampled_from(list(WindowKind)))
    return n, length, half_shifts * (rate / n), rate, seed, kind


class TestCycleShiftRule:
    @settings(max_examples=300, deadline=None)
    @given(grid_cases())
    def test_refused_exactly_where_the_oracle_is_zero(self, case):
        n, length, alpha, rate, seed, kind = case
        buf = white_buffer(n, seed=seed, rate=rate)
        window = (kind, length)
        slow = scd_slice_naive(buf, alpha, *window)
        if np.all(slow == 0.0):
            with pytest.raises(ConfigurationError, match="cycle frequency"):
                scd_slice(buf, alpha, *window)
            with pytest.raises(ConfigurationError, match="cycle frequency"):
                cycle_profile(buf, [alpha], *window)
        else:
            fast = scd_slice(buf, alpha, *window)
            assert rel_err(fast, slow) < 1e-9
            assert SliceWork(n, rate, *window).shift(alpha) == naive_shift(buf, alpha)
            cycle_profile(buf, [alpha], *window)

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite_shift_refused(self, alpha):
        buf = white_buffer(16, seed=0, rate=16.0)
        window = (WindowKind.RECTANGULAR, 3)
        with pytest.raises(ConfigurationError, match="cycle frequency"):
            scd_slice(buf, alpha, *window)
        with pytest.raises(ConfigurationError, match="cycle frequency"):
            cycle_profile(buf, [alpha], *window)


class TestBinWidth:
    def test_underflow_refused_before_any_division(self):
        buf = white_buffer(64, seed=0, rate=5e-324)
        window = (WindowKind.RECTANGULAR, 3)
        message = "bin width 5e-324 Hz / 64 underflows to 0 Hz"
        for call in (lambda: SliceWork(64, 5e-324, *window),
                     lambda: scd_slice(buf, 0.0, *window),
                     lambda: cycle_profile(buf, [0.0], *window)):
            with pytest.raises(ConfigurationError) as info:
                call()
            assert str(info.value) == message


class TestGrid:
    """SliceWork.grid is the profile command's grid, bit for bit as the CLI
    computed it before (oracles.profile_grid_arithmetic)."""

    BOUNDS = [None, 1e-300, 0.5, 1e3, 2.5e6, 1e300]

    @pytest.mark.parametrize("rate", [1.0, 7.3, 64.0, 3e6, 1e-300, 1e300])
    @pytest.mark.parametrize("n", [2, 3, 16, 64, 65, 4096, 4097])
    def test_matches_the_cli_arithmetic(self, n, rate):
        work = SliceWork(n, rate, WindowKind.RECTANGULAR, 1)
        for alpha_max in self.BOUNDS:
            for alpha_step in self.BOUNDS:
                want = profile_grid_arithmetic(n, rate, alpha_max, alpha_step)
                got = work.grid(alpha_max, alpha_step)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["alpha_max_hz", "alpha_step_hz"])
    @pytest.mark.parametrize("value", [0.0, -1.0, -5.0, math.nan, math.inf, -math.inf])
    def test_bound_not_positive_and_finite_refused(self, name, value):
        work = SliceWork(64, 64.0, WindowKind.RECTANGULAR, 1)
        with pytest.raises(ConfigurationError,
                           match=f"^{name} must be positive and finite, got {value!r}$"):
            work.grid(**{name: value})

    def test_reference_full_grid(self):
        # perfbench's profile_grid(): 2.0 * arange(-max_shift, max_shift + 1) * fs / N
        work = SliceWork(4096, 3e6, WindowKind.HAMMING, 1301)
        want = 2.0 * np.arange(-2047, 2048) * (3e6 / 4096)
        assert work.grid().tobytes() == want.tobytes()


class TestBlockKernel:
    @pytest.mark.parametrize("n", [64, 65])
    def test_mixed_shift_block_matches_reference(self, n):
        # every row its own spectrum and shift: negative, zero and the
        # largest in-band shifts either way
        shifts = [-(n - 1) // 2, -5, 0, 3, (n - 1) // 2]
        window = (WindowKind.HAMMING, 7)
        buffers = [white_buffer(n, seed=40 + i, rate=float(n)) for i in range(len(shifts))]
        spectra = np.array([dft(buf) for buf in buffers])
        work = served(len(shifts), n, float(n), *window)
        values = smoothed_slices(spectra, shifts, work)
        for row, buf, shift in zip(values, buffers, shifts):
            slow = scd_slice_naive(buf, 2.0 * shift, *window)
            assert rel_err(np.fft.ifftshift(row), slow) < 1e-9

    @pytest.mark.parametrize("n", [64, 65])
    def test_every_size_class_matches_reference(self, n):
        # a work served at each power of two that some shift needs, on that class's
        # smallest and largest shifts: the returned column j is fftshifted bin
        # held.start - (L//2 - band) + j, near the oracle, whose other bins are exact zeros
        window = (WindowKind.HAMMING, 7)
        buf = white_buffer(n, seed=n, rate=float(n))
        work = SliceWork(n, float(n), *window)
        everything = range(work.max_shift + 1)
        for nfft in sorted({work.nfft(shift) for shift in everything}):
            members = [shift for shift in everything if work.nfft(shift) == nfft]
            work.serve(2, nfft)
            shifts = [-members[0], members[-1]]
            values = smoothed_slices(dft(buf), shifts, work)
            width = values.shape[1]
            assert width == n if work.band == 0 else width <= nfft
            start = work.held.start - (window[1] // 2 - work.band)
            for row, shift in zip(values, shifts):
                slow = np.fft.fftshift(scd_slice_naive(buf, 2.0 * shift, *window))
                assert not slow[:start].any() and not slow[start + width:].any()
                assert rel_err(row, slow[start:start + width]) < 1e-9

    @pytest.mark.parametrize("alpha", [2e6, -2e6, 0.0])
    @pytest.mark.parametrize("source", ["noise", "am"])
    def test_reference_size_matches_definition(self, source, alpha):
        # N = 4096, L = 1301 at 3 MHz, a = +-1365 or 0: beyond scd_slice_naive's
        # reach, so about 20 output bins are summed term by term instead
        n, rate = 4096, 3e6
        buf = white_buffer(n, seed=8, rate=rate)
        if source == "am":
            am = generate_signal(ModulationSpec(ModulationKind.AM, 1e6, 10e3), n, rate, seed=8)
            buf = add_awgn(am, 0.0, 9)
        window = (WindowKind.HAMMING, 1301)
        # DC, both edges of the nonzero region at |a| = 1365, the band's ends
        signed = [0, 1333, 1334, -1333, -1334, -2048, 2047]
        signed += list(np.random.default_rng(10).integers(-2048, 2048, 13))
        out_bins = np.array(signed) % n
        values = scd_slice(buf, alpha, *window)
        want = scd_bins_direct(buf, alpha, *window, out_bins)
        assert np.max(np.abs(values[out_bins] - want)) <= 1e-9 * np.max(np.abs(values))

    @pytest.mark.parametrize("shift", [1365, -1365])
    def test_slice_is_one_kernel_row(self, shift):
        # scd_slice is the shared kernel's row at the reference size, in DFT
        # order, bit for bit, and read-only
        n, rate = 4096, 3e6
        am = generate_signal(ModulationSpec(ModulationKind.AM, 1e6, 10e3), n, rate, seed=3)
        buf = add_awgn(am, -22.0, 4)
        window = (WindowKind.HAMMING, 1301)
        work = served(1, n, rate, *window)
        alpha = 2.0 * shift * work.bin_width
        assert work.shift(alpha) == shift
        piece = scd_slice(buf, alpha, *window)
        want = np.fft.ifftshift(smoothed_slices(dft(buf), [shift], work)[0])
        assert piece.shape == (n,) and piece.dtype == np.complex128
        assert piece.tobytes() == want.tobytes()
        assert not piece.flags.writeable

    def test_reciprocal_scaling_matches_division(self):
        # the kernel scales by a multiply with 1/L, as numpy's complex division
        # by L + 0j does; if a numpy release divides otherwise, this fails
        # rather than a golden moving. Only a zero component's sign may differ.
        rng = np.random.default_rng(12)
        for length in range(1, 4098, 2):
            parts = np.ldexp(rng.normal(size=(2, 64)), rng.integers(-1074, 1020, (2, 64)))
            parts[:, :4] = [[0.0, -0.0, 0.0, -0.0], [0.0, 0.0, -0.0, -0.0]]
            block = np.empty(64, dtype=np.complex128)
            block.real, block.imag = parts
            got = np.multiply(block, 1.0 / length)
            want = np.divide(block, length)
            assert np.array_equal(got, want)
            got, want = got.view(np.float64), want.view(np.float64)
            assert np.array_equal(got[want != 0], want[want != 0])

    @pytest.mark.parametrize("alphas", [
        [30.0, -2.0, 0.0, 30.0, 94.0, -94.0, 12.0, -2.0, 4.0, 62.0, -30.0],
        [94.0, 92.0, -90.0, 88.0, 94.0],
        [-62.0, 2.0, 62.0, 0.0, 2.0, 44.0, 80.0]],
        ids=["mixed", "one_class", "classes_out_of_order"])
    def test_profile_equals_per_alpha_slices(self, alphas):
        # unsorted, with repeats, and not a whole number of blocks: a row's bits
        # depend on its |shift| alone, never on the other alphas of a request
        buf = white_buffer(96, seed=5, rate=96.0)
        window = (WindowKind.HAMMING, 9)
        assert len(alphas) % BLOCK_ROWS
        magnitudes = cycle_profile(buf, alphas, *window)
        alone = [cycle_profile(buf, [alpha], *window)[0] for alpha in alphas]
        assert magnitudes.tobytes() == np.array(alone).tobytes()
        sliced = [np.abs(scd_slice(buf, alpha, *window)).max() for alpha in alphas]
        assert rel_err(magnitudes, sliced) <= 1e-12


@st.composite
def mirror_grids(draw):
    """A strided grid of shifts on an odd or even n, unsorted, with repeats."""
    n = draw(st.integers(min_value=4, max_value=24))
    length = draw(st.sampled_from([1, 3, 5, 7]).filter(lambda length: length < n))
    kind = draw(st.sampled_from(list(WindowKind)))
    top = draw(st.integers(min_value=0, max_value=(n - 1) // 2))
    stride = draw(st.integers(min_value=1, max_value=3))
    grid = list(range(-top, top + 1, stride))
    shifts = draw(st.permutations(grid + draw(st.lists(st.sampled_from(grid), max_size=4))))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, length, kind, shifts, seed


class TestProfileMirror:
    """S^-a = conj(S^a) exactly, so cycle_profile computes each |a| once."""

    @settings(max_examples=30, deadline=None)
    @given(mirror_grids())
    def test_bitwise_mirror_symmetric_and_near_the_oracle(self, case):
        n, length, kind, shifts, seed = case
        buf = white_buffer(n, seed=seed, rate=float(n))
        window = (kind, length)
        alphas = 2.0 * np.array(shifts, dtype=np.float64)
        magnitudes = cycle_profile(buf, alphas, *window)
        mirrored = cycle_profile(buf, -alphas, *window)
        assert magnitudes.tobytes() == mirrored.tobytes()
        for alpha, got in zip(alphas, magnitudes):
            want = np.abs(scd_slice_naive(buf, alpha, *window)).max()
            assert abs(got - want) <= 1e-9 * want

    @pytest.mark.parametrize("n, length", [(32, 7), (33, 5), (64, 1)])
    def test_negated_alpha_is_the_bitwise_conjugate(self, n, length):
        buf = white_buffer(n, seed=n, rate=float(n))
        window = (WindowKind.HAMMING, length)
        for shift in range(1, (n - 1) // 2 + 1):
            plus = scd_slice(buf, 2.0 * shift, *window)
            minus = scd_slice(buf, -2.0 * shift, *window)
            assert minus.tobytes() == np.conj(plus).tobytes()

    def test_full_grid_sends_each_shift_through_the_kernel_once(self, monkeypatch):
        # the profile command's default grid at N = 4096: shifts -2047 .. 2047
        n = 4096
        blocks = []
        kernel = scd.smoothed_slices

        def spy(spectra, shifts, work):
            blocks.append(list(shifts))
            return kernel(spectra, shifts, work)

        monkeypatch.setattr(scd, "smoothed_slices", spy)
        window = (WindowKind.RECTANGULAR, 3)
        alphas = SliceWork(n, float(n), *window).grid()
        assert alphas.tobytes() == (2.0 * np.arange(-2047, 2048)).tobytes()
        cycle_profile(white_buffer(n, seed=1, rate=float(n)), alphas, *window)
        rows = [shift for block in blocks for shift in block]
        assert len(rows) == 2048
        assert sorted(rows) == list(range(2048))
        assert max(map(len, blocks)) == BLOCK_ROWS


class TestSliceValues:
    def test_zero_signal_gives_zero_slice(self):
        buf = SampleBuffer(np.zeros(32), 32.0)
        piece = scd_slice(buf, 4.0, WindowKind.HAMMING, 5)
        assert np.all(piece == 0.0)

    def test_tone_feature_lands_at_dc_bin(self):
        # single line at bin +-4: the correlation at alpha = 2 * tone freq
        # pairs X<4> with X<-4> at slice index 0 and nowhere else
        n = 16
        buf = cosine_buffer(n, cycles=4)
        window = (WindowKind.RECTANGULAR, 1)
        piece = scd_slice(buf, 8.0, *window)
        scale = 16.0 / 15.0
        assert SliceWork(n, 16.0, *window).scale == pytest.approx(scale, rel=1e-15)
        want_peak = scale * (n / 2) ** 2
        assert abs(piece[0] - want_peak) < 1e-9 * want_peak
        rest = np.abs(piece[1:])
        assert np.all(rest < 1e-9 * want_peak)

    def test_alpha_zero_is_smoothed_periodogram(self):
        buf = white_buffer(64, seed=5, rate=64.0)
        window = (WindowKind.RECTANGULAR, 1)
        piece = scd_slice(buf, 0.0, *window)
        want = SliceWork(64, 64.0, *window).scale * np.abs(np.fft.fft(buf.samples)) ** 2
        assert rel_err(piece, want) < 1e-12
        assert float(np.max(np.abs(piece.imag))) < 1e-12 * float(np.max(piece.real))

    def test_input_scaling_is_exactly_quadratic(self):
        # doubling the samples multiplies every value by exactly 4.0:
        # power-of-two scaling commutes with each FFT rounding step
        buf = white_buffer(64, seed=9, rate=64.0)
        doubled = SampleBuffer(2.0 * buf.samples, 64.0)
        window = (WindowKind.HAMMING, 5)
        one = scd_slice(buf, 6.0, *window)
        four = scd_slice(doubled, 6.0, *window)
        assert np.array_equal(four, 4.0 * one)

    def test_negated_alpha_conjugates_the_slice(self):
        buf = white_buffer(32, seed=3, rate=32.0)
        window = (WindowKind.HAMMING, 7)
        plus = scd_slice(buf, 10.0, *window)
        minus = scd_slice(buf, -10.0, *window)
        assert rel_err(minus, np.conj(plus)) < 1e-12

    def test_shift_beyond_band_overlap_gives_zeros(self):
        # bins +-shift only overlap the band for |shift| <= (n-1)/2;
        # beyond that every product term is out of band: the oracle still
        # returns zeros there, and the fast path refuses the shift
        buf = white_buffer(16, seed=4, rate=16.0)
        window = (WindowKind.RECTANGULAR, 3)
        assert np.all(scd_slice_naive(buf, 30.0, *window) == 0.0)
        with pytest.raises(ConfigurationError, match="cycle frequency"):
            scd_slice(buf, 30.0, *window)

    def test_window_kind_changes_values(self):
        buf = white_buffer(64, seed=2, rate=64.0)
        ham = scd_slice(buf, 6.0, WindowKind.HAMMING, 9)
        rect = scd_slice(buf, 6.0, WindowKind.RECTANGULAR, 9)
        assert not np.array_equal(ham, rect)

    def test_window_must_fit_transform(self):
        buf = white_buffer(8, seed=0)
        window = (WindowKind.RECTANGULAR, 9)
        with pytest.raises(ConfigurationError):
            scd_slice(buf, 0.0, *window)
        with pytest.raises(ConfigurationError):
            scd_slice_naive(buf, 0.0, *window)

    def test_bad_sample_period(self):
        # at 1e-308 Hz, (n-1) Ts overflows to inf and 1 / ((n-1) Ts) is 0
        buf = white_buffer(8, seed=0, rate=1e-308)
        with pytest.raises(ConfigurationError, match="slice scale"):
            scd_slice(buf, 0.0, WindowKind.RECTANGULAR, 1)

    def test_slice_metadata(self):
        buf = white_buffer(32, seed=1, rate=32.0)
        window = (WindowKind.HAMMING, 3)
        piece = scd_slice(buf, 6.0, *window)
        assert piece.shape == (32,) and piece.dtype == np.complex128
        work = SliceWork(32, 32.0, *window)
        assert 2.0 * work.shift(6.0) * work.bin_width == 6.0
        assert work.scale == pytest.approx(32.0 / 31.0, rel=1e-15)
        with pytest.raises(ValueError):
            piece[0] = 0.0


class TestCycleProfile:
    def test_tone_argmax_is_grid_exact(self):
        # alpha = 0 always carries the (stationary) periodogram peak, so
        # feature location is defined as the argmax over alpha > 0
        n = 256
        buf = cosine_buffer(n, cycles=32)
        alphas = np.arange(-120.0, 121.0, 8.0)
        magnitudes = cycle_profile(buf, alphas, WindowKind.HAMMING, 5)
        positive = alphas > 0.0
        best = np.argmax(magnitudes[positive])
        assert alphas[positive][best] == 64.0

    def test_off_feature_alphas_are_suppressed(self):
        n = 256
        buf = cosine_buffer(n, cycles=32)
        alphas = np.arange(8.0, 120.0, 8.0)
        magnitudes = cycle_profile(buf, alphas, WindowKind.HAMMING, 5)
        peak = magnitudes[alphas == 64.0][0]
        off = magnitudes[alphas != 64.0]
        assert np.all(off < 1e-6 * peak)

    def test_symmetric_in_alpha(self):
        buf = white_buffer(128, seed=12, rate=128.0)
        alphas = np.array([-40.0, -16.0, 16.0, 40.0])
        magnitudes = cycle_profile(buf, alphas, WindowKind.HAMMING, 9)
        assert magnitudes[2] == pytest.approx(magnitudes[1], rel=1e-12)
        assert magnitudes[3] == pytest.approx(magnitudes[0], rel=1e-12)

    def test_alpha_must_stay_inside_twice_nyquist(self):
        # at n = fs = 32, 31.9 Hz is a shift of 16 = n/2 bins, one past (n-1)//2
        buf = white_buffer(32, seed=0, rate=32.0)
        window = (WindowKind.RECTANGULAR, 3)
        for alpha in (32.0, 31.9, -31.9):
            with pytest.raises(ConfigurationError, match="cycle frequency"):
                cycle_profile(buf, [0.0, alpha], *window)
        cycle_profile(buf, [29.9, -29.9], *window)

    def test_read_only_float64_in_the_order_of_alphas(self):
        buf = white_buffer(64, seed=3, rate=64.0)
        window = (WindowKind.HAMMING, 5)
        alphas = [12, -4, 0]
        magnitudes = cycle_profile(buf, alphas, *window)
        assert (magnitudes.dtype, magnitudes.shape) == (np.float64, (3,))
        assert not magnitudes.flags.writeable
        for alpha, got in zip(alphas, magnitudes):
            assert got == cycle_profile(buf, [alpha], *window)[0]
            assert got == pytest.approx(np.abs(scd_slice(buf, alpha, *window)).max(),
                                        rel=1e-12)

    @pytest.mark.parametrize("amplitude", [1e160, 1e300])
    def test_overflow_refused(self, amplitude):
        # |X|^2 of 64 samples of 1e160 or more exceeds the float range
        buf = SampleBuffer(np.full(64, amplitude), 64.0)
        with pytest.raises(ConfigurationError, match="the spectral correlation overflowed$"):
            cycle_profile(buf, [0.0, 2.0], WindowKind.HAMMING, 5)

    def test_empty_grid_rejected(self):
        buf = white_buffer(32, seed=0, rate=32.0)
        with pytest.raises(ConfigurationError):
            cycle_profile(buf, [], WindowKind.RECTANGULAR, 3)

    def test_zero_scale_rejected(self):
        # at 1e-305 Hz, (n-1) Ts overflows to inf and 1 / ((n-1) Ts) is 0:
        # every magnitude would read 0
        buf = white_buffer(4096, seed=0, rate=1e-305)
        with pytest.raises(ConfigurationError, match="scale"):
            cycle_profile(buf, [0.0], WindowKind.RECTANGULAR, 31)


class TestBandSizedProfile:
    """cycle_profile runs each size class of its shifts with a work of that size.  At
    N = 4096, L = 1301 a row at |a| has a linear convolution of 4096 - 2|a| + 1300 points,
    but its n bins need only 4096 + 650 = 4746 circular columns: what spills past the end
    wraps left of them.  So 4800, the 5-smooth cap in place of nfft 8192, serves
    |a| <= 649, 4096 serves 650 .. 1673 and 2048 serves 1674 .. 2047.  scd_slice and the
    trial engine keep 8192 points, so every profile row lies within 1e-12 of scd_slice's
    peak, not on its bits."""

    N, RATE, WINDOW = 4096, 3e6, (WindowKind.HAMMING, 1301)
    BOUNDARIES = [649, 650, 1673, 1674]

    @pytest.fixture(scope="class")
    def profile(self):
        am = generate_signal(ModulationSpec(ModulationKind.AM, 1e6, 10e3), self.N, self.RATE,
                             seed=11)
        buf = add_awgn(am, 0.0, 12)
        alphas = SliceWork(self.N, self.RATE, *self.WINDOW).grid()
        return buf, alphas, cycle_profile(buf, alphas, *self.WINDOW)

    def test_size_classes(self, monkeypatch):
        sizes = {}
        kernel = scd.smoothed_slices

        def spy(spectra, shifts, work):
            sizes.update(dict.fromkeys(shifts, work.products.shape[1]))
            return kernel(spectra, shifts, work)

        monkeypatch.setattr(scd, "smoothed_slices", spy)
        shifts = [0, *self.BOUNDARIES, 2047]
        buf = white_buffer(self.N, seed=37, rate=self.RATE)
        cycle_profile(buf, [2.0 * shift * self.RATE / self.N for shift in shifts], *self.WINDOW)
        assert [sizes[shift] for shift in shifts] == [4800, 4800, 4096, 4096, 2048, 2048]
        work = served(1, self.N, self.RATE, *self.WINDOW)
        assert [work.nfft(shift) for shift in shifts] == [8192, 8192, 4096, 4096, 2048, 2048]
        # scd_slice's work and the trial engine's are served at the power of two
        engine, _ = harness._cycle_work(SensingConfig())
        engine.serve(1, engine.nfft(0))
        assert work.products.shape == engine.products.shape == (1, 8192)
        # one column below n + L//2 = 4746, a row at |a| = 0 would spill onto bin 0
        for nfft, band in [(4800, 0), (4746, 0), (4745, 1), (4096, 650), (2048, 1674)]:
            work.serve(1, nfft)
            assert (work.band, work.products.shape) == (band, (1, nfft))

    def test_full_grid_serves_and_transforms_only_its_classes(self, monkeypatch):
        # the grid allocates no buffer and computes no transform; the profile serves each
        # class once and computes its three transforms, never the engine's 8192 points
        scd._window_transform.cache_clear()
        grid = SliceWork(self.N, self.RATE, *self.WINDOW)
        assert not hasattr(grid, "products")
        assert scd._window_transform.cache_info().currsize == 0
        calls = []
        serve = SliceWork.serve

        def spy(work, rows, nfft):
            calls.append((rows, nfft))
            return serve(work, rows, nfft)

        monkeypatch.setattr(SliceWork, "serve", spy)
        cycle_profile(white_buffer(self.N, seed=38, rate=self.RATE), grid.grid(), *self.WINDOW)
        assert calls == [(BLOCK_ROWS, 4800), (BLOCK_ROWS, 4096), (BLOCK_ROWS, 2048)]
        info = scd._window_transform.cache_info()
        assert (info.currsize, info.misses) == (3, 3)
        for nfft in (2048, 4096, 4800):
            scd._window_transform(*self.WINDOW, nfft)
        assert scd._window_transform.cache_info().misses == 3

    @pytest.mark.parametrize("shift", [0, 1, 400, 648, -649, 1365, 2047, *BOUNDARIES])
    def test_peaks_near_the_slice(self, profile, shift):
        buf, alphas, magnitudes = profile
        for signed in (shift, -shift):
            want = np.abs(scd_slice(buf, alphas[signed + 2047], *self.WINDOW)).max()
            assert abs(magnitudes[signed + 2047] - want) <= 1e-12 * want

    def test_second_profile_computes_no_transform(self, profile):
        # every size class of one window fits the transform cache
        buf, alphas, magnitudes = profile
        cycle_profile(buf, alphas, *self.WINDOW)
        misses = scd._window_transform.cache_info().misses
        again = cycle_profile(buf, alphas, *self.WINDOW)
        assert scd._window_transform.cache_info().misses == misses
        assert again.tobytes() == magnitudes.tobytes()

    def test_second_profile_computes_no_transform_at_17_classes(self):
        # N = 2**17, L = 3, one alpha per size class: the 17 classes, 2**17 down to 4 and
        # the cap 131220 = 2**2 * 3**8 * 5 >= n + L//2, fit the transform cache too
        n, window = 2 ** 17, (WindowKind.HAMMING, 3)
        buf = white_buffer(n, seed=17, rate=float(n))
        work = SliceWork(n, float(n), *window)
        classes = {profile_size(work, shift): shift for shift in range(work.max_shift + 1)}
        assert sorted(classes) == [*(2 ** k for k in range(2, 18)), 131220]
        alphas = [2.0 * shift * work.bin_width for shift in classes.values()]
        magnitudes = cycle_profile(buf, alphas, *window)
        misses = scd._window_transform.cache_info().misses
        again = cycle_profile(buf, alphas, *window)
        assert scd._window_transform.cache_info().misses == misses
        assert again.tobytes() == magnitudes.tobytes()


def is_5_smooth(size):
    for prime in (2, 3, 5):
        while size % prime == 0:
            size //= prime
    return size == 1


def profile_size(work, shift):
    # the size class cycle_profile runs a shift in
    return min(work.nfft(shift), scd._profile_cap(work.n + work.weights.size // 2))


class TestSizeRule:
    """SliceWork.nfft(a) is the power of two that holds a row's linear convolution,
    N - 2|a| + L - 1 points.  profile runs a row at the smaller of that and the cap: the
    smallest 5-smooth size that holds every row's n bins and their left neighbours, N + L//2
    circular columns, if at most 7/8 of its power of two (nearer, the measured FFT pair can
    cost more).  So its size never grows with |a|."""

    @pytest.mark.parametrize("n, kind, length", [
        (64, WindowKind.HAMMING, 5), (65, WindowKind.HAMMING, 7),
        (4096, WindowKind.HAMMING, 1301), (2 ** 17, WindowKind.HAMMING, 3),
        # n + L//2 - 1 = 1024 is 5-smooth, the cap n + L//2 = 1025 is not: it rounds to 1080
        (1013, WindowKind.RECTANGULAR, 25),
        # n + L//2 = 4001, 3841, 3601: 4050, 3888 and 3645 lie above 7/8 of 4096
        (3501, WindowKind.RECTANGULAR, 1001), (3501, WindowKind.HAMMING, 681),
        (3501, WindowKind.HAMMING, 201)])
    def test_sizes(self, n, kind, length):
        work = SliceWork(n, float(n), kind, length)
        sizes = [profile_size(work, shift) for shift in range(work.max_shift + 1)]
        for shift, size in enumerate(sizes):
            need = n - 2 * shift + length - 1
            assert work.nfft(shift) == work.nfft(-shift) == 1 << (need - 1).bit_length()
            assert min(need, n + length // 2) <= size <= work.nfft(shift)
            assert profile_size(work, -shift) == size
        assert all(map(is_5_smooth, set(sizes)))
        assert sizes == sorted(sizes, reverse=True)
        smooth = n + length // 2
        while not is_5_smooth(smooth):
            smooth += 1
        power = 1 << (n + length // 2 - 1).bit_length()
        assert sizes[0] == (smooth if smooth <= 7 / 8 * power else power)


class TestBandRule:
    """SliceWork.serve holds a row's n bins at band max(0, min((N + L - nfft)//2,
    N + L//2 - nfft)): at band 0 a row's products fill columns [|a|, N - |a|) and its
    circular convolution's spill past nfft lands in columns <= L//2 - 1 - |a|, left of its
    bins at L//2 .. L//2 + N - 1.  So every full-grid profile value lies within 1e-12 of
    max |scd_slice| at its alpha, whose rows at nfft(0) see no wrap at all."""

    @pytest.mark.parametrize("n, kind, length", [
        (64, WindowKind.HAMMING, 1), (65, WindowKind.RECTANGULAR, 1),
        (64, WindowKind.RECTANGULAR, 3), (65, WindowKind.HAMMING, 3),
        (64, WindowKind.HAMMING, 5), (65, WindowKind.RECTANGULAR, 5),
        # the cap is N + L//2 itself: at |a| = 0 the spill reaches column L//2 - 1
        (250, WindowKind.HAMMING, 101), (85, WindowKind.HAMMING, 11),
        (251, WindowKind.RECTANGULAR, 101),
        # the 1024 class: band 1 = N + L//2 - 1024, below (N + L - 1024)//2 = 7
        (1013, WindowKind.RECTANGULAR, 25),
        # the cap is a power of two below nfft(0): 4096 against 8192
        (3500, WindowKind.HAMMING, 1001),
        # the 7/8 rule keeps the power of two: 3600 > 7/8 of 4096 = nfft(0)
        (3001, WindowKind.RECTANGULAR, 1001)])
    def test_full_grid_near_the_slice(self, n, kind, length):
        buf = white_buffer(n, seed=n + length, rate=float(n))
        work = SliceWork(n, float(n), kind, length)
        alphas = work.grid()
        magnitudes = cycle_profile(buf, alphas, kind, length)
        for shift in range(work.max_shift + 1):
            want = np.abs(scd_slice(buf, alphas[work.max_shift + shift], kind, length)).max()
            for signed in (shift, -shift):
                got = magnitudes[work.max_shift + signed]
                assert abs(got - want) <= 1e-12 * want, (signed, got, want)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault budget follows glibc's dynamic mmap threshold")
class TestFirstCallFaults:
    """The first kernel call of a process faults about as few pages as later ones.

    glibc maps a block at or above its mmap threshold fresh, and raises the
    threshold only when it frees such a block (mallopt(3)).  numpy's batched
    FFT of a 4-row block at nfft 8192 takes ~390 KB of scratch, so until the
    first big block is freed every FFT faults ~97 pages back in.  SliceWork.serve
    frees one untouched products-sized block before it allocates the products.
    Heap history belongs to the process, so each call runs first in a fresh
    interpreter.  Minor faults counted around the call (2-vCPU Xeon, Python
    3.11.7, numpy 2.4.6), without the freed block / with it: the full reference
    profile 24 515 / 314, and a 300-trial cycle calibration 15 049 / 696.  The
    profile's first serve, at 4800 points, is its first mapped block, so it
    needs the freed block as much as the engine does.
    """

    BUDGET = 3000
    CALLS = {
        "profile": "from cyclosense import cycle_profile, WindowKind\n"
                   "from cyclosense.siggen import noise_only\n"
                   "import numpy as np\n"
                   "signal = noise_only(4096, 1.0, 7, 3e6)\n"
                   "alphas = np.arange(-2047, 2048) * (2 * 3e6 / 4096)\n"
                   "call = lambda: cycle_profile(signal, alphas, WindowKind.HAMMING, 1301)\n",
        "calibration": "from cyclosense import DetectorKind, SensingConfig\n"
                       "from cyclosense.harness import calibrate_at_noise\n"
                       "config = SensingConfig(calibration_trials=300,\n"
                       "                       detectors=(DetectorKind.CYCLE_FEATURE,))\n"
                       "call = lambda: calibrate_at_noise(config, 0.1, 1.0)\n",
    }
    MEASURE = ("import resource\n"
               "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
               "call()\n"
               "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")

    @pytest.mark.parametrize("name", list(CALLS))
    def test_first_call_within_budget(self, name):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(scd.__file__)))
        result = subprocess.run([sys.executable, "-c", self.CALLS[name] + self.MEASURE],
                                env=env, capture_output=True, text=True, check=True)
        assert int(result.stdout) < self.BUDGET


class TestSliceScale:
    """SliceWork refuses a scale 1 / ((n-1) Ts), Ts = 1 / rate, that is not
    positive and finite, after the buffer rule on n and the rate and after the
    bin width rate / n."""

    RATE = "sample_rate_hz must be positive and finite"

    @pytest.mark.parametrize("n, rate, message", [
        # no positive, finite scale here either, but the buffer rule comes first
        (4096, -1.0, RATE), (4096, math.nan, RATE), (4096, math.inf, RATE),
        (4096, 0.0, RATE), (4096, -0.0, RATE),
        (0, 3e6, "n_samples must be a positive integer"),
        (2.5, 3e6, "n_samples must be a positive integer"),
        (4096, 1e-305, "slice scale"),
        # the bin width rate / 4096 is 0, and that rule is checked before the scale
        (4096, 5e-324, "bin width")])
    def test_refused(self, n, rate, message):
        with pytest.raises(ConfigurationError, match=message):
            SliceWork(n, rate, WindowKind.RECTANGULAR, 1)

    @pytest.mark.parametrize("rate", [3e6, 1e-300, 1e300])
    def test_representable_scale_kept(self, rate):
        work = SliceWork(4096, rate, WindowKind.RECTANGULAR, 1)
        assert work.scale == 1.0 / (4095 * (1.0 / rate))

    def test_refused_before_the_shift(self):
        # 2 MHz at 1e-305 Hz is a shift of inf bins, and the scale is 0: the
        # scale's refusal comes first on every path
        buf = white_buffer(4096, seed=0, rate=1e-305)
        window = (WindowKind.RECTANGULAR, 31)
        for call in (lambda: scd_slice(buf, 2e6, *window),
                     lambda: cycle_profile(buf, [2e6], *window)):
            with pytest.raises(ConfigurationError, match="slice scale"):
                call()


class TestProfileCsv:
    def test_format_and_full_precision(self):
        out = io.StringIO()
        write_profile_csv(np.array([0.0, 0.1]), np.array([1.5, 2.0 / 3.0]), out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "alpha_hz,i_alpha"
        assert lines[1] == "0.0,1.5"
        assert lines[2] == f"{0.1!r},{2.0 / 3.0!r}"

    def test_round_trip_precision(self):
        rng = np.random.default_rng(6)
        alphas, magnitudes = rng.normal(size=5), np.abs(rng.normal(size=5))
        out = io.StringIO()
        write_profile_csv(alphas, magnitudes, out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        back_alpha = np.array([float(a) for a, _ in rows])
        back_mag = np.array([float(m) for _, m in rows])
        assert np.array_equal(back_alpha, alphas)
        assert np.array_equal(back_mag, magnitudes)

    @pytest.mark.parametrize("alphas, magnitudes", [
        (np.zeros(3), np.zeros(2)),
        (np.zeros(2), np.zeros(3)),
        (np.zeros((2, 2)), np.zeros((2, 2))),
        (np.zeros(2), np.zeros((2, 1))),
        (0.0, 1.0),
    ], ids=["short_magnitudes", "short_alphas", "2d", "2d_magnitudes", "scalars"])
    @pytest.mark.parametrize("target", ["path", "stream"])
    def test_refused_before_writing(self, alphas, magnitudes, target, tmp_path):
        path = tmp_path / "profile.csv"
        stream = io.StringIO()
        with pytest.raises(ConfigurationError,
                           match="^profile arrays must be 1-D and equally long$"):
            write_profile_csv(alphas, magnitudes, path if target == "path" else stream)
        assert not path.exists()
        assert stream.getvalue() == ""
