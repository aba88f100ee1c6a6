"""Spectral correlation estimator tests.

scd_slice_naive is the reference implementation: the same definition
evaluated with explicit per-term loops over the direct O(N^2) transform.
The FFT-based fast path must agree with it to near machine precision for
every (N, L, shift) combination tried here.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclosense import (ConfigurationError, CycleProfile, SampleBuffer,
                        ScdSlice, SmoothingWindow, Spectrum, WindowKind,
                        cycle_profile, dft, make_window, scd_slice,
                        write_profile_csv)
from cyclosense.scd import BLOCK_ROWS, SliceWork, smoothed_slices
from oracles import dft_naive, scd_slice_naive


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


class TestDft:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12, 16, 33, 64])
    def test_naive_matches_fft(self, n):
        buf = white_buffer(n, seed=n)
        assert rel_err(dft_naive(buf).bins, dft(buf).bins) < 1e-9

    def test_impulse_is_flat(self):
        x = np.zeros(16)
        x[0] = 1.0
        bins = dft_naive(SampleBuffer(x, 1.0)).bins
        assert rel_err(bins, np.ones(16)) < 1e-12

    def test_cosine_line_placement(self):
        n = 64
        bins = dft(cosine_buffer(n, cycles=5)).bins
        assert abs(bins[5] - n / 2) < 1e-9
        assert abs(bins[n - 5] - n / 2) < 1e-9

    def test_linearity_of_naive(self):
        x = white_buffer(12, seed=1)
        y = white_buffer(12, seed=2)
        combo = SampleBuffer(3.0 * x.samples - 0.5 * y.samples, 1.0)
        want = 3.0 * dft_naive(x).bins - 0.5 * dft_naive(y).bins
        assert rel_err(dft_naive(combo).bins, want) < 1e-9

    @pytest.mark.parametrize("n", [4, 10, 64, 257])
    def test_parseval(self, n):
        buf = white_buffer(n, seed=100 + n)
        bins = dft(buf).bins
        lhs = float(np.sum(np.abs(bins) ** 2))
        rhs = n * float(np.sum(buf.samples ** 2))
        assert abs(lhs - rhs) <= 1e-9 * rhs

    def test_frequency_resolution(self):
        buf = white_buffer(32, seed=0, rate=3e6)
        assert dft(buf).freq_resolution_hz == 3e6 / 32


class TestMakeWindow:
    def test_rectangular_is_ones(self):
        w = make_window(WindowKind.RECTANGULAR, 7)
        assert np.array_equal(w.weights, np.ones(7))

    def test_length_one_is_unity_for_both_kinds(self):
        for kind in WindowKind:
            w = make_window(kind, 1)
            assert np.array_equal(w.weights, np.array([1.0]))

    def test_hamming_exactly_symmetric(self):
        w = make_window(WindowKind.HAMMING, 1301)
        assert np.array_equal(w.weights, w.weights[::-1])

    def test_hamming_unit_mean(self):
        w = make_window(WindowKind.HAMMING, 31)
        assert abs(float(np.mean(w.weights)) - 1.0) <= 1e-12

    def test_hamming_shape(self):
        w = make_window(WindowKind.HAMMING, 31)
        assert np.argmax(w.weights) == 15
        assert np.all(w.weights > 0.0)
        assert w.weights[0] < w.weights[15]

    def test_half_and_length(self):
        w = make_window(WindowKind.HAMMING, 31)
        assert w.length == 31
        assert w.half == 15

    def test_even_length_suggests_neighbors(self):
        with pytest.raises(ConfigurationError, match="1299 or 1301"):
            make_window(WindowKind.HAMMING, 1300)

    def test_bad_lengths(self):
        for bad in (0, -3, 2.0):
            with pytest.raises(ConfigurationError):
                make_window(WindowKind.HAMMING, bad)


class TestSmoothingWindowType:
    def test_asymmetric_rejected(self):
        with pytest.raises(ConfigurationError):
            SmoothingWindow(np.array([0.5, 1.0, 1.5]), WindowKind.HAMMING)

    def test_even_length_rejected(self):
        with pytest.raises(ConfigurationError):
            SmoothingWindow(np.array([1.0, 1.0]), WindowKind.RECTANGULAR)

    def test_wrong_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            SmoothingWindow(np.array([2.0, 2.0, 2.0]), WindowKind.RECTANGULAR)


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
        window = make_window(kind, length)
        alpha = 2.0 * shift * (buf.sample_rate_hz / n)
        fast = scd_slice(dft(buf), alpha, window, 1.0 / buf.sample_rate_hz)
        slow = scd_slice_naive(buf, alpha, window)
        assert rel_err(fast.values, slow.values) < 1e-9
        assert fast.alpha_effective_hz == slow.alpha_effective_hz
        assert fast.scale == slow.scale

    def test_reference_and_fast_quantize_ties_to_even(self):
        buf = white_buffer(16, seed=7, rate=16.0)
        window = make_window(WindowKind.RECTANGULAR, 3)
        # resolution is 1 Hz, so the half-bin boundary sits at odd alphas
        for alpha, effective in [(1.0, 0.0), (3.0, 4.0), (-1.0, 0.0), (-3.0, -4.0)]:
            fast = scd_slice(dft(buf), alpha, window, 1.0 / 16.0)
            slow = scd_slice_naive(buf, alpha, window)
            assert fast.alpha_effective_hz == effective
            assert slow.alpha_effective_hz == effective
            assert fast.alpha_requested_hz == alpha


class TestBlockKernel:
    @pytest.mark.parametrize("n", [64, 65])
    def test_mixed_shift_block_matches_reference(self, n):
        # every row its own spectrum and shift: negative, zero and the
        # largest in-band shifts either way
        shifts = [-(n - 1) // 2, -5, 0, 3, (n - 1) // 2]
        window = make_window(WindowKind.HAMMING, 7)
        buffers = [white_buffer(n, seed=40 + i, rate=float(n)) for i in range(len(shifts))]
        spectra = np.array([dft(buf).bins for buf in buffers])
        work = SliceWork(len(shifts), n, window, 1.0 / n)
        values = smoothed_slices(spectra, shifts, work)
        for row, buf, shift in zip(values, buffers, shifts):
            slow = scd_slice_naive(buf, 2.0 * shift, window)
            assert rel_err(np.fft.ifftshift(row), slow.values) < 1e-9

    def test_profile_equals_per_alpha_slices(self):
        # unsorted, with repeats, and not a whole number of blocks
        buf = white_buffer(96, seed=5, rate=96.0)
        window = make_window(WindowKind.HAMMING, 9)
        alphas = [30.0, -2.0, 0.0, 30.0, 94.0, -94.0, 12.0, -2.0, 4.0, 62.0, -30.0]
        assert len(alphas) % BLOCK_ROWS
        profile = cycle_profile(buf, alphas, window)
        spectrum = dft(buf)
        expected = [np.abs(scd_slice(spectrum, alpha, window, 1.0 / 96.0).values).max()
                    for alpha in alphas]
        assert np.array_equal(profile.magnitudes, expected)


class TestSliceValues:
    def test_zero_signal_gives_zero_slice(self):
        buf = SampleBuffer(np.zeros(32), 32.0)
        piece = scd_slice(dft(buf), 4.0, make_window(WindowKind.HAMMING, 5), 1.0 / 32.0)
        assert np.all(piece.values == 0.0)

    def test_tone_feature_lands_at_dc_bin(self):
        # single line at bin +-4: the correlation at alpha = 2 * tone freq
        # pairs X<4> with X<-4> at slice index 0 and nowhere else
        n = 16
        buf = cosine_buffer(n, cycles=4)
        window = make_window(WindowKind.RECTANGULAR, 1)
        piece = scd_slice(dft(buf), 8.0, window, 1.0 / 16.0)
        scale = 16.0 / 15.0
        assert piece.scale == pytest.approx(scale, rel=1e-15)
        want_peak = scale * (n / 2) ** 2
        assert abs(piece.values[0] - want_peak) < 1e-9 * want_peak
        rest = np.abs(piece.values[1:])
        assert np.all(rest < 1e-9 * want_peak)

    def test_alpha_zero_is_smoothed_periodogram(self):
        buf = white_buffer(64, seed=5, rate=64.0)
        window = make_window(WindowKind.RECTANGULAR, 1)
        piece = scd_slice(dft(buf), 0.0, window, 1.0 / 64.0)
        want = piece.scale * np.abs(np.fft.fft(buf.samples)) ** 2
        assert rel_err(piece.values, want) < 1e-12
        assert float(np.max(np.abs(piece.values.imag))) < 1e-12 * float(
            np.max(piece.values.real))

    def test_input_scaling_is_exactly_quadratic(self):
        # doubling the samples multiplies every value by exactly 4.0:
        # power-of-two scaling commutes with each FFT rounding step
        buf = white_buffer(64, seed=9, rate=64.0)
        doubled = SampleBuffer(2.0 * buf.samples, 64.0)
        window = make_window(WindowKind.HAMMING, 5)
        one = scd_slice(dft(buf), 6.0, window, 1.0 / 64.0)
        four = scd_slice(dft(doubled), 6.0, window, 1.0 / 64.0)
        assert np.array_equal(four.values, 4.0 * one.values)

    def test_negated_alpha_conjugates_the_slice(self):
        buf = white_buffer(32, seed=3, rate=32.0)
        window = make_window(WindowKind.HAMMING, 7)
        plus = scd_slice(dft(buf), 10.0, window, 1.0 / 32.0)
        minus = scd_slice(dft(buf), -10.0, window, 1.0 / 32.0)
        assert rel_err(minus.values, np.conj(plus.values)) < 1e-12

    def test_shift_beyond_band_overlap_gives_zeros(self):
        # bins +-shift only overlap the band for |shift| <= (n-1)/2;
        # beyond that every product term is out of band
        buf = white_buffer(16, seed=4, rate=16.0)
        window = make_window(WindowKind.RECTANGULAR, 3)
        piece = scd_slice(dft(buf), 30.0, window, 1.0 / 16.0)
        assert np.all(piece.values == 0.0)

    def test_window_kind_changes_values(self):
        buf = white_buffer(64, seed=2, rate=64.0)
        ham = scd_slice(dft(buf), 6.0, make_window(WindowKind.HAMMING, 9), 1.0 / 64.0)
        rect = scd_slice(dft(buf), 6.0, make_window(WindowKind.RECTANGULAR, 9), 1.0 / 64.0)
        assert not np.array_equal(ham.values, rect.values)

    def test_window_must_fit_transform(self):
        buf = white_buffer(8, seed=0)
        window = make_window(WindowKind.RECTANGULAR, 9)
        with pytest.raises(ConfigurationError):
            scd_slice(dft(buf), 0.0, window, 1.0)
        with pytest.raises(ConfigurationError):
            scd_slice_naive(buf, 0.0, window)

    def test_bad_sample_period(self):
        buf = white_buffer(8, seed=0)
        with pytest.raises(ConfigurationError):
            scd_slice(dft(buf), 0.0, make_window(WindowKind.RECTANGULAR, 1), 0.0)

    def test_slice_metadata(self):
        buf = white_buffer(32, seed=1, rate=32.0)
        piece = scd_slice(dft(buf), 6.0, make_window(WindowKind.HAMMING, 3), 1.0 / 32.0)
        assert piece.n == 32
        assert piece.alpha_requested_hz == 6.0
        assert piece.alpha_effective_hz == 6.0
        assert piece.scale == pytest.approx(32.0 / 31.0, rel=1e-15)
        with pytest.raises(ValueError):
            piece.values[0] = 0.0


class TestCycleProfile:
    def test_tone_argmax_is_grid_exact(self):
        # alpha = 0 always carries the (stationary) periodogram peak, so
        # feature location is defined as the argmax over alpha > 0
        n = 256
        buf = cosine_buffer(n, cycles=32)
        alphas = np.arange(-120.0, 121.0, 8.0)
        profile = cycle_profile(buf, alphas, make_window(WindowKind.HAMMING, 5))
        positive = profile.alphas_hz > 0.0
        best = np.argmax(profile.magnitudes[positive])
        assert profile.alphas_hz[positive][best] == 64.0

    def test_off_feature_alphas_are_suppressed(self):
        n = 256
        buf = cosine_buffer(n, cycles=32)
        alphas = np.arange(8.0, 120.0, 8.0)
        profile = cycle_profile(buf, alphas, make_window(WindowKind.HAMMING, 5))
        peak = profile.magnitudes[profile.alphas_hz == 64.0][0]
        off = profile.magnitudes[profile.alphas_hz != 64.0]
        assert np.all(off < 1e-6 * peak)

    def test_symmetric_in_alpha(self):
        buf = white_buffer(128, seed=12, rate=128.0)
        alphas = np.array([-40.0, -16.0, 16.0, 40.0])
        profile = cycle_profile(buf, alphas, make_window(WindowKind.HAMMING, 9))
        assert profile.magnitudes[2] == pytest.approx(profile.magnitudes[1], rel=1e-12)
        assert profile.magnitudes[3] == pytest.approx(profile.magnitudes[0], rel=1e-12)

    def test_alpha_must_stay_inside_twice_nyquist(self):
        buf = white_buffer(32, seed=0, rate=32.0)
        window = make_window(WindowKind.RECTANGULAR, 3)
        with pytest.raises(ConfigurationError):
            cycle_profile(buf, [32.0], window)
        cycle_profile(buf, [31.9], window)

    def test_empty_grid_rejected(self):
        buf = white_buffer(32, seed=0, rate=32.0)
        with pytest.raises(ConfigurationError):
            cycle_profile(buf, [], make_window(WindowKind.RECTANGULAR, 3))


class TestProfileCsv:
    def test_format_and_full_precision(self):
        profile = CycleProfile(np.array([0.0, 0.1]), np.array([1.5, 2.0 / 3.0]))
        out = io.StringIO()
        write_profile_csv(profile, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == "alpha_hz,i_alpha"
        assert lines[1] == "0.0,1.5"
        assert lines[2] == f"{0.1!r},{2.0 / 3.0!r}"

    def test_round_trip_precision(self):
        rng = np.random.default_rng(6)
        profile = CycleProfile(rng.normal(size=5), np.abs(rng.normal(size=5)))
        out = io.StringIO()
        write_profile_csv(profile, out)
        rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
        back_alpha = np.array([float(a) for a, _ in rows])
        back_mag = np.array([float(m) for _, m in rows])
        assert np.array_equal(back_alpha, profile.alphas_hz)
        assert np.array_equal(back_mag, profile.magnitudes)


class TestSpectrumType:
    def test_length_must_match_n(self):
        with pytest.raises(ConfigurationError):
            Spectrum(np.ones(4, dtype=complex), 5, 1.0)

    def test_resolution_positive(self):
        with pytest.raises(ConfigurationError):
            Spectrum(np.ones(4, dtype=complex), 4, 0.0)

    def test_bins_read_only(self):
        spec = Spectrum(np.ones(4, dtype=complex), 4, 1.0)
        with pytest.raises(ValueError):
            spec.bins[0] = 0.0


class TestScdSliceType:
    def test_scale_positive(self):
        with pytest.raises(ConfigurationError):
            ScdSlice(np.ones(4, dtype=complex), 0.0, 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ScdSlice(np.array([], dtype=complex), 0.0, 0.0, 1.0)


class TestCycleProfileType:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            CycleProfile(np.zeros(3), np.zeros(2))

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ConfigurationError):
            CycleProfile(np.zeros(2), np.array([1.0, -0.5]))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_magnitude_rejected(self, value):
        with pytest.raises(ConfigurationError):
            CycleProfile(np.zeros(2), np.array([1.0, value]))
