"""Waveform generator and channel tests."""

import math

import numpy as np
import pytest

from cyclosense import (ChannelSpec, ConfigurationError, ModulationKind,
                        ModulationSpec, SampleBuffer, add_awgn, generate_am,
                        generate_bpsk, generate_signal, noise_only,
                        read_signal_file, write_signal_file)


def am_spec(**kwargs):
    base = dict(kind=ModulationKind.AM, carrier_hz=1e6, bandwidth_hz=10e3)
    base.update(kwargs)
    return ModulationSpec(**base)


def bpsk_spec(**kwargs):
    base = dict(kind=ModulationKind.BPSK, carrier_hz=1e6, bandwidth_hz=10e3,
                symbol_rate_hz=10e3)
    base.update(kwargs)
    return ModulationSpec(**base)


class TestSampleBuffer:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            SampleBuffer(np.array([]), 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ConfigurationError):
            SampleBuffer(np.array([1.0, np.nan]), 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            SampleBuffer(np.ones(4), 0.0)

    def test_samples_are_immutable(self):
        buf = SampleBuffer(np.ones(4), 1.0)
        with pytest.raises(ValueError):
            buf.samples[0] = 2.0

    def test_owns_a_copy(self):
        src = np.ones(4)
        buf = SampleBuffer(src, 1.0)
        src[0] = 99.0
        assert buf.samples[0] == 1.0


class TestGenerateAm:
    def test_same_seed_bit_identical(self):
        a = generate_am(am_spec(), 4096, 3e6, seed=11)
        b = generate_am(am_spec(), 4096, 3e6, seed=11)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        a = generate_am(am_spec(), 4096, 3e6, seed=11)
        b = generate_am(am_spec(), 4096, 3e6, seed=12)
        assert not np.array_equal(a.samples, b.samples)

    def test_unit_average_power(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=5)
        assert abs(buf.average_power - 1.0) < 1e-12

    def test_default_buffer_duration(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=0)
        assert len(buf) == 4096
        assert buf.duration_s == 4096 / 3e6
        assert round(buf.duration_s * 1e3, 3) == 1.365

    def test_pure_carrier_spectral_placement(self):
        # mod index 0 with a bin-aligned carrier leaves only the two
        # carrier bins in the spectrum
        n = 4096
        rate = 3e6
        carrier_bin = 512
        spec = am_spec(carrier_hz=carrier_bin * rate / n, am_mod_index=0.0)
        buf = generate_am(spec, n, rate, seed=1)
        mags = np.abs(np.fft.fft(buf.samples))
        assert mags[carrier_bin] > n / 4
        assert mags[n - carrier_bin] > n / 4
        mags = mags.copy()
        mags[carrier_bin] = 0.0
        mags[n - carrier_bin] = 0.0
        assert np.all(mags < 1e-9)

    def test_mod_index_zero_is_normalized_cosine(self):
        n = 1024
        rate = 1e6
        spec = am_spec(carrier_hz=2e5, am_mod_index=0.0)
        buf = generate_am(spec, n, rate, seed=9)
        k = np.arange(n)
        raw = np.cos(2.0 * np.pi * (2e5 / rate) * k)
        expected = raw / math.sqrt(float(np.mean(np.square(raw))))
        assert np.array_equal(buf.samples, expected)

    def test_message_band_limited(self):
        # spectral support confined to carrier +- bandwidth (brick wall)
        n = 4096
        rate = 3e6
        spec = am_spec(carrier_hz=512 * rate / n, bandwidth_hz=20e3)
        buf = generate_am(spec, n, rate, seed=3)
        mags = np.abs(np.fft.fft(buf.samples))
        freqs = np.fft.fftfreq(n, 1.0 / rate)
        in_band = (np.abs(np.abs(freqs) - 512 * rate / n) <= 20e3 + rate / n)
        assert np.all(mags[~in_band] < 1e-9 * mags.max())

    def test_carrier_at_nyquist_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_am(am_spec(carrier_hz=1.5e6), 4096, 3e6, seed=0)

    def test_zero_samples_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_am(am_spec(), 0, 3e6, seed=0)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_am(bpsk_spec(), 4096, 3e6, seed=0)

    def test_bandwidth_below_resolution_rejected(self):
        # brick wall at 10 Hz on a 732 Hz grid leaves no message bins
        with pytest.raises(ConfigurationError):
            generate_am(am_spec(bandwidth_hz=10.0), 4096, 3e6, seed=0)


class TestModulationSpec:
    def test_bandwidth_must_be_below_carrier(self):
        with pytest.raises(ConfigurationError):
            am_spec(bandwidth_hz=2e6)

    def test_mod_index_range(self):
        with pytest.raises(ConfigurationError):
            am_spec(am_mod_index=1.5)
        with pytest.raises(ConfigurationError):
            am_spec(am_mod_index=-0.1)
        am_spec(am_mod_index=0.0)
        am_spec(am_mod_index=1.0)


class TestGenerateBpsk:
    def test_same_seed_bit_identical(self):
        a = generate_bpsk(bpsk_spec(), 4096, 3e6, seed=2)
        b = generate_bpsk(bpsk_spec(), 4096, 3e6, seed=2)
        assert np.array_equal(a.samples, b.samples)

    def test_unit_average_power(self):
        buf = generate_bpsk(bpsk_spec(), 4096, 3e6, seed=8)
        assert abs(buf.average_power - 1.0) < 1e-12

    def test_single_symbol_is_carrier_up_to_sign(self):
        n = 2048
        rate = 1e6
        spec = bpsk_spec(carrier_hz=2e5, symbol_rate_hz=rate / (2 * n))
        carrier_spec = am_spec(carrier_hz=2e5, am_mod_index=0.0)
        for seed in range(6):
            bpsk = generate_bpsk(spec, n, rate, seed=seed)
            carrier = generate_am(carrier_spec, n, rate, seed=seed)
            matches = (np.array_equal(bpsk.samples, carrier.samples)
                       or np.array_equal(bpsk.samples, -carrier.samples))
            assert matches

    def test_symbols_are_piecewise_constant(self):
        n = 4000
        rate = 1e6
        spec = bpsk_spec(carrier_hz=2.5e5, symbol_rate_hz=1e3)
        buf = generate_bpsk(spec, n, rate, seed=4)
        k = np.arange(n)
        carrier = np.cos(2.0 * np.pi * 0.25 * k)
        keep = np.abs(carrier) > 0.5
        signs = np.sign(buf.samples[keep] * carrier[keep])
        boundaries = (k[keep] * 1e3 / rate).astype(int)
        for symbol in np.unique(boundaries):
            assert len(set(signs[boundaries == symbol])) == 1

    def test_symbol_rate_at_sample_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_bpsk(bpsk_spec(symbol_rate_hz=3e6), 4096, 3e6, seed=0)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_bpsk(am_spec(), 4096, 3e6, seed=0)


class TestGenerateSignal:
    @pytest.mark.parametrize("spec, generator", [(am_spec(), generate_am),
                                                 (bpsk_spec(), generate_bpsk)])
    def test_dispatches_on_kind(self, spec, generator):
        assert np.array_equal(generate_signal(spec, 1024, 3e6, seed=3).samples,
                              generator(spec, 1024, 3e6, seed=3).samples)


class TestAddAwgn:
    @pytest.mark.parametrize("snr_db", [3000.0, -3000.0])
    def test_snr_limit_keeps_noise_finite(self, snr_db):
        buf = generate_am(am_spec(), 1024, 3e6, seed=1)
        out = add_awgn(buf, ChannelSpec(snr_db=snr_db, seed=5))
        assert np.all(np.isfinite(out.samples))

    @pytest.mark.parametrize("snr_db", [3000.5, -3e6, math.nan])
    def test_snr_beyond_limit_rejected(self, snr_db):
        with pytest.raises(ConfigurationError):
            ChannelSpec(snr_db=snr_db, seed=5)

    def test_zero_db_noise_variance(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=1)
        out = add_awgn(buf, ChannelSpec(snr_db=0.0, seed=77))
        noise = out.samples - buf.samples
        measured = float(np.var(noise))
        # sample variance of N Gaussians has relative spread sqrt(2/(N-1))
        spread = math.sqrt(2.0 / (len(buf) - 1))
        assert abs(measured - 1.0) < 5 * spread

    def test_target_variance_tracks_snr(self):
        buf = generate_am(am_spec(), 4096, 3e6, seed=1)
        snr_db = -12.0
        out = add_awgn(buf, ChannelSpec(snr_db=snr_db, seed=5))
        noise = out.samples - buf.samples
        target = 10.0 ** (-snr_db / 10.0)
        spread = target * math.sqrt(2.0 / (len(buf) - 1))
        assert abs(float(np.var(noise)) - target) < 5 * spread

    def test_infinite_snr_is_identity(self):
        buf = generate_am(am_spec(), 1024, 3e6, seed=1)
        out = add_awgn(buf, ChannelSpec(snr_db=math.inf, seed=5))
        assert np.array_equal(out.samples, buf.samples)

    def test_snr_invariant_under_input_scaling(self):
        # scaling the signal by 2 scales the same-seed noise by exactly 2
        buf = generate_am(am_spec(), 1024, 3e6, seed=1)
        scaled = SampleBuffer(2.0 * buf.samples, buf.sample_rate_hz)
        channel = ChannelSpec(snr_db=3.0, seed=21)
        noise1 = add_awgn(buf, channel).samples - buf.samples
        noise2 = add_awgn(scaled, channel).samples - scaled.samples
        assert np.array_equal(noise2, 2.0 * noise1)

    def test_same_seed_reproducible(self):
        buf = generate_am(am_spec(), 512, 3e6, seed=1)
        a = add_awgn(buf, ChannelSpec(snr_db=5.0, seed=9))
        b = add_awgn(buf, ChannelSpec(snr_db=5.0, seed=9))
        assert np.array_equal(a.samples, b.samples)


class TestNoiseOnly:
    def test_mean_bound(self):
        buf = noise_only(4096, 1.0, seed=3)
        assert abs(float(np.mean(buf.samples))) < 5.0 / math.sqrt(4096)

    def test_variance_bound(self):
        variance = 2.5
        buf = noise_only(4096, variance, seed=3)
        spread = variance * math.sqrt(2.0 / 4095)
        assert abs(float(np.var(buf.samples)) - variance) < 5 * spread

    def test_deterministic(self):
        assert np.array_equal(noise_only(256, 1.0, seed=1).samples,
                              noise_only(256, 1.0, seed=1).samples)

    def test_rate_passthrough(self):
        assert noise_only(16, 1.0, seed=0, sample_rate_hz=3e6).sample_rate_hz == 3e6

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_only(16, 0.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            noise_only(16, 1.0, seed=-1)


class TestSignalFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = am_spec(carrier_hz=30e3, bandwidth_hz=12e3)
        buf = generate_am(spec, 257, 100e3, seed=13)
        path = tmp_path / "signal.txt"
        write_signal_file(buf, path)
        back = read_signal_file(path)
        assert back.sample_rate_hz == buf.sample_rate_hz
        assert np.array_equal(back.samples, buf.samples)

    def test_header_line_format(self, tmp_path):
        path = tmp_path / "signal.txt"
        write_signal_file(SampleBuffer([1.0, -2.0], 48000.0), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# sample_rate_hz=48000.0"
        assert lines[1:] == ["1.0", "-2.0"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigurationError):
            read_signal_file(path)

    def test_bad_sample_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# sample_rate_hz=1000.0\n1.0\npotato\n")
        with pytest.raises(ConfigurationError):
            read_signal_file(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_signal_file(tmp_path / "absent.txt")
